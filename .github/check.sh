#!/usr/bin/env bash
# One command check of the tier1 workflow: run a braceforge command under a
# timeout, print the command, its exit status and its elapsed seconds, and
# exit 1 unless the status is the one wanted, the JSON report on stdout
# satisfies the condition and neither stdout nor stderr holds a traceback.
#
# usage: bash .github/check.sh SECONDS ENTRY WANT COND COMMAND [ARG...]
#   SECONDS  the timeout of the command
#   ENTRY    how braceforge is started: "python -m braceforge.cli", or
#            "braceforge" for the installed console script
#   WANT     the exit status wanted
#   COND     a Python expression on the report r that must be true
# The report is left in out.json and stderr in err.txt.
seconds=$1; entry=$2; want=$3; cond=$4; shift 4
start=$(date +%s.%N)
# $entry is split into words on purpose
timeout "$seconds" $entry "$@" >out.json 2>err.txt
status=$?
elapsed=$(awk -v a="$start" -v b="$(date +%s.%N)" 'BEGIN { printf "%.2f", b - a }')
echo "$* -> exit status $status in $elapsed s"
test "$status" -eq "$want" || exit 1
python -c "import json, sys; r = json.load(open('out.json')); sys.exit(0 if $cond else 1)" || exit 1
if grep -q Traceback out.json err.txt; then cat err.txt; exit 1; fi
