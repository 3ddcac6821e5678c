"""braceforge benchmark: seeded CLI workloads with an outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload theorem-suite --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 32 --trace 1
    python3 perfbench/run.py --selfcheck

One client drives `braceforge.cli.main(argv)` in-process over generated JSON
input files, in a closed loop: each command starts after the previous one
returned and its report was checked.  A run makes round(seconds / nominal
pass time) passes over the workload's command list, at least one; the nominal
pass times were measured when the benchmark was added, so the work per run is
fixed and the run lasts about `--seconds` at that speed.

--trace 0 reports the end-to-end metrics, measured untraced.  --trace 1
makes half the passes untraced and as many traced ones, reports the
per-layer metrics and the tracing overhead, checks that traced and untraced
stdout agree byte for byte, cross-checks the wrapped call count against
cProfile, and writes the reach table.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics; a fuller record
(environment, per-command latencies, reach table) goes to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import io
import json
import os
import pstats
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

REACH_LIMIT_S = 1.0
REACH_ORDERS = range(2, 17)


def _import_braceforge():
    """Import braceforge from this checkout's src/, never from elsewhere."""
    if not (SRC / "braceforge" / "cli.py").is_file():
        sys.exit(f"error: {SRC / 'braceforge'} not found; run from a braceforge checkout")
    sys.path.insert(0, str(SRC))
    import braceforge.cli
    if Path(braceforge.cli.__file__).resolve().parent != (SRC / "braceforge").resolve():
        sys.exit(f"error: braceforge imported from {braceforge.cli.__file__}, not {SRC}")
    return braceforge


# --- the client ------------------------------------------------------------------

class Client:
    """Issues CLI commands one at a time and keeps their latencies and verdicts."""

    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.latencies = []
        self.verdicts = []
        self.record = False          # keep each command's stdout in `outputs`
        self.outputs = []
        self.commands = 0

    def call(self, argv):
        if self.tracer is not None:
            self.tracer.command = self.commands
        self.commands += 1
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = self.cli.main(argv)
            except Exception:
                rc = None
                traceback.print_exc(file=sys.__stderr__)
            self.latencies.append(time.perf_counter() - start)
        text = out.getvalue()
        if self.record:
            self.outputs.append(text)
        try:
            report = json.loads(text)
        except ValueError:
            report = {}
        return rc, report

    def position(self) -> int:
        return len(self.verdicts)

    def verdict(self, v: str) -> None:
        self.verdicts.append(v)

    def overrule(self, first: int, v: str) -> None:
        """A pass-level pin failed: mark every command since `first`."""
        for k in range(first, len(self.verdicts)):
            self.verdicts[k] = v


def run_passes(workload, client, passes: int, between=None):
    """Make `passes` passes; return each pass's wall time.  `between` runs
    before the first pass and after each one, outside the timed region.  A
    client set to record keeps the stdout of the first pass only."""
    walls = []
    for _ in range(passes):
        if between:
            between()
        t = time.perf_counter()
        workload.run_pass(client)
        walls.append(time.perf_counter() - t)
        client.record = False
    if between:
        between()
    return walls


# --- measurements ------------------------------------------------------------------

def measure_setup() -> float:
    """Seconds for a fresh interpreter to import braceforge.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import braceforge.cli"], cwd=ROOT, env=env,
                   check=True, stdin=subprocess.DEVNULL)
    return time.perf_counter() - t


def command_medians(latencies, passes: int) -> list:
    """Each command's median latency over the passes, in command-list order."""
    n = len(latencies) // passes
    return [statistics.median(col) for col in
            zip(*(latencies[k * n:(k + 1) * n] for k in range(passes)))]


def typical_pass(latencies, walls) -> float:
    """One pass's time with each command at its median latency over the passes,
    plus the median time the client spent between commands in a pass.  A burst
    of machine load that slows part of one pass moves this less than it moves
    the median pass wall."""
    n = len(latencies) // len(walls)
    between = [w - sum(latencies[k * n:(k + 1) * n]) for k, w in enumerate(walls)]
    return sum(command_medians(latencies, len(walls))) + statistics.median(between)


def tail(latencies, passes: int):
    """The highest percentile of the latencies pooled over the passes with at
    least ten commands beyond it.

    When a pass has more than ten commands, "ten commands" means ten per pass,
    so the percentile is that of one pass and more passes sharpen its estimate
    rather than move it higher.  Otherwise it means ten samples in all.
    """
    xs = sorted(latencies)
    beyond = 10 * passes if len(xs) // passes > 10 else 10
    rank = len(xs) - beyond if len(xs) > beyond else len(xs)
    return xs[rank - 1], 100.0 * rank / len(xs), len(xs)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment(args) -> dict:
    import numpy
    sha, dirty = None, None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        git = ["git", "-C", str(ROOT)]
        head = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True,
                              env=env, stdin=subprocess.DEVNULL)
        status = subprocess.run(git + ["status", "--porcelain", "--untracked-files=no"],
                                capture_output=True, text=True, env=env,
                                stdin=subprocess.DEVNULL)
        if head.returncode == 0:
            sha, dirty = head.stdout.strip(), bool(status.stdout.strip())
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "git_sha": sha,
        "git_dirty": dirty,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "clients": 1,
        "loop": "closed",
    }


def profile_validate_group_calls(cli, argv) -> int:
    """groups.validate_group calls for one command, counted by cProfile."""
    prof = cProfile.Profile()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        prof.runcall(cli.main, argv)
    stats = pstats.Stats(prof).stats
    return sum(v[1] for (path, _, fn), v in stats.items()
               if fn == "validate_group" and Path(path).name == "groups.py")


class RungTimeout(BaseException):
    """Raised by SIGALRM to abandon a reach-table rung."""


def reach_table(bf, workdir: Path) -> dict:
    """Largest n for which each check on Z_n by Z_2 finishes within the limit.

    Rungs go up from n = 2 and stop at the first one over the limit, which is
    abandoned by an interval timer in this process: no thread or process is
    started.
    """
    from braceforge import catalog
    from braceforge.braces import trivial_brace
    from braceforge.groups import cyclic_group
    from braceforge.split import identity_triple

    client = Client(bf.cli)
    I = trivial_brace(cyclic_group(2))
    ip = workdir / "reach-Z2.json"
    ip.write_text(catalog.dumps_payload(catalog.brace_payload(I)))

    def rung_files(n):
        H = trivial_brace(cyclic_group(n))
        hp, tp = workdir / f"reach-Z{n}.json", workdir / f"reach-id-{n}.json"
        hp.write_text(catalog.dumps_payload(catalog.brace_payload(H)))
        tp.write_text(catalog.dumps_payload(catalog.triple_payload(identity_triple(H, I))))
        return str(hp), str(tp)

    def cohomology_argv(n):
        hp, tp = rung_files(n)
        return ["cohomology", hp, str(ip), tp]

    def wells_argv(n):
        hp, tp = rung_files(n)
        ep = str(workdir / f"reach-ext-{n}.json")
        client.call(["semidirect", hp, str(ip), tp, "-o", ep])
        return ["wells-check", ep]

    def on_alarm(signum, frame):
        raise RungTimeout

    table = {}
    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        for check, make_argv in (("cohomology", cohomology_argv), ("wells-check", wells_argv)):
            rungs, reach = [], 0
            for n in REACH_ORDERS:
                argv = make_argv(n)
                rc = None
                signal.setitimer(signal.ITIMER_REAL, REACH_LIMIT_S)
                try:
                    rc, _ = client.call(argv)
                except RungTimeout:
                    pass
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
                elapsed = client.latencies[-1] if rc is not None else None
                done = rc == 0 and elapsed <= REACH_LIMIT_S
                rungs.append({"n": n, "exit": rc, "seconds": elapsed, "within_limit": done})
                if not done:
                    break
                reach = n
            table[check] = {"reach": reach, "limit_s": REACH_LIMIT_S, "rungs": rungs}
    finally:
        signal.signal(signal.SIGALRM, previous)
    return table


# --- one workload ---------------------------------------------------------------------

def tally(client) -> dict:
    counts = {v: client.verdicts.count(v) for v in ("ok", "known", "bad")}
    return {"attempted": len(client.verdicts), "failed": counts["known"] + counts["bad"],
            "known_defects": counts["known"], "unexpected": counts["bad"]}


def run_workload(bf, name, args, workdir: Path, tiny=False) -> dict:
    from workloads import WORKLOADS, Inputs

    rng = random.Random(f"{name}:{args.seed}")
    sub = workdir / name
    sub.mkdir(parents=True)
    inputs = Inputs(sub, rng)
    workload = WORKLOADS[name](inputs, tiny=tiny)
    rec = {"workload": name, "why": workload.why}
    passes = 1 if tiny else max(1, round(args.seconds / workload.nominal_pass_s))

    if not args.trace:
        client = Client(bf.cli)
        # One setup sample before the first pass and one after each pass, so a
        # burst of machine load hits few of them.
        setup = []
        measure_setup()             # warm the file cache; not counted
        walls = run_passes(workload, client, passes,
                           between=lambda: setup.append(measure_setup()))
        commands = len(client.latencies) // len(walls)
        tail_ms, tail_pct, tail_samples = tail(client.latencies, len(walls))
        counts = tally(client)
        rec.update(counts, passes=len(walls), commands_per_pass=commands, setup_samples_s=setup,
                   pass_walls_s=walls, tail_percentile=tail_pct, tail_samples=tail_samples,
                   latencies_s=client.latencies)
        rec["metrics"] = {
            "wall_s": typical_pass(client.latencies, walls),
            "cmd_p50_ms": 1000 * statistics.median(client.latencies),
            "cmd_tail_ms": 1000 * tail_ms,
            "peak_rss_mb": peak_rss_mb(),
            "check_pass_ratio": 1 - counts["failed"] / counts["attempted"],
        }
        rec["correct"] = counts["unexpected"] == 0
        return rec

    from tracer import Tracer

    # Untraced and traced passes alternate, so a slow spell of the machine
    # falls on both kinds.
    tracer = Tracer()
    plain, traced = Client(bf.cli), Client(bf.cli, tracer)
    plain.record = traced.record = True
    half = max(2, passes // 2)
    walls, traced_walls = [], []
    for _ in range(half):
        walls += run_passes(workload, plain, 1)
        tracer.install()
        try:
            traced_walls += run_passes(workload, traced, 1)
        finally:
            tracer.uninstall()
    identical = traced.outputs == plain.outputs

    # The wrapped count must equal an independent cProfile count.
    z2 = inputs.brace("Z2")
    probe = ["classify-ext", z2, z2]
    profiled = profile_validate_group_calls(bf.cli, probe)
    probe_tracer = Tracer()
    probe_tracer.install()
    try:
        Client(bf.cli, probe_tracer).call(probe)
    finally:
        probe_tracer.uninstall()
    wrapped = probe_tracer.calls[probe_tracer.names.index("groups.validate_group")]

    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{name}-seed{args.seed}.json.gz"
    tracer.dump(spans_path)
    reach = reach_table(bf, sub) if not tiny else None

    traced_wall = typical_pass(traced.latencies, traced_walls)
    plain_wall = typical_pass(plain.latencies, walls)
    counts = tally(plain)
    traced_counts = tally(traced)
    for k in counts:
        counts[k] += traced_counts[k]
    metrics = tracer.metrics(half)
    metrics["trace_overhead_ratio"] = traced_wall / plain_wall
    metrics["trace_coverage_ratio"] = tracer.root_time() / sum(traced_walls)
    metrics["check_failure_ratio"] = counts["failed"] / counts["attempted"]
    rec.update(counts, passes=half, traced_passes=half,
               commands_per_pass=len(plain.latencies) // len(walls),
               pass_walls_s=walls, traced_pass_walls_s=traced_walls,
               stdout_identical=identical, stdout_compared=len(plain.outputs),
               probe={"argv": "classify-ext Z2 Z2", "wrapped_validate_group_calls": wrapped,
                      "cprofile_validate_group_calls": profiled},
               spans=str(spans_path.relative_to(ROOT)), span_count=len(tracer.spans),
               reach=reach, metrics=metrics)
    rec["correct"] = counts["unexpected"] == 0 and identical and wrapped == profiled
    return rec


def unit_of(metric: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_mb", "MB"), ("_s", "s"), (".calls", "count")):
        if metric.endswith(suffix):
            return unit
    return "ratio"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=32.0,
                        help="run length at the speed of the commit that added the "
                             "benchmark; sets the number of passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selfcheck", action="store_true",
                        help="tiny traced pass of every workload against the pins")
    args = parser.parse_args(argv)

    bf = _import_braceforge()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    if args.selfcheck:
        args.trace = 1
        args.workload = "all"
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)} or all")

    env = environment(args)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        records = [run_workload(bf, n, args, workdir, tiny=args.selfcheck) for n in names]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {}
    if not args.trace:
        setup = [x for rec in records for x in rec["setup_samples_s"]]
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    for rec in records:
        prefix = "" if len(records) == 1 else f"{rec['workload']}."
        for k, v in rec["metrics"].items():
            metrics[prefix + k] = {"value": v, "unit": unit_of(k)}

    record = {"environment": env, "workloads": records}
    stem = "selfcheck" if args.selfcheck else f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    for rec in records:
        print(f"# {rec['workload']}: {rec['passes']} passes x {rec['commands_per_pass']} "
              f"commands, {rec['attempted']} checked, {rec['failed']} failed "
              f"({rec['known_defects']} known open defect), correct={rec['correct']}")
        if "tail_percentile" in rec:
            print(f"#   cmd_tail_ms is the p{rec['tail_percentile']:.1f} of "
                  f"{rec['tail_samples']} samples")
        if rec.get("reach"):
            print("#   reach within %.0f s: " % REACH_LIMIT_S + ", ".join(
                f"{k} n={v['reach']}" for k, v in rec["reach"].items()))
    for k, v in metrics.items():
        print(f"{k:55s} {v['value']:>14.6f} {v['unit']}")
    bases = {r["workload"]: {k: r[k] for k in ("passes", "commands_per_pass", "attempted",
                                                "failed", "known_defects", "tail_percentile",
                                                "tail_samples") if k in r}
             for r in records}
    print(json.dumps({"environment": env, "workloads": bases}, sort_keys=True))
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if not args.selfcheck or result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
