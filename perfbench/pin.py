"""Record the pinned answers in pinned.json from one full pass per workload.

    python3 perfbench/pin.py

Run once when a workload's command list changes.  The pass runs on two
seeds, and the pins are written only if both agree (every pin is an
isomorphism invariant) and match the values stated in STATED.
"""

from __future__ import annotations

import json
import random
import re
import shutil
import sys
from pathlib import Path

import run

# Values stated by the tests and README, and the open defect NOTES.md records;
# the pins must reproduce them.
STATED = {
    ("theorem-suite", "selftest"): {"exit": 0, "ok": True, "checks": 9, "passed": 9},
    ("theorem-suite", "classify-ext", "Z2,Z2", "total_extensions"): 12,
    ("theorem-suite", "classify-ext", "Z2,Z2", "total_classes"): 4,
    ("theorem-suite", "classify-ext", "Z2,Z2", "class_sizes"): [3, 3, 3, 3],
    ("theorem-suite", "example", "3", "exit"): 2,
    ("theorem-suite", "example", "4", "exit"): 2,
    ("theorem-suite", "example", "5", "exit"): 2,
    ("theorem-suite", "example", "5", "fields", "valid_triples"): 16,
    ("theorem-suite", "example", "5", "fields", "identity_mu_count"): 8,
    ("wells-sweep", "Z2,D4", "triples"): 96,
    ("wells-sweep", "Z2,D4", "known_defects"): 24,
}


def observe(bf, seed: int) -> dict:
    from workloads import WORKLOADS, Inputs

    out = {}
    workdir = run.OUT / f"pin-{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        for name, cls in WORKLOADS.items():
            sub = workdir / name
            sub.mkdir(parents=True)
            workload = cls(Inputs(sub, random.Random(f"{name}:{seed}")))
            workload.run_pass(run.Client(bf.cli))
            out[name] = workload.observed
            print(f"seed {seed}: {name} observed", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return out


def main() -> int:
    bf = run._import_braceforge()
    pins = observe(bf, 1)
    if observe(bf, 2) != pins:
        sys.exit("error: observations differ between seeds 1 and 2")
    for path, want in STATED.items():
        got = pins
        for k in path:
            got = got[k]
        if got != want:
            sys.exit(f"error: {'/'.join(path)} is {got!r}, stated {want!r}")
    if not any(row[0][0] == 128 for row in pins["cohomology-sweep"]["V,Z2"]):
        sys.exit("error: no V-by-Z2 action has |H^2| = 128")
    text = json.dumps(pins, indent=1)
    text = re.sub(r"\[\s+([^\[\]{}]*?)\s+\]", lambda m: "[" + " ".join(m.group(1).split()) + "]", text)
    Path(__file__).with_name("pinned.json").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
