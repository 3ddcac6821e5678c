"""The CLI contract under malformed input: seeded payload mutations.

Valid payloads of the five file kinds (group, brace, action triple,
triplet, extension) are mutated at 1 to 3 leaves: out-of-range and
2^63-sized integers, floats, strings, null, bools, empty and nested
lists, dropped, duplicated or swapped entries, shuffled or dropped rows
and dropped keys.  The nine file commands run on them in-process with
--budget, in one child process whose address space is capped, so a
runaway allocation stays inside the child.  Every command must keep the
contract: exit 0, 2, 3 or 4, one JSON report on stdout, no traceback, and
no "error": "other" whose message names a Python builtin exception.

Run as a script with src on PYTHONPATH, this file is the child:
python tests/test_cli_fuzz.py DIR SEED... runs COUNT commands per seed,
writing its input files in DIR, and prints one JSON summary per seed.
"""

import builtins
import contextlib
import copy
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import time
import traceback
from pathlib import Path

SEEDS = (1, 2)
COUNT = 2000                 # commands per seed
BUDGET = "200000"
COMMAND_SECONDS = 10         # alarm per command: a search that outlives it is unbudgeted
ADDRESS_SPACE = 2 << 30      # RLIMIT_AS of the child, in bytes

BUILTIN_EXCEPTIONS = {name for name, obj in vars(builtins).items()
                      if isinstance(obj, type) and issubclass(obj, BaseException)}

# command -> the payload of each file argument: H and I are braces
COMMANDS = {
    "validate-group": ("group",),
    "validate": ("I",),
    "info": ("H",),
    "semidirect": ("H", "I", "triple"),
    "enumerate-split": ("H", "I"),
    "build-ext": ("H", "I", "triplet"),
    "cohomology": ("H", "I", "triple"),
    "wells-check": ("extension",),
    "classify-ext": ("H", "I"),
}

REPLACEMENTS = (-1, 2 ** 63, -(2 ** 63) - 1, 2 ** 64, 0.5, 1.0, "0", "x", None, True, False,
                [], [0], [[0]], {})


class _Timeout(BaseException):
    """Raised by the alarm; not an Exception, so the CLI does not catch it."""


def _bases() -> list:
    """One valid payload of each kind per (H, I) pair, keyed by kind."""
    from braceforge import catalog
    from braceforge.braces import trivial_brace
    from braceforge.extensions import Extension, extract_triplet
    from braceforge.groups import cyclic_group, dihedral_group, klein_group
    from braceforge.split import enumerate_split_triples, semidirect_product

    Z = lambda n: trivial_brace(cyclic_group(n))
    pairs = [(Z(2), Z(3)), (Z(3), Z(2)), (Z(2), Z(2)), (trivial_brace(klein_group()), Z(2)),
             (catalog.example4_acting_brace(), catalog.example4_coefficient_brace()),
             (Z(2), trivial_brace(dihedral_group(3)))]
    bases = []
    for H, I in pairs:
        t = enumerate_split_triples(H, I)[-1]
        E = semidirect_product(H, I, t)
        ext = Extension(E, H, I, range(I.n), [x // I.n for x in range(E.n)])
        bases.append({
            "H": catalog.brace_payload(H), "I": catalog.brace_payload(I),
            "group": catalog.group_payload(H.add), "triple": catalog.triple_payload(t),
            "triplet": catalog.triplet_payload(extract_triplet(ext)),
            "extension": catalog.extension_payload(ext),
        })
    return bases


def _leaves(obj, path=()):
    """The paths of every scalar, empty list and empty object in obj."""
    found = []
    for key, value in (obj.items() if isinstance(obj, dict) else enumerate(obj)):
        if isinstance(value, (dict, list)) and value:
            found += _leaves(value, path + (key,))
        else:
            found.append(path + (key,))
    return found


def _mutate(payload, rng: random.Random):
    """A copy of payload mutated at 1 to 3 leaves."""
    payload = copy.deepcopy(payload)
    for _ in range(rng.randint(1, 3)):
        leaves = _leaves(payload)
        if not leaves:
            break
        path = rng.choice(leaves)
        parent = payload
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        # the table whose row holds the leaf, when there is one
        table = payload
        for k in path[:-2]:
            table = table[k]
        rows = table if len(path) >= 2 and isinstance(table, list) else None
        op = rng.randrange(8)
        if op == 0 and isinstance(parent[key], int) and not isinstance(parent[key], bool):
            parent[key] = parent[key] + rng.choice((-1, 1)) * rng.randint(1, 3)
        elif op == 1 and isinstance(parent, list):
            del parent[key]
        elif op == 2 and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        elif op == 3 and rows is not None:
            rng.shuffle(rows)
        elif op == 4 and rows is not None:
            del rows[path[-2]]
        elif op == 5 and isinstance(payload, dict) and len(path) == 1:
            del payload[key]
        elif op == 7 and isinstance(parent, list):
            other = rng.randrange(len(parent))
            parent[key], parent[other] = parent[other], parent[key]
        else:
            parent[key] = copy.deepcopy(rng.choice(REPLACEMENTS))
    return payload


def _breaks(code, out: str, err: str) -> list:
    """How one command broke the contract, or []."""
    found = []
    if code not in (0, 2, 3, 4):
        found.append(f"exit {code}")
    if "Traceback" in out + err:
        found.append("traceback")
    try:
        report = json.loads(out)
    except ValueError:
        return found + ["stdout is not one JSON document"]
    if not isinstance(report, dict):
        return found + ["stdout is not a JSON object"]
    message = str(report.get("message", ""))
    if report.get("error") == "other" and message.split(":")[0] in BUILTIN_EXCEPTIONS:
        found.append("builtin exception")
    return found


def _on_alarm(signum, frame):
    raise _Timeout(f"no exit within {COMMAND_SECONDS} s")


def child(seed: int, count: int, workdir: Path) -> dict:
    """Run count mutated commands of one seed in-process; the summary."""
    from braceforge.cli import main

    rng = random.Random(seed)
    bases = _bases()
    signal.signal(signal.SIGALRM, _on_alarm)
    exits, failures = {}, []
    for case in range(count):
        command = rng.choice(sorted(COMMANDS))
        kinds = COMMANDS[command]
        base = rng.choice(bases)
        payloads = [base[kind] for kind in kinds]
        target = rng.randrange(len(payloads))
        payloads[target] = _mutate(payloads[target], rng)
        files = []
        for k, payload in enumerate(payloads):
            path = workdir / f"case{k}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            files.append(str(path))
        argv = ["--budget", BUDGET, command, *files]
        out, err = io.StringIO(), io.StringIO()
        signal.alarm(COMMAND_SECONDS)
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
        except (Exception, _Timeout):  # anything escaping main breaks the contract
            code, err = None, io.StringIO(err.getvalue() + traceback.format_exc())
        finally:
            signal.alarm(0)
        exits[str(code)] = exits.get(str(code), 0) + 1
        broken = _breaks(code, out.getvalue(), err.getvalue())
        if broken:
            failures.append({"seed": seed, "case": case, "argv": [command, *kinds],
                             "target": target, "payload": payloads[target], "broken": broken,
                             "stdout": out.getvalue()[-300:], "stderr": err.getvalue()[-600:]})
    return {"seed": seed, "commands": count, "exits": exits, "failures": failures}


def _cap_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (ADDRESS_SPACE, ADDRESS_SPACE))


def test_mutated_payloads_keep_the_cli_contract(tmp_path):
    import braceforge

    src = str(Path(braceforge.__file__).parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, __file__, str(tmp_path), *map(str, SEEDS)],
        capture_output=True, text=True, env=env, preexec_fn=_cap_address_space, timeout=300,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 0, proc.stderr[-2000:]
    summaries = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [s["seed"] for s in summaries] == list(SEEDS)
    assert [f for s in summaries for f in s["failures"]] == []
    # every exit code of the contract occurs on every seed
    assert all(set(s["exits"]) == {"0", "2", "3", "4"} for s in summaries)
    print(f"{len(SEEDS) * COUNT} fuzzed commands in {elapsed:.1f} s: "
          + ", ".join(json.dumps(s["exits"], sort_keys=True) for s in summaries))


if __name__ == "__main__":
    workdir = Path(sys.argv[1])
    for seed in map(int, sys.argv[2:]):
        print(json.dumps(child(seed, COUNT, workdir), sort_keys=True), flush=True)
