"""Command-line front end for building, validating and checking fixtures.

Every command prints a human-readable summary on stderr and a single
JSON report object on stdout (sorted keys, stable formatting), so the
stdout of any invocation can be piped straight into a JSON consumer.
Reports carry a versioned "schema" field.

Exit codes:
    0  every check passed
    2  a mathematical assertion failed (the report carries a witness)
    3  a search space exceeded the configured budget
    4  invalid input: a file that cannot be read or written, text that is
       not UTF-8 JSON, a schema violation, parameters outside an example's
       domain, a budget that is not a non-negative integer, or arguments
       the parser rejects (the report's "command" is null when no
       subcommand was recognised)

Any other exception a command raises (an Exception, not a
KeyboardInterrupt or SystemExit) is reported like an error of the
library: "error": "other", a message that names the exception type,
exit 2 and no traceback.

The environment variable BRACEFORGE_BUDGET caps search-space sizes for
every search of a command (braceforge.budget); --budget overrides it per
invocation.  The command's limit() block also scopes budget.shared, so
the checks of one command, such as selftest's, build each H^2 group and
each classification once.  A reader that closes stdout early does not
change the exit code.  The argument parser is built on the first call to
main and reused by later calls in the same process.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional

from . import __version__
from . import budget as budget_mod
from . import catalog
from .braces import (annihilator, brace_automorphisms, identities_check, lambda_is_hom,
                     socle, trivial_brace, validate_brace)
from .errors import (
    BraceforgeError,
    InputError,
    OrderBoundExceeded,
    SearchBudgetExceeded,
    ValidationError,
)
from .extensions import (
    Extension,
    _class_heads,
    extension_from_triplet,
    extract_triplet,
    zero_triplet,
)
from .cohomology import (ext_bijection_check, h2N, restrict_action,
                         verify_free_transitive)
from .groups import cyclic_group, describe_group, identity_perm
from .split import ActionTriple, enumerate_split_triples, identity_triple, semidirect_product
from .wells import verify_exact_sequence

SCHEMA = "braceforge.report/1"


def _say(*lines: str) -> None:
    for line in lines:
        print(line, file=sys.stderr)


def _emit(command: str, report: dict) -> None:
    body = {"schema": SCHEMA, "command": command}
    body.update(report)
    try:
        print(catalog.dumps_payload(body), end="", flush=True)
    except BrokenPipeError:
        # the reader closed stdout early: point it at the null device, so
        # the flush at exit cannot fail again and the exit code stays the
        # command's own
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _load_brace(path):
    entry = catalog.load(path, kind="brace")
    for w in entry.warnings:
        _say(f"warning: {w}")
    return entry.build()


def _load_triple(path, H, I) -> ActionTriple:
    entry = catalog.load(path, kind="triple")
    t = entry.build()
    if len(t.nu) != H.n:
        raise InputError(
            f"{path}: triple is indexed by {len(t.nu)} elements, but H has {H.n}"
        )
    if len(t.nu[0]) != I.n:
        raise InputError(
            f"{path}: triple permutes {len(t.nu[0])} elements, but I has {I.n}"
        )
    return t


def _write_or_report(payload: dict, out: Optional[str], report: dict, key: str) -> None:
    if out:
        catalog.save(
            catalog.CatalogEntry(name="output", kind=key, payload=payload,
                                 provenance="derived"),
            out,
        )
        report["output"] = out
    else:
        report[key] = payload


# --- commands ----------------------------------------------------------------

def cmd_validate_group(args) -> int:
    entry = catalog.load(args.file, kind="group")
    G = entry.build()
    _say(f"group of order {G.n} validates ({describe_group(G)})",
         *[f"warning: {w}" for w in entry.warnings])
    _emit("validate-group", {
        "ok": True,
        "n": G.n,
        "description": describe_group(G),
        "abelian": G.is_abelian,
        "warnings": list(entry.warnings),
    })
    return 0


def cmd_validate(args) -> int:
    entry = catalog.load(args.file, kind="brace")
    B = entry.build()
    _say(f"brace of order {B.n} validates "
         f"(add {describe_group(B.add)}, circ {describe_group(B.circ)})",
         *[f"warning: {w}" for w in entry.warnings])
    _emit("validate", {
        "ok": True,
        "n": B.n,
        "add": describe_group(B.add),
        "circ": describe_group(B.circ),
        "trivial": B.is_trivial,
        "warnings": list(entry.warnings),
    })
    return 0


def cmd_info(args) -> int:
    entry = catalog.load(args.file, kind="brace")
    B = entry.build()
    soc = socle(B)
    ann = annihilator(B)
    autb = brace_automorphisms(B)
    _say(
        f"brace of order {B.n}: add {describe_group(B.add)}, "
        f"circ {describe_group(B.circ)}",
        f"|Soc| = {len(soc)}  |Ann| = {len(ann)}  |Autb| = {autb.order}",
    )
    _emit("info", {
        "n": B.n,
        "add": describe_group(B.add),
        "circ": describe_group(B.circ),
        "trivial": B.is_trivial,
        "socle_order": len(soc),
        "socle": list(soc),
        "annihilator_order": len(ann),
        "annihilator": list(ann),
        "autb_order": autb.order,
        "warnings": list(entry.warnings),
    })
    return 0


def cmd_semidirect(args) -> int:
    H = _load_brace(args.H)
    I = _load_brace(args.I)
    t = _load_triple(args.triple, H, I)
    E = semidirect_product(H, I, t)
    # the split inclusion and projection form an extension by construction
    ext = Extension(E, H, I, range(I.n), [x // I.n for x in range(E.n)])
    payload = catalog.extension_payload(ext)
    report = {
        "ok": True,
        "order": E.n,
        "full_sweep": True,
        "add": describe_group(E.add),
        "circ": describe_group(E.circ),
    }
    _write_or_report(payload, args.output, report, "extension")
    _say(f"split product of order {E.n} validates "
         f"(add {report['add']}, circ {report['circ']})"
         + (f"; wrote {args.output}" if args.output else ""))
    _emit("semidirect", report)
    return 0


def cmd_enumerate_split(args) -> int:
    H = _load_brace(args.H)
    I = _load_brace(args.I)
    triples = enumerate_split_triples(H, I)
    idfam = tuple(identity_perm(I.n) for _ in range(H.n))
    mu_id = sum(1 for t in triples if t.mu == idfam)
    _say(f"{len(triples)} valid action triples ({mu_id} with identity mu)")
    _emit("enumerate-split", {
        "count": len(triples),
        "identity_mu_count": mu_id,
        "triples": [catalog.triple_payload(t) for t in triples],
    })
    return 0


def cmd_build_ext(args) -> int:
    H = _load_brace(args.H)
    I = _load_brace(args.I)
    entry = catalog.load(args.triplet, kind="triplet")
    t = entry.build()
    if len(t.chi.nu) != H.n or len(t.chi.nu[0]) != I.n:
        raise InputError(
            f"{args.triplet}: triplet shaped for |H| = {len(t.chi.nu)}, "
            f"|I| = {len(t.chi.nu[0])}, got |H| = {H.n}, |I| = {I.n}"
        )
    ext = extension_from_triplet(H, I, t)
    payload = catalog.extension_payload(ext)
    report = {"ok": True, "order": ext.E.n,
              "add": describe_group(ext.E.add), "circ": describe_group(ext.E.circ)}
    _write_or_report(payload, args.output, report, "extension")
    _say(f"extension of order {ext.E.n} built and validated"
         + (f"; wrote {args.output}" if args.output else ""))
    _emit("build-ext", report)
    return 0


def cmd_classify_ext(args) -> int:
    H = _load_brace(args.H)
    I = _load_brace(args.I)
    buckets = _class_heads(H, I)
    couplings = []
    total_ext = 0
    total_classes = 0
    for rep_chi, classes in buckets:
        sizes = sorted(size for _, size in classes)
        total_ext += sum(sizes)
        total_classes += len(classes)
        couplings.append({
            "chi": catalog.triple_payload(rep_chi),
            "class_count": len(classes),
            "class_sizes": sizes,
        })
    _say(f"{total_ext} extensions fall into {total_classes} equivalence classes "
         f"across {len(buckets)} couplings")
    for k, c in enumerate(couplings):
        _say(f"  coupling {k}: {c['class_count']} classes, sizes {c['class_sizes']}")
    _emit("classify-ext", {
        "couplings": couplings,
        "coupling_count": len(buckets),
        "total_extensions": total_ext,
        "total_classes": total_classes,
    })
    return 0


def cmd_cohomology(args) -> int:
    H = _load_brace(args.H)
    I = _load_brace(args.I)
    chi = _load_triple(args.chi, H, I)
    report = {}
    if args.ann:
        I_coeff, chi_coeff, elems = restrict_action(I, chi)
        report["annihilator"] = list(elems)
        _say(f"coefficients restricted to the annihilator: {list(elems)}")
    else:
        I_coeff, chi_coeff = I, chi
    grp = h2N(H, I_coeff, chi_coeff)
    derivations, _ = grp._derivation_rows()
    report.update({
        "z2_order": grp.z2_order,
        "b2_order": grp.b2_order,
        "h2_order": grp.order,
        "z1_order": len(derivations),
        "h2_representatives": [
            {"g": [list(r) for r in p.g], "f": [list(r) for r in p.f]}
            for p in grp.representatives
        ],
        "z1_derivations": derivations.tolist(),
    })
    _say(f"|Z^2| = {report['z2_order']}  |B^2| = {report['b2_order']}  "
         f"|H^2| = {report['h2_order']}  |Z^1| = {report['z1_order']}")
    _emit("cohomology", report)
    return 0


def cmd_wells_check(args) -> int:
    entry = catalog.load(args.file, kind="extension")
    ext = entry.build()
    rep = verify_exact_sequence(ext)
    ok = bool(rep["exact"] and rep["psi_bijective"] and rep["psi_hom"]
              and rep["derivation_law"])
    _say(
        f"|ker rho| = {rep['kernel_rho_order']}  |Z^1| = {rep['z1_order']}  "
        f"|im rho| = {rep['im_rho_order']}  |ker omega| = {rep['ker_omega_order']}  "
        f"|C| = {rep['c_order']}  |H^2| = {rep['h2_order']}",
        f"exact: {rep['exact']}  psi bijective: {rep['psi_bijective']}  "
        f"psi hom: {rep['psi_hom']}  derivation law: {rep['derivation_law']}",
    )
    _emit("wells-check", dict(rep))
    return 0 if ok else 2


def cmd_example(args) -> int:
    # only the flags given: the catalog refuses parameters where none apply
    params = {k: v for k, v in (("n", args.n), ("p", args.p)) if v is not None}
    if args.odd:
        params["odd"] = True
    entry = catalog.example(args.which, **params)
    report = dict(entry.report)
    candidates = report.get("erratum_candidates", [])
    checks = {k: v for k, v in report.items()
              if k not in ("erratum_candidates", "triples")}
    _say(f"example {args.which} ({entry.name}): " + ", ".join(
        f"{k}={v}" for k, v in checks.items() if k != "name"))
    for c in candidates:
        _say(f"erratum candidate: {c['claim']} -- {c['observed']}")
    if args.output:
        catalog.save(entry, args.output)
        report["output"] = args.output
        _say(f"wrote {entry.kind} payload to {args.output}")
    _emit("example", report)
    return 2 if candidates else 0


def cmd_selftest(args) -> int:
    checks = []

    def run(name, fn):
        detail = fn()
        ok = bool(detail.pop("ok"))
        checks.append({"name": name, "ok": ok, **detail})
        _say(f"{'PASS' if ok else 'FAIL'}  {name}"
             + (f"  {detail}" if not ok else ""))

    def axioms():
        fixtures = catalog.axiom_fixtures()
        bad = []
        for name, add, circ in fixtures:
            # the lemmas run on the validated brace, whose groups keep the
            # generating sets their axioms were decided on
            V = validate_brace(add, circ)
            if not lambda_is_hom(V) or not identities_check(V):
                bad.append(name)
        return {"ok": not bad, "fixtures": len(fixtures), "failing": bad}

    def reproduce_closed_forms():
        rep = catalog.example_report(2, n=2, p=3)
        return {"ok": rep["closed_form_add_mismatches"] == 0
                and rep["closed_form_circ_mismatches"] == 0}

    def wells(builder):
        def inner():
            rep = verify_exact_sequence(builder())
            return {"ok": rep["exact"] and rep["psi_bijective"]
                    and rep["psi_hom"] and rep["derivation_law"],
                    "report": {k: v for k, v in rep.items() if k != "omega_table"}}
        return inner

    def class_count(H, I):
        rep = ext_bijection_check(H, I, identity_triple(H, I))
        return {"ok": rep["equal"], "report": rep}

    def free_transitive(H, I):
        rep = verify_free_transitive(H, I)
        return {"ok": rep["free"] and rep["transitive"], "report": rep}

    Z2 = trivial_brace(cyclic_group(2))
    Z3 = trivial_brace(cyclic_group(3))

    def round_trip():
        t = zero_triplet(Z2, Z3)
        ext = extension_from_triplet(Z2, Z3, t)
        return {"ok": extract_triplet(ext) == t}

    run("axiom-and-lemma-sweep", axioms)
    run("closed-form-reproduction", reproduce_closed_forms)
    run("wells-split-z2-z3", wells(catalog.split_z2_z3_extension))
    run("wells-z4-over-z2", wells(catalog.z4_additive_extension))
    # the checks run in main's limit() block, so they share each H^2 group
    # and each pair's classification (budget.shared)
    run("class-count-equals-h2-z2-z2", lambda: class_count(Z2, Z2))
    run("class-count-equals-h2-z2-z3", lambda: class_count(Z2, Z3))
    run("free-action-z2-z2", lambda: free_transitive(Z2, Z2))
    run("free-and-transitive-z2-z3", lambda: free_transitive(Z2, Z3))
    run("triplet-round-trip", round_trip)

    ok = all(c["ok"] for c in checks)
    _say(("all checks passed" if ok else "some checks FAILED"))
    _emit("selftest", {"ok": ok, "checks": checks})
    return 0 if ok else 2


# --- argument parsing ---------------------------------------------------------

class _ArgumentsRejected(InputError):
    def __init__(self, message: str, command: Optional[str]):
        super().__init__(message)
        self.command = command


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose errors raise _ArgumentsRejected, carrying the
    subcommand whose parser rejected the arguments (None for the top-level
    parser), instead of exiting with status 2.  Subparsers are built from
    the same class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        command = self.prog.partition(" ")[2] or None
        raise _ArgumentsRejected(f"{self.prog}: {message}", command)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="braceforge",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"braceforge {__version__}")
    parser.add_argument("--budget", type=int, default=None,
                        help="cap on search-space sizes (overrides BRACEFORGE_BUDGET)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate-group", help="check a group file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate_group)

    p = sub.add_parser("validate", help="check a brace file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("info", help="socle, annihilator and automorphisms of a brace")
    p.add_argument("file")
    p.set_defaults(fn=cmd_info)

    p = sub.add_parser("semidirect", help="build the split product of a triple")
    p.add_argument("H")
    p.add_argument("I")
    p.add_argument("triple")
    p.add_argument("-o", "--output", default=None, help="write the extension here")
    p.set_defaults(fn=cmd_semidirect)

    p = sub.add_parser("enumerate-split", help="all valid action triples for a pair")
    p.add_argument("H")
    p.add_argument("I")
    p.set_defaults(fn=cmd_enumerate_split)

    p = sub.add_parser("build-ext", help="build the extension of a (chi, beta, tau) triplet")
    p.add_argument("H")
    p.add_argument("I")
    p.add_argument("triplet")
    p.add_argument("-o", "--output", default=None, help="write the extension here")
    p.set_defaults(fn=cmd_build_ext)

    p = sub.add_parser("classify-ext", help="equivalence classes of all extensions")
    p.add_argument("H")
    p.add_argument("I")
    p.set_defaults(fn=cmd_classify_ext)

    p = sub.add_parser("cohomology", help="cocycle pairs, coboundaries, quotient, derivations")
    p.add_argument("H")
    p.add_argument("I")
    p.add_argument("chi")
    p.add_argument("--ann", action="store_true",
                   help="restrict coefficients to the annihilator of I first")
    p.set_defaults(fn=cmd_cohomology)

    p = sub.add_parser("wells-check", help="exact-sequence report for an extension")
    p.add_argument("file")
    p.set_defaults(fn=cmd_wells_check)

    p = sub.add_parser("example", help="build a worked example and check it")
    p.add_argument("which", type=int, metavar="N", help="example number, 2..5")
    p.add_argument("--n", type=int, default=None, help="example 2: dihedral parameter (default 2)")
    p.add_argument("--p", type=int, default=None, help="example 2: cyclic order (default 3)")
    p.add_argument("--odd", action="store_true", help="example 2: odd variant")
    p.add_argument("-o", "--output", default=None, help="write the entry payload here")
    p.set_defaults(fn=cmd_example)

    p = sub.add_parser("selftest", help="run the built-in theorem checks")
    p.set_defaults(fn=cmd_selftest)

    return parser


_PARSER: Optional[argparse.ArgumentParser] = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args, extra = _PARSER.parse_known_args(argv)
        if extra:
            raise _ArgumentsRejected(
                f"{_PARSER.prog}: unrecognized arguments: {' '.join(extra)}", args.command)
    except _ArgumentsRejected as exc:
        _say(f"invalid input: {exc}")
        _emit(exc.command, {"ok": False, "error": "input", "message": str(exc)})
        return 4
    try:
        with budget_mod.limit(args.budget):
            return args.fn(args)
    except (SearchBudgetExceeded, OrderBoundExceeded) as exc:
        _say(f"budget exceeded: {exc}")
        _emit(args.command, {"ok": False, "error": "budget", "message": str(exc)})
        return 3
    except (OSError, InputError) as exc:
        _say(f"invalid input: {exc}")
        _emit(args.command, {"ok": False, "error": "input", "message": str(exc)})
        return 4
    except ValidationError as exc:
        _say(f"assertion failed: {exc}")
        _emit(args.command, {
            "ok": False,
            "error": "assertion",
            "message": str(exc),
            "witness": {k: v for k, v in getattr(exc, "witness", {}).items()
                        if isinstance(v, (int, str, bool, list, tuple))},
        })
        return 2
    except BraceforgeError as exc:
        _say(f"error: {exc}")
        _emit(args.command, {"ok": False, "error": "other", "message": str(exc)})
        return 2
    except Exception as exc:
        # last resort: a fault of the program itself still gives one report
        message = f"{type(exc).__name__}: {exc}"
        _say(f"error: {message}")
        _emit(args.command, {"ok": False, "error": "other", "message": message})
        return 2


if __name__ == "__main__":
    sys.exit(main())
