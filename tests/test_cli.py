"""Command-line behaviour: exit codes, JSON report shape on stdout,
human lines on stderr, file round trips, and determinism."""

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import braceforge
from braceforge import catalog, cli, cohomology, extensions, split
from braceforge.braces import trivial_brace
from braceforge.cli import main
from braceforge.cohomology import h2N
from braceforge.errors import InternalInconsistency
from braceforge.groups import cyclic_group, dihedral_group, direct_product_group, klein_group

IDENTITY_TRIPLE_2x2 = {"nu": [[0, 1], [0, 1]], "mu": [[0, 1], [0, 1]],
                       "sigma": [[0, 1], [0, 1]]}
NEGATION_TRIPLE_2x3 = {"nu": [[0, 1, 2], [0, 2, 1]], "mu": [[0, 1, 2], [0, 2, 1]],
                       "sigma": [[0, 1, 2], [0, 2, 1]]}
ZERO_TRIPLET_2x2 = {"chi": IDENTITY_TRIPLE_2x2,
                    "beta": [[0, 0], [0, 0]], "tau": [[0, 0], [0, 0]]}
AXIOM_FAIL_BRACE = {
    "n": 4,
    "add": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],
    "circ": [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]],
}


def _write(tmp_path, name, payload):
    p = tmp_path / name
    p.write_text(catalog.dumps_payload(payload), encoding="utf-8")
    return str(p)


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report["schema"] == "braceforge.report/1"
    assert report["command"] == next(a for a in argv if not a.startswith("-"))
    return code, report, captured.err


def test_selftest_passes_and_is_deterministic(capsys):
    code = main(["selftest"])
    out1 = capsys.readouterr()
    assert code == 0
    report = json.loads(out1.out)
    assert report["ok"] is True
    assert len(report["checks"]) == 9
    assert all(c["ok"] for c in report["checks"])
    assert out1.err.count("PASS") == 9
    code = main(["selftest"])
    out2 = capsys.readouterr()
    assert code == 0 and out2.out == out1.out


def test_example_exit_codes(capsys):
    code, report, err = _run(capsys, ["example", "2"])
    assert code == 0 and report["order"] == 24
    assert report["erratum_candidates"] == []

    for which, expected_errata in ((3, 1), (4, 1), (5, 2)):
        code = main(["example", str(which)])
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 2
        assert len(report["erratum_candidates"]) == expected_errata
        assert "erratum candidate:" in captured.err

    for argv in (["example", "7"], ["example", "2", "--p", "1"],
                 ["example", "3", "--n", "3"]):
        code = main(argv)
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert code == 4 and report["error"] == "input"


def test_missing_file_is_input_error(capsys):
    code = main(["validate-group", "/nonexistent/g.json"])
    report = json.loads(capsys.readouterr().out)
    assert code == 4 and report["error"] == "input"


def test_law_failure_reports_witness(tmp_path, capsys):
    f = _write(tmp_path, "bad.json", AXIOM_FAIL_BRACE)
    code = main(["validate", f])
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    assert report["error"] == "assertion"
    assert report["witness"] == {"a": 1, "b": 1, "c": 1}

    # an out-of-range entry in a table whose identity sits away from index 0
    # fails the closure check instead of being relabeled
    for cell in (-2, 7):
        table = [[cell, 2, 0], [2, 0, 1], [0, 1, 2]]
        g = _write(tmp_path, "g.json", {"n": 3, "table": table})
        code = main(["validate-group", g])
        report = json.loads(capsys.readouterr().out)
        assert code == 2 and report["error"] == "assertion"
        assert report["witness"] == {"a": 0, "b": 0}
    shifted = [[2, 0, 1], [0, 1, 2], [1, 2, 0]]
    bad_circ = [[2, 0, 1], [0, 1, 2], [1, 5, 0]]
    b = _write(tmp_path, "b.json", {"n": 3, "add": shifted, "circ": bad_circ})
    code = main(["validate", b])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["error"] == "assertion"
    assert report["witness"] == {"a": 2, "b": 1, "table": "circ"}


def test_validate_group_info(tmp_path, capsys, Z2, flip4):
    g = _write(tmp_path, "z6.json", catalog.group_payload(cyclic_group(6)))
    code = main(["validate-group", g])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["description"] == "Z6" and report["abelian"]

    b = _write(tmp_path, "z2.json", catalog.brace_payload(Z2))
    code = main(["validate", b])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["trivial"] is True

    fb = _write(tmp_path, "flip4.json", catalog.brace_payload(flip4))
    code = main(["info", fb])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["socle"] == [0, 2] and report["annihilator"] == [0, 2]
    assert report["autb_order"] == 2 and report["trivial"] is False

    # identity away from index 0 is repaired with a warning, not an error
    shifted = {"n": 3, "table": [[2, 0, 1], [0, 1, 2], [1, 2, 0]]}
    sg = _write(tmp_path, "shifted.json", shifted)
    code = main(["validate-group", sg])
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert code == 0 and report["warnings"] and "warning:" in captured.err


def test_semidirect_then_wells_check(tmp_path, capsys, Z2, Z3):
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    t = _write(tmp_path, "t.json", NEGATION_TRIPLE_2x3)
    out = str(tmp_path / "ext.json")
    code = main(["semidirect", h, i, t, "-o", out])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["order"] == 6 and report["full_sweep"] is True
    assert report["add"] == "S3" and report["circ"] == "S3"
    assert report["output"] == out

    code = main(["wells-check", out])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["exact"] and report["psi_bijective"]
    assert report["kernel_rho_order"] == 3 and report["ker_omega_order"] == 2


def _split_identity_file(tmp_path, capsys, H, I, name):
    """semidirect -o of the identity action of H on I; the file's path."""
    h = _write(tmp_path, f"{name}-h.json", catalog.brace_payload(H))
    i = _write(tmp_path, f"{name}-i.json", catalog.brace_payload(I))
    t = _write(tmp_path, f"{name}-t.json", catalog.triple_payload(split.identity_triple(H, I)))
    out = str(tmp_path / f"{name}-ext.json")
    assert main(["semidirect", h, i, t, "-o", out]) == 0
    capsys.readouterr()
    return out


def test_wells_check_above_order_16(tmp_path, capsys):
    # no order bound stops the automorphism searches: |E| = 18, 24 and 32
    Z = lambda n: trivial_brace(cyclic_group(n))
    for H, I in ((Z(3), trivial_brace(dihedral_group(3))),
                 (Z(2), trivial_brace(dihedral_group(6))), (Z(16), Z(2))):
        out = _split_identity_file(tmp_path, capsys, H, I, f"e{H.n * I.n}")
        code, report, err = _run(capsys, ["wells-check", out])
        assert code == 0 and report["exact"] is True, err


def test_wells_check_kernel_automorphism_search_is_budgeted(tmp_path, capsys):
    # Z2 by Z2^5 with the identity action: the search for Autb(Z2^5) =
    # GL(5, 2) has 31 candidate images for each of five generators, 31^5
    # leaves, so the budget stops it before the stabiliser is built
    V32 = trivial_brace(direct_product_group(
        direct_product_group(klein_group(), klein_group()), cyclic_group(2)))
    out = _split_identity_file(tmp_path, capsys, trivial_brace(cyclic_group(2)), V32, "e64")
    start = time.perf_counter()
    code, report, _ = _run(capsys, ["wells-check", out])
    assert time.perf_counter() - start < 10
    assert code == 3 and report["error"] == "budget"
    assert report["message"].startswith("brace_automorphisms: search space 28629151 ")


def test_enumerate_split_kernel_above_order_16(tmp_path, capsys):
    h = _write(tmp_path, "z4.json", catalog.brace_payload(trivial_brace(cyclic_group(4))))
    i = _write(tmp_path, "z20.json", catalog.brace_payload(trivial_brace(cyclic_group(20))))
    code, report, _ = _run(capsys, ["enumerate-split", h, i])
    assert code == 0 and report["count"] == 224


def test_split_products_are_validated_once(tmp_path, capsys, count_calls, Z2, Z3):
    # one compatibility sweep and one product-table build per product, both
    # in `semidirect` and in the worked examples that report the sweep; the
    # triple's verdict decides the product, so `semidirect` validates no
    # extension
    sweeps = count_calls(split._compat_witness)
    products = count_calls(split._product_tables)
    extensions_checked = count_calls(extensions.validate_extension)
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    t = _write(tmp_path, "t.json", NEGATION_TRIPLE_2x3)
    assert main(["semidirect", h, i, t]) == 0
    capsys.readouterr()
    assert (sweeps["calls"], products["calls"], extensions_checked["calls"]) == (1, 1, 0)
    for build in (lambda: catalog.example2(n=2, p=3), catalog.example3,
                  catalog.example1_finite):
        sweeps["calls"] = products["calls"] = 0
        build()
        assert (sweeps["calls"], products["calls"]) == (1, 1)


def test_selftest_classifies_each_pair_once(capsys, count_calls):
    # the bijection and free-and-transitive checks of one Z2-by-Zi pair
    # share one _class_heads result; no class is listed in full
    heads = count_calls(extensions._class_heads)
    listed = count_calls(extensions.ext_classes)
    assert main(["selftest"]) == 0
    capsys.readouterr()
    assert (heads["calls"], listed["calls"]) == (2, 0)


def test_classify_ext_builds_no_labelled_copy(tmp_path, capsys, monkeypatch):
    # classify-ext reads each class's head and size off the orbits: the 12
    # extensions found on the representatives of the 6 orbits of order-6
    # braces that carry any, and one head per class, not the 560 labelled
    # extensions
    built = {"calls": 0}
    init = extensions.Extension.__init__

    def counted(self, *args):
        built["calls"] += 1
        init(self, *args)

    monkeypatch.setattr(extensions.Extension, "__init__", counted)
    z2, z3 = (_write(tmp_path, f"z{n}.json", catalog.brace_payload(trivial_brace(cyclic_group(n))))
              for n in (2, 3))
    code, report, _ = _run(capsys, ["classify-ext", z2, z3])
    assert code == 0
    assert (report["total_extensions"], report["total_classes"]) == (560, 6)
    assert built["calls"] <= 20


def test_selftest_computes_each_h2_once(capsys, monkeypatch):
    # the class-count check hands the H^2 of the identity coupling to the
    # free-and-transitive check of the same pair, so the two checks compute
    # 7 groups, all distinct (9 calls before); the two Wells checks go
    # through the public verify_exact_sequence and its own h2N binding
    seen = []

    def counted(*args):
        seen.append(args)
        return h2N(*args)

    monkeypatch.setattr(cli, "h2N", counted)
    monkeypatch.setattr(cohomology, "h2N", counted)
    assert main(["selftest"]) == 0
    capsys.readouterr()
    assert len(seen) == len(set(seen)) == 7


def test_enumerate_split(tmp_path, capsys, Z2, Z3):
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    code = main(["enumerate-split", h, i])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["count"] == 6 and report["identity_mu_count"] == 2
    assert len(report["triples"]) == 6

    code = main(["--budget", "5", "enumerate-split", h, i])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["error"] == "budget"


def test_build_ext_and_classify(tmp_path, capsys, Z2):
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z2))
    t = _write(tmp_path, "t.json", ZERO_TRIPLET_2x2)
    code = main(["build-ext", h, i, t])
    report = json.loads(capsys.readouterr().out)
    assert code == 0 and report["order"] == 4
    assert "extension" in report  # no -o: payload lands in the report

    code = main(["classify-ext", h, i])
    out1 = capsys.readouterr().out
    report = json.loads(out1)
    assert code == 0
    assert report["coupling_count"] == 1
    assert report["total_extensions"] == 12 and report["total_classes"] == 4
    assert report["couplings"][0]["class_sizes"] == [3, 3, 3, 3]
    code = main(["classify-ext", h, i])
    assert capsys.readouterr().out == out1  # deterministic output


def test_cohomology_command(tmp_path, capsys, Z2, flip4):
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z2))
    chi = _write(tmp_path, "chi.json", IDENTITY_TRIPLE_2x2)
    code = main(["cohomology", h, i, chi])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert (report["z2_order"], report["b2_order"], report["h2_order"],
            report["z1_order"]) == (4, 1, 4, 2)
    assert len(report["h2_representatives"]) == 4

    # non-trivial coefficients are rejected unless --ann restricts them first
    fb = _write(tmp_path, "flip4.json", catalog.brace_payload(flip4))
    chi4 = _write(tmp_path, "chi4.json", {
        "nu": [[0, 1, 2, 3]] * 2, "mu": [[0, 1, 2, 3]] * 2,
        "sigma": [[0, 1, 2, 3]] * 2,
    })
    code = main(["cohomology", h, fb, chi4])
    report = json.loads(capsys.readouterr().out)
    assert code == 2 and report["error"] == "assertion"

    code = main(["cohomology", h, fb, chi4, "--ann"])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["annihilator"] == [0, 2]
    assert (report["z2_order"], report["b2_order"], report["h2_order"],
            report["z1_order"]) == (4, 1, 4, 2)

    # shape mismatch between the triple and the pair of braces
    code = main(["cohomology", h, i, chi4])
    report = json.loads(capsys.readouterr().out)
    assert code == 4 and report["error"] == "input"


def test_cohomology_deep_cell_search(tmp_path, capsys):
    # |H| = 34 gives each component 1089 free cells, one search level each
    from braceforge.split import identity_triple

    Z34 = trivial_brace(cyclic_group(34))
    Z1 = trivial_brace(cyclic_group(1))
    h = _write(tmp_path, "z34.json", catalog.brace_payload(Z34))
    i = _write(tmp_path, "z1.json", catalog.brace_payload(Z1))
    chi = _write(tmp_path, "chi.json", catalog.triple_payload(identity_triple(Z34, Z1)))
    code, report, _ = _run(capsys, ["cohomology", h, i, chi])
    assert code == 0
    assert (report["z2_order"], report["b2_order"], report["h2_order"],
            report["z1_order"]) == (1, 1, 1, 1)


def test_bad_budget_is_input_error(tmp_path, capsys, monkeypatch, Z2, Z3):
    from braceforge.budget import DEFAULT_BUDGET, get_budget
    from braceforge.errors import InputError

    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    for raw in ("lots", "-3", "1.5"):
        monkeypatch.setenv("BRACEFORGE_BUDGET", raw)
        with pytest.raises(InputError):
            get_budget()
        code, report, _ = _run(capsys, ["enumerate-split", h, i])
        assert code == 4 and report["error"] == "input"
    monkeypatch.delenv("BRACEFORGE_BUDGET")
    assert get_budget() == DEFAULT_BUDGET
    code, report, _ = _run(capsys, ["--budget", "-5", "enumerate-split", h, i])
    assert code == 4 and report["error"] == "input"
    # 0 stays a legal budget: every search exceeds it
    assert get_budget(0) == 0
    code = main(["--budget", "0", "enumerate-split", h, i])
    report = json.loads(capsys.readouterr().out)
    assert code == 3 and report["error"] == "budget"


def test_example_lays_out_the_payload_only_for_output(tmp_path, capsys, count_calls):
    argv = ["example", "2", "--n", "4", "--p", "5"]
    rows = count_calls(catalog._rows)
    code = main(argv)
    plain = capsys.readouterr()
    assert code == 0 and rows["calls"] == 0
    out = str(tmp_path / "e.json")
    code = main(argv + ["-o", out])
    written = capsys.readouterr()
    assert code == 0 and rows["calls"] == 2
    # the report is the same apart from the output path, and the file holds
    # the product's canonical payload
    report = json.loads(written.out)
    assert report.pop("output") == out
    assert catalog.dumps_payload(report) == plain.out
    entry = catalog.example(2, n=4, p=5)
    assert Path(out).read_text(encoding="utf-8") == catalog.dumps_payload(
        catalog.brace_payload(entry.build()))


def test_example_honours_budget_flag(capsys):
    # examples 4 and 5 enumerate split triples; --budget caps that search
    # exactly as BRACEFORGE_BUDGET does.  16 admits every automorphism
    # search the two examples make first (at most 16 candidate tuples)
    # and no enumeration (32 and 80 candidate triples)
    for which in ("4", "5"):
        code = main(["--budget", "16", "example", which])
        report = json.loads(capsys.readouterr().out)
        assert code == 3 and report["error"] == "budget"
        assert report["message"].startswith("enumerate_split_triples:")


def test_split_sweep_disagreement_is_reported(tmp_path, capsys, monkeypatch, Z2, Z3):
    # an internal inconsistency inside the compatibility sweep still gives
    # one report and exit 2
    def inconsistent(H, I, *families):
        raise InternalInconsistency("compatibility sweep disagrees with itself")

    monkeypatch.setattr(split, "_compat_on_lifts", inconsistent)
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    code, report, err = _run(capsys, ["enumerate-split", h, i])
    assert code == 2 and report["ok"] is False and report["error"] == "other"
    assert "Traceback" not in err


def test_unreadable_files_are_input_errors(tmp_path, capsys):
    # files that cannot be read or written, or hold text that is not
    # UTF-8 or nests too deeply for the JSON parser, get the input-error
    # contract: exit 4, one report, no traceback
    not_utf8 = tmp_path / "latin1.json"
    not_utf8.write_bytes('{"n": 1, "add": [[0]], "circ": [[0]], "name": "\xe9"}'.encode("latin-1"))
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000, encoding="utf-8")
    cases = [
        ["validate", str(tmp_path)],
        ["validate", str(not_utf8)],
        ["validate", str(deep)],
        ["example", "3", "-o", str(tmp_path)],
    ]
    for argv in cases:
        code, report, err = _run(capsys, argv)
        assert code == 4, argv
        assert report["ok"] is False and report["error"] == "input", argv
        assert "Traceback" not in err


def test_output_to_a_device_keeps_the_exit_code(tmp_path, capsys, Z2, Z3):
    # -o /dev/null is written but not truncated: the command exits as it
    # does without -o
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    t = _write(tmp_path, "t.json", NEGATION_TRIPLE_2x3)
    for argv, want in ((["semidirect", h, i, t], 0), (["example", "3"], 2)):
        assert main(argv) == want
        capsys.readouterr()
        code, report, err = _run(capsys, argv + ["-o", os.devnull])
        assert code == want, argv
        assert report["output"] == os.devnull and "Traceback" not in err


def test_classify_ext_above_order_7_stops_before_allocating(tmp_path):
    # |E| = 12 needs 11! relabelling permutations; the order bound is met
    # before any of them is built, so 1 GiB of address space is plenty
    h = _write(tmp_path, "z2.json", catalog.brace_payload(trivial_brace(cyclic_group(2))))
    i = _write(tmp_path, "s3.json", catalog.brace_payload(trivial_brace(dihedral_group(3))))
    env = dict(os.environ, PYTHONPATH=str(Path(braceforge.__file__).parent.parent))

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "braceforge.cli", "classify-ext", h, i],
        capture_output=True, env=env, preexec_fn=cap, timeout=60,
    )
    elapsed = time.perf_counter() - start
    assert proc.returncode == 3, proc.stderr.decode()
    report = json.loads(proc.stdout)
    assert report["command"] == "classify-ext" and report["error"] == "budget"
    assert "Traceback" not in proc.stderr.decode()
    assert elapsed < 1.0


def test_argument_errors_are_input_reports(capsys):
    # arguments the parser rejects get the contract of any other invalid
    # input: one JSON report on stdout and exit 4; "command" is null when
    # no subcommand was recognised
    cases = [
        (["example", "notanint"], "example"),
        (["wells-check"], "wells-check"),
        (["frobnicate"], None),
        (["--budget", "x", "selftest"], None),
    ]
    for argv, command in cases:
        assert main(argv) == 4
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["schema"] == "braceforge.report/1"
        assert report["command"] == command
        assert report["ok"] is False and report["error"] == "input"
        assert "Traceback" not in captured.err


def test_closed_stdout_keeps_exit_code():
    # a reader that closes the pipe before the report is written, as
    # `braceforge example 5 | head -c 10` does once its bytes are in
    env = dict(os.environ, PYTHONPATH=str(Path(braceforge.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "braceforge.cli", "example", "5"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 2
    assert "Traceback" not in err and "BrokenPipeError" not in err
    assert "example 5" in err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == "braceforge 1.0.0"


def test_parser_is_built_once_per_process(capsys, monkeypatch, count_calls):
    monkeypatch.setattr(cli, "_PARSER", None)
    builds = count_calls(cli.build_parser)
    # the first call's --budget must not carry over to the second
    assert main(["--budget", "1", "example", "5"]) == 3
    assert json.loads(capsys.readouterr().out)["error"] == "budget"
    assert main(["example", "5"]) == 2
    assert json.loads(capsys.readouterr().out)["command"] == "example"
    assert builds["calls"] == 1


# SHA-256 of stdout and the exit code of each theorem-suite command; the
# classify-ext inputs are the brace_payload files of trivial Z2 and Z3
PINNED_REPORTS = {
    "selftest": ("3eee4b48214872d5122a010814763776727ca32407b183c5efc86395c966fcab", 0),
    "classify-ext z2 z3": ("ea5b335b5f426f072edc9d8648c9fa64573a60037cbd67a68f1f7e94c71fc0df", 0),
    "classify-ext z3 z2": ("71444bc14b88763057758dd8e9fb0394c3fe274ae9337d58d4bcaa717ab2ca52", 0),
    "classify-ext z2 z2": ("bb49fa01e6cf300fece6e8c8ff63e8cc572073b85c2b2d013a85da3c486c8a79", 0),
    "example 2": ("663bc0d6642883549cae201bcdd0946ddefbc9a26d77233ae93dc345fe6ba35e", 0),
    "example 3": ("e6f9be9e2e9a400ac9d02a8f6998dad8133fbf7b8fcd7f3d425ff3e9c63f7ba3", 2),
    "example 4": ("ceb1c32732f6a6d3d7308f9ed9b61260e4e13c25577888c5b85494f757d28d3f", 2),
    "example 5": ("fd6499e4cdc6eef72e443033dd62d796e4ab67ac95bdf3dd00e77e57c678ebb0", 2),
    "example 2 --n 4 --p 5":
        ("e5bbbab94d815dc3ac3371d6e0773c49c533ec95c16fe22fcca317d7da16aba1", 0),
}


def test_theorem_suite_reports_are_pinned(tmp_path, capsys):
    files = {f"z{n}": _write(tmp_path, f"z{n}.json",
                             catalog.brace_payload(trivial_brace(cyclic_group(n))))
             for n in (2, 3)}
    got = {}
    for key in PINNED_REPORTS:
        argv = [files.get(word, word) for word in key.split()]
        code = main(argv)
        out = capsys.readouterr().out
        got[key] = (hashlib.sha256(out.encode()).hexdigest(), code)
    assert got == PINNED_REPORTS


def test_unexpected_exception_gives_one_report(capsys, monkeypatch):
    # a fault of the program itself, not of the input or of the mathematics:
    # one "other" report naming the exception type, exit 2, no traceback
    def broken(args):
        raise RuntimeError("stub failure")

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "cmd_selftest", broken)
    assert main(["selftest"]) == 2
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert report == {"schema": "braceforge.report/1", "command": "selftest", "ok": False,
                      "error": "other", "message": "RuntimeError: stub failure"}
    assert "Traceback" not in captured.err
    assert "RuntimeError: stub failure" in captured.err
