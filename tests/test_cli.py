"""Command-line behaviour: exit codes, JSON report shape on stdout,
human lines on stderr, file round trips, and determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import braceforge
from braceforge import catalog, cli, split
from braceforge.cli import main

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
    from braceforge.groups import cyclic_group

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


def test_split_products_are_validated_once(tmp_path, capsys, count_calls, Z2, Z3):
    # one compatibility sweep and one product-brace validation per product,
    # both in `semidirect` and in the worked examples that report the sweep
    sweeps = count_calls(split._compat_witness)
    products = count_calls(split._product_tables)
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    t = _write(tmp_path, "t.json", NEGATION_TRIPLE_2x3)
    assert main(["semidirect", h, i, t]) == 0
    capsys.readouterr()
    assert (sweeps["calls"], products["calls"]) == (1, 1)
    for build in (lambda: catalog.example2(n=2, p=3), catalog.example3,
                  catalog.example1_finite):
        sweeps["calls"] = products["calls"] = 0
        build()
        assert (sweeps["calls"], products["calls"]) == (1, 1)


def test_selftest_classifies_each_pair_once(capsys, count_calls):
    # the bijection and free-and-transitive checks of one Z2-by-Zi pair
    # share one ext_classes result
    classified = count_calls(cli.ext_classes)
    assert main(["selftest"]) == 0
    capsys.readouterr()
    assert classified["calls"] == 2


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
    from braceforge.braces import trivial_brace
    from braceforge.groups import cyclic_group
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


def test_example_honours_budget_flag(capsys):
    # examples 4 and 5 enumerate split triples; --budget caps that search
    # exactly as BRACEFORGE_BUDGET does
    for which in ("4", "5"):
        code = main(["--budget", "1", "example", which])
        report = json.loads(capsys.readouterr().out)
        assert code == 3 and report["error"] == "budget"
        assert report["message"].startswith("enumerate_split_triples:")


def test_split_sweep_disagreement_is_reported(tmp_path, capsys, monkeypatch, Z2, Z3):
    # a sweep that accepts every triple disagrees with validating the
    # built products; the CLI must still emit one report and exit 2
    monkeypatch.setattr(split, "_compat_witness", lambda *args, **kwargs: None)
    h = _write(tmp_path, "h.json", catalog.brace_payload(Z2))
    i = _write(tmp_path, "i.json", catalog.brace_payload(Z3))
    code, report, err = _run(capsys, ["enumerate-split", h, i])
    assert code == 2 and report["ok"] is False and report["error"] == "other"
    assert "disagrees with product validation" in report["message"]
    assert "Traceback" not in err


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
