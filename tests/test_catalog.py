"""Catalog: file formats with strict schemas, identity relabeling on load,
byte-stable serialization, the worked-example builders with their recorded
-value reconciliation reports, and the fixture sweeps."""

import itertools
import json
import os
import stat
import time

import pytest

from braceforge import braces as braces_mod
from braceforge import catalog
from braceforge.braces import (SkewBrace, lambda_is_hom, identities_check, trivial_brace,
                               validate_brace)
from braceforge.errors import (BraceAxiomFailed, NotExact, ParamOutOfRange, SchemaError,
                               ValidationError)
from braceforge.extensions import Extension, extract_triplet, validate_extension
from braceforge.groups import FiniteGroup, cyclic_group
from braceforge.split import (
    _product_brace,
    enumerate_split_triples,
    identity_triple,
    semidirect_product,
)
from braceforge.wells import verify_exact_sequence


def _builtin_entries() -> list:
    """Every named entry the catalog ships, in a stable order."""
    entries = catalog.trivial_brace_entries()
    entries.extend(catalog.fixture_extension_entries())
    for n in (2, 3, 4, 5):
        entries.append(catalog.example(n))
    entry, _ = catalog.example1_finite()
    entries.append(entry)
    return entries


def test_trivial_brace_entries():
    entries = catalog.trivial_brace_entries()
    assert len(entries) == 14
    for e in entries:
        B = e.build()
        assert isinstance(B, SkewBrace) and B.is_trivial
    assert {e.provenance for e in entries} == {"trivial"}


def test_fixture_extensions(z4_ext):
    entries = catalog.fixture_extension_entries()
    assert [e.name for e in entries] == ["split-z2-z3", "z4-over-z2"]
    for e in entries:
        assert isinstance(e.build(), Extension)
    assert sorted(z4_ext.E.add.element_order(x) for x in range(4)) == [1, 2, 4, 4]


def test_example2_reports():
    entry, rep = catalog.example2(n=2, p=3)
    assert rep["order"] == 24
    assert rep["triple_valid"] and rep["full_sweep"]
    assert rep["closed_form_add_mismatches"] == 0
    assert rep["closed_form_circ_mismatches"] == 0
    assert rep["erratum_candidates"] == []
    entry_o, rep_o = catalog.example2(n=3, p=5, odd=True)
    assert rep_o["order"] == 30
    assert rep_o["closed_form_add_mismatches"] == 0
    assert rep_o["closed_form_circ_mismatches"] == 0
    with pytest.raises(ParamOutOfRange):
        catalog.example2(n=2, p=1)
    with pytest.raises(ParamOutOfRange):
        catalog.example2(n=2, p=3, odd=True)


def test_example3_report():
    entry, rep = catalog.example3()
    assert rep["order"] == 48
    assert rep["coefficient_add_isomorphic_to_s3"]
    assert rep["coefficient_circ_isomorphic_to_z6"]
    assert rep["triple_valid"] and rep["full_sweep"]
    assert rep["closed_form_cells"] == 2304
    assert rep["recorded_circ_mismatches"] == 1536
    assert rep["untwisted_left_factor_mismatches"] == 0
    assert len(rep["erratum_candidates"]) == 1


def test_example4_report():
    entry, rep = catalog.example4()
    assert rep["order"] == 16
    assert rep["h_part_matches_recorded"]
    assert rep["closed_form_cells"] == 256
    assert rep["recorded_circ_mismatches"] == 128
    assert rep["corrected_circ_mismatches"] == 0
    assert rep["valid_triples_for_pair"] == 8
    assert not rep["some_valid_triple_reproduces_recorded_form"]
    assert len(rep["erratum_candidates"]) == 1


def test_example5_report():
    entry, rep = catalog.example5()
    assert rep["valid_triples"] == 16
    assert rep["identity_mu_count"] == 8
    assert rep["recorded_count"] == 8
    assert rep["recorded_sample_i_found"]
    assert not rep["recorded_sample_ii_found_as_written"]
    assert rep["recorded_sample_ii_found_after_relabel"]
    assert tuple(rep["relabel_perm"]) == (0, 2, 1, 3)
    assert rep["socle_order"] == 2
    assert len(rep["erratum_candidates"]) == 2
    assert len(rep["triples"]) == 16


def test_example1_finite_report():
    entry, rep = catalog.example1_finite(2, 3)
    assert rep["closed_form_mismatches"] == 0


def _example2_mismatches_loop(E, H, p, exps):
    """Oracle for catalog._example2_mismatches: one cell at a time."""
    bad_add, bad_circ = [], []
    for x1 in range(H.n):
        for y1 in range(p):
            a = x1 * p + y1
            for x2 in range(H.n):
                for y2 in range(p):
                    b = x2 * p + y2
                    hpart = H.add.table[x1][x2]
                    want_add = hpart * p + (y2 + (-1) ** exps[x2] * y1) % p
                    want_circ = hpart * p + (y1 + (-1) ** exps[x1] * y2) % p
                    if E.add.table[a][b] != want_add:
                        bad_add.append([x1, y1, x2, y2])
                    if E.circ.table[a][b] != want_circ:
                        bad_circ.append([x1, y1, x2, y2])
    return bad_add, bad_circ


def _example3_mismatches_loop(E, I, psi, nu):
    """Oracle for catalog._example3_mismatches."""
    bad_recorded = bad_untwisted = cells = 0
    for k in range(8):
        for y1 in range(6):
            for l in range(8):
                for y2 in range(6):
                    cells += 1
                    got = E.circ.table[k * 6 + y1][l * 6 + y2]
                    hpart = ((k + l) % 8) * 6
                    bad_recorded += got != hpart + I.circ.table[psi[y1]][nu[k][y2]]
                    bad_untwisted += got != hpart + I.circ.table[y1][nu[k][y2]]
    return cells, bad_recorded, bad_untwisted


def _example4_recorded(k, l, n_, m):
    return (l + (-1) ** k * m + (-1) ** n_ * l * m) % 4


def _example4_mismatches_loop(E):
    """Oracle for catalog._example4_mismatches."""
    bad_recorded, bad_corrected = [], []
    h_part_ok = True
    for k, l, n_, m in itertools.product(range(4), repeat=4):
        got = E.circ.table[k * 4 + l][n_ * 4 + m]
        gh, gy = got // 4, got % 4
        if gh != (k + n_) % 4:
            h_part_ok = False
        recorded = _example4_recorded(k, l, n_, m)
        corrected = (l + (-1) ** k * m + 2 * l * m) % 4
        if gy != recorded:
            bad_recorded.append([k, l, n_, m, gy, recorded])
        if gy != corrected:
            bad_corrected.append([k, l, n_, m, gy, corrected])
    return h_part_ok, bad_recorded, bad_corrected


def _reproduces_example4_form_loop(H, I, triples):
    """Oracle for catalog._reproduces_example4_form: each product built as
    a brace and compared cell by cell."""
    return any(
        all(_product_brace(H, I, t).circ.table[k * 4 + l][n_ * 4 + m]
            == (k + n_) % 4 * 4 + _example4_recorded(k, l, n_, m)
            for k, l, n_, m in itertools.product(range(4), repeat=4))
        for t in triples
    )


def _example1_mismatches_loop(E, k, m):
    """Oracle for catalog._example1_mismatches."""
    bad = 0
    for h1, y1, h2, y2 in itertools.product(range(2 * k), range(m), range(2 * k), range(m)):
        hpart = (h1 + h2) % (2 * k)
        a, b = h1 * m + y1, h2 * m + y2
        bad += E.add.table[a][b] != hpart * m + ((-1) ** h2 * y1 + y2) % m
        bad += E.circ.table[a][b] != hpart * m + (y1 + (-1) ** h1 * y2) % m
    return bad


def _closed_form_reports():
    reports = [catalog.example2(n=n, p=p, odd=odd)[1] for n, p, odd in (
        (1, 3, False), (2, 3, False), (3, 3, False), (4, 3, False), (1, 5, False),
        (2, 5, False), (3, 5, False), (4, 5, False), (6, 7, False), (3, 3, True),
        (3, 5, True))]
    reports += [catalog.example3()[1], catalog.example4()[1]]
    reports += [catalog.example1_finite(k, m)[1] for k, m in ((1, 2), (2, 3), (3, 5))]
    return reports


def test_closed_form_sweeps_match_loops(monkeypatch, Z3):
    # the gathered sweeps give the whole reports the cell loops give, on
    # every example-2 parameter set the tests and the CLI use
    fast = _closed_form_reports()
    for name, loop in (("_example2_mismatches", _example2_mismatches_loop),
                       ("_example3_mismatches", _example3_mismatches_loop),
                       ("_example4_mismatches", _example4_mismatches_loop),
                       ("_reproduces_example4_form", _reproduces_example4_form_loop),
                       ("_example1_mismatches", _example1_mismatches_loop)):
        monkeypatch.setattr(catalog, name, loop)
    assert _closed_form_reports() == fast
    monkeypatch.undo()
    example3, example4 = fast[11:13]
    assert example3["recorded_circ_mismatches"] > 0
    assert example4["recorded_circ_mismatches"] == 128
    # and where the forms fail on most cells: the direct product of Z4 by Z3
    # against example 1's negation forms, and example 2's exponents shifted
    H = trivial_brace(cyclic_group(4))
    E = semidirect_product(H, Z3, identity_triple(H, Z3))
    assert catalog._example1_mismatches(E, 2, 3) == _example1_mismatches_loop(E, 2, 3) > 0
    _, H2, _, exps, t = catalog._example2_triple(2, 3, False)
    E2 = semidirect_product(H2, Z3, t)
    shifted = exps[1:] + exps[:1]
    got = catalog._example2_mismatches(E2, H2, 3, shifted)
    assert got == _example2_mismatches_loop(E2, H2, 3, shifted)
    assert all(len(cells) > 0 for cells in got)


def test_example_dispatcher():
    assert catalog.example(3).name == "example-3"
    assert catalog.example_report(2, n=1, p=3)["order"] == 12
    with pytest.raises(ParamOutOfRange):
        catalog.example(7)
    with pytest.raises(ParamOutOfRange):
        catalog.example(4, n=3)


def test_round_trip_byte_identical(tmp_path):
    for e in _builtin_entries():
        p = tmp_path / f"{e.name}.json"
        catalog.save(e, p)
        first = p.read_bytes()
        loaded = catalog.load(p, kind=e.kind)
        assert loaded.kind == e.kind
        assert loaded.payload == e.payload
        catalog.save(loaded, p)
        assert p.read_bytes() == first


def test_save_overwrites_in_place(tmp_path, split_ext):
    # save writes over the old bytes, so a longer old file must be cut to
    # the payload's length; the inode, a hard link and the mode stay
    entry = catalog.entry_for(split_ext, "ext")
    fresh = tmp_path / "fresh.json"
    catalog.save(entry, fresh)
    payload = fresh.read_bytes()
    assert payload == catalog.dumps_payload(entry.payload).encode("utf-8")

    old = tmp_path / "old.json"
    old.write_bytes(b"x" * (3 * len(payload) + 4097))
    old.chmod(0o600)
    link = tmp_path / "hard.json"
    os.link(old, link)
    inode = old.stat().st_ino
    catalog.save(entry, old)
    assert old.read_bytes() == payload
    assert link.read_bytes() == payload
    assert old.stat().st_ino == inode
    assert stat.S_IMODE(old.stat().st_mode) == 0o600

    # a second write of the same bytes changes nothing
    catalog.save(entry, old)
    assert old.read_bytes() == payload and old.stat().st_ino == inode


def test_save_through_symlink_writes_its_target(tmp_path, split_ext):
    entry = catalog.entry_for(split_ext, "ext")
    target = tmp_path / "target.json"
    target.write_bytes(b"{}" * 10_000)
    link = tmp_path / "link.json"
    link.symlink_to(target)
    catalog.save(entry, link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == catalog.dumps_payload(entry.payload).encode("utf-8")
    assert catalog.load(link, kind="extension").payload == entry.payload


class _Int(int):
    pass


class _Str(str):
    pass


class _Float(float):
    pass


def test_dumps_payload_matches_json_module(split_ext, z4_ext):
    def reference(obj):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    # every payload kind, built-in and derived, and two reports
    objs = [e.payload for e in _builtin_entries()] + [
        catalog.group_payload(split_ext.E.add),
        catalog.brace_payload(split_ext.E),
        catalog.triple_payload(extract_triplet(z4_ext).chi),
        catalog.triplet_payload(extract_triplet(z4_ext)),
        catalog.extension_payload(z4_ext),
        verify_exact_sequence(split_ext),
        catalog.example_report(2, n=1, p=3),
        {
            "empty": [[], {}, ()],
            "ints": [3, -1, 0, True, False, -7],
            "bools": [True, False],
            "floats": [0.1, -2.5, 1e300, float("inf"), float("nan")],
            "mixed": [None, "caf\u00e9", "\u2203 x \"q\"\n", 1.0, [1, [2, []]]],
            "tuple": (1, (2, 3), ("a",)),
            "nested": {"z": {"y": [{}, {"k": None}]}, "a": -0.0},
            "int_keys": {10: "ten", 9: [1, 2], 2: {"b": 1, "a": [True]}},
            "\u00e9t\u00e9": "non-ASCII key",
            "scalar": 1.5,
        },
        {},
        # a row laid out once per call, then repeated at the same depth, at
        # another depth, and with equal values that are not all plain ints
        {
            "rows": [[0, 2, 1], [0, 2, 1], [[0, 2, 1], (0, 2, 1)], [0, 2, 1]],
            "same_values": [[1, 0], [True, False], [1.0, 0], [1, 0]],
            "again": {"deeper": [[0, 2, 1], [[1, 0]]]},
        },
        # equal-length rows of plain ints, laid out from one template per
        # shape and depth, and lists that only look like them
        {
            "table": [[0, 1, 2], [1, 2, 0], [2, 0, 1]],
            "same_shape": {"x": [[0, 1, 2], [1, 2, 0], [2, 0, 1]], "y": [[3, 4, 5]] * 3},
            "tuple_rows": ((0, 1), [1, 0]),
            "one_cell": [[5]],
            "big": [[2 ** 70, -3], [0, -2 ** 65]],
            "bool_cell": [[0, 1], [True, 0]],
            "float_cell": [[0, 1], [1.0, 0]],
            "str_cell": [["0", 1], [1, 0]],
            "ragged": [[0, 1], [1]],
            "empty_rows": [[], []],
            "row_and_int": [[0, 1], 2],
            "deep": [[[[0, 1], [1, 0]], [[1, 0], [0, 1]]]],
            "subclasses": [[_Int(3), 1], _Int(2), _Str("s"), _Float(0.5), [_Str("t")]],
        },
    ]
    for obj in objs:
        assert catalog.dumps_payload(obj) == reference(obj)


def test_builtin_entries_unique_and_buildable():
    entries = _builtin_entries()
    assert len(entries) == 21
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        e.build()


def test_axiom_fixture_sweep_is_fast():
    t0 = time.time()
    fixtures = catalog.axiom_fixtures()
    assert len(fixtures) == 44
    for name, add, circ in fixtures:
        B = validate_brace(add, circ)
        assert lambda_is_hom(B), name
        assert identities_check(B), name
    assert time.time() - t0 < 5.0


def _axiom_fixtures_via_entries():
    """Oracle for catalog.axiom_fixtures: each fixture built from its
    catalog entry, through the example builders and the entry's payload."""
    out = [(e.name, e.build()) for e in catalog.trivial_brace_entries()]
    for n in (1, 2, 3, 4):
        for p in (3, 5):
            entry, _ = catalog.example2(n=n, p=p)
            out.append((entry.name, entry.build()))
    for p in (3, 5):
        entry, _ = catalog.example2(n=3, p=p, odd=True)
        out.append((entry.name, entry.build()))
    for builder in (catalog.example3, catalog.example4):
        entry, _ = builder()
        out.append((entry.name, entry.build()))
    H5 = catalog.example5_acting_brace()
    I5 = catalog.example4_coefficient_brace()
    out.append(("example-5-acting", H5))
    out.append(("example-5-coefficient", I5))
    for i, t in enumerate(enumerate_split_triples(H5, I5)):
        out.append((f"example-5-product-{i}", semidirect_product(H5, I5, t)))
    return out


def test_axiom_fixtures_match_entry_construction():
    got = [(name, add.tolist(), circ.tolist()) for name, add, circ in catalog.axiom_fixtures()]
    assert got == [(name, B.add.np_table.tolist(), B.circ.np_table.tolist())
                   for name, B in _axiom_fixtures_via_entries()]


def test_axiom_fixtures_validate_only_the_example_inputs(count_calls):
    # the sweep that uses the fixtures validates each of them itself; only
    # the closed-form braces examples 3-5 start from are validated when
    # built: example 3's kernel, example 4's pair and example 5's acting
    # brace, each through its two group tables
    groups = count_calls(braces_mod.validate_group)
    braces = count_calls(catalog.validate_brace)
    catalog.axiom_fixtures()
    assert (groups["calls"], braces["calls"]) == (8, 4)


def test_group_loading_relabels_identity(tmp_path):
    # a cyclic table written with its identity at position 1
    G = cyclic_group(3).relabel((1, 0, 2))
    p = tmp_path / "g.json"
    p.write_text(json.dumps({"n": 3, "table": [list(r) for r in G.table]}))
    entry = catalog.load(p, kind="group")
    assert entry.warnings and "relabeled" in entry.warnings[0]
    built = entry.build()
    assert isinstance(built, FiniteGroup)
    assert built.table[0][1] == 1 and built.table[1][0] == 1


def test_extension_loading_relabels_and_rebuilds(tmp_path, split_ext):
    payload = catalog.extension_payload(split_ext)
    # shift the embedded sub-brace tables so their identity moves to 1,
    # and conjugate inj accordingly
    perm = (1, 0, 2)
    inner = payload["I"]
    shifted_add = [[0] * 3 for _ in range(3)]
    shifted_circ = [[0] * 3 for _ in range(3)]
    for a in range(3):
        for b in range(3):
            shifted_add[perm[a]][perm[b]] = perm[inner["add"][a][b]]
            shifted_circ[perm[a]][perm[b]] = perm[inner["circ"][a][b]]
    inv = (1, 0, 2)
    payload["I"] = {"n": 3, "add": shifted_add, "circ": shifted_circ}
    payload["inj"] = [payload["inj"][inv[y]] for y in range(3)]
    p = tmp_path / "e.json"
    p.write_text(json.dumps(payload))
    entry = catalog.load(p, kind="extension")
    assert entry.warnings
    rebuilt = entry.build()
    assert rebuilt.E.add.table == split_ext.E.add.table
    assert rebuilt.inj == split_ext.inj and rebuilt.proj == split_ext.proj


def test_schema_errors(tmp_path):
    cases = [
        ({"n": 2}, "group"),                                  # missing field
        ({"n": 2, "table": [[0, 1], [1, 0]], "x": 1}, "group"),  # unknown field
        ({"n": 2, "table": [[0, True], [1, 0]]}, "group"),    # bool is not an int
        ({"n": 2, "table": [[0, 1], [1]]}, "group"),          # ragged matrix
        ({"n": "2", "table": [[0, 1], [1, 0]]}, "group"),     # wrong type
    ]
    for payload, kind in cases:
        p = tmp_path / "bad.json"
        p.write_text(json.dumps(payload))
        with pytest.raises(SchemaError):
            catalog.load(p, kind=kind)
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(SchemaError):
        catalog.load(p, kind="group")
    # structurally fine but mathematically wrong
    p.write_text(json.dumps({"n": 2, "table": [[0, 1], [1, 1]]}))
    with pytest.raises(ValidationError):
        catalog.load(p, kind="group").build()


def test_kind_inference(tmp_path):
    p = tmp_path / "b.json"
    p.write_text(json.dumps(catalog.brace_payload(validate_brace(
        [[0, 1], [1, 0]], [[0, 1], [1, 0]]
    ))))
    entry = catalog.load(p)
    assert entry.kind == "brace"
    assert entry.provenance == "derived"


def test_loaded_payload_is_validated_once(tmp_path, count_calls, split_ext):
    ext_path = tmp_path / "ext.json"
    catalog.save(catalog.entry_for(split_ext, "ext"), ext_path)
    brace_path = tmp_path / "brace.json"
    catalog.save(catalog.entry_for(split_ext.E, "E"), brace_path)
    braces = count_calls(validate_brace)
    extensions = count_calls(validate_extension)
    ext = catalog.load(ext_path).build()
    assert ext.E == split_ext.E and (ext.inj, ext.proj) == (split_ext.inj, split_ext.proj)
    assert (braces["calls"], extensions["calls"]) == (3, 1)
    braces["calls"] = 0
    entry = catalog.load(brace_path)
    B = entry.build()
    assert B == split_ext.E and entry.build() is B
    assert braces["calls"] == 1
    # an entry made by hand validates in build(); the object a load keeps
    # takes no part in == or repr
    hand = catalog.CatalogEntry(name=entry.name, kind="brace", payload=entry.payload,
                                provenance="derived")
    assert hand == entry and repr(hand) == repr(entry)
    assert hand.build() == B and braces["calls"] == 2
    bad = catalog.CatalogEntry(
        name="bad", kind="brace", provenance="derived",
        payload={"n": 4, "add": [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]],
                 "circ": [[(a + b) % 4 for b in range(4)] for a in range(4)]},
    )
    with pytest.raises(BraceAxiomFailed):
        bad.build()


def test_hand_made_entries_build_through_their_loader(count_calls, split_ext):
    # build() validates nothing of its own: an entry given a payload by
    # hand runs its kind's loader, with its relabelling and schema checks,
    # and an entry_for entry hands back the object it wraps
    moved = cyclic_group(3).relabel((1, 0, 2))
    group = catalog.CatalogEntry(name="g", kind="group",
                                 payload={"n": 3, "table": [list(r) for r in moved.table]})
    assert group.build() == cyclic_group(3)
    bad = catalog.CatalogEntry(name="t", kind="triple",
                               payload={"nu": [[0, 1], [0, 0]], "mu": [[0, 1], [0, 1]],
                                        "sigma": [[0, 1], [0, 1]]})
    with pytest.raises(SchemaError, match=r"nu\[1\] is not a permutation"):
        bad.build()
    triplet = extract_triplet(split_ext)
    hand = catalog.CatalogEntry(name="t", kind="triplet",
                                payload=catalog.triplet_payload(triplet))
    assert hand.build() == triplet
    braces = count_calls(validate_brace)
    entry = catalog.CatalogEntry(name="E", kind="brace",
                                 payload=catalog.brace_payload(split_ext.E))
    assert entry.build() == split_ext.E and braces["calls"] == 1
    wrapped = catalog.entry_for(split_ext, "ext")
    assert wrapped.build() is split_ext and braces["calls"] == 1


def test_a_ragged_triple_is_named_by_its_first_odd_row():
    # nu's first row sets the width of every row of nu, mu and sigma
    idp = [0, 1]
    for payload, message in (
            ({"nu": [idp, [0]], "mu": [idp, idp], "sigma": [idp, idp]},
             "t: nu has length 1, expected 2"),
            ({"nu": [idp, idp], "mu": [idp, [0, 1, 2]], "sigma": [idp, idp]},
             "t: mu has length 3, expected 2"),
            ({"nu": [idp, idp], "mu": [idp, idp], "sigma": [idp]},
             "t: sigma has 1 rows, expected 2")):
        with pytest.raises(SchemaError) as exc:
            catalog._load_triple_payload(payload, "t")
        assert str(exc.value) == message


def test_bad_extension_file_raises_first_error(tmp_path, split_ext):
    good = catalog.extension_payload(split_ext)
    bad_circ = [[0, 1, 2], [1, 2, 0], [2, 1, 0]]
    cases = [
        # the first failing part wins: E before H before I before the maps
        ({"H": {"n": 2, "add": [[0, 1], [1, 1]], "circ": [[0, 1], [1, 0]]},
          "I": {"n": 3, "add": good["I"]["add"], "circ": bad_circ}},
         ValidationError, {"table": "add"}),
        ({"I": {"n": 3, "add": good["I"]["add"], "circ": bad_circ}},
         ValidationError, {"table": "circ"}),
        ({"inj": [0, 2, 4]}, NotExact, "inj is not a brace homomorphism"),
        ({"proj": [0] * 6}, NotExact, "proj is not surjective"),
    ]
    for change, cls, detail in cases:
        p = tmp_path / "bad.json"
        p.write_text(json.dumps({**good, **change}))
        with pytest.raises(cls) as exc:
            catalog.load(p, kind="extension")
        if isinstance(detail, dict):
            assert detail.items() <= exc.value.witness.items()
        else:
            assert str(exc.value) == detail
