"""Catalog: file formats with strict schemas, identity relabeling on load,
byte-stable serialization, the worked-example builders with their recorded
-value reconciliation reports, and the fixture sweeps."""

import json
import time

import pytest

from braceforge import catalog
from braceforge.braces import SkewBrace, lambda_is_hom, identities_check, validate_brace
from braceforge.errors import (BraceAxiomFailed, NotExact, ParamOutOfRange, SchemaError,
                               ValidationError)
from braceforge.extensions import Extension, extract_triplet, validate_extension
from braceforge.groups import FiniteGroup, cyclic_group
from braceforge.wells import verify_exact_sequence


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


def test_example_dispatcher():
    assert catalog.example(3).name == "example-3"
    assert catalog.example_report(2, n=1, p=3)["order"] == 12
    with pytest.raises(ParamOutOfRange):
        catalog.example(7)
    with pytest.raises(ParamOutOfRange):
        catalog.example(4, n=3)


def test_round_trip_byte_identical(tmp_path):
    for e in catalog.builtin_entries():
        p = tmp_path / f"{e.name}.json"
        catalog.save(e, p)
        first = p.read_bytes()
        loaded = catalog.load(p, kind=e.kind)
        assert loaded.kind == e.kind
        assert loaded.payload == e.payload
        catalog.save(loaded, p)
        assert p.read_bytes() == first


def test_dumps_payload_matches_json_module(split_ext, z4_ext):
    def reference(obj):
        return json.dumps(obj, sort_keys=True, indent=2) + "\n"

    # every payload kind, built-in and derived, and two reports
    objs = [e.payload for e in catalog.builtin_entries()] + [
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
    ]
    for obj in objs:
        assert catalog.dumps_payload(obj) == reference(obj)


def test_builtin_entries_unique_and_buildable():
    entries = catalog.builtin_entries()
    assert len(entries) == 21
    names = [e.name for e in entries]
    assert len(names) == len(set(names))
    for e in entries:
        e.build()


def test_axiom_fixture_sweep_is_fast():
    t0 = time.time()
    fixtures = catalog.axiom_fixtures()
    assert len(fixtures) == 44
    for name, B in fixtures:
        validate_brace(B.add.table, B.circ.table)
        assert lambda_is_hom(B), name
        assert identities_check(B), name
    assert time.time() - t0 < 5.0


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
