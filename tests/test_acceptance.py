"""Acceptance suite: one test per numbered criterion, each printing a single
``CRITERION N: PASS|FAIL`` line (captured output is replayed in the summary).

Criteria 3 and 4 assert recorded values that the exhaustive rebuilds
contradict; they are expected to FAIL and each prints its full discrepancy
listing before the assert.  The supplement tests directly below them pin the
corrected statements that do hold, so the disagreement is documented from
both sides rather than patched over.
"""

import random
import time

from braceforge import catalog
from braceforge.braces import identities_check, lambda_is_hom, validate_brace
from braceforge.cohomology import h2N, verify_free_transitive, z2N
from braceforge.extensions import (
    Triplet,
    ext_classes,
    extension_from_triplet,
    extract_triplet,
    h2_alpha,
)
from braceforge.groups import cyclic_group, dihedral_group, find_isomorphism
from braceforge.split import enumerate_split_triples
from braceforge.wells import verify_exact_sequence

SEED = 20260814


def _perm_str(row):
    return "".join(str(x) for x in row)


def _family_str(rows):
    return "(" + " ".join(_perm_str(r) for r in rows) + ")"


def test_criterion_1_axiom_and_lemma_suite_on_all_fixtures():
    t0 = time.monotonic()
    fixtures = catalog.axiom_fixtures()
    failing = []
    for name, add, circ in fixtures:
        B = validate_brace(add, circ)
        if not lambda_is_hom(B) or not identities_check(B):
            failing.append(name)
    dt = time.monotonic() - t0
    ok = not failing and len(fixtures) == 44 and dt < 5.0
    print(f"CRITERION 1: {'PASS' if ok else 'FAIL'} — axioms, lambda "
          f"homomorphism and identity lemmas hold on all {len(fixtures)} "
          f"catalog fixtures in {dt:.2f}s (bound 5s)")
    assert not failing, failing
    assert len(fixtures) == 44
    assert dt < 5.0


def test_criterion_2_order48_coefficient_structure():
    t0 = time.monotonic()
    entry, rep = catalog.example3()
    I3 = catalog.example3_coefficient_brace()
    iso_add = find_isomorphism(I3.add, dihedral_group(3))
    iso_circ = find_isomorphism(I3.circ, cyclic_group(6))
    dt = time.monotonic() - t0
    ok = (iso_add is not None and iso_circ is not None and rep["order"] == 48
          and rep["triple_valid"] and rep["full_sweep"])
    print(f"CRITERION 2: {'PASS' if ok else 'FAIL'} — coefficient brace has "
          f"additive group S3 (iso {iso_add}) and circle group Z6 "
          f"(iso {iso_circ}); the stated action triple passes the exhaustive "
          f"sweep and the product has order {rep['order']} ({dt:.2f}s)")
    assert iso_add is not None and iso_circ is not None
    assert rep["order"] == 48
    assert rep["triple_valid"] and rep["full_sweep"]


def test_criterion_3_order16_recorded_circle_closed_form():
    t0 = time.monotonic()
    entry, rep = catalog.example4()
    dt = time.monotonic() - t0  # build plus the full 256-cell comparison
    mismatches = rep["recorded_circ_mismatches"]
    cells = rep["recorded_circ_mismatch_cells"]
    ok = mismatches == 0 and rep["closed_form_cells"] == 256 and dt < 1.0
    print(f"CRITERION 3: {'PASS' if ok else 'FAIL'} — recorded circle closed "
          f"form reproduced on {256 - mismatches} of 256 cells")
    if not ok:
        print("full discrepancy listing — (k, l, n, m): built value vs "
              "recorded closed-form value:")
        for k, l, n, m, built, recorded in cells:
            print(f"  (k={k}, l={l}, n={n}, m={m}): built {built}, "
                  f"recorded {recorded}")
        print(f"h-part of every cell matches the recorded form: "
              f"{rep['h_part_matches_recorded']}")
        print(f"corrected form {rep['corrected_form']} mismatches: "
              f"{rep['corrected_circ_mismatches']} of 256")
        print(f"valid action triples for the pair: "
              f"{rep['valid_triples_for_pair']}; any reproduces the recorded "
              f"form: {rep['some_valid_triple_reproduces_recorded_form']}")
        for c in rep["erratum_candidates"]:
            print(f"erratum candidate: {c['claim']} — {c['observed']}")
    assert rep["closed_form_cells"] == 256 and dt < 1.0
    assert mismatches == 0, (
        f"recorded circle closed form fails on {mismatches} of 256 cells; "
        f"see the listing above (corrected form fails on "
        f"{rep['corrected_circ_mismatches']})"
    )


def test_supplement_3_corrected_circle_form_matches_everywhere():
    entry, rep = catalog.example4()
    assert rep["h_part_matches_recorded"]
    assert rep["corrected_circ_mismatches"] == 0
    assert rep["recorded_circ_mismatches"] == 128
    assert not rep["some_valid_triple_reproduces_recorded_form"]
    assert len(rep["erratum_candidates"]) == 1


def test_criterion_4_order8_split_enumeration_matches_recorded_list():
    entry, rep = catalog.example5()
    triples = rep["triples"]
    idfam = [[0, 1, 2, 3]] * 8
    mu_id = sum(1 for t in triples if t["mu"] == idfam)
    ok = (rep["valid_triples"] == 8 and mu_id == rep["valid_triples"]
          and rep["recorded_sample_i_found"]
          and rep["recorded_sample_ii_found_as_written"])
    print(f"CRITERION 4: {'PASS' if ok else 'FAIL'} — exhaustive enumeration "
          f"finds {rep['valid_triples']} valid action triples "
          f"({mu_id} with identity mu); recorded count is "
          f"{rep['recorded_count']}")
    if not ok:
        print("full listing of every valid action triple (families indexed "
              "by the acting brace, one permutation of the coefficients per "
              "element):")
        for k, t in enumerate(triples):
            tag = "identity-mu" if t["mu"] == idfam else "nontrivial-mu"
            print(f"  triple {k:2d} [{tag}]: nu={_family_str(t['nu'])} "
                  f"mu={_family_str(t['mu'])} sigma={_family_str(t['sigma'])}")
        print(f"recorded sample (i) found as written: "
              f"{rep['recorded_sample_i_found']}")
        print(f"recorded sample (ii) found as written: "
              f"{rep['recorded_sample_ii_found_as_written']}; after "
              f"renumbering the coefficients by {tuple(rep['relabel_perm'])}: "
              f"{rep['recorded_sample_ii_found_after_relabel']}")
        for c in rep["erratum_candidates"]:
            print(f"erratum candidate: {c['claim']} — {c['observed']}")
    assert rep["recorded_sample_i_found"]
    assert rep["valid_triples"] == 8, (
        f"enumeration finds {rep['valid_triples']} valid triples, not the "
        f"recorded 8; the identity-mu subset has {mu_id} members (see the "
        f"listing above)"
    )
    assert mu_id == rep["valid_triples"]
    assert rep["recorded_sample_ii_found_as_written"]


def test_supplement_4_full_enumeration_and_relabelled_sample():
    entry, rep = catalog.example5()
    assert rep["valid_triples"] == 16
    assert rep["identity_mu_count"] == 8
    assert rep["recorded_sample_i_found"]
    assert not rep["recorded_sample_ii_found_as_written"]
    assert rep["recorded_sample_ii_found_after_relabel"]
    assert tuple(rep["relabel_perm"]) == (0, 2, 1, 3)
    assert rep["socle_order"] == 2
    assert len(rep["erratum_candidates"]) == 2


def test_criterion_5_class_count_equals_cohomology_order(Z2, Z3):
    t0 = time.monotonic()
    lines = []
    all_equal = True
    for H, I, label in ((Z2, Z2, "(Z2, Z2)"), (Z2, Z3, "(Z2, Z3)")):
        for rep_chi, classes in ext_classes(H, I):
            via_triplets = len(h2_alpha(H, I, rep_chi))
            via_quotient = h2N(H, I, rep_chi).order
            equal = len(classes) == via_triplets == via_quotient
            all_equal = all_equal and equal
            lines.append(f"{label}: {len(classes)} classes, "
                         f"|H^2| = {via_triplets} (triplet route) "
                         f"= {via_quotient} (quotient route)")
    dt = time.monotonic() - t0
    ok = all_equal and dt < 60.0
    print(f"CRITERION 5: {'PASS' if ok else 'FAIL'} — per-coupling class "
          f"count equals the cohomology order by both routes in {dt:.1f}s "
          f"(bound 60s)")
    for line in lines:
        print(f"  {line}")
    assert all_equal
    assert dt < 60.0


def test_criterion_6_action_is_free(Z2, Z3):
    reports = {
        "(Z2, Z2)": verify_free_transitive(Z2, Z2),
        "(Z2, Z3)": verify_free_transitive(Z2, Z3),
        "(Z3, Z2)": verify_free_transitive(Z3, Z2),
    }
    ok = all(r["free"] for r in reports.values())
    pairs = ", ".join(f"{k}: {r['couplings']} couplings"
                      for k, r in reports.items())
    print(f"CRITERION 6: {'PASS' if ok else 'FAIL'} — no nonzero cohomology "
          f"class fixes any extension class ({pairs})")
    for r in reports.values():
        assert r["free"]
        assert all(c["free"] for c in r["per_coupling"])


def test_criterion_7_transitive_for_trivial_coefficients(Z2, Z3):
    reports = {
        "(Z2, Z2)": verify_free_transitive(Z2, Z2),
        "(Z2, Z3)": verify_free_transitive(Z2, Z3),
        "(Z3, Z2)": verify_free_transitive(Z3, Z2),
    }
    ok = all(r["transitive"] for r in reports.values())
    print(f"CRITERION 7: {'PASS' if ok else 'FAIL'} — one orbit per coupling "
          f"on trivial coefficients of orders 2 and 3")
    for r in reports.values():
        assert r["transitive"] is True
        for c in r["per_coupling"]:
            assert c["transitive"] and c["classes"] == c["h2_ann_order"]


def test_criterion_8_exact_sequence_reports(split_ext, z4_ext):
    t0 = time.monotonic()
    reports = {
        "split (Z2 acting on Z3)": verify_exact_sequence(split_ext),
        "Z4 over Z2": verify_exact_sequence(z4_ext),
    }
    dt = time.monotonic() - t0
    ok = dt < 30.0
    for name, r in reports.items():
        ok = ok and (r["exact"] and r["psi_bijective"] and r["psi_hom"]
                     and r["derivation_law"])
    print(f"CRITERION 8: {'PASS' if ok else 'FAIL'} — image of restriction "
          f"equals the obstruction kernel, the kernel matches the derivation "
          f"group element-by-element, and the compatible-pair law holds "
          f"({dt:.2f}s, bound 30s)")
    for name, r in reports.items():
        assert r["exact"], name
        assert r["psi_bijective"] and r["psi_hom"], name
        assert r["derivation_law"], name
    assert dt < 30.0


def test_criterion_9_seeded_builds_extract_back_exactly(Z2, Z3):
    rng = random.Random(SEED)
    checked = 0
    failures = []
    for H, I in ((Z2, Z2), (Z3, Z2)):
        pool = [
            Triplet(chi, p.g, p.f)
            for chi in enumerate_split_triples(H, I)
            for p in z2N(H, I, chi)
        ]
        assert pool
        for _ in range(100):
            t = rng.choice(pool)
            ext = extension_from_triplet(H, I, t)
            if extract_triplet(ext) != t:
                failures.append((H.n, I.n, t))
            checked += 1
    ok = not failures and checked == 200
    print(f"CRITERION 9: {'PASS' if ok else 'FAIL'} — {checked} seeded "
          f"random valid triplets (seed {SEED}) rebuilt and re-extracted "
          f"with the canonical section; {len(failures)} failed to reproduce")
    assert not failures, failures
    assert checked == 200
