"""Second cohomology of the pair formulation: cocycle pairs, coboundaries,
the quotient group, derivations, the action on extension classes, and the
bijection/freeness/transitivity theorems at desk scale."""

import random

import pytest

import braceforge.extensions as extensions_mod
from braceforge.braces import trivial_brace
from braceforge.cohomology import (
    CocyclePair,
    CohomologyGroup,
    b2N,
    coboundary_pair,
    component_law_witness,
    derivation_add,
    embed_pair,
    ext_bijection_check,
    h2N,
    h2_act,
    pair_add,
    pair_is_cocycle,
    pair_neg,
    pair_sub,
    restrict_action,
    validate_cocycle_action,
    verify_free_transitive,
    z1N,
    z2N,
    zero_pair,
)
from braceforge.errors import (
    CoefficientsNotAbelian,
    InputError,
    NotTrivialCoefficients,
    ValidationError,
)
from braceforge.extensions import (
    Triplet,
    extension_from_triplet,
    h2_alpha,
    is_valid_triplet,
    z2_alpha,
    zero_triplet,
)
from braceforge.braces import SkewBrace
from braceforge.groups import (
    FiniteGroup,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    group_from_elements,
    identity_perm,
    klein_group,
)
from braceforge.split import ActionTriple, enumerate_split_triples, identity_triple
from test_extensions import _extensions_equivalent_loop


def test_pair_sets_2_by_2(Z2):
    chi = identity_triple(Z2, Z2)
    z2 = z2N(Z2, Z2, chi)
    assert len(z2) == 4
    # at this pair the two raw laws already imply compatibility
    assert len(z2N(Z2, Z2, chi, laws_only=True)) == 4
    assert len(b2N(Z2, Z2, chi)) == 1
    grp = h2N(Z2, Z2, chi)
    assert grp.order == 4


def test_compatibility_filter_cuts_2_by_3(Z2, Z3):
    chi = identity_triple(Z2, Z3)
    raw = z2N(Z2, Z3, chi, laws_only=True)
    operative = z2N(Z2, Z3, chi)
    assert len(raw) == 9
    assert len(operative) == 3
    # compatibility ties the two components together cell by cell
    assert all(p.g[1][1] == p.f[1][1] for p in operative)
    assert len(b2N(Z2, Z3, chi)) == 3
    assert h2N(Z2, Z3, chi).order == 1


def test_group_structure_4_by_2(Z2, Z4):
    grp = h2N(Z4, Z2, identity_triple(Z4, Z2))
    assert len(grp.z2) == 16
    assert len(grp.b2) == 4
    assert grp.order == 4
    for p in grp.representatives:
        assert grp.add(grp.zero, p) == p
        assert grp.add(p, grp.neg(p)) == grp.zero
        assert pair_sub(Z2, p, p) == zero_pair(4)


def test_pair_arithmetic(Z2):
    chi = identity_triple(Z2, Z2)
    z2 = z2N(Z2, Z2, chi)
    zp = zero_pair(2)
    for p in z2:
        assert pair_add(Z2, p, zp) == p
        assert pair_add(Z2, p, pair_neg(Z2, p)) == zp
        assert pair_is_cocycle(Z2, Z2, chi, p)
        assert component_law_witness(Z2.add.table, Z2, chi.mu, p.g) is None
        assert component_law_witness(Z2.circ.table, Z2, chi.sigma, p.f) is None


def test_derivations_are_coboundary_kernel(Z2):
    chi = identity_triple(Z2, Z2)
    z1 = z1N(Z2, Z2, chi)
    assert len(z1) == 2
    for d in z1:
        assert coboundary_pair(Z2, Z2, chi, d.theta) == zero_pair(2)
    thetas = {d.theta for d in z1}
    for d1 in z1:
        for d2 in z1:
            assert derivation_add(Z2, d1, d2).theta in thetas
    # every non-derivation has a nonzero coboundary
    others = [theta for theta in ((0, 0), (0, 1)) if theta not in thetas]
    for theta in others:
        assert coboundary_pair(Z2, Z2, chi, theta) != zero_pair(2)


def test_bijection_checks(Z2, Z3):
    rep = ext_bijection_check(Z2, Z2, identity_triple(Z2, Z2))
    assert rep["equal"] and rep["h2_order"] == 4 and rep["ext_classes"] == 4
    rep23 = ext_bijection_check(Z2, Z3, identity_triple(Z2, Z3))
    assert rep23["equal"] and rep23["h2_order"] == 1 and rep23["ext_classes"] == 1


def test_h2_act_moves_and_composes(Z2):
    chi = identity_triple(Z2, Z2)
    grp = h2N(Z2, Z2, chi)
    split = extension_from_triplet(Z2, Z2, zero_triplet(Z2, Z2))
    lift = next(p for p in grp.representatives if p.g[1][1] == 1 and p.f[1][1] == 0)
    moved = h2_act(Z2, Z2, lift, split)
    assert _extensions_equivalent_loop(split, moved) is None
    # the additive shift g(1,1)=1 turns Klein addition into cyclic Z4
    assert sorted(moved.E.add.element_order(x) for x in range(4)) == [1, 2, 4, 4]
    assert _extensions_equivalent_loop(split, h2_act(Z2, Z2, grp.zero, split)) is not None
    for p in grp.representatives:
        for q in grp.representatives:
            lhs = h2_act(Z2, Z2, grp.add(p, q), split)
            rhs = h2_act(Z2, Z2, p, h2_act(Z2, Z2, q, split))
            assert _extensions_equivalent_loop(lhs, rhs) is not None


def test_free_and_transitive(Z2, Z3):
    r = verify_free_transitive(Z2, Z2)
    assert r["free"] and r["transitive"] and r["couplings"] == 1
    r23 = verify_free_transitive(Z2, Z3)
    assert r23["free"] and r23["transitive"] and r23["couplings"] == 6
    r32 = verify_free_transitive(Z3, Z2)
    assert r32["free"] and r32["transitive"] and r32["couplings"] == 1


def test_free_transitive_work_counts(Z2, Z3, count_calls):
    for I, rebuilds_expected in ((Z2, 1), (Z3, 6)):
        shifts = count_calls(extensions_mod.extensions_equivalent)
        rebuilds = count_calls(extensions_mod.extension_from_triplet)
        verify_free_transitive(Z2, I)
        # classes are matched in triplet coordinates; the only rebuilds are
        # the zero pair in z2N, once per coupling's h2N
        assert (shifts["calls"], rebuilds["calls"]) == (0, rebuilds_expected)


def test_single_theta_classes_are_finer_than_componentwise(Z3):
    # 27 valid pairs over 3 coboundaries: 9 classes, strictly finer than
    # the product of the two one-component class counts
    chi = identity_triple(Z3, Z3)
    grp = h2N(Z3, Z3, chi)
    assert len(grp.z2) == 27
    assert len(grp.b2) == 3
    assert grp.order == 9
    # independent route through whole triplets
    alpha = identity_triple(Z3, Z3)
    assert len(z2_alpha(Z3, Z3, alpha)) == 27
    classes = h2_alpha(Z3, Z3, alpha)
    assert len(classes) == 9
    assert sorted(len(c) for c in classes) == [3] * 9


def test_zero_pair_guard_for_non_split_action(Z2, Z3):
    # this orbit-map family satisfies every hom condition but admits no
    # cocycle pair at all, so there is no split class to center the group on
    neg = (0, 2, 1)
    idp = identity_perm(3)
    chi = ActionTriple((idp, neg), (idp, idp), (idp, idp))
    validate_cocycle_action(Z2, Z3, chi)
    assert z2N(Z2, Z3, chi) == []
    with pytest.raises(ValidationError):
        h2N(Z2, Z3, chi)


def _rebuild_filter(H, I, chi):
    """The reference route: keep the law-abiding pairs that rebuild."""
    return [
        p for p in z2N(H, I, chi, laws_only=True)
        if is_valid_triplet(H, I, Triplet(chi, p.g, p.f))
    ]


def _random_action(rng, H, I, auts):
    """A legal action whose family members are drawn from auts."""
    while True:
        chi = ActionTriple(*(
            (identity_perm(I.n),) + tuple(rng.choice(auts) for _ in range(H.n - 1))
            for _ in range(3)
        ))
        try:
            validate_cocycle_action(H, I, chi)
            return chi
        except ValidationError:
            pass


def test_z2N_matches_rebuild_filter(Z2, Z3, Z4):
    V = trivial_brace(klein_group())
    S3 = trivial_brace(dihedral_group(3))
    D4 = trivial_brace(dihedral_group(4))
    Z5 = trivial_brace(cyclic_group(5))
    checked = 0
    for H, I in ((Z2, Z3), (Z3, Z2), (Z2, V), (V, Z2), (S3, Z2)):
        for chi in enumerate_split_triples(H, I):
            assert z2N(H, I, chi) == _rebuild_filter(H, I, chi)
            checked += 1
    for chi in enumerate_split_triples(Z2, D4):
        I_res, chi_res, _ = restrict_action(D4, chi)
        assert z2N(Z2, I_res, chi_res) == _rebuild_filter(Z2, I_res, chi_res)
        checked += 1
    assert checked == 6 + 1 + 28 + 1 + 1 + 96
    # 200 seeded random legal actions.  A (V, Z3) action costs the
    # reference 729 rebuilds, so that pair is drawn less often and a
    # repeated action reuses its reference result.
    rng = random.Random(2024)
    pairs = [(H, I, sorted(automorphism_group(I.add))) for H, I in ((Z2, Z5), (Z2, Z4), (V, Z3))]
    reference = {}
    zero_invalid = 0
    for _ in range(200):
        H, I, auts = rng.choices(pairs, weights=(10, 10, 1))[0]
        chi = _random_action(rng, H, I, auts)
        if (H, I, chi) not in reference:
            reference[H, I, chi] = _rebuild_filter(H, I, chi)
        expected = reference[H, I, chi]
        zero_invalid += zero_pair(H.n) not in expected
        assert z2N(H, I, chi) == expected
    assert zero_invalid > 0


def test_z2N_rebuilds_at_most_the_zero_pair(monkeypatch, Z2, Z3, Z4):
    calls = []
    rebuild = extensions_mod.extension_from_triplet

    def counted(*args, **kwargs):
        calls.append(args)
        return rebuild(*args, **kwargs)

    monkeypatch.setattr(extensions_mod, "extension_from_triplet", counted)
    # b2N and the quotient make no rebuilds, so every call is z2N's
    for H, I, order in ((Z4, Z2, 4), (Z3, Z3, 9)):
        calls.clear()
        assert h2N(H, I, identity_triple(H, I)).order == order
        assert len(calls) <= 1
        calls.clear()
        assert len(z2N(H, I, identity_triple(H, I), laws_only=True)) > 0
        assert calls == []


def test_z2N_deep_cell_search():
    # 33 x 33 = 1089 free cells per component, one search level each:
    # deeper than the default recursion limit
    Z34 = trivial_brace(cyclic_group(34))
    Z1 = trivial_brace(cyclic_group(1))
    chi = identity_triple(Z34, Z1)
    assert z2N(Z34, Z1, chi) == [zero_pair(34)]
    assert h2N(Z34, Z1, chi).order == 1
    assert [d.theta for d in z1N(Z34, Z1, chi)] == [(0,) * 34]


def test_coefficient_requirements(flip4):
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    S3 = trivial_brace(
        group_from_elements(s3, lambda p, q: tuple(p[q[i]] for i in range(3)))
    )
    with pytest.raises(CoefficientsNotAbelian):
        z2N(trivial_brace(cyclic_group(2)), S3, identity_triple(trivial_brace(cyclic_group(2)), S3))
    Z2 = trivial_brace(cyclic_group(2))
    with pytest.raises(NotTrivialCoefficients):
        z2N(Z2, flip4, identity_triple(Z2, flip4))


def test_restrict_action_to_annihilator(Z2, Z3, flip4):
    # trivial abelian coefficients restrict to themselves
    chi = identity_triple(Z2, Z3)
    I_res, chi_res, elems = restrict_action(Z3, chi)
    assert I_res.n == 3 and elems == (0, 1, 2)
    p = h2N(Z2, Z3, chi_res).representatives[0]
    assert embed_pair(p, elems) == p
    # the flip brace restricts to its annihilator {0, 2}
    chi4 = identity_triple(Z2, flip4)
    I_res4, chi_res4, elems4 = restrict_action(flip4, chi4)
    assert elems4 == (0, 2)
    assert I_res4.n == 2 and I_res4.is_trivial and I_res4.add.is_abelian
    grp = h2N(Z2, I_res4, chi_res4)
    assert grp.order >= 1



# --- the coset pass against the pairwise construction -------------------------

def _pairwise_cohomology_group(H, I, z2, b2):
    """Oracle for CohomologyGroup: the pairwise construction the coset pass
    replaced, one pair_add per member.  Returns (representatives, index_of)
    or raises what the constructor raised."""
    z2set = set(z2)
    for p in z2:
        if pair_neg(I, p) not in z2set:
            raise ValidationError("cocycle pairs are not closed under negation")
    b2set = set(b2)
    if zero_pair(H.n) not in b2set:
        raise ValidationError("coboundaries must contain the zero pair")
    for p in b2:
        for q in b2:
            if pair_add(I, p, q) not in b2set:
                raise ValidationError("coboundaries are not closed under addition")
    reps = []
    index_of = {}
    for p in sorted(z2, key=CocyclePair.sort_key):
        if p in index_of:
            continue
        k = len(reps)
        reps.append(p)
        for b in b2:
            member = pair_add(I, p, b)
            if member not in z2set:
                raise ValidationError(
                    "cocycle pairs are not closed under adding a coboundary"
                )
            if member in index_of and index_of[member] != k:
                raise ValidationError("coset partition is inconsistent")
            index_of[member] = k
    if len(index_of) != len(z2set):
        raise ValidationError("cosets do not partition the cocycle pairs")
    if len(reps) * len(b2) != len(z2):
        raise ValidationError("coset sizes are uneven")
    for p in reps:
        for q in (pair_add(I, p, p), pair_neg(I, p)):
            if q not in index_of:
                raise InputError("pair is not a cocycle pair for this action")
    return reps, index_of


def _outcome(build):
    try:
        return build()
    except (ValidationError, InputError) as exc:
        return (type(exc), str(exc))


COSET_PAIRS = [
    ("Z2", "V"),
    ("V", "Z2"),
    ("S3", "Z2"),
    ("Z4", "Z2"),
    ("Z2", "D4"),
]


def test_coset_pass_matches_pairwise():
    braces = {
        "Z2": trivial_brace(cyclic_group(2)),
        "Z4": trivial_brace(cyclic_group(4)),
        "V": trivial_brace(klein_group()),
        "S3": trivial_brace(dihedral_group(3)),
        "D4": trivial_brace(dihedral_group(4)),
    }
    checked = 0
    for h_name, i_name in COSET_PAIRS:
        H, I = braces[h_name], braces[i_name]
        for chi in enumerate_split_triples(H, I):
            I_res, chi_res, _ = restrict_action(I, chi)
            z2 = z2N(H, I_res, chi_res)
            b2 = b2N(H, I_res, chi_res)
            grp = CohomologyGroup(H, I_res, chi_res, z2, b2)
            reps, index_of = _pairwise_cohomology_group(H, I_res, z2, b2)
            assert grp.representatives == reps
            assert all(grp.index_of(p) == index_of[p] for p in z2)
            for p in reps:
                assert grp.neg(p) == reps[index_of[pair_neg(I_res, p)]]
                for q in z2:
                    assert grp.add(p, q) == reps[index_of[pair_add(I_res, p, q)]]
            checked += 1
    assert checked == 28 + 1 + 1 + 1 + 96


def _pair2(g, f):
    """A normalized pair on a 2-element H from its one free cell per table."""
    return CocyclePair(((0, 0), (0, g)), ((0, 0), (0, f)))


def test_coset_pass_errors_match_pairwise(Z2, Z3):
    chi = identity_triple(Z2, Z3)
    z2 = z2N(Z2, Z3, chi)
    b2 = b2N(Z2, Z3, chi)
    zero = zero_pair(2)
    nonzero = [p for p in b2 if p != zero]
    # tables on which 0 is only a left identity, so a coset can miss its
    # own representative (T3) or run into another coset (T2)
    T3 = SkewBrace(*[FiniteGroup([[0, 1, 2], [2, 0, 1], [2, 0, 0]])] * 2)
    T2 = SkewBrace(*[FiniteGroup([[0, 1], [0, 0]])] * 2)
    crafted = [
        (Z3, z2[:2], b2, "cocycle pairs are not closed under negation"),
        (Z3, z2, nonzero, "coboundaries must contain the zero pair"),
        (Z3, z2, [zero, nonzero[0]], "coboundaries are not closed under addition"),
        (Z3, [zero], b2, "cocycle pairs are not closed under adding a coboundary"),
        (Z3, z2 + [zero], b2, "coset sizes are uneven"),
        (T3, [_pair2(1, 1), _pair2(2, 2)], [zero],
         "cosets do not partition the cocycle pairs"),
        (T2, [_pair2(1, 1), zero], [zero], "coset partition is inconsistent"),
        (Z2, [_pair2(0, 1)], [zero], "pair is not a cocycle pair for this action"),
    ]
    for I, zs, bs, message in crafted:
        expected = _outcome(lambda: _pairwise_cohomology_group(Z2, I, zs, bs))
        assert expected[1] == message
        got = _outcome(lambda: CohomologyGroup(Z2, I, None, zs, bs))
        assert got == expected
    # random tables, lists with duplicates, closures of random generators
    rng = random.Random(7207)
    seen = set()
    for _ in range(400):
        n = rng.randrange(2, 5)
        table = [[x if a == 0 else rng.randrange(n) for x in range(n)] for a in range(n)]
        I = SkewBrace(FiniteGroup(table), FiniteGroup(table))
        cells = [_pair2(a, b) for a in range(n) for b in range(n)]
        bs = [zero] + rng.sample(cells, rng.randrange(0, 3))
        zs = list(bs) + rng.sample(cells, rng.randrange(0, len(cells)))
        for _ in range(rng.randrange(3)):
            bs = list(dict.fromkeys(bs + [pair_add(I, p, q) for p in bs for q in bs]))
            zs = list(dict.fromkeys(zs + [pair_add(I, p, b) for p in zs for b in bs]
                                    + [pair_neg(I, p) for p in zs]))
        zs += rng.sample(zs, rng.randrange(2))
        rng.shuffle(zs)
        rng.shuffle(bs)
        expected = _outcome(lambda: _pairwise_cohomology_group(Z2, I, zs, bs))
        got = _outcome(lambda: CohomologyGroup(Z2, I, None, zs, bs))
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
            seen.add(expected[1])
        else:
            reps, index_of = expected
            assert got.representatives == reps
            assert all(got.index_of(p) == index_of[p] for p in zs)
            seen.add("ok")
    # every outcome past the first two checks occurs
    assert {"ok", "coboundaries are not closed under addition",
            "cocycle pairs are not closed under adding a coboundary",
            "coset partition is inconsistent", "cosets do not partition the cocycle pairs",
            "coset sizes are uneven"} <= seen
