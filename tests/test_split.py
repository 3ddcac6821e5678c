"""Split products: action-triple validation with its error taxonomy, the
pair-table construction, exhaustive triple enumeration, and decomposition
of split extensions back into triples."""

import pytest

from braceforge import catalog
from braceforge.braces import trivial_brace, validate_brace
from braceforge.errors import (
    CompatibilityFailed,
    NotAntiHom,
    NotAutomorphism,
    NotHom,
    NotSplit,
    SearchBudgetExceeded,
)
from braceforge.extensions import validate_extension
from braceforge.groups import (
    cyclic_group,
    dihedral_group,
    find_isomorphism,
    identity_perm,
    invert_perm,
)
from braceforge.split import (
    ActionTriple,
    compat_as_written_witness,
    decode_pair,
    encode_pair,
    enumerate_split_triples,
    identity_triple,
    semidirect_product,
    split_decompose,
    triple_from_tables,
    validate_split_triple,
)

IDP3 = identity_perm(3)
NEG3 = (0, 2, 1)


def negation_triple(Z2, Z3):
    """Both nontrivial orbit maps of Z2 on Z3 send y to -y."""
    return ActionTriple((IDP3, NEG3), (IDP3, NEG3), (IDP3, NEG3))


def test_pair_encoding_round_trip():
    for h in range(4):
        for y in range(5):
            assert decode_pair(encode_pair(h, y, 5), 5) == (h, y)


def test_identity_triple_gives_direct_product(Z2, Z3):
    t = identity_triple(Z2, Z3)
    info = validate_split_triple(Z2, Z3, t)
    assert info.full
    E = semidirect_product(Z2, Z3, t)
    assert E.n == 6 and E.is_trivial
    assert E.add.is_abelian


def test_negation_product_is_symmetric_group_brace(Z2, Z3):
    t = negation_triple(Z2, Z3)
    validate_split_triple(Z2, Z3, t)
    E = semidirect_product(Z2, Z3, t)
    assert E.n == 6
    assert find_isomorphism(E.add, dihedral_group(3)) is not None
    assert find_isomorphism(E.circ, dihedral_group(3)) is not None
    # the product converts directly into an extension with the pair maps
    ext = validate_extension(E, Z2, Z3, tuple(range(3)), tuple(x // 3 for x in range(6)))
    assert ext.fiber(1) == (3, 4, 5)


def test_validate_split_triple_error_taxonomy(Z2, Z3):
    shift = (1, 2, 0)
    cases = [
        (ActionTriple((IDP3, shift), (IDP3, IDP3), (IDP3, IDP3)), NotAutomorphism,
         {"h": 1, "family": "nu"}),
        (ActionTriple((NEG3, NEG3), (IDP3, IDP3), (IDP3, IDP3)), NotHom,
         {"h1": 0, "h2": 0}),
        (ActionTriple((IDP3, IDP3), (NEG3, IDP3), (IDP3, IDP3)), NotAntiHom,
         {"h1": 0, "h2": 0}),
        (ActionTriple((IDP3, IDP3), (IDP3, IDP3), (IDP3, NEG3)), CompatibilityFailed,
         {"h1": 0, "h2": 1, "h3": 1, "y1": 1, "y2": 0, "y3": 0}),
        (ActionTriple((IDP3, NEG3), (IDP3, IDP3), (IDP3, IDP3)), CompatibilityFailed,
         {"h1": 0, "h2": 1, "h3": 1, "y1": 1, "y2": 0, "y3": 0}),
    ]
    for triple, err, witness in cases:
        with pytest.raises(err) as exc:
            validate_split_triple(Z2, Z3, triple)
        assert dict(exc.value.witness) == witness


def test_triple_from_tables(Z2, Z3):
    t = triple_from_tables([IDP3, NEG3], [IDP3, NEG3], [IDP3, NEG3])
    assert t == negation_triple(Z2, Z3)


def test_enumerate_split_triples_counts(Z2, Z3, xor4, flip4):
    trips = enumerate_split_triples(Z2, Z3)
    assert len(trips) == 6
    idmu = [t for t in trips if t.mu == (IDP3, IDP3)]
    assert len(idmu) == 2
    assert negation_triple(Z2, Z3) in trips
    # the two orbit-map patterns rejected by the compatibility sweep
    flags = {(t.nu[1] == NEG3, t.mu[1] == NEG3, t.sigma[1] == NEG3) for t in trips}
    assert (False, False, True) not in flags and (True, False, False) not in flags

    assert len(enumerate_split_triples(xor4, flip4)) == 8

    H8 = catalog.example5_acting_brace()
    assert len(enumerate_split_triples(H8, flip4)) == 16


def test_enumeration_matches_ground_truth_on_dihedral_pair():
    # the enumerator itself raises if its compatibility sweep ever
    # disagrees with direct validation of the built product
    H = trivial_brace(dihedral_group(4))
    I = trivial_brace(cyclic_group(3))
    trips = enumerate_split_triples(H, I)
    assert len(trips) == 28
    neg = tuple((-x) % 3 for x in range(3))
    fam = tuple(neg if ((x // 2) + (x % 2)) % 2 else identity_perm(3) for x in range(8))
    alternating = ActionTriple(fam, fam, fam)
    assert alternating in trips
    aw_failures = sum(
        1 for t in trips if compat_as_written_witness(H, I, t) is not None
    )
    assert aw_failures == 24


def test_as_written_variant_differs(Z2, Z3):
    # the sign-variant compatibility law rejects a triple that the
    # operative law accepts
    H = trivial_brace(dihedral_group(4))
    I = trivial_brace(cyclic_group(3))
    neg = tuple((-x) % 3 for x in range(3))
    fam = tuple(neg if ((x // 2) + (x % 2)) % 2 else identity_perm(3) for x in range(8))
    t = ActionTriple(fam, fam, fam)
    assert validate_split_triple(H, I, t).full
    assert compat_as_written_witness(H, I, t) == (0, 1, 0, 0, 1, 0)
    # the negation triple of (Z2, Z3) also separates the two variants
    assert compat_as_written_witness(Z2, Z3, negation_triple(Z2, Z3)) is not None
    # with identity orbit maps every variant degenerates to the same law
    assert compat_as_written_witness(Z2, Z3, identity_triple(Z2, Z3)) is None


def test_split_decompose_round_trip(Z2, Z3, xor4, flip4, split_ext, z4_ext):
    t, hom = split_decompose(split_ext)
    assert t == identity_triple(Z2, Z3)
    assert hom.is_valid()
    with pytest.raises(NotSplit):
        split_decompose(z4_ext)
    # a brace-hom section exists on every split product
    pairs = [
        (Z2, Z3),
        (xor4, flip4),
        (catalog.example5_acting_brace(), flip4),
        (trivial_brace(dihedral_group(4)), trivial_brace(cyclic_group(3))),
    ]
    for H, I in pairs:
        for t in enumerate_split_triples(H, I):
            E = semidirect_product(H, I, t)
            ext = validate_extension(
                E, H, I, tuple(range(I.n)), tuple(x // I.n for x in range(E.n))
            )
            found, hom = split_decompose(ext)
            assert found == t
            assert hom.is_valid() and hom.is_injective()


def test_enumeration_budget_guard(Z2, Z3):
    with pytest.raises(SearchBudgetExceeded):
        enumerate_split_triples(Z2, Z3, budget=5)
