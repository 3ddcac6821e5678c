"""Brace layer: axioms, lambda maps, socle and annihilator, substructures,
homomorphisms, automorphisms and isomorphism search."""

import random

import pytest

from braceforge import catalog
from braceforge.braces import (
    BraceHom,
    annihilator,
    brace_automorphisms,
    find_brace_isomorphism,
    identities_check,
    is_ideal,
    is_left_ideal,
    is_sub_brace,
    lambda_is_hom,
    socle,
    trivial_brace,
    validate_brace,
)
from braceforge.errors import BraceAxiomFailed, NotASubbrace
from braceforge.groups import (
    automorphism_group,
    centre,
    cyclic_group,
    dihedral_group,
    relabel_table,
)
from braceforge.split import enumerate_split_triples, semidirect_product

# relabeled-Klein addition with cyclic circle: fails the compatibility axiom
AXIOM_WITNESS_ADD = [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]]
AXIOM_WITNESS_CIRC = [[0, 1, 2, 3], [1, 2, 3, 0], [2, 3, 0, 1], [3, 0, 1, 2]]

# order-6 brace with symmetric-group addition; {0, 1} below is
# lambda-stable and circle-normal yet not addition-normal
S3ADD_BRACE_ADD = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 3, 2, 5, 4],
    [2, 4, 0, 5, 1, 3],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 4, 1, 2, 0],
]
S3ADD_BRACE_CIRC = [
    [0, 1, 2, 3, 4, 5],
    [1, 0, 4, 5, 2, 3],
    [2, 4, 3, 1, 5, 0],
    [3, 5, 1, 4, 0, 2],
    [4, 2, 5, 0, 3, 1],
    [5, 3, 0, 2, 1, 4],
]


def test_trivial_brace_lambda_is_identity():
    B = trivial_brace(cyclic_group(5))
    assert B.is_trivial
    assert all(B.lam(a) == tuple(range(5)) for a in range(5))
    assert lambda_is_hom(B) and identities_check(B)


def test_axiom_failure_witness():
    with pytest.raises(BraceAxiomFailed) as exc:
        validate_brace(AXIOM_WITNESS_ADD, AXIOM_WITNESS_CIRC)
    assert exc.value.witness == {"a": 1, "b": 1, "c": 1}


def test_twisted_braces_validate():
    # same carrier, different group structures, compatible in both pairings
    xor = [[a ^ b for b in range(4)] for a in range(4)]
    z4 = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    for add, circ in ((xor, z4), (z4, xor)):
        B = validate_brace(add, circ)
        assert not B.is_trivial
        assert lambda_is_hom(B) and identities_check(B)
    # cyclic addition with symmetric circle group at order 6
    z6 = [[(a + b) % 6 for b in range(6)] for a in range(6)]
    B6 = validate_brace(z6, dihedral_group(3).table)
    assert not B6.is_trivial
    assert lambda_is_hom(B6) and identities_check(B6)


def test_lambda_closed_form_on_flip_brace(flip4):
    # add = Z4 and a o b = a + (-1)^a b give lambda_a(b) = (-1)^a b
    for a in range(4):
        assert flip4.lam(a) == tuple((((-1) ** a) * b) % 4 for b in range(4))


def test_socle_and_annihilator():
    D4t = trivial_brace(dihedral_group(4))
    assert socle(D4t) == annihilator(D4t) == centre(dihedral_group(4))

    H8 = catalog.example5_acting_brace()
    assert socle(H8) == (0, 4)
    assert annihilator(H8) == (0, 4)

    I4 = catalog.example4_coefficient_brace()
    assert socle(I4) == (0, 2)
    assert annihilator(I4) == (0, 2)


def test_substructure_predicates():
    H8 = catalog.example5_acting_brace()
    assert is_sub_brace(H8, {0, 4})
    assert is_left_ideal(H8, {0, 4})
    assert is_ideal(H8, {0, 4})
    with pytest.raises(NotASubbrace):
        is_left_ideal(H8, {0, 1})


def test_ideal_requires_additive_normality():
    E = validate_brace(S3ADD_BRACE_ADD, S3ADD_BRACE_CIRC)
    sub = {0, 1}
    assert is_left_ideal(E, sub)
    assert all(E.circ.conj(a, y) in sub for a in range(6) for y in sub)
    assert not all(E.add.conj(a, y) in sub for a in range(6) for y in sub)
    assert not is_ideal(E, sub)


def test_brace_hom_validity(Z2, Z4, flip4):
    doubling = BraceHom(Z2, Z4, (0, 2))
    assert doubling.is_valid() and doubling.is_injective()
    assert not doubling.is_surjective()
    assert BraceHom(Z4, Z2, (0, 1, 0, 1)).is_valid()
    # the identity carrier map Z4 -> flip brace breaks the circle table
    assert not BraceHom(Z4, flip4, (0, 1, 2, 3)).is_valid()
    assert BraceHom(Z4, Z4, (0, 1, 2, 3)).kernel() == (0,)


@pytest.fixture(scope="module")
def oracle_braces() -> list:
    """Axiom fixtures of order <= 16 and the 96 split Z2-by-D4 products."""
    Z2 = trivial_brace(cyclic_group(2))
    D4 = trivial_brace(dihedral_group(4))
    products = [semidirect_product(Z2, D4, t) for t in enumerate_split_triples(Z2, D4)]
    assert len(products) == 96
    return [B for _, B in catalog.axiom_fixtures() if B.n <= 16] + products


def test_brace_automorphisms(Z3, flip4, xor4, oracle_braces):
    assert brace_automorphisms(Z3).order == 2
    assert brace_automorphisms(trivial_brace(cyclic_group(5))).order == 4
    assert brace_automorphisms(flip4).order == 2
    assert brace_automorphisms(xor4).order == 2
    # oracle: every additive automorphism, kept when it also preserves o
    for E in oracle_braces:
        slow = {p for p in automorphism_group(E.add) if BraceHom(E, E, p).is_valid()}
        assert set(brace_automorphisms(E).elements) == slow


def test_find_brace_isomorphism(Z4, flip4, oracle_braces):
    # relabeling both tables along one permutation yields an isomorphic brace
    p = (0, 3, 2, 1)
    relabeled = validate_brace(
        [[p[flip4.add.table[a][b]] for b in p] for a in p],
        [[p[flip4.circ.table[a][b]] for b in p] for a in p],
    )
    assert find_brace_isomorphism(flip4, relabeled) is not None
    assert find_brace_isomorphism(flip4, Z4) is None
    rng = random.Random(2112)
    for E in oracle_braces[::3]:
        tail = list(range(1, E.n))
        rng.shuffle(tail)
        perm = [0] + tail
        F = validate_brace(
            relabel_table(E.add.table, perm), relabel_table(E.circ.table, perm)
        )
        p = find_brace_isomorphism(E, F)
        assert p is not None
        hom = BraceHom(E, F, p)
        assert hom.is_valid() and hom.is_injective()
