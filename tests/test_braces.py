"""Brace layer: axioms, lambda maps, socle and annihilator, substructures,
homomorphisms, automorphisms and isomorphism search."""

import itertools
import random

import numpy as np
import pytest

from braceforge import catalog
from braceforge.braces import (
    BraceHom,
    SkewBrace,
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
    FiniteGroup,
    all_group_tables,
    automorphism_group,
    compose,
    cyclic_group,
    dihedral_group,
    invert_perm,
    is_automorphism,
    relabel_table,
    standard_groups_of_order,
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


def _loop_lambda_table(E) -> tuple:
    """Oracle for SkewBrace.lambda_table: lam(a)[b] = -a + (a o b), one
    cell at a time."""
    add, circ, neg = E.add.table, E.circ.table, E.add.inv
    return tuple(
        tuple(add[neg[a]][circ[a][b]] for b in range(E.n)) for a in range(E.n)
    )


def _loop_identities_check(E) -> bool:
    """Oracle for identities_check: both identities, pair by pair."""
    lam = _loop_lambda_table(E)
    add, circ = E.add.table, E.circ.table
    for a in range(E.n):
        la = lam[a]
        inv_la = invert_perm(la)
        for b in range(E.n):
            if add[a][b] != circ[a][inv_la[b]]:
                return False
            if circ[a][b] != add[a][la[b]]:
                return False
    return True


def _one_cell_tampered(B, rng, count):
    """`count` braces built unchecked from B with one cell of one table
    changed to another in-range value."""
    out = []
    for _ in range(count):
        tables = [list(map(list, B.add.table)), list(map(list, B.circ.table))]
        t = tables[rng.randrange(2)]
        a, b = rng.randrange(B.n), rng.randrange(B.n)
        t[a][b] = rng.choice([x for x in range(B.n) if x != t[a][b]])
        out.append(SkewBrace(FiniteGroup(tables[0]), FiniteGroup(tables[1])))
    return out


def test_gathered_lambda_and_identities_match_loops(pairwise_braces, axiom_braces):
    fixtures = [B for _, B in axiom_braces]
    labelled = [B for n in range(1, 7) for B in pairwise_braces(n)]
    assert (len(fixtures), len(labelled)) == (44, 1 + 1 + 1 + 10 + 6 + 280)
    for B in fixtures + labelled:
        # the lam array that lambda_is_hom and identities_check gather on,
        # its rows, and the hash, all built on first use
        assert B._lam.dtype == np.int64 and np.array_equal(B._lam, _loop_lambda_table(B))
        assert B.lambda_table == _loop_lambda_table(B)
        assert hash(B) == hash((B.add.table, B.circ.table))
        assert identities_check(B) is True and _loop_identities_check(B) is True
    rng = random.Random(2201)
    tampered = [T for B in fixtures + labelled if B.n > 1
                for T in _one_cell_tampered(B, rng, 2 if B.n <= 16 else 1)]
    for T in tampered:
        assert np.array_equal(T._lam, _loop_lambda_table(T))
        assert T.lambda_table == _loop_lambda_table(T)
        assert identities_check(T) is False and _loop_identities_check(T) is False
    # in-range tables that are not groups, with lam rows that are not
    # permutations: the gather keeps the loop's verdict either way, which
    # inverting lam by argsort would not
    for add, circ, verdict in (
        ([[0, 1, 1], [1, 0, 2], [2, 1, 2]], [[1, 1, 0], [1, 2, 0], [2, 1, 1]], True),
        ([[0, 0, 0], [1, 0, 0], [1, 1, 1]], [[0, 0, 0], [1, 0, 0], [1, 1, 1]], False),
    ):
        T = SkewBrace(FiniteGroup(add), FiniteGroup(circ))
        assert T.lambda_table == _loop_lambda_table(T)
        assert identities_check(T) is _loop_identities_check(T) is verdict


def lambda_is_hom_loop(E) -> bool:
    """Oracle for lambda_is_hom: the pairwise compose loop."""
    lam = E.lambda_table
    if not all(is_automorphism(p, E.add) for p in lam):
        return False
    circ = E.circ.table
    return all(
        lam[circ[a][b]] == compose(lam[a], lam[b]) for a in range(E.n) for b in range(E.n)
    )


def test_lambda_is_hom_matches_loop(axiom_braces):
    fixtures = [B for _, B in axiom_braces]
    assert len(fixtures) == 44
    assert all(lambda_is_hom(B) and lambda_is_hom_loop(B) for B in fixtures)
    # unrelated group pairs, most of them not braces
    rng = random.Random(4406)
    pairs = [(a, c) for a in all_group_tables(4) for c in all_group_tables(4)]
    six = all_group_tables(6)
    pairs += [(rng.choice(six), rng.choice(six)) for _ in range(200)]
    # add Z_p, a o b = a + u[a] b: every lam(a) is the automorphism
    # b -> u[a] b, so only the composition law can fail
    for p in (5, 7):
        for _ in range(10):
            u = [1] + [rng.randrange(1, p) for _ in range(p - 1)]
            pairs.append((cyclic_group(p).table,
                          [[(a + u[a] * b) % p for b in range(p)] for a in range(p)]))
    verdicts = []
    for add, circ in pairs:
        E = SkewBrace(FiniteGroup(add), FiniteGroup(circ))
        verdicts.append(lambda_is_hom_loop(E))
        assert lambda_is_hom(E) == verdicts[-1]
    assert verdicts[-20:].count(False) >= 10 and verdicts[:-20].count(False) >= 100


def test_lambda_is_hom_rejects_like_loop():
    # a o b = a + p_a(b) makes lam(a) = p_a for any maps p_a, so each
    # reason lambda_is_hom can fail is reached on purpose
    rng = random.Random(1561)
    kinds = {"not bijective": 0, "moves 0": 0, "not additive": 0, "automorphisms": 0}
    for n in (3, 4, 5, 6, 8):
        for add in all_group_tables(n)[:3] if n < 8 else [dihedral_group(4).table]:
            G = FiniteGroup(add)
            auts = automorphism_group(G).sorted_elements()
            others = [[0, *p] for p in itertools.permutations(range(1, n))
                      if not is_automorphism((0,) + p, G)]
            for kind in kinds:
                for _ in range(6):
                    maps = [list(rng.choice(auts)) for _ in range(n)]
                    if kind != "automorphisms":
                        a = rng.randrange(1, n)
                        if kind == "not bijective":
                            maps[a] = [0] + [rng.randrange(n) for _ in range(n - 1)]
                            maps[a][-1] = maps[a][rng.randrange(n - 1)]
                        elif kind == "moves 0":
                            maps[a] = maps[a][1:] + maps[a][:1]
                        elif others:
                            maps[a] = rng.choice(others)
                        else:  # every bijection fixing 0 is additive
                            continue
                    circ = [[add[a][maps[a][b]] for b in range(n)] for a in range(n)]
                    E = SkewBrace(G, FiniteGroup(circ))
                    assert [list(p) for p in E.lambda_table] == maps
                    assert lambda_is_hom(E) == lambda_is_hom_loop(E)
                    if kind == "automorphisms":
                        assert all(is_automorphism(p, G) for p in maps)
                    else:
                        assert not lambda_is_hom(E)
                    kinds[kind] += 1
    assert min(kinds.values()) > 0
    # lam(a) = (2 4) for odd a, the identity otherwise, over Z6: lam is a
    # homomorphism of the circle operation into Sym(6), so only additivity
    # fails
    z6 = cyclic_group(6)
    swap = (0, 1, 4, 3, 2, 5)
    maps = [swap if a % 2 else tuple(range(6)) for a in range(6)]
    E = SkewBrace(z6, FiniteGroup([[z6.table[a][maps[a][b]] for b in range(6)]
                                   for a in range(6)]))
    lam, circ = E.lambda_table, E.circ.table
    assert all(lam[circ[a][b]] == compose(lam[a], lam[b]) for a in range(6) for b in range(6))
    assert not lambda_is_hom(E) and not lambda_is_hom_loop(E)


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
    assert socle(D4t) == annihilator(D4t) == dihedral_group(4).centre()

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
    # a value outside 0..|dst|-1 is not a map into dst: no IndexError, and
    # no -1 read as the last element
    for f in ((0, 5), (0, 2), (0, -1)):
        assert BraceHom(Z2, Z2, f).is_valid() is False


def _loop_brace_hom(src, dst, f) -> bool:
    """Oracle for BraceHom.is_valid: both products checked at every pair."""
    if len(f) != src.n or f[0] != 0:
        return False
    sa, sc = src.add.table, src.circ.table
    da, dc = dst.add.table, dst.circ.table
    return all(
        f[sa[a][b]] == da[f[a]][f[b]] and f[sc[a][b]] == dc[f[a]][f[b]]
        for a in range(src.n) for b in range(src.n)
    )


def test_brace_hom_validity_matches_loop(xor4, flip4):
    # every 0-fixing map between the trivial braces of order <= 4, xor4 and
    # flip4, in both directions, and maps that move 0 or have the wrong length
    braces = [trivial_brace(G) for n in range(1, 5) for G in standard_groups_of_order(n)]
    braces += [xor4, flip4]
    checked = accepted = 0
    for src, dst in itertools.product(braces, repeat=2):
        maps = [(0,) + tail for tail in itertools.product(range(dst.n), repeat=src.n - 1)]
        maps += [(1,) * src.n, (0,) * (src.n + 1)] if dst.n > 1 else []
        for f in maps:
            got = BraceHom(src, dst, f).is_valid()
            assert got is _loop_brace_hom(src, dst, f), (src, dst, f)
            checked += 1
            accepted += got
    assert 0 < accepted < checked


@pytest.fixture(scope="module")
def oracle_braces(axiom_braces) -> list:
    """Axiom fixtures of order <= 16 and the 96 split Z2-by-D4 products."""
    Z2 = trivial_brace(cyclic_group(2))
    D4 = trivial_brace(dihedral_group(4))
    products = [semidirect_product(Z2, D4, t) for t in enumerate_split_triples(Z2, D4)]
    assert len(products) == 96
    return [B for _, B in axiom_braces if B.n <= 16] + products


def test_brace_automorphisms(Z3, flip4, xor4, oracle_braces):
    assert brace_automorphisms(Z3).order == 2
    assert brace_automorphisms(trivial_brace(cyclic_group(5))).order == 4
    assert brace_automorphisms(flip4).order == 2
    assert brace_automorphisms(xor4).order == 2
    # oracle: every additive automorphism, kept when it also preserves o
    for E in oracle_braces:
        slow = {p for p in automorphism_group(E.add) if _loop_brace_hom(E, E, p)}
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
