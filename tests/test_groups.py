"""Group layer: permutation helpers, table validation, constructors,
automorphisms, isomorphism search and exhaustive table enumeration."""

import itertools

import numpy as np
import pytest

from braceforge import budget, catalog
from braceforge.braces import brace_automorphisms, trivial_brace
from braceforge.errors import (
    NoIdentityAtZero,
    NoInverse,
    NotAssociative,
    NotClosed,
    SearchBudgetExceeded,
    ValidationError,
)
from braceforge.groups import (
    FiniteGroup,
    PermGroup,
    all_group_tables,
    alternating4_group,
    automorphism_group,
    compose,
    cyclic_group,
    describe_group,
    dicyclic_group,
    dihedral_group,
    direct_product_group,
    equal_mod,
    find_isomorphism,
    group_from_elements,
    homs_to_perm_group,
    identity_perm,
    inner_group,
    invert_perm,
    is_isomorphic,
    is_perm,
    klein_group,
    perm_order,
    standard_groups_of_order,
    validate_group,
)
from braceforge.split import enumerate_split_triples, semidirect_product

S3_ELEMENTS = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]

# smallest loop with two-sided identity and inverses that is not a group
NONASSOCIATIVE_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_perm_helpers():
    p = (1, 2, 0)
    q = (0, 2, 1)
    # compose applies the right-hand factor first
    assert compose(p, q) == tuple(p[q[x]] for x in range(3))
    assert compose(p, invert_perm(p)) == identity_perm(3)
    assert perm_order(p) == 3 and perm_order(q) == 2
    assert is_perm(p, 3)
    assert not is_perm((0, 0, 1), 3)
    assert not is_perm((0, 1), 3)


def test_validate_group_witnesses():
    G = validate_group([[0, 1], [1, 0]])
    assert G.n == 2 and G.is_abelian

    with pytest.raises(NotClosed):
        validate_group([[0, 1], [1]])  # ragged row
    with pytest.raises(NotClosed) as exc:
        validate_group([[0, 1], [1, 2]])
    assert exc.value.witness == {"a": 1, "b": 1}
    with pytest.raises(NoIdentityAtZero):
        validate_group([[1, 0], [0, 1]])
    with pytest.raises(NoInverse):
        validate_group([[0, 1], [1, 1]])
    with pytest.raises(NotAssociative) as exc:
        validate_group(NONASSOCIATIVE_LOOP)
    assert exc.value.witness == {"a": 1, "b": 1, "c": 2}


def _loop_validate_group(table):
    """The reference validator: each axiom checked cell by cell, in order."""
    n = len(table)
    if n == 0:
        raise NotClosed("empty table")
    for a, row in enumerate(table):
        if len(row) != n:
            raise NotClosed(f"row {a} has length {len(row)}, expected {n}", row=a)
        for b, cell in enumerate(row):
            if not isinstance(cell, (int, np.integer)) or not 0 <= cell < n:
                raise NotClosed(f"entry ({a},{b}) = {cell!r} out of range", a=a, b=b)
    for a in range(n):
        if table[0][a] != a or table[a][0] != a:
            raise NoIdentityAtZero(f"index 0 is not a two-sided identity at {a}", a=a)
    for a in range(n):
        if not any(table[a][b] == 0 and table[b][a] == 0 for b in range(n)):
            raise NoInverse(f"element {a} has no two-sided inverse", a=a)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                left, right = table[table[a][b]][c], table[a][table[b][c]]
                if left != right:
                    raise NotAssociative(
                        f"({a}*{b})*{c} = {left} != {right} = {a}*({b}*{c})",
                        a=a, b=b, c=c,
                    )
    return FiniteGroup(table)


def _loop_inverses(table):
    """First b with a*b = 0 = b*a for each a, or -1."""
    n = len(table)
    return tuple(
        next((b for b in range(n) if table[a][b] == 0 and table[b][a] == 0), -1)
        for a in range(n)
    )


Z3_TABLE = [[0, 1, 2], [1, 2, 0], [2, 0, 1]]
MALFORMED_TABLES = [
    [],
    [[0, 1], [1]],                                   # ragged row
    [[0, 1, 2], [1, 2, 0]],                          # fewer rows than columns
    [[0, 1], [1, 0.0]],                              # float
    [[0, 1], ["1", 0]],                              # string
    [[0, 1], [1, [0]]],                              # nested list
    [[0, 1], [1, -1]],                               # negative
    [[0, 1], [1, 2]],                                # entry >= n
    [[0, 1], [1, 2 ** 70]],                          # beyond int64
    [[0, np.int64(1)], [1, np.int64(2)]],            # numpy-integer entry >= n
    np.array([[0, 1], [1, 0.5]]),                    # float array
    [[0, 2, 1], [1, 2, 0], [2, 0, 1]],               # identity broken in row 0
    [[0, 1, 2], [2, 0, 1], [1, 2, 0]],               # identity broken in column 0
    [[0, 1], [1, 1]],                                # no inverse
    [[0, 1, 2], [1, 1, 1], [2, 2, 0]],               # no inverse for 1, then for 2
    NONASSOCIATIVE_LOOP,
]
WELL_FORMED_TABLES = [
    [[0]],
    Z3_TABLE,
    np.array(Z3_TABLE),
    np.array(Z3_TABLE, dtype=np.uint8),
    [[0, np.int64(1)], [np.int64(1), 0]],            # numpy-integer entries
    [[False, True], [True, False]],                  # bools are ints
    tuple(tuple(row) for row in Z3_TABLE),
]


def test_validate_group_matches_loop():
    for table in MALFORMED_TABLES:
        with pytest.raises(ValidationError) as expected:
            _loop_validate_group(table)
        with pytest.raises(ValidationError) as got:
            validate_group(table)
        assert type(got.value) is type(expected.value), table
        assert str(got.value) == str(expected.value)
        assert got.value.witness == expected.value.witness
    for table in WELL_FORMED_TABLES:
        G = validate_group(table)
        assert G == _loop_validate_group(table)
        assert G.inv == _loop_inverses(G.table)
    for n in range(1, 8):
        for table in all_group_tables(n):
            assert validate_group(table) == _loop_validate_group(table)


def test_inverses_match_loop():
    tables = [t for n in range(1, 8) for t in all_group_tables(n)]
    tables += [G.table for _, G in catalog.groups_of_order_8()]
    for _, B in catalog.axiom_fixtures():
        tables += [B.add.table, B.circ.table]
    # not groups: inverses missing, or two candidates of which the first wins
    tables += [[[0, 1], [1, 1]], NONASSOCIATIVE_LOOP, [[0, 1, 2], [1, 0, 0], [2, 0, 0]]]
    for table in tables:
        assert FiniteGroup(table).inv == _loop_inverses(table)


def test_constructors_and_invariants():
    Z6 = cyclic_group(6)
    assert Z6.element_order(1) == 6 and Z6.is_abelian

    D4 = dihedral_group(4)
    assert D4.n == 8 and not D4.is_abelian and len(D4.centre()) == 2

    Q8 = dicyclic_group(2)
    assert Q8.n == 8
    assert sorted(Q8.element_order(x) for x in range(8)) == [1, 2, 4, 4, 4, 4, 4, 4]

    A4 = alternating4_group()
    assert A4.n == 12 and len(A4.centre()) == 1

    V = direct_product_group(cyclic_group(2), cyclic_group(2))
    assert all(V.element_order(x) in (1, 2) for x in range(4))
    assert V.table == klein_group().table

    S3 = group_from_elements(S3_ELEMENTS, lambda p, q: tuple(p[q[i]] for i in range(3)))
    assert S3.n == 6 and not S3.is_abelian


def test_describe_group_names():
    assert describe_group(cyclic_group(6)) == "Z6"
    assert describe_group(dihedral_group(3)) == "S3"
    assert describe_group(dihedral_group(4)) == "D4"
    assert describe_group(dicyclic_group(2)) == "Q8"
    assert describe_group(klein_group()) == "Z2 x Z2"
    assert describe_group(direct_product_group(cyclic_group(2), cyclic_group(4))) == "Z2 x Z4"


def _describe_group_rebuilt(G):
    """Oracle for describe_group: builds its candidate groups on every call."""
    n = G.n
    if n == 1:
        return "trivial"
    if G.is_abelian:
        def chains(m, max_d):
            if m == 1:
                return [[]]
            return [[d] + tail for d in range(2, min(m, max_d) + 1) if m % d == 0
                    for tail in chains(m // d, d)]
        for chain in chains(n, n):
            if all(chain[i] % chain[i + 1] == 0 for i in range(len(chain) - 1)):
                H = cyclic_group(chain[0])
                for d in chain[1:]:
                    H = direct_product_group(H, cyclic_group(d))
                if is_isomorphic(G, H):
                    return " x ".join(f"Z{d}" for d in sorted(chain))
        return f"abelian of order {n}"
    candidates = []
    if n % 2 == 0:
        candidates.append(("S3" if n == 6 else f"D{n // 2}", dihedral_group(n // 2)))
    if n % 4 == 0:
        candidates.append(("Q8" if n == 8 else f"Dic{n // 4}", dicyclic_group(n // 4)))
    if n == 12:
        candidates.append(("A4", alternating4_group()))
    for name, H in candidates:
        if is_isomorphic(G, H):
            return name
    return f"nonabelian of order {n}"


def test_describe_group_matches_rebuilt_candidates():
    groups = [validate_group(t) for n in range(1, 8) for t in all_group_tables(n)]
    Z2 = trivial_brace(cyclic_group(2))
    D4 = trivial_brace(dihedral_group(4))
    for t in enumerate_split_triples(Z2, D4):
        E = semidirect_product(Z2, D4, t)
        groups += [E.add, E.circ]
    assert len(groups) == 213 + 192
    for G in groups:
        assert describe_group(G) == _describe_group_rebuilt(G)


def test_automorphism_group_orders():
    # phi(n) for cyclic groups, the classical counts otherwise
    expected = [
        (cyclic_group(6), 2),
        (klein_group(), 6),
        (cyclic_group(8), 4),
        (dihedral_group(4), 8),
        (dicyclic_group(2), 24),
        (direct_product_group(klein_group(), cyclic_group(2)), 168),
        (alternating4_group(), 24),
    ]
    for G, order in expected:
        assert automorphism_group(G).order == order, describe_group(G)


def test_budget_not_order_stops_automorphism_search():
    # no order bound: above order 16 the searches run
    assert automorphism_group(cyclic_group(17)).order == 16
    assert brace_automorphisms(trivial_brace(cyclic_group(17))).order == 16
    # the budget holds the product of the generators' candidate counts:
    # Z2^3 has three generators with seven images of order 2 each
    V8 = direct_product_group(klein_group(), cyclic_group(2))
    with budget.limit(342):
        with pytest.raises(SearchBudgetExceeded) as exc:
            automorphism_group(V8)
    assert (exc.value.what, exc.value.size, exc.value.budget) == ("automorphism_group", 343, 342)
    with budget.limit(343):
        assert automorphism_group(V8).order == 168


def test_isomorphism_search_and_relabel():
    Z6 = cyclic_group(6)
    p = (0, 3, 1, 5, 2, 4)
    relabeled = Z6.relabel(p)
    # relabel contract: new[p[a]][p[b]] == p[old[a][b]]
    for a in range(6):
        for b in range(6):
            assert relabeled.table[p[a]][p[b]] == p[Z6.table[a][b]]
    assert find_isomorphism(relabeled, Z6) is not None
    assert is_isomorphic(direct_product_group(cyclic_group(2), cyclic_group(3)), Z6)
    assert find_isomorphism(cyclic_group(4), klein_group()) is None
    assert not is_isomorphic(dihedral_group(4), dicyclic_group(2))


def test_inner_and_equal_mod():
    assert inner_group(dihedral_group(3)).order == 6
    assert inner_group(cyclic_group(4)).order == 1
    inn = inner_group(cyclic_group(3))
    assert equal_mod(inn, identity_perm(3), identity_perm(3))
    assert not equal_mod(inn, (0, 2, 1), identity_perm(3))


def test_homs_and_perm_group_generation():
    # Aut(Z5) is cyclic of order 4, so Hom(Z4, Aut(Z5)) has four elements
    homs = homs_to_perm_group(cyclic_group(4), automorphism_group(cyclic_group(5)))
    assert len(homs) == 4
    pg = PermGroup.generate(3, [(1, 2, 0)])
    assert pg.order == 3 and pg.is_group()


def test_subgroup_tools():
    D4 = dihedral_group(4)
    x4 = next(x for x in range(8) if D4.element_order(x) == 4)
    # the rotation subgroup: the powers of an element of order 4
    rot = (0, x4, D4.mul(x4, x4), D4.mul(D4.mul(x4, x4), x4))
    assert len(set(rot)) == 4 and D4.is_subgroup(rot)
    assert not D4.is_subgroup((0, x4))
    assert sorted(D4.order_profile()) == [1, 2, 2, 2, 2, 2, 4, 4]


def test_all_group_tables_counts():
    t4 = all_group_tables(4)
    # one table per relabeling fixing 0: (n-1)!/|Aut| copies per class,
    # 3!/2 = 3 cyclic plus 3!/6 = 1 Klein
    assert len(t4) == 4
    names = sorted(describe_group(validate_group(t)) for t in t4)
    assert names == ["Z2 x Z2", "Z4", "Z4", "Z4"]
    # 5!/2 = 60 cyclic plus 5!/6 = 20 symmetric
    assert len(all_group_tables(6)) == 80
    # oracle: one relabel_table per standard group and 0-fixing permutation
    for n in range(1, 8):
        slow = {
            G.relabel((0,) + rest).table
            for G in standard_groups_of_order(n)
            for rest in itertools.permutations(range(1, n))
        }
        assert all_group_tables(n) == sorted(slow)


def test_standard_groups_of_order():
    assert [G.n for G in standard_groups_of_order(6)] == [6, 6]
    assert sorted(describe_group(G) for G in standard_groups_of_order(6)) == ["S3", "Z6"]
    assert len(standard_groups_of_order(7)) == 1
