"""Group layer: permutation helpers, table validation, constructors,
automorphisms, isomorphism search and exhaustive table enumeration."""

import pytest

from braceforge.braces import brace_automorphisms, trivial_brace
from braceforge.errors import (
    NoIdentityAtZero,
    NoInverse,
    NotAssociative,
    NotClosed,
    OrderBoundExceeded,
)
from braceforge.groups import (
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


def test_order_bound_guard():
    with pytest.raises(OrderBoundExceeded):
        automorphism_group(cyclic_group(17))
    assert automorphism_group(cyclic_group(17), max_order=17).order == 16
    with pytest.raises(OrderBoundExceeded):
        brace_automorphisms(trivial_brace(cyclic_group(17)))
    assert brace_automorphisms(trivial_brace(cyclic_group(17)), max_order=17).order == 16


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
    rot = D4.subgroup_closure([x4])
    assert len(rot) == 4 and D4.is_subgroup(rot)
    assert not D4.is_subgroup((0, x4))
    gens = D4.generating_sequence()
    assert set(D4.subgroup_closure(gens)) == set(range(8))
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


def test_standard_groups_of_order():
    assert [G.n for G in standard_groups_of_order(6)] == [6, 6]
    assert sorted(describe_group(G) for G in standard_groups_of_order(6)) == ["S3", "Z6"]
    assert len(standard_groups_of_order(7)) == 1
