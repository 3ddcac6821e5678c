"""Group layer: permutation helpers, table validation, constructors,
automorphisms, isomorphism search and exhaustive table enumeration."""

import itertools
import random
import sys
from math import prod

import numpy as np
import pytest

from braceforge import budget, catalog
from braceforge import groups as groups_mod
from braceforge import split as split_mod
from braceforge.braces import SkewBrace, brace_automorphisms, find_brace_isomorphism, trivial_brace
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
    _group_table_stack,
    _reference_groups,
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
    is_automorphism,
    is_isomorphic,
    klein_group,
    perm_order,
    relabel_table,
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


def _array_tables() -> list:
    """Every table of _group_table_stack(n) for n <= 6, then the tables of
    every axiom fixture, as int64 arrays."""
    tables = [t for n in range(1, 7) for t in _group_table_stack(n)]
    for _, B in catalog.axiom_fixtures():
        tables += [B.add.np_table, B.circ.np_table]
    return tables


def test_rows_hash_and_eq_built_on_first_use_match_eager():
    # the tuple rows and the hash are built from the array on first use;
    # the oracle builds them eagerly, straight from the same array
    tables = _array_tables()
    assert len(tables) == sum(len(_group_table_stack(n)) for n in range(1, 7)) + 88
    previous = FiniteGroup(tables[-1])
    for t in tables:
        rows = tuple(map(tuple, t.tolist()))
        G, H = FiniteGroup(t), FiniteGroup(t)
        # ask in both orders: the hash first on G, the rows first on H
        assert hash(G) == hash(rows) and G.table == rows
        assert H.table == rows and hash(H) == hash(rows)
        assert G.table is G.table
        assert G == H == FiniteGroup(rows) and hash(G) == hash(FiniteGroup(rows))
        assert (G == previous) is (previous.table == rows)
        previous = H


def test_lean_generators_match_generator_cells():
    # _generators walks the greedy sequence without recording cells; the
    # heads of _generator_cells are the same sequence
    tables = [tuple(map(tuple, t.tolist())) for t in _array_tables()]
    tables.append(NONASSOCIATIVE_LOOP)
    for table in tables:
        heads = tuple(new[0] for _, _, new in groups_mod._generator_cells(table))
        assert groups_mod._generators(table) == heads


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


def _loop_is_automorphism(p, G) -> bool:
    """Oracle for is_automorphism: the product checked at every pair."""
    n, table = G.n, G.table
    if sorted(p) != list(range(n)) or p[0] != 0:
        return False
    return all(p[table[a][b]] == table[p[a]][p[b]] for a in range(n) for b in range(n))


def _loop_relabel_table(table, perm) -> list:
    """Oracle for relabel_table: every cell renamed in a Python loop."""
    n = len(table)
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        row, new_row = table[a], new[perm[a]]
        for b in range(n):
            cell = row[b]
            if not 0 <= cell < n:
                raise NotClosed(f"entry ({a},{b}) = {cell!r} out of range", a=a, b=b)
            new_row[perm[b]] = perm[cell]
    return new


def test_is_automorphism_matches_loop():
    # every 0-fixing permutation of every labelled group of order <= 6,
    # and every map of a group of order <= 4 into itself
    checked = accepted = 0
    for n in range(1, 7):
        perms = [(0,) + rest for rest in itertools.permutations(range(1, n))]
        maps = list(itertools.product(range(n), repeat=n)) if n <= 4 else []
        for table in all_group_tables(n):
            G = FiniteGroup(table)
            for p in perms + maps:
                got = is_automorphism(p, G)
                assert got is _loop_is_automorphism(p, G), (table, p)
                checked += 1
                accepted += got
    assert 0 < accepted < checked


def test_relabel_table_matches_loop():
    # every 0-fixing relabelling of every group table of order <= 5
    for n in range(1, 6):
        perms = [(0,) + rest for rest in itertools.permutations(range(1, n))]
        for table in all_group_tables(n):
            for p in perms:
                assert relabel_table(table, p) == _loop_relabel_table(table, p)
    # out-of-range entries: the same NotClosed, first in row-major order
    rng = random.Random(27)
    for table in all_group_tables(4) + all_group_tables(5):
        n = len(table)
        bad = [list(row) for row in table]
        for _ in range(rng.randint(1, 3)):
            bad[rng.randrange(n)][rng.randrange(n)] = rng.choice([-1, n, n + 3, 7])
        p = (0,) + tuple(rng.sample(range(1, n), n - 1))
        with pytest.raises(NotClosed) as got:
            relabel_table(bad, p)
        with pytest.raises(NotClosed) as want:
            _loop_relabel_table(bad, p)
        assert str(got.value) == str(want.value)
        assert got.value.witness == want.value.witness


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
    pg = _generate(3, [(1, 2, 0)])
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
    # oracle: one relabel_table per standard group and 0-fixing permutation;
    # the quotient route's class heads rely on the stack's index order being
    # the lex order of the tables
    for n in range(1, 8):
        slow = {
            G.relabel((0,) + rest).table
            for G in standard_groups_of_order(n)
            for rest in itertools.permutations(range(1, n))
        }
        stack = _group_table_stack(n)
        assert stack.shape == (len(slow), n, n)
        assert [tuple(map(tuple, t)) for t in stack.tolist()] == sorted(slow)
        assert all_group_tables(n) == sorted(slow)


def test_standard_groups_of_order():
    assert [G.n for G in standard_groups_of_order(6)] == [6, 6]
    assert sorted(describe_group(G) for G in standard_groups_of_order(6)) == ["S3", "Z6"]
    assert len(standard_groups_of_order(7)) == 1


# --- the all-pairs closure engine, kept as the oracle ----------------------

def _close_partial_hom(closed: dict, g, img, ops):
    """Extend a map already closed under `ops` by g -> img, then saturate
    it under every (source group, dst mul) pair in `ops`; None on
    inconsistency.

    Each round only combines pairs with an element mapped in the round
    before: every other pair was checked already."""
    m = dict(closed)
    m[g] = img
    known = list(closed.items())
    fresh = [(g, img)]
    while fresh:
        old, known = known, known + fresh
        added = []
        for S, dst_mul in ops:
            table = S.table
            for (a, fa), (b, fb) in itertools.chain(
                itertools.product(fresh, known), itertools.product(old, fresh)
            ):
                c = table[a][b]
                v = dst_mul(fa, fb)
                got = m.get(c)
                if got is None:
                    m[c] = v
                    added.append((c, v))
                elif got != v:
                    return None
        fresh = added
    return m


def _closure_homomorphisms(src, candidates, ops, dst_id, what, *, injective=False,
                           first_only=False) -> list:
    """The oracle for groups._homomorphisms: each partial map is closed
    under every operation over all known pairs, and a generator the
    closure has already mapped is skipped."""
    gens = src.generating_sequence()
    images = [list(candidates(g)) for g in gens]
    budget.guard(prod(map(len, images)), what)
    out: list = []

    def assign(i: int, mapping: dict) -> bool:
        if i == len(gens):
            out.append(mapping)
            return first_only
        if gens[i] in mapping:
            return assign(i + 1, mapping)
        for img in images[i]:
            closed = _close_partial_hom(mapping, gens[i], img, ops)
            if closed is None:
                continue
            if injective and len(set(closed.values())) != len(closed):
                continue
            if assign(i + 1, closed):
                return True
        return False

    assign(0, {0: dst_id})
    return out


def _engine_against_oracle(monkeypatch) -> dict:
    """Rebind groups._homomorphisms in every loaded braceforge module to a
    wrapper that runs the engine and the closure oracle, each with and
    without first_only, asserts that the maps agree in order, and returns
    the engine's.  The returned dict counts the searches by name."""
    engine = groups_mod._homomorphisms
    searches: dict = {}

    def compared(src, candidates, ops, dst_id, what, *, injective=False, first_only=False):
        searches[what] = searches.get(what, 0) + 1
        got = {}
        for first in (False, True):
            got[first] = engine(src, candidates, ops, dst_id, what,
                                injective=injective, first_only=first)
            want = _closure_homomorphisms(src, candidates, ops, dst_id, what,
                                          injective=injective, first_only=first)
            assert got[first] == want, what
        assert got[True] == got[False][:1]
        return got[first_only]

    for name, mod in list(sys.modules.items()):
        if name == "braceforge" or name.startswith("braceforge."):
            if vars(mod).get("_homomorphisms") is engine:
                monkeypatch.setattr(mod, "_homomorphisms", compared)
    return searches


def test_engine_matches_closure_oracle(monkeypatch, Z2, Z3, xor4, flip4):
    searches = _engine_against_oracle(monkeypatch)
    groups = [G for n in range(1, 8) for G in standard_groups_of_order(n)]
    groups += [G for n in range(2, 17) for _, G in _reference_groups(n)]
    for G in groups:
        automorphism_group(G)
    fixtures = catalog.axiom_fixtures()
    assert len(fixtures) == 44 and sum(not B.is_trivial for _, B in fixtures) > 10
    for _, B in fixtures:
        brace_automorphisms(B)
    # worked examples 3 and 4 search isomorphisms of their coefficient
    # groups and the split families of their pair; axiom_fixtures builds
    # their products without these reports
    catalog.example3()
    catalog.example4()
    # seeded relabellings fixing 0 are found again, up to order 12 for
    # groups and 32 for braces, where the oracle's full enumeration of the
    # isomorphisms stays cheap; of the named groups of one order, only D1,
    # D2 and Dic1 repeat Z2, Z2 x Z2 and Z4
    rng = random.Random(2020)

    def relabelling(n):
        return (0,) + tuple(rng.sample(range(1, n), n - 1))

    for G in groups:
        if G.n <= 12:
            assert find_isomorphism(G.relabel(relabelling(G.n)), G) is not None
    repeats = [
        (a, b)
        for n in range(2, 17)
        for (a, G), (b, H) in itertools.combinations(_reference_groups(n), 2)
        if find_isomorphism(G, H) is not None
    ]
    assert repeats == [("Z2", "D1"), ("Z2 x Z2", "D2"), ("Z4", "Dic1")]
    for _, B in fixtures:
        if B.n <= 32:
            p = relabelling(B.n)
            B2 = SkewBrace(B.add.relabel(p), B.circ.relabel(p))
            assert find_brace_isomorphism(B2, B) is not None
    # the perm-group targets of split enumeration, on the nine wells-sweep pairs
    V = trivial_brace(klein_group())
    S3 = trivial_brace(dihedral_group(3))
    D4 = trivial_brace(dihedral_group(4))
    pairs = [(V, Z3), (flip4, Z3), (xor4, Z3), (Z2, V), (Z3, V), (S3, Z2), (xor4, Z2),
             (V, Z2), (Z2, D4)]
    before = searches["homs_to_perm_group"]
    for H, I in pairs:
        split_mod._candidate_families(H, I)
    assert searches["automorphism_group"] > len(groups)
    assert searches["brace_automorphisms"] == len(fixtures)
    assert searches["find_isomorphism"] > len(groups)
    assert searches["find_brace_isomorphism"] == sum(B.n <= 32 for _, B in fixtures) == 38
    assert searches["homs_to_perm_group"] - before == 3 * len(pairs)


def test_engine_work_counts():
    # Aut(Z2^3): three generators with seven candidate images each.  Along
    # one path the search visits 21 cells, the n |S| = 24 of the generator
    # test less the cells 0 g_j whose value it chooses; over the whole
    # tree it computes 3,122 products, where the closure oracle computes
    # 14,721
    V8 = direct_product_group(klein_group(), cyclic_group(2))
    products = {"n": 0}

    def counted(a, b):
        products["n"] += 1
        return V8.mul(a, b)

    maps = groups_mod._homomorphisms(
        V8, groups_mod._order_matched([(V8, V8)]), [(V8, counted)], 0, "count",
        injective=True,
    )
    assert len(maps) == 168
    assert products["n"] == 3122
    assert [tuple(map(len, cells)) for cells in V8.generator_cells()] == [
        (0, 1, 1), (1, 4, 2), (3, 12, 4)]


def _generate(degree: int, gens) -> PermGroup:
    """The group generated by gens, closed by all products with every known
    element and inverses, |S|^2 products and more."""
    elems = {identity_perm(degree)}
    frontier = [tuple(g) for g in gens]
    elems.update(frontier)
    while frontier:
        nxt = []
        for p in frontier:
            for q in list(elems):
                for r in (compose(p, q), compose(q, p)):
                    if r not in elems:
                        elems.add(r)
                        nxt.append(r)
            inv = invert_perm(p)
            if inv not in elems:
                elems.add(inv)
                nxt.append(inv)
        frontier = nxt
    return PermGroup(degree, elems)


def _closure_is_group(pg: PermGroup) -> bool:
    """The oracle for PermGroup.is_group: the identity, every inverse and
    every product of two elements, |S|^2 products."""
    if identity_perm(pg.degree) not in pg.elements:
        return False
    for p in pg.elements:
        if invert_perm(p) not in pg.elements:
            return False
        for q in pg.elements:
            if compose(p, q) not in pg.elements:
                return False
    return True


def _is_group_matches_closure(pg: PermGroup) -> bool:
    """is_group agrees with the closure oracle on pg, and, when pg has more
    than one element, both say no once it loses one: the last, or the
    identity when there are two.  Returns the verdict on pg."""
    verdict = pg.is_group()
    assert verdict == _closure_is_group(pg)
    elems = pg.sorted_elements()
    if len(elems) > 1:
        cut = PermGroup(pg.degree, elems[:-1] if len(elems) > 2 else elems[1:])
        assert cut.is_group() is _closure_is_group(cut) is False
    return verdict


def test_is_group_matches_closure(xor4, flip4):
    groups = [G for n in range(1, 8) for G in standard_groups_of_order(n)]
    groups += [G for n in range(2, 17) for _, G in _reference_groups(n)]
    perm_groups = [automorphism_group(G) for G in groups]
    perm_groups += [inner_group(G) for G in groups]
    perm_groups += [brace_automorphisms(B) for _, B in catalog.axiom_fixtures()]
    perm_groups += [_generate(3, [(1, 2, 0)]),
                    _generate(5, [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)])]
    # the oracle's |S|^2 products stay cheap below 400 elements
    checked = [pg for pg in perm_groups if pg.order < 400]
    assert len(checked) == len(perm_groups) - 1  # Aut(Z2^4), of order 20160
    assert all(_is_group_matches_closure(pg) for pg in checked)
    # not groups: no identity, not closed, a subgroup's coset
    S3 = _generate(3, [(1, 2, 0), (1, 0, 2)])
    coset = PermGroup(4, [(1, 0, 2, 3), (0, 1, 3, 2)])
    for pg in (PermGroup(3, [(1, 2, 0), (2, 0, 1)]), PermGroup(3, [(0, 1, 2), (1, 2, 0)]), coset):
        assert pg.is_group() is _closure_is_group(pg) is False
    assert S3.order == 6 and S3.is_group()


def test_is_group_budget_charges_the_generating_set():
    # Aut(Z2^3) = GL(3, 2) has 168 elements and a greedy generating set of
    # five, so the check is charged 168 * 5 = 840, not 168^2
    A = automorphism_group(direct_product_group(klein_group(), cyclic_group(2)))
    with budget.limit(839):
        with pytest.raises(SearchBudgetExceeded) as exc:
            A.is_group()
    assert (exc.value.what, exc.value.size) == ("permutation group closure", 840)
    with budget.limit(840):
        assert A.is_group()
    # the generating set the check ran on is kept and generates A
    assert len(A.generators) == 5
    assert _generate(A.degree, A.generators).elements == A.elements
