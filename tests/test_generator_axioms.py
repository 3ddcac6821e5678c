"""The group and brace axioms decided on a generating set against the
full n^3 cube.

validate_group decides associativity by Light's test, validate_brace
and the batched _brace_axiom_holds the brace axiom with b in a
generating set of (E, +), and lambda_is_hom both of its laws on
generating sets, at every order.  The cube routes they replace are kept
here as _cube_validate_group, _cube_brace_axiom, _cube_validate_brace and
_cube_lambda_is_hom, and every check must give the same verdict,
exception class, message and witness on both routes.
"""

import copy
import random

import numpy as np
import pytest

from braceforge import catalog, groups
from braceforge.braces import SkewBrace, _axiom_sides, _brace_axiom_holds, lambda_is_hom, validate_brace
from braceforge.errors import (
    BraceAxiomFailed,
    InputError,
    NotAssociative,
    ValidationError,
)
from braceforge.groups import (
    FiniteGroup,
    all_group_tables,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    relabel_table,
    validate_group,
)
from braceforge.split import ActionTriple, _candidate_families, _product_tables
from test_groups import MALFORMED_TABLES, WELL_FORMED_TABLES


def _cube_group_if_valid(t):
    n = len(t)
    if n == 0 or t.shape != (n, n) or t.dtype.kind not in "iu":
        return None
    if t.min() < 0 or t.max() >= n:
        return None
    ar = np.arange(n)
    if not ((t[0] == ar) & (t[:, 0] == ar)).all():
        return None
    G = FiniteGroup(t)
    if -1 in G.inv:
        return None
    if not np.array_equal(t.take(t, axis=0), t.take(t, axis=1)):
        return None
    return G


def _cube_validate_group(table):
    """validate_group with associativity decided on the full cube."""
    try:
        G = _cube_group_if_valid(np.asarray(table))
    except (ValueError, TypeError):
        G = None
    if G is None:
        groups._group_failure(table)
        G = FiniteGroup(table)
    return G


def _cube_brace_axiom(add, circs):
    """The skew brace axiom for one additive group against a (T, n, n)
    stack of circle tables, evaluated in one broadcast over the full cube.

    Returns (ok, witness): ok[t] tells whether table t satisfies
    a o (b + c) = a o b - a + a o c everywhere; witness is None when every
    table does, else (a, b, c, lhs, rhs) at the first failing cell of the
    first failing table."""
    neg = np.array(add.inv, dtype=np.int64)
    lhs, rhs = _axiom_sides(add.np_table, circs, neg, np.arange(add.n))
    bad = lhs != rhs
    if not bad.any():
        return np.ones(len(circs), dtype=bool), None
    ok = ~bad.reshape(len(circs), -1).any(axis=1)
    k = int(np.argmin(ok))
    a, b, c = (int(x) for x in np.argwhere(bad[k])[0])
    return ok, (a, b, c, int(lhs[k, a, b, c]), int(rhs[k, a, b, c]))


def _cube_validate_brace(add_table, circ_table):
    """validate_brace with both groups and the brace axiom on the cube."""
    try:
        add = _cube_validate_group(add_table)
    except ValidationError as exc:
        exc.witness["table"] = "add"
        raise
    try:
        circ = _cube_validate_group(circ_table)
    except ValidationError as exc:
        exc.witness["table"] = "circ"
        raise
    if add.n != circ.n:
        raise InputError("additive and circle tables differ in size")
    _, witness = _cube_brace_axiom(add, circ.np_table[None])
    if witness is not None:
        a, b, c, lhs, rhs = witness
        raise BraceAxiomFailed(
            f"a o (b + c) != a o b - a + a o c at (a,b,c)=({a},{b},{c}):"
            f" {lhs} != {rhs}",
            a=a, b=b, c=c,
        )
    return SkewBrace(add, circ)


def _cube_lambda_is_hom(E) -> bool:
    """lambda_is_hom with both laws checked at every (a, x, y)."""
    L = np.array(E.lambda_table, dtype=np.int64)
    t_add = E.add.np_table
    if (L[:, 0] != 0).any() or not (np.sort(L, axis=1) == np.arange(E.n)).all():
        return False
    if not np.array_equal(L[:, t_add], t_add[L[:, :, None], L[:, None, :]]):
        return False
    return bool(np.array_equal(L[E.circ.np_table], L[np.arange(E.n)[:, None, None], L]))


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return type(exc), str(exc), exc.witness


def _assert_same_brace_outcome(add, circ):
    got = _outcome(validate_brace, add, circ)
    assert got == _outcome(_cube_validate_brace, add, circ)
    if got[0] == "ok":
        assert lambda_is_hom(got[1]) == _cube_lambda_is_hom(got[1])
    return got


def _naive_closure(table, elems) -> set:
    """Every product of elements of `elems` under the table, with 0."""
    out = {0, *elems}
    while True:
        new = {table[a][b] for a in out for b in out} - out
        if not new:
            return out
        out |= new


def _naive_generating_sequence(G) -> tuple:
    """The least element outside the subgroup generated so far, repeatedly."""
    gens = []
    while len(_naive_closure(G.table, gens)) < G.n:
        closure = _naive_closure(G.table, gens)
        gens.append(min(x for x in range(G.n) if x not in closure))
    return tuple(gens)


@pytest.fixture(scope="module")
def fixtures():
    out = catalog.axiom_fixtures()
    assert len(out) == 44
    return out


@pytest.fixture(scope="module")
def example5_candidates():
    H = catalog.example5_acting_brace()
    I = catalog.example4_coefficient_brace()
    nus, mus, sigmas = _candidate_families(H, I)
    tables = [_product_tables(H, I, ActionTriple(nu, mu, sigma))
              for nu in nus for mu in mus for sigma in sigmas]
    assert len(tables) == 80
    return tables


def test_fixtures_match_cube(fixtures):
    orders = set()
    for name, B in fixtures:
        got = _assert_same_brace_outcome(B.add.table, B.circ.table)
        assert got[0] == "ok", name
        orders.add(B.n)
    assert min(orders) == 1 and max(orders) == 80


def test_equal_tables_are_one_group_check(count_calls):
    # with add = circ the brace axiom is associativity (braces module
    # docstring), so one validate_group decides the pair, with the verdict,
    # exception and witness, "table": "add" included, of the route that
    # checks both tables in turn
    calls = count_calls(validate_group)
    for table in MALFORMED_TABLES + WELL_FORMED_TABLES:
        for circ in (table, copy.deepcopy(table)):
            before = calls["calls"]
            got = _outcome(validate_brace, table, circ)
            assert got == _outcome(_cube_validate_brace, table, circ)
            assert calls["calls"] - before == 1
            assert got[0] == "ok" or got[2]["table"] == "add"
    # bools are ints, as in validate_group; floats equal to integers are not
    for circ, count in (([[False, True], [True, False]], 1), (np.array([[0, 1], [1, 0.0]]), 2)):
        before = calls["calls"]
        got = _outcome(validate_brace, [[0, 1], [1, 0]], circ)
        assert got == _outcome(_cube_validate_brace, [[0, 1], [1, 0]], circ)
        assert calls["calls"] - before == count


def test_example5_candidates_match_cube(example5_candidates):
    verdicts = [_assert_same_brace_outcome(add, circ)[0] for add, circ in example5_candidates]
    assert verdicts.count("ok") == 16
    assert verdicts.count(BraceAxiomFailed) == 64


def _bases(fixtures):
    """Valid braces of orders 3 to 80: the fixtures with room for the
    corruptions below, and trivial braces on cyclic, dihedral and product
    groups of orders 18 to 30."""
    out = [B for _, B in fixtures if 3 <= B.n]
    for n in (18, 20, 21, 30):
        out.append(SkewBrace(cyclic_group(n), cyclic_group(n)))
        if n % 2 == 0:
            D = dihedral_group(n // 2)
            out.append(SkewBrace(D, D))
    P = direct_product_group(cyclic_group(2), dihedral_group(6))
    out.append(SkewBrace(P, P))
    return out


def _corrupt_cell(table, rng, keep_zeros: bool) -> list:
    """A copy of `table` with one cell changed.  With keep_zeros the cell
    is off row and column 0 and neither its old nor its new value is 0, so
    identity and inverses survive and only associativity can break."""
    n = len(table)
    t = [list(row) for row in table]
    while True:
        a, b = (rng.randrange(1, n), rng.randrange(1, n)) if keep_zeros else \
            (rng.randrange(n), rng.randrange(n))
        v = rng.randrange(1, n) if keep_zeros else rng.randrange(n)
        if v != t[a][b] and not (keep_zeros and t[a][b] == 0):
            t[a][b] = v
            return t


def test_seeded_corruptions_match_cube(fixtures):
    rng = random.Random(2010)
    kinds = {"add assoc": 0, "circ assoc": 0, "axiom only": 0, "any cell": 0}
    for B in _bases(fixtures):
        add, circ = [list(r) for r in B.add.table], [list(r) for r in B.circ.table]
        for _ in range(3):
            # one changed cell off the identity's row and column keeps
            # inverses but breaks the Latin property, so associativity
            got = _assert_same_brace_outcome(_corrupt_cell(add, rng, True), circ)
            assert got[0] is NotAssociative and got[2]["table"] == "add"
            kinds["add assoc"] += 1
            got = _assert_same_brace_outcome(add, _corrupt_cell(circ, rng, True))
            assert got[0] is NotAssociative and got[2]["table"] == "circ"
            kinds["circ assoc"] += 1
            # no single cell keeps both tables groups, so the brace axiom
            # alone is broken by renaming two elements of the circle table
            x, y = rng.sample(range(1, B.n), 2)
            swap = list(range(B.n))
            swap[x], swap[y] = y, x
            circ2 = relabel_table(circ, swap)
            got = _assert_same_brace_outcome(add, circ2)
            if got[0] is BraceAxiomFailed:
                kinds["axiom only"] += 1
                E = SkewBrace(validate_group(add), validate_group(circ2))
                assert lambda_is_hom(E) is _cube_lambda_is_hom(E) is False
            which = rng.randrange(2)
            bad = _corrupt_cell((add, circ)[which], rng, False)
            _assert_same_brace_outcome(*((bad, circ) if which == 0 else (add, bad)))
            kinds["any cell"] += 1
    assert min(kinds.values()) >= 30


def test_failures_only_a_later_generator_sees():
    # carrier Z5 x Z5, (a1, a2) at index 5 a2 + a1, so the first generator
    # 1 = (1, 0) spans Z5 x 0 and the second is 5 = (0, 1); g is odd, which
    # gives two-sided inverses below, and not additive: g(1 + 1) = 0 != 2
    m = 5
    g = [0, 1, 0, 0, 4]
    idx = range(m * m)

    def table(f):
        return [[f(a % m, a // m, b % m, b // m) for b in idx] for a in idx]

    add = table(lambda a1, a2, b1, b2: (a1 + b1) % m + m * ((a2 + b2) % m))
    # lam(a)(b) = (b1 + g(a2) b2, b2) is additive, but lam(s o b) =
    # lam(s) lam(b) holds only for s2 = 0, and with it o is a loop whose
    # good middle elements are Z5 x 0
    loop = table(lambda a1, a2, b1, b2: (a1 + b1 + g[a2] * b2) % m + m * ((a2 + b2) % m))
    # lam(a) = p^(a2) with p(b) = (b1 + g(b2), b2): a homomorphism of o,
    # additive only on Z5 x 0
    twist = table(lambda a1, a2, b1, b2: (a1 + b1 + a2 * g[b2]) % m + m * ((a2 + b2) % m))
    for circ in (loop, twist):
        C = FiniteGroup(circ)
        assert C.generating_sequence() == (1, 5)
        got = _outcome(validate_group, circ)
        assert got == _outcome(_cube_validate_group, circ) and got[0] is NotAssociative
        # 0 and the first generator are good middle elements
        t = np.array(circ)
        assert all(np.array_equal(t[t[:, s]], t[:, t[s]]) for s in (0, 1))
        _assert_same_brace_outcome(add, circ)
        E = SkewBrace(FiniteGroup(add), C)
        assert lambda_is_hom(E) is _cube_lambda_is_hom(E) is False
    L = np.array(SkewBrace(FiniteGroup(add), FiniteGroup(twist)).lambda_table)
    assert np.array_equal(L[np.array(twist)], L[np.arange(m * m)[:, None, None], L])


def test_generating_sets_close_to_the_whole_table(fixtures, example5_candidates):
    tables = [t for _, B in fixtures for t in (B.add.table, B.circ.table)]
    tables += [t.tolist() for pair in example5_candidates for t in pair]
    for table in tables:
        G = validate_group(table)
        gens = G.generating_sequence()
        assert _naive_closure(G.table, gens) == set(range(G.n))
        assert gens == _naive_generating_sequence(G)
        # the set associativity was decided on is the one kept
        assert G._gens == gens


def test_batched_axiom_matches_cube_at_small_orders():
    # the quotient route's check: every additive table of order n against
    # the stack of every circle table of that order
    accepted = []
    for n in range(1, 8):
        tables = [validate_group(t) for t in all_group_tables(n)]
        circs = np.stack([G.np_table for G in tables])
        count = 0
        for add in tables:
            ok = _brace_axiom_holds(add, circs)
            assert ok.tolist() == _cube_brace_axiom(add, circs)[0].tolist()
            count += int(ok.sum())
        accepted.append(count)
    # labelled skew braces of each order (280 at order 6, test_extensions)
    assert accepted[5] == 280 and all(accepted)
