"""Finite left skew braces on a shared 0-based carrier.

A skew brace here is a pair of Cayley tables (add, circ) on the same carrier
with the same identity 0, satisfying

    a o (b + c) = a o b - a + a o c          for all a, b, c.

The lambda map lam(a) : b |-> -a + (a o b) is then an automorphism of the
additive group, and a |-> lam(a) is a homomorphism from the circle group.

Deciding the axiom on a generating set.  Adding -a on the left of both
sides turns the axiom at (a, b, c) into lam(a)(b + c) = lam(a)(b) +
lam(a)(c), so a brace is exactly a pair of groups whose every lam(a) is
additive (Guarnieri-Vendramin, Math. Comp. 86, 2017).  For fixed a the
set X_a of x with lam(a)(x + y) = lam(a)(x) + lam(a)(y) for all y is
closed under +: for x, x' in X_a and any y,

    lam(a)((x + x') + y) = lam(a)(x) + lam(a)(x' + y)
                         = lam(a)(x) + lam(a)(x') + lam(a)(y)
                         = lam(a)(x + x') + lam(a)(y).

In a finite group the elements a generating set S+ produces under +
alone are the whole group, so X_a is everything as soon as it holds S+.
The axiom therefore holds at every (a, b, c) iff it holds at every
(a, s, c) with s in S+, which touches n^2 |S+| cells instead of n^3;
and a fails for some (b, c) iff it fails for some (s, c), so the first
failing a, and with it the witness read off the n x n slice of that a,
is the one the full cube gives.

lambda_is_hom uses the same lemma for additivity, and a circle twin for
the homomorphism law.  Once every lam(a) is additive, a o b = a +
lam(a)(b) turns lam(s o b) = lam(s) lam(b) for all b into (s o b) o c =
s o (b o c) for all b, c.  Such s are closed under o:

    ((s o t) o b) o c = (s o (t o b)) o c = s o ((t o b) o c)
                      = s o (t o (b o c)) = (s o t) o (b o c),

using s, s, t, s, and no associativity of o.  Every element is 0, a
generator of S_o (the generating sequence of o, the heads of
groups._generator_cells), or an element times a generator, so the law
needs checking only for s in {0} and S_o.

validate_brace and lambda_is_hom take these routes at every order, as
validate_group takes Light's test, and so does _brace_axiom_holds, the
batched check of many circle tables that the quotient route runs; the
full cube is the test oracle _cube_brace_axiom in
tests/test_generator_axioms.py.

Equal tables.  With o = +, the axiom reads a + (b + c) = (a + b) - a +
(a + c), which is associativity once -a + a cancels, so validate_brace
decides a pair of equal tables with one validate_group.

Tables as arrays.  A brace's tables are its groups' np_table arrays and
lam is one array, which lambda_is_hom and identities_check gather on;
the tuple rows of lambda_table and the hash are built on first use, as
FiniteGroup builds its rows.

The split module narrows a too: where lam(a) is additive, lam(a o b) =
lam(a) lam(b), so the a with additive lam(a) form a subgroup of (E, o),
and the axiom needs checking only for a in a generating set of (E, o)
(split module docstring).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BraceAxiomFailed,
    InputError,
    NotASubbrace,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    Perm,
    PermGroup,
    _homomorphisms,
    _order_matched,
    _respects,
    validate_group,
)


class SkewBrace:
    """Two group structures on one carrier; use validate_brace to build.

    _lam[a, b] = lam(a)(b) = -a + (a o b), gathered at once as add[-a,
    circ[a, b]], and lambda_table, its rows as tuples (the cell loop is
    the oracle _loop_lambda_table in tests/test_braces.py), are filled by
    __getattr__ on first use, as is the hash."""

    __slots__ = ("add", "circ", "n", "_lam", "lambda_table", "_hash")

    def __init__(self, add: FiniteGroup, circ: FiniteGroup):
        if add.n != circ.n:
            raise InputError("additive and circle tables differ in size")
        self.add = add
        self.circ = circ
        self.n = add.n

    def __getattr__(self, name: str):
        if name == "_lam":
            neg = np.array(self.add.inv, dtype=np.int64)
            value = self.add.np_table[neg[:, None], self.circ.np_table]
            value.flags.writeable = False
        elif name == "lambda_table":
            value = tuple(map(tuple, self._lam.tolist()))
        elif name == "_hash":
            value = hash((self.add.table, self.circ.table))
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkewBrace)
            and self.add.table == other.add.table
            and self.circ.table == other.circ.table
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"SkewBrace(order={self.n})"

    def plus(self, a: int, b: int) -> int:
        return self.add.table[a][b]

    def times(self, a: int, b: int) -> int:
        return self.circ.table[a][b]

    def neg(self, a: int) -> int:
        return self.add.inv[a]

    @property
    def is_trivial(self) -> bool:
        return self.add is self.circ or np.array_equal(self.add.np_table, self.circ.np_table)

    def lam(self, a: int) -> Perm:
        return self.lambda_table[a]


def _axiom_sides(t_add, rows, neg: np.ndarray, bs, cs=None) -> tuple:
    """Both sides of the brace axiom, a o (b + c) and a o b - a + a o c,
    at every (a, b, c) with a over the circle rows `rows` (shape
    (..., A, n)), -a in `neg` (shape (A,)), b over `bs` and c over all, or
    over the labels cs; each side has shape (..., A, len(bs), n).  rows
    is read only through take along axis -1, t_add through take along
    axis 0 and [p, q], so both may be cohomology's rebuilt stack."""
    lhs = rows.take(t_add.take(bs, axis=0), axis=-1)
    partial = t_add[rows.take(bs, axis=-1), neg[..., None]]      # (a o b) - a
    rows_c = rows if cs is None else rows.take(cs, axis=-1)
    return lhs, t_add[partial[..., None], rows_c[..., None, :]]


def _brace_axiom_on_generators(add: FiniteGroup, circ: FiniteGroup):
    """The first failing cell (a, b, c, lhs, rhs) of the full cube for one
    circle table, or None, from the cells with b in a generating set of
    (E, +) (module docstring): they decide which a fail, and the witness
    is read off the n x n slice of the first failing a."""
    t_add, t_circ = add.np_table, circ.np_table
    neg = np.array(add.inv, dtype=np.int64)
    lhs, rhs = _axiom_sides(t_add, t_circ, neg, list(add.generating_sequence()))
    bad = (lhs != rhs).reshape(add.n, -1).any(axis=1)
    if not bad.any():
        return None
    a = int(bad.argmax())
    lhs, rhs = _axiom_sides(t_add, t_circ[a:a + 1], neg[a:a + 1], np.arange(add.n))
    b, c = (int(x) for x in np.argwhere(lhs[0] != rhs[0])[0])
    return a, b, c, int(lhs[0, b, c]), int(rhs[0, b, c])


def _brace_axiom_holds(add: FiniteGroup, circs: np.ndarray) -> np.ndarray:
    """ok[t]: circle table t of a (T, n, n) stack satisfies the brace axiom
    with (E, +) = add, decided on the cells _brace_axiom_on_generators
    reads, those with b in a generating set of (E, +)."""
    neg = np.array(add.inv, dtype=np.int64)
    lhs, rhs = _axiom_sides(add.np_table, circs, neg, list(add.generating_sequence()))
    return (lhs == rhs).reshape(len(circs), -1).all(axis=1)


def _same_table(G: FiniteGroup, table) -> bool:
    """table holds the same integers as G's table, whether it is an array
    or nested sequences; a ragged table, or one of floats or objects, which
    validate_group would reject, never does."""
    try:
        t = np.asarray(table)
    except (ValueError, TypeError):  # ragged rows
        return False
    return t.dtype.kind in "biu" and np.array_equal(G.np_table, t)


def validate_brace(
    add_table: Sequence[Sequence[int]], circ_table: Sequence[Sequence[int]]
) -> SkewBrace:
    """Validate both group tables and the skew brace axiom, deciding the
    axiom on a generating set of (E, +) with the witness the full cube
    would give.  Either table may be an integer array or nested sequences.

    Two equal tables are decided by one validate_group (equal tables,
    module docstring); a failing one is named "add", as it is when the
    two are checked in turn."""
    try:
        add = validate_group(add_table)
    except ValidationError as exc:
        exc.witness["table"] = "add"
        raise
    if circ_table is add_table or _same_table(add, circ_table):
        return SkewBrace(add, add)
    try:
        circ = validate_group(circ_table)
    except ValidationError as exc:
        exc.witness["table"] = "circ"
        raise
    if add.n != circ.n:
        raise InputError("additive and circle tables differ in size")
    witness = _brace_axiom_on_generators(add, circ)
    if witness is not None:
        a, b, c, lhs, rhs = witness
        raise BraceAxiomFailed(
            f"a o (b + c) != a o b - a + a o c at (a,b,c)=({a},{b},{c}):"
            f" {lhs} != {rhs}",
            a=a, b=b, c=c,
        )
    return SkewBrace(add, circ)


def trivial_brace(G: FiniteGroup) -> SkewBrace:
    """Both operations equal; every group is a skew brace this way."""
    return SkewBrace(G, G)


def lambda_is_hom(E: SkewBrace) -> bool:
    """lam : (E, o) -> Aut(E, +) is a homomorphism, taking (E, +) to be a
    group (exhaustive: each law is checked on a generating set, which
    decides it by the module docstring)."""
    L = E._lam
    t_add = E.add.np_table
    s_add = np.array(E.add.generating_sequence(), dtype=np.int64)
    s_circ = np.array((0,) + E.circ.generating_sequence(), dtype=np.int64)
    # every lam(a) is a permutation fixing 0 ...
    if (L[:, 0] != 0).any() or not (np.sort(L, axis=1) == np.arange(E.n)).all():
        return False
    # ... with lam(a)(s + y) = lam(a)(s) + lam(a)(y) for all a, y and s in s_add
    if not np.array_equal(L[:, t_add[s_add]], t_add[L[:, s_add, None], L[:, None, :]]):
        return False
    # lam(s o b)(x) = lam(s)(lam(b)(x)) for all b, x and s in s_circ
    return bool(np.array_equal(L[E.circ.np_table[s_circ]], L[s_circ[:, None, None], L]))


def identities_check(E: SkewBrace) -> bool:
    """a + b = a o lam(a)^-1(b)  and  a o b = a + lam(a)(b), all pairs.

    Each identity is one gather over all (a, b).  lam(a)^-1 is scattered
    as invert_perm builds it, so a row of lam that is not a permutation
    gets the same stand-in inverse; the pair loop is kept as the oracle
    _loop_identities_check in tests/test_braces.py."""
    lam = E._lam
    add, circ = E.add.np_table, E.circ.np_table
    rows = np.arange(E.n)[:, None]
    inv = np.zeros_like(lam)
    # invert_perm keeps the last preimage of each value, 0 for none
    np.maximum.at(inv, (rows, lam), np.arange(E.n))
    return bool(np.array_equal(add, circ[rows, inv]) and np.array_equal(circ, add[rows, lam]))


def socle(E: SkewBrace) -> tuple:
    """Soc(E) = Ker(lam) intersect Z(E, +), as a sorted index tuple."""
    ker = {a for a in range(E.n) if E.lam(a) == tuple(range(E.n))}
    return tuple(sorted(ker.intersection(E.add.centre())))


def annihilator(E: SkewBrace) -> tuple:
    """Ann(E) = Soc(E) intersect Z(E, o)."""
    return tuple(sorted(set(socle(E)).intersection(E.circ.centre())))


def is_sub_brace(E: SkewBrace, elems: Iterable[int]) -> bool:
    s = set(elems)
    return E.add.is_subgroup(s) and E.circ.is_subgroup(s)


def is_left_ideal(E: SkewBrace, elems: Iterable[int]) -> bool:
    """Sub-brace stable under every lam(a)."""
    s = set(elems)
    if not is_sub_brace(E, s):
        raise NotASubbrace(f"{sorted(s)} is not closed under both operations")
    lam = E.lambda_table
    return all(lam[a][y] in s for a in range(E.n) for y in s)


def is_ideal(E: SkewBrace, elems: Iterable[int]) -> bool:
    """Left ideal that is also a normal subgroup of (E, +) and of (E, o).

    Additive normality is checked explicitly: it does not follow from
    lambda-stability plus circle-normality (an order-2 subgroup of a
    brace with (E, +) = S3 can satisfy both and still fail it), and
    without it the additive cosets do not form a quotient brace."""
    s = set(elems)
    if not is_left_ideal(E, s):
        return False
    if not all(E.add.conj(a, y) in s for a in range(E.n) for y in s):
        return False
    return all(E.circ.conj(a, y) in s for a in range(E.n) for y in s)


@dataclass(frozen=True)
class BraceHom:
    """A map of braces, stored as the image tuple."""

    src: SkewBrace
    dst: SkewBrace
    map: tuple

    def is_valid(self) -> bool:
        """A brace hom: f(0) = 0 and f respects every operation of
        brace_hom_ops, each decided on the generating sequence of its source
        group (groups._respects)."""
        f = self.map
        if len(f) != self.src.n or f[0] != 0:
            return False
        return all(_respects(f, S.table, S.generating_sequence(), mul)
                   for S, mul in brace_hom_ops(self.src, self.dst))

    def kernel(self) -> tuple:
        return tuple(a for a in range(self.src.n) if self.map[a] == 0)

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.src.n

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.dst.n


def brace_hom_ops(src: SkewBrace, dst: SkewBrace) -> list:
    """The (source group, dst mul) pairs a brace hom src -> dst respects.

    The o pair is left out when both braces are trivial, where it would
    repeat the + pair."""
    ops = [(src.add, dst.add.mul)]
    if not (src.is_trivial and dst.is_trivial):
        ops.append((src.circ, dst.circ.mul))
    return ops


def _brace_automorphism_search(E: SkewBrace, admit: Optional[Callable] = None) -> set:
    """Brace automorphisms of E as image tuples, by the homomorphism engine.

    Generator images are matched by element order in both groups; with
    `admit`, an image x of generator g is tried only when admit(g, x),
    which must hold for every automorphism the caller wants back."""
    matched = _order_matched([(E.add, E.add), (E.circ, E.circ)])
    if admit is None:
        candidates = matched
    else:
        def candidates(g: int) -> list:
            return [x for x in matched(g) if admit(g, x)]
    return set(_homomorphisms(
        E.add, candidates, brace_hom_ops(E, E), 0, "brace_automorphisms", injective=True
    ))


def brace_automorphisms(E: SkewBrace) -> PermGroup:
    """Bijections fixing 0 preserving both tables."""
    return PermGroup(E.n, _brace_automorphism_search(E))


def find_brace_isomorphism(E1: SkewBrace, E2: SkewBrace) -> Optional[Perm]:
    """A single bijection that is an isomorphism of both groups, or None."""
    if E1.n != E2.n:
        return None
    maps = _homomorphisms(
        E1.add, _order_matched([(E1.add, E2.add), (E1.circ, E2.circ)]),
        brace_hom_ops(E1, E2), 0, "find_brace_isomorphism", injective=True, first_only=True,
    )
    return maps[0] if maps else None
