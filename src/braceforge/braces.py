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
generator of S_o (the generating set groups._generators finds for o), or
an element times a generator, so the law needs checking only for s in
{0} and S_o.

validate_brace and lambda_is_hom take these routes at every order, as
validate_group takes Light's test; the full cube is kept for the batched
check of many circle tables at once (_brace_axiom) and as the test
oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .errors import (
    BraceAxiomFailed,
    InputError,
    NotASubbrace,
    OrderBoundExceeded,
    ValidationError,
)
from .groups import (
    DEFAULT_ORDER_BOUND,
    FiniteGroup,
    Perm,
    PermGroup,
    _homomorphisms,
    _order_matched,
    invert_perm,
    validate_group,
)


class SkewBrace:
    """Two group structures on one carrier; use validate_brace to build."""

    __slots__ = ("add", "circ", "n", "_lambda", "_hash")

    def __init__(self, add: FiniteGroup, circ: FiniteGroup):
        if add.n != circ.n:
            raise InputError("additive and circle tables differ in size")
        self.add = add
        self.circ = circ
        self.n = add.n
        self._lambda = None
        self._hash = hash((add.table, circ.table))

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
        return self.add.table == self.circ.table

    @property
    def lambda_table(self) -> tuple:
        """lam(a)[b] = -a + (a o b), one perm per element."""
        if self._lambda is None:
            add, circ, neg = self.add.table, self.circ.table, self.add.inv
            self._lambda = tuple(
                tuple(add[neg[a]][circ[a][b]] for b in range(self.n))
                for a in range(self.n)
            )
        return self._lambda

    def lam(self, a: int) -> Perm:
        return self.lambda_table[a]


def _axiom_sides(t_add: np.ndarray, rows: np.ndarray, neg: np.ndarray, bs) -> tuple:
    """Both sides of the brace axiom, a o (b + c) and a o b - a + a o c,
    at every (a, b, c) with a over the circle rows `rows` (shape
    (..., A, n)), -a in `neg` (shape (A,)), b over `bs` and c over all;
    each side has shape (..., A, len(bs), n)."""
    lhs = rows[..., t_add[bs]]
    partial = t_add[rows[..., bs], neg[:, None]]      # (a o b) - a
    return lhs, t_add[partial[..., None], rows[..., None, :]]


def _brace_axiom(add: FiniteGroup, circs: np.ndarray) -> tuple:
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


def _brace_axiom_on_generators(add: FiniteGroup, circ: FiniteGroup):
    """The witness _brace_axiom gives for one circle table, or None, from
    the cells with b in a generating set of (E, +) (module docstring):
    they decide which a fail, and the witness is read off the n x n slice
    of the first failing a."""
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


def validate_brace(
    add_table: Sequence[Sequence[int]], circ_table: Sequence[Sequence[int]]
) -> SkewBrace:
    """Validate both group tables and the skew brace axiom, deciding the
    axiom on a generating set of (E, +) with the witness the full cube
    would give."""
    try:
        add = validate_group(add_table)
    except ValidationError as exc:
        exc.witness["table"] = "add"
        raise
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
    L = np.array(E.lambda_table, dtype=np.int64)
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
    """a + b = a o lam(a)^-1(b)  and  a o b = a + lam(a)(b), all pairs."""
    lam = E.lambda_table
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
        f = self.map
        if len(f) != self.src.n or f[0] != 0:
            return False
        sa, sc = self.src.add.table, self.src.circ.table
        da, dc = self.dst.add.table, self.dst.circ.table
        for a in range(self.src.n):
            for b in range(self.src.n):
                if f[sa[a][b]] != da[f[a]][f[b]]:
                    return False
                if f[sc[a][b]] != dc[f[a]][f[b]]:
                    return False
        return True

    def kernel(self) -> tuple:
        return tuple(a for a in range(self.src.n) if self.map[a] == 0)

    def is_injective(self) -> bool:
        return len(set(self.map)) == self.src.n

    def is_surjective(self) -> bool:
        return len(set(self.map)) == self.dst.n


def brace_hom_ops(src: SkewBrace, dst: SkewBrace) -> list:
    """The (src table, dst mul) pairs a brace hom src -> dst respects.

    The o pair is left out when both braces are trivial, where it would
    repeat the + pair."""
    ops = [(src.add.table, dst.add.mul)]
    if not (src.is_trivial and dst.is_trivial):
        ops.append((src.circ.table, dst.circ.mul))
    return ops


def _brace_automorphism_search(
    E: SkewBrace, admit: Optional[Callable] = None, max_order: int = DEFAULT_ORDER_BOUND
) -> set:
    """Brace automorphisms of E as image tuples, by the homomorphism engine.

    Generator images are matched by element order in both groups; with
    `admit`, an image x of generator g is tried only when admit(g, x),
    which must hold for every automorphism the caller wants back."""
    if E.n > max_order:
        raise OrderBoundExceeded("automorphism_group", E.n, max_order)
    matched = _order_matched([(E.add, E.add), (E.circ, E.circ)])
    if admit is None:
        candidates = matched
    else:
        def candidates(g: int) -> list:
            return [x for x in matched(g) if admit(g, x)]
    maps = _homomorphisms(E.add, candidates, brace_hom_ops(E, E), 0, injective=True)
    return {tuple(m[x] for x in range(E.n)) for m in maps}


def brace_automorphisms(E: SkewBrace, max_order: int = DEFAULT_ORDER_BOUND) -> PermGroup:
    """Bijections fixing 0 preserving both tables."""
    return PermGroup(E.n, _brace_automorphism_search(E, max_order=max_order))


def find_brace_isomorphism(E1: SkewBrace, E2: SkewBrace) -> Optional[Perm]:
    """A single bijection that is an isomorphism of both groups, or None."""
    if E1.n != E2.n:
        return None
    maps = _homomorphisms(
        E1.add, _order_matched([(E1.add, E2.add), (E1.circ, E2.circ)]),
        brace_hom_ops(E1, E2), 0, injective=True, first_only=True,
    )
    return tuple(maps[0][x] for x in range(E1.n)) if maps else None
