"""Finite left skew braces on a shared 0-based carrier.

A skew brace here is a pair of Cayley tables (add, circ) on the same carrier
with the same identity 0, satisfying

    a o (b + c) = a o b - a + a o c          for all a, b, c.

The lambda map lam(a) : b |-> -a + (a o b) is then an automorphism of the
additive group, and a |-> lam(a) is a homomorphism from the circle group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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
    is_automorphism,
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


def _brace_axiom(add: FiniteGroup, circs: np.ndarray) -> tuple:
    """The skew brace axiom for one additive group against a (T, n, n)
    stack of circle tables, evaluated in one broadcast.

    Returns (ok, witness): ok[t] tells whether table t satisfies
    a o (b + c) = a o b - a + a o c everywhere; witness is None when every
    table does, else (a, b, c, lhs, rhs) at the first failing cell of the
    first failing table."""
    t_add = add.np_table
    neg = np.array(add.inv, dtype=np.int64)
    lhs = circs[:, :, t_add]                          # a o (b + c)
    partial = t_add[circs, neg[:, None]]              # (a o b) - a
    rhs = t_add[partial[:, :, :, None], circs[:, :, None, :]]
    bad = lhs != rhs
    if not bad.any():
        return np.ones(len(circs), dtype=bool), None
    ok = ~bad.reshape(len(circs), -1).any(axis=1)
    k = int(np.argmin(ok))
    a, b, c = (int(x) for x in np.argwhere(bad[k])[0])
    return ok, (a, b, c, int(lhs[k, a, b, c]), int(rhs[k, a, b, c]))


def validate_brace(
    add_table: Sequence[Sequence[int]], circ_table: Sequence[Sequence[int]]
) -> SkewBrace:
    """Validate both group tables and the skew brace axiom."""
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
    _, witness = _brace_axiom(add, circ.np_table[None])
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
    """lam : (E, o) -> Aut(E, +) is a homomorphism (exhaustive)."""
    lam = E.lambda_table
    if not all(is_automorphism(p, E.add) for p in lam):
        return False
    L = np.array(lam, dtype=np.int64)
    # lam(a o b)(x) = lam(a)(lam(b)(x)) for all a, b, x
    return bool(np.array_equal(L[E.circ.np_table], L[np.arange(E.n)[:, None, None], L]))


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


def brace_automorphisms(E: SkewBrace, max_order: int = DEFAULT_ORDER_BOUND) -> PermGroup:
    """Bijections fixing 0 preserving both tables."""
    if E.n > max_order:
        raise OrderBoundExceeded("automorphism_group", E.n, max_order)
    maps = _homomorphisms(
        E.add, _order_matched([(E.add, E.add), (E.circ, E.circ)]), brace_hom_ops(E, E), 0,
        injective=True,
    )
    return PermGroup(E.n, {tuple(m[x] for x in range(E.n)) for m in maps})


def find_brace_isomorphism(E1: SkewBrace, E2: SkewBrace) -> Optional[Perm]:
    """A single bijection that is an isomorphism of both groups, or None."""
    if E1.n != E2.n:
        return None
    maps = _homomorphisms(
        E1.add, _order_matched([(E1.add, E2.add), (E1.circ, E2.circ)]),
        brace_hom_ops(E1, E2), 0, injective=True, first_only=True,
    )
    return tuple(maps[0][x] for x in range(E1.n)) if maps else None
