"""Second cohomology with abelian coefficients and its action on extensions.

Coefficients here are an abelian group I carried as a trivial skew brace
(a + b = a o b), acted on by a skew brace H through a fixed triple
chi = (nu, mu, sigma) of automorphism families: nu a homomorphism on
(H, o), mu an anti-homomorphism on (H, +), sigma an anti-homomorphism on
(H, o).  A cocycle pair is (g, f) with g, f : H x H -> I vanishing whenever
either argument is 0 and satisfying the trivial-coefficient specialisation
of the two extension cocycle laws:

    g(h1, h2 + h3) + g(h2, h3) = g(h1 + h2, h3) + mu_{h3}(g(h1, h2))
    f(h1, h2 o h3) + f(h2, h3) = f(h1 o h2, h3) + sigma_{h3}(f(h1, h2))

together with the brace axiom of the extension (chi, g, f) builds; the
two laws alone govern each component separately but do not tie them
together (see z2N).  Coboundaries arise from maps theta : H -> I
with theta(0) = 0:

    g_theta(h1, h2) = nu_{h1+h2}(-theta(h1+h2)) + mu_{h2}(nu_{h1}(theta(h1)))
                      + nu_{h2}(theta(h2))
    f_theta(h1, h2) = -theta(h1 o h2) + sigma_{h2}(theta(h1)) + theta(h2)

Derivations are exactly the theta whose coboundary is (0, 0); the displayed
one-line forms of the two derivation laws are recovered by moving the
leading negative term across, and the test suite asserts that derivations
are the kernel of the coboundary map.

All of this is Z-linear once I is written as a sum of cyclic groups
Z/d_1 + ... + Z/d_r (_Coordinates): a pair is a vector of r coordinates
per free cell, each law's residual is Z-linear in the pair, and the
coboundary map is Z-linear in theta.  So Z^2, B^2 and Z^1 are computed as
kernels and images of integer matrices over mixed moduli (_echelon, an
echelon form by unimodular row steps, read by _span_and_kernel), each
matrix filled by evaluating residuals on unit pairs or coboundaries of
unit maps; no cocycle pair is listed to find them.  The lists z2N, b2N and z1N return
are drawn from the echelon bases, and CohomologyGroup reads classes off
coordinates.

Z^2 from rebuilt unit pairs.  A pair is a cocycle pair exactly when
(chi, g, f) rebuilds a skew brace E (extensions module docstring), so
_cocycle_space rebuilds the unit pairs (split._triplet_ops, evaluated at
the cells read, _AtLifts) and reads the laws of E off them with the
package's evaluators: associativity of + and of o
(groups._associativity_sides) and the brace axiom (braces._axiom_sides),
at cells of lifts (h, 0).  Every nu_h, mu_h, sigma_h is an automorphism
of I = (I, +) = (I, o), so every term of E's operations, and of the
right inverse (-h, y') of (h, y) in (E, +), is an automorphism image of
one g or f entry or of one y, indexed by elements of H.  At the cell
((h1, y1), (h2, y2), (h3, y3)) each law's residual, the I-part
difference of its two sides, therefore splits as

    L(g, f; h1, h2, h3) + R_chi(h1, h2, h3; y1, y2, y3)

with L additive in (g, f) and free of y, and R_chi the zero pair's
residual.  The zero pair's lifts (h, 0) add and multiply as H does, so
R_chi vanishes at y = 0: on lift cells the residual is L, and the unit
pairs' residuals are its matrix.

No cocycle pair without a split triple.  A cocycle pair has residual 0
at every y, so L = 0 at y = 0 and then R_chi = 0 everywhere: the zero
pair rebuilds a brace as well, and chi passes split's lifts check.
Otherwise _cocycle_space rebuilds nothing and Z^2 is empty.

Generator cells are exact for a split triple.  Then R_chi = 0, so a law
holds at a cell iff it holds at the lifts of its three H-coordinates.
  * Associativity of +: call m a good middle when (x + m) + z = x + (m + z)
    for all x, z.  Good middles are closed under + (Light's test, groups
    module docstring; it uses their goodness alone), every (0, y) is good
    as the identity (0, 0) is, and every (s, y) is good once (s, 0) is.
    As y' runs over I, (h, y) + (s, y') runs over the fibre of h + s, so
    with s over a generating sequence of (H, +) these reach all of E:
    the middles (s, 0) with x, z among the lifts decide the law.  The o
    law is the same with a generating sequence of (H, o).
  * The brace axiom: once both laws hold, (E, +) and (E, o) are finite
    groups (associative, identity (0, 0), cancellation), so the right
    inverse is the inverse and the lambda-additivity lemma of the braces
    module applies: for fixed a the b with a o (b + c) = a o b - a + a o c
    for every c are closed under +, and the axiom holds at b = 0.  So b
    over the lifts of a generating sequence of (H, +) decides it, with a
    and c among the lifts.
  * The lift (0, 0) need not be read as x, z, a or c: it is the identity
    of every rebuilt + and o (pairs vanish at 0, and nu_0, mu_0, sigma_0
    are identities), so both sides agree at x, z or a = 0 for every pair,
    and at c = 0 the axiom reads (a o b - a) + a = a o b, true once
    (E, +) is a group.
A unit pair then costs (|H| - 1)^2 (2 |S(H, +)| + |S(H, o)|) cells, each
product evaluated from the rebuild formulas with no table of E gathered,
not the 3 |H|^3 of the full cube, whose hand transcriptions of the laws
are test oracles in tests/test_cohomology.py.  For a chi that is not
split, R_chi may depend on y2 and these cells can admit pairs the cube
rejects; no pair is valid there, so they are never read.

The quotient H^2 = Z^2 / B^2 acts on extension classes of H by a general
brace I through annihilator-valued pairs: (g, f) . (chi, beta, tau) =
(chi, g + beta, f + tau), the sums taken in I (g, f land in Ann(I), so the
order of the summands is immaterial and "+" agrees with "o" there).
The theorem checks on it, ext_bijection_check and verify_free_transitive,
read their H^2 groups and classifications through budget.shared, so the
checks of one command build each once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod
from typing import Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .braces import SkewBrace, _axiom_sides, annihilator, trivial_brace
from .errors import (
    CoefficientsNotAbelian,
    InputError,
    NotTrivialCoefficients,
    ValidationError,
    ValuesNotInAnnihilator,
)
from .extensions import (
    Extension,
    Triplet,
    _class_heads,
    _class_key,
    _first_witnesses,
    _zero_cocycle,
    extension_from_triplet,
    extract_triplet,
    twist_cocycle,
)
from .groups import _associativity_sides, group_from_elements
from .split import ActionTriple, _check_action, _compat_on_lifts, _triplet_ops


# --- coefficient and action validation --------------------------------------

def require_coefficients(I: SkewBrace) -> None:
    """Coefficients must be a trivial brace on an abelian group."""
    if not I.is_trivial:
        raise NotTrivialCoefficients(
            "coefficients must carry the trivial brace structure (a + b = a o b)"
        )
    if not I.add.is_abelian:
        raise CoefficientsNotAbelian("coefficient group must be abelian")


def validate_cocycle_action(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> None:
    """Check chi is a legal action for abelian trivial-brace coefficients:
    require_coefficients, then split's action check (split._check_action).

    Families must consist of automorphisms of (I, +) = (I, o); nu must be
    a homomorphism on (H, o) and mu, sigma anti-homomorphisms on (H, +)
    and (H, o) respectively (inner twists vanish for abelian coefficients).
    """
    require_coefficients(I)
    _check_action(H, I, chi)


# --- cocycle pairs -----------------------------------------------------------

@dataclass(frozen=True)
class CocyclePair:
    """Tables (g, f) on H x H with values in the abelian coefficient group."""

    g: tuple
    f: tuple

    def sort_key(self) -> tuple:
        return (self.g, self.f)


@dataclass(frozen=True)
class Derivation:
    """A map theta : H -> I whose coboundary pair vanishes."""

    theta: tuple


def zero_pair(nh: int) -> CocyclePair:
    z = tuple(tuple(0 for _ in range(nh)) for _ in range(nh))
    return CocyclePair(z, z)


def _pair_shape_check(nh: int, pair: CocyclePair) -> None:
    for name, tab in (("g", pair.g), ("f", pair.f)):
        if len(tab) != nh or any(len(row) != nh for row in tab):
            raise InputError(f"{name} must be an {nh} x {nh} table")
        if any(tab[a][0] != 0 for a in range(nh)) or any(tab[0][b] != 0 for b in range(nh)):
            raise InputError(f"{name} must vanish when either argument is 0")


def pair_add(I: SkewBrace, p: CocyclePair, q: CocyclePair) -> CocyclePair:
    Ia = I.add.table
    nh = len(p.g)
    g = tuple(tuple(Ia[p.g[a][b]][q.g[a][b]] for b in range(nh)) for a in range(nh))
    f = tuple(tuple(Ia[p.f[a][b]][q.f[a][b]] for b in range(nh)) for a in range(nh))
    return CocyclePair(g, f)


def pair_neg(I: SkewBrace, p: CocyclePair) -> CocyclePair:
    neg = I.add.inv
    nh = len(p.g)
    g = tuple(tuple(neg[p.g[a][b]] for b in range(nh)) for a in range(nh))
    f = tuple(tuple(neg[p.f[a][b]] for b in range(nh)) for a in range(nh))
    return CocyclePair(g, f)


# --- integer linear algebra ----------------------------------------------------

def _xgcd(a: int, b: int) -> tuple:
    """(g, s, t) with g = gcd(a, b) = s a + t b."""
    s0, s1, t0, t1 = 1, 0, 0, 1
    while b:
        q, r = divmod(a, b)
        a, b = b, r
        s0, s1, t0, t1 = s1, s0 - q * s1, t1, t0 - q * t1
    return a, s0, t0


def _unit(v: int, d: int, top: int) -> int:
    """A unit u modulo top with u v = gcd(v, d) modulo d (d divides top)."""
    g = gcd(v, d)
    m = d // g
    u = pow(v // g, -1, m) if m > 1 else 1
    while gcd(u, top) != 1:
        u += m
    return u


def _echelon(rows: np.ndarray, mods: np.ndarray, stop: int) -> tuple:
    """Echelon form, over the first stop columns, of the subgroup of
    Z/mods[0] + Z/mods[1] + ... that the rows generate.

    Returns (pivots, rest).  pivots lists (c, row) by increasing column c,
    each row zero before c with row[c] a divisor of mods[c]; rest generates
    the members that vanish on the first stop columns.  At each column the
    rows nonzero there are folded into one by unimodular steps (a multiple
    of the row with the least gcd by a unit modulo every modulus, then
    extended gcds with any row it does not divide), every row is cleared
    against it, and its multiple (mods[c] / row[c]) row, which vanishes at
    c, joins the rest unless it is 0.  So the members vanishing before any
    column c are generated by the pivot rows from c on and rest."""
    rows = rows % mods
    top = int(np.lcm.reduce(mods)) if len(mods) else 1
    found = []
    # a column that is 0 in every row stays so; and every row vanishes
    # before the current column, so only the columns from it on are touched
    for c in np.flatnonzero(rows[:, :stop].any(axis=0)).tolist():
        col = rows[:, c]
        nz = col.nonzero()[0]
        if not len(nz):
            continue
        d, tail = int(mods[c]), mods[c:]
        q = col[nz]
        i = int(nz[np.gcd(q, d).argmin()]) if len(nz) > 1 else int(nz[0])
        p = rows[i, c:] * _unit(int(col[i]), d, top) % tail
        g = int(p[0])
        if g > 1:
            for j in nz[q % g != 0].tolist():
                w = int(rows[j, c])
                g2, s, t = _xgcd(g, w)
                row = rows[j, c:].copy()
                p, rows[j, c:] = (s * p + t * row) % tail, ((w // g2) * p - (g // g2) * row) % tail
                g = g2
            q = rows[nz, c] // g
        # the row the pivot came from becomes a multiple of it that vanishes at c
        rows[nz, c:] = (rows[nz, c:] - q[:, None] * p) % tail
        if (d // g) % top:
            ann = np.zeros((1, len(mods)), dtype=np.int64)
            ann[0, c:] = (d // g) * p % tail
            rows = np.vstack([rows, ann])
        found.append((c, p))
    pivots = []
    for c, p in found:
        full = np.zeros(len(mods), dtype=np.int64)
        full[c:] = p
        pivots.append((c, full))
    return pivots, rows[rows.any(axis=1)]


class _Echelon:
    """A subgroup of Z/mods[0] + Z/mods[1] + ... in echelon form.

    Each member is sum_k a_k rows[k] for exactly one choice of
    0 <= a_k < mods[cols[k]] / rows[k][cols[k]] (the rows are triangular
    with pivots dividing their moduli), so the order is the product of
    those ranges and membership is decided by clearing the pivots in
    order."""

    def __init__(self, pivots: list, mods: np.ndarray):
        self.mods = mods
        self.cols = [c for c, _ in pivots]
        self.rows = np.array([p for _, p in pivots], dtype=np.int64).reshape(len(pivots), len(mods))
        self.ranges = [int(mods[c] // p[c]) for c, p in pivots]
        self.order = prod(self.ranges)

    @classmethod
    def of(cls, gens: np.ndarray, mods: np.ndarray) -> "_Echelon":
        return cls(_echelon(gens, mods, len(mods))[0], mods)

    def members(self) -> np.ndarray:
        out = np.zeros((1, len(self.mods)), dtype=np.int64)
        for row, k in zip(self.rows, self.ranges):
            out = (out[None, :, :] + np.arange(k)[:, None, None] * row).reshape(-1, len(self.mods))
        return out % self.mods

    def contains(self, X: np.ndarray) -> np.ndarray:
        ok = np.ones(len(X), dtype=bool)
        for c, row in zip(self.cols, self.rows):
            g = row[c]
            ok &= X[:, c] % g == 0
            X = (X - (X[:, c] // g)[:, None] * row) % self.mods
        return ok & ~X.any(axis=1)


class _Coordinates:
    """(I, +) as a direct sum Z/d_1 + ... + Z/d_r of cyclic groups.

    Each step adjoins an element x of the largest order modulo the span so
    far among those whose multiples meet the span only in 0.  While the
    span is a direct summand, an element of largest order in a complement
    qualifies, and adjoining any qualifying x adds such an element, so the
    span stays a summand and grows to all of I.  labels[i] is the element
    with coordinates (c_1, ..., c_r), i = sum_j c_j strides[j];
    coords[x] the coordinates of element x."""

    def __init__(self, I: SkewBrace):
        tab = I.add.table
        span = [0]
        mods, strides = [], []
        while len(span) < I.n:
            inside = set(span)
            best = (1, 0)
            for x in range(I.n):
                q, y = 1, x
                while y not in inside:
                    y = tab[y][x]
                    q += 1
                if y == 0 and q > best[0]:
                    best = (q, x)
            q, x = best
            multiples = [0]
            for _ in range(q - 1):
                multiples.append(tab[multiples[-1]][x])
            strides.append(len(span))
            span = [tab[s][m] for m in multiples for s in span]
            mods.append(q)
        self.mods = np.array(mods, dtype=np.int64)
        self.strides = np.array(strides, dtype=np.int64)
        self.labels = np.array(span, dtype=np.int64)
        self.coords = np.empty((I.n, len(mods)), dtype=np.int64)
        self.coords[self.labels] = np.array(
            [[i // st % q for st, q in zip(strides, mods)] for i in range(I.n)],
            dtype=np.int64).reshape(I.n, len(mods))
        self.exponent = lcm(*mods)

    def to_labels(self, C: np.ndarray) -> np.ndarray:
        """Labels of coordinate vectors along the last axis."""
        return self.labels[(C * self.strides).sum(axis=-1)]


class _Cochains:
    """Coordinates of normalized pairs (g, f) for one (H, I).

    A pair is also an integer row: its g table then its f table, flattened
    (2 |H|^2 labels).  Its coordinates are those of the free cells (a, b),
    a, b > 0, of g and then of f, row-major, r coefficient coordinates
    each; lex order on pairs is lex order on the free cells' labels, since
    the other cells are 0."""

    def __init__(self, n: int, I: SkewBrace):
        self.n = n
        self.co = co = _Coordinates(I)
        free = np.zeros((2, n, n), dtype=bool)
        free[:, 1:, 1:] = True
        self.cells = np.flatnonzero(free)
        self.fixed = np.flatnonzero(~free)
        self.mods = np.tile(co.mods, len(self.cells))

    def coords(self, rows: np.ndarray) -> np.ndarray:
        return self.co.coords[rows[:, self.cells]].reshape(len(rows), len(self.mods))

    def labels(self, X: np.ndarray) -> np.ndarray:
        out = np.zeros((len(X), 2 * self.n * self.n), dtype=np.int64)
        out[:, self.cells] = self.co.to_labels(
            X.reshape(len(X), len(self.cells), len(self.co.mods)))
        return out

    def pairs(self, X: np.ndarray) -> list:
        """The pairs with coordinates X, lex-sorted."""
        rows = self.labels(X)
        return self.row_pairs(rows[np.lexsort(rows.T[::-1])])

    def row_pairs(self, rows: np.ndarray) -> list:
        """The pairs laid out in integer rows."""
        n, nn = self.n, self.n * self.n
        return [
            CocyclePair(tuple(tuple(row[a:a + n]) for a in range(0, nn, n)),
                        tuple(tuple(row[a:a + n]) for a in range(nn, 2 * nn, n)))
            for row in rows.tolist()
        ]

    def is_pair(self, rows: np.ndarray) -> np.ndarray:
        """Which integer rows hold labels of I and vanish off the free cells."""
        labels = ((rows >= 0) & (rows < len(self.co.coords))).all(axis=1)
        return labels & ~rows[:, self.fixed].any(axis=1)


@dataclass
class _CocycleSpace:
    """Z^2 for one (H, I, chi), in the coordinates of cochains: its
    echelon form, or None when chi is not a split triple, in which case no
    pair is a cocycle pair (module docstring)."""

    cochains: _Cochains
    z2: Optional[_Echelon]


class _AtLifts:
    """One rebuilt operation of a stack of K triplets (split._triplet_ops),
    read at the nonzero lifts (h, 0) without gathering its table.

    Label arrays (h |I| + y) hold the layer on their first axis, of length
    K, or 1 when every layer shares them.  take(idx, axis=0) is idx times
    each nonzero lift, on a new last axis, take(idx, axis=-1) each nonzero
    lift times idx, on a new axis after the layer's, and [p, q] the
    products of broadcast p and q: what the law evaluators read of a
    table, so here x and y, or a and c, run over the nonzero lifts."""

    def __init__(self, op, layers: int, nh: int, ni: int):
        self.op, self.ni = op, ni
        self.k = np.arange(layers)
        self.hs = np.arange(1, nh)
        self.lifts = self.hs * ni

    def _layers(self, ndim: int) -> np.ndarray:
        return self.k.reshape((-1,) + (1,) * (ndim - 1))

    def __getitem__(self, pq) -> np.ndarray:
        p, q = pq
        k = self._layers(max(p.ndim, q.ndim))
        return self.op(k, *np.divmod(p, self.ni), *np.divmod(q, self.ni))

    def take(self, idx, axis: int) -> np.ndarray:
        idx = np.asarray(idx)
        k = self._layers(idx.ndim + 1)
        if axis == 0:
            return self.op(k, *np.divmod(idx[..., None], self.ni), self.hs, 0)
        hs = self.hs.reshape((1, -1) + (1,) * (idx.ndim - 1))
        return self.op(k, hs, 0, *np.divmod(idx[:, None], self.ni))


def _cocycle_space(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> _CocycleSpace:
    """Z^2 for an action chi that passed validate_cocycle_action, as a
    kernel, without listing any pair.

    Unless chi passes split's lifts check there is no cocycle pair.
    Otherwise every unit pair (one free cell and coordinate) is rebuilt as
    one stack of operations (_AtLifts), and the laws of the rebuilt
    operations are read on the generator cells of the module docstring by
    the package's own evaluators: associativity of + and of o
    (groups._associativity_sides) and the brace axiom
    (braces._axiom_sides).  Each residual, the I-part difference of the
    two sides, is Z-linear in the pair, so the unit pairs' residuals are
    the matrix whose kernel is Z^2."""
    sp = _Cochains(H.n, I)
    split = bool(_compat_on_lifts(H, I, [chi.nu], [chi.mu], [chi.sigma]).all())
    if not (split and len(sp.mods)):
        return _CocycleSpace(sp, _Echelon([], sp.mods) if split else None)
    n, ni, co = H.n, I.n, sp.co
    units = sp.labels(np.eye(len(sp.mods), dtype=np.int64)).reshape(-1, 2, n, n)
    add, circ = (_AtLifts(op, len(units), n, ni)
                 for op in _triplet_ops(H, I, [chi], units[:, 0], units[:, 1]))
    lifts = np.arange(n)[None] * ni          # (h, 0), shared by every layer
    s_add, s_circ = (lifts[:, list(G.generating_sequence())] for G in (H.add, H.circ))
    # -(h, 0), h != 0, in each rebuilt (E, +) is its right inverse, which
    # lies over -h, as the H-part of a sum is the sum of the H-parts
    over = (np.asarray(H.add.inv)[1:] * ni)[:, None] + np.arange(ni)
    neg = over[:, 0] + (add[add.lifts[:, None], over[None]] == 0).argmax(axis=2)
    diff = co.coords[I.add.np_table[:, I.add.inv]]      # coordinates of y1 - y2

    def residual(lhs, rhs):
        """The coordinates of the I-part difference, one row per unit pair."""
        return diff[lhs % ni, rhs % ni].reshape(len(units), -1)

    images = np.hstack([residual(*_associativity_sides(add, s_add)),
                        residual(*_associativity_sides(circ, s_circ)),
                        residual(*_axiom_sides(add, circ, neg, s_add, add.lifts[None]))])
    tmods = np.tile(co.mods, images.shape[1] // len(co.mods))
    return _CocycleSpace(sp, _span_and_kernel(images, tmods, sp.mods)[1])


def _coboundary_images(sp: _Cochains, H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> np.ndarray:
    """The coordinates of the coboundary pairs of the unit maps theta
    (theta(h) the j-th coordinate generator of I at one h != 0): the
    coboundary map is Z-linear in theta, so these generate B^2 and are its
    matrix."""
    co = sp.co
    basis = co.labels[co.strides].tolist()
    rows = []
    for h in range(1, H.n):
        for b in basis:
            theta = [0] * H.n
            theta[h] = b
            pair = coboundary_pair(H, I, chi, theta)
            rows.append(pair.g + pair.f)
    rows = np.array(rows, dtype=np.int64).reshape(len(rows), 2 * H.n * H.n)
    return sp.coords(rows)


def z2N(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> list:
    """All cocycle pairs for the given action, lex-sorted: the pairs (g, f)
    for which (chi, g, f) builds a valid extension, which is what the
    quotient-vs-class-count theorems need.

    The two component laws never couple g with f, and they alone do not
    cut out these pairs: the brace axiom of the would-be extension ties
    the components together (already at H = trivial Z2, I = Z3 with the
    trivial action it forces 2 g(1,1) = 2 f(1,1), cutting 9 law-abiding
    pairs down to 3).  Z^2 is the kernel _cocycle_space reads off rebuilt
    unit pairs, listed from its echelon basis and guarded by its known
    number; no pair is rebuilt to confirm it.
    """
    validate_cocycle_action(H, I, chi)
    space = _cocycle_space(H, I, chi)
    if space.z2 is None:
        return []
    budget_mod.guard(space.z2.order, "z2N listing")
    return space.cochains.pairs(space.z2.members())


def coboundary_pair(
    H: SkewBrace, I: SkewBrace, chi: ActionTriple, theta: Sequence[int]
) -> CocyclePair:
    """The cocycle pair of a normalization-respecting map theta : H -> I:
    the twist of the zero pair by theta (extensions.twist_cocycle)."""
    if len(theta) != H.n or theta[0] != 0:
        raise InputError("theta must be indexed by H with theta(0) = 0")
    zero = _zero_cocycle(H.n)
    return CocyclePair(*twist_cocycle(H, I, Triplet(chi, zero, zero), theta))


def _span_and_kernel(images: np.ndarray, tmods: np.ndarray, cmods: np.ndarray) -> tuple:
    """The span and the kernel, in echelon form, of the homomorphism from
    Z/cmods[0] + Z/cmods[1] + ... to Z/tmods[0] + ... that sends the k-th
    unit to images[k] (each image of order dividing cmods[k]).

    One echelon of the graph, rows (images[k], e_k), over all its columns
    gives both: its pivots in the image columns are, cut to those columns,
    the echelon form of the span (the steps there see only those columns),
    and the rows left vanishing on them are the graph's members with image
    0, so the pivots after them are the echelon form of the kernel."""
    w = len(tmods)
    graph = np.hstack([images, np.eye(len(cmods), dtype=np.int64)])
    pivots, _ = _echelon(graph, np.concatenate([tmods, cmods]), w + len(cmods))
    return (_Echelon([(c, p[:w]) for c, p in pivots if c < w], tmods),
            _Echelon([(c - w, p[w:]) for c, p in pivots if c >= w], cmods))


def _b2_z1(sp: _Cochains, images: np.ndarray) -> tuple:
    """(B^2, Z^1) in echelon form, from the coboundary images of the unit
    maps (_coboundary_images): their span and their kernel."""
    return _span_and_kernel(images, sp.mods, np.tile(sp.co.mods, sp.n - 1))


def b2N(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> list:
    """All coboundary pairs, deduplicated and lex-sorted: the span of the
    coboundaries of the unit maps, listed from an echelon basis (_b2_z1)."""
    validate_cocycle_action(H, I, chi)
    sp = _Cochains(H.n, I)
    b2, _ = _b2_z1(sp, _coboundary_images(sp, H, I, chi))
    budget_mod.guard(b2.order, "b2N listing")
    return sp.pairs(b2.members())


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque void scalar per row, equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows if rows.shape[1] else np.zeros((len(rows), 1), rows.dtype))
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


class CohomologyGroup:
    """H^2 = Z^2 / B^2 for one (H, I, chi), held as echelon bases.

    z2 is the echelon form of the cocycle pairs, in the coordinates of
    cochains, and coboundaries the images of the unit maps under the
    coboundary map (_coboundary_images), as h2N builds them: they span
    B^2, and their kernel is Z^1; both are read off one echelon (_b2_z1).
    Construction checks B^2 inside Z^2, then lists the classes: the
    representative of a class is the lexicographically least member of its
    coset, found by a greedy descent over the cells against the echelon
    form of B^2 (at each cell, the values the coset still reaches with the
    earlier cells fixed are one value plus the span of the B^2 rows
    pivoting in that cell, so the least label among them is taken), and the
    classes are closed up from the descended Z^2 basis.  Representatives
    are in lex order, the zero pair first; a class index is its position.
    Cocycle pairs are looked up by descent, so index_of, class_of, add and
    neg list nothing; the z2 and b2 properties list the members on
    access, and the representatives, held as rows, are listed as
    CocyclePairs on first access (the Wells check reads only the rows).
    """

    def __init__(self, H: SkewBrace, I: SkewBrace, chi: ActionTriple,
                 z2: _Echelon, coboundaries: np.ndarray, cochains: _Cochains):
        self.H = H
        self.I = I
        self.chi = chi
        self._z2, self._sp = z2, cochains
        self._b2, self._z1 = _b2_z1(cochains, coboundaries)
        b2 = self._b2
        if not z2.contains(b2.rows).all():
            raise ValidationError("coboundaries are not all cocycle pairs")
        # per cell holding B^2 pivots: the first column, and every value the
        # rows pivoting there reach (their span, listed)
        r, w = len(cochains.co.mods), len(b2.mods)
        self._descent = [
            (cell * r, _Echelon([(c, row) for c, row in zip(b2.cols, b2.rows)
                                 if c // r == cell], b2.mods).members())
            for cell in sorted({c // r for c in b2.cols})
        ]
        budget_mod.guard(self.z2_order // self.b2_order, "h2N class listing")
        gens = self._descend(z2.rows)
        gens = gens[gens.any(axis=1)]
        # close the classes up from 0 under adding the descended Z^2 basis
        reps = [np.zeros(w, dtype=np.int64)]
        seen = {reps[0].tobytes()}
        frontier = np.array(reps)
        while len(frontier) and len(gens):
            fresh = []
            for x in self._descend((frontier[:, None, :] + gens).reshape(-1, w) % b2.mods):
                if x.tobytes() not in seen:
                    seen.add(x.tobytes())
                    fresh.append(x)
            reps += fresh
            frontier = np.array(fresh, dtype=np.int64).reshape(len(fresh), w)
        reps = np.array(reps)
        rows = cochains.labels(reps)
        order = np.lexsort(rows.T[::-1])
        self._rep_rows = rows[order]
        keys = _row_keys(reps)
        by_key = np.argsort(keys)
        self._rep_keys = keys[by_key]
        self._class = np.argsort(order)[by_key]

    def _descend(self, X: np.ndarray) -> np.ndarray:
        """The lex-least member of each row's coset of B^2."""
        co = self._sp.co
        r = len(co.mods)
        for lo, combos in self._descent:
            vals = (X[:, None, lo:lo + r] + combos[None, :, lo:lo + r]) % co.mods
            X = (X + combos[co.to_labels(vals).argmin(axis=1)]) % self._sp.mods
        return X

    def _classes(self, rows: np.ndarray) -> tuple:
        """(ok, index) for integer rows laid out like a pair: which are
        cocycle pairs, and the class index of each (-1 where not).  A pair
        outside Z^2 descends to no representative, since its coset of B^2
        misses Z^2, so the lookup decides membership too."""
        ok = self._sp.is_pair(rows)
        keys = _row_keys(self._descend(self._sp.coords(rows[ok])))
        pos = np.minimum(np.searchsorted(self._rep_keys, keys), len(self._rep_keys) - 1)
        found = self._rep_keys[pos] == keys
        index = np.full(len(rows), -1, dtype=np.int64)
        index[np.flatnonzero(ok)[found]] = self._class[pos[found]]
        ok[ok] = found
        return ok, index

    def _class_indices(self, rows: np.ndarray) -> np.ndarray:
        """The class index of each integer row laid out like a pair;
        InputError unless every row is a cocycle pair."""
        ok, index = self._classes(rows)
        if not ok.all():
            raise InputError("pair is not a cocycle pair for this action")
        return index

    def _derivation_rows(self) -> tuple:
        """(Z^1, T): the derivations, lex-sorted as z1N lists them, and the
        echelon rows of Z^1, which generate it, as maps theta: H -> I, one
        integer row each."""
        sp = self._sp
        return _listed_derivations(sp, self._z1), _theta_rows(sp, self._z1.rows)

    def _basis_rows(self) -> tuple:
        """The echelon rows of Z^2 and of B^2, laid out like pairs."""
        return self._sp.labels(self._z2.rows), self._sp.labels(self._b2.rows)

    @cached_property
    def representatives(self) -> list:
        return self._sp.row_pairs(self._rep_rows)

    @property
    def order(self) -> int:
        return len(self._rep_rows)

    @property
    def z2_order(self) -> int:
        return self._z2.order

    @property
    def b2_order(self) -> int:
        return self._b2.order

    @property
    def z2(self) -> list:
        return self._sp.pairs(self._z2.members())

    @property
    def b2(self) -> list:
        return self._sp.pairs(self._b2.members())

    def index_of(self, pair: CocyclePair) -> int:
        n = self.H.n
        try:
            row = np.array([pair.g, pair.f], dtype=np.int64)
        except (TypeError, ValueError):
            row = None
        if row is None or row.shape != (2, n, n):
            raise InputError("pair is not a cocycle pair for this action")
        return int(self._class_indices(row.reshape(1, 2 * n * n))[0])

    def class_of(self, pair: CocyclePair) -> CocyclePair:
        return self.representatives[self.index_of(pair)]

    @property
    def zero(self) -> CocyclePair:
        rep = self.representatives[0]
        if rep != zero_pair(self.H.n):
            raise ValidationError("zero class representative is not the zero pair")
        return rep

    def add(self, p: CocyclePair, q: CocyclePair) -> CocyclePair:
        return self.class_of(pair_add(self.I, p, q))

    def neg(self, p: CocyclePair) -> CocyclePair:
        return self.class_of(pair_neg(self.I, p))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CohomologyGroup(order={self.order}, |Z2|={self.z2_order}, |B2|={self.b2_order})"


def h2N(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> CohomologyGroup:
    """H^2 for the action chi, from the kernel of _cocycle_space and the
    span of the unit coboundaries; no cocycle pair is listed.  Raises
    when the zero pair is not associated to chi (chi is not a split
    triple), since the quotient then has no zero class."""
    validate_cocycle_action(H, I, chi)
    space = _cocycle_space(H, I, chi)
    if space.z2 is None:
        raise ValidationError(
            "the zero pair is not an associated pair for this action, so no "
            "split extension carries it and the quotient has no zero class"
        )
    sp = space.cochains
    return CohomologyGroup(H, I, chi, space.z2, _coboundary_images(sp, H, I, chi), sp)


# --- derivations -------------------------------------------------------------

def z1N(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> list:
    """All derivations theta : H -> I, lex-sorted by table.

    The adopted laws are

        theta(h1 o h2) = sigma_{h2}(theta(h1)) + theta(h2)
        nu_{h1+h2}(theta(h1+h2)) = mu_{h2}(nu_{h1}(theta(h1))) + nu_{h2}(theta(h2))

    equivalently: the coboundary pair of theta vanishes.  So derivations
    are the kernel of the coboundary map on the unit maps, listed from an
    echelon basis (_b2_z1) and guarded by their known number.
    """
    validate_cocycle_action(H, I, chi)
    sp = _Cochains(H.n, I)
    _, z1 = _b2_z1(sp, _coboundary_images(sp, H, I, chi))
    return [Derivation(tuple(t)) for t in _listed_derivations(sp, z1).tolist()]


def _theta_rows(sp: _Cochains, X: np.ndarray) -> np.ndarray:
    """The maps theta: H -> I with theta(0) = 0 and coordinates X at
    h = 1, 2, ..., one integer row each."""
    co, n = sp.co, sp.n
    thetas = np.zeros((len(X), n), dtype=np.int64)
    thetas[:, 1:] = co.to_labels(X.reshape(len(X), n - 1, len(co.mods)))
    return thetas


def _listed_derivations(sp: _Cochains, z1: _Echelon) -> np.ndarray:
    """The members of Z^1, given in echelon form, as lex-sorted rows."""
    budget_mod.guard(z1.order, "z1N listing")
    thetas = _theta_rows(sp, z1.members())
    return thetas[np.lexsort(thetas.T[::-1])]


# --- restriction to the annihilator ------------------------------------------

def _carrier_index(elems: Sequence[int], n: int) -> np.ndarray:
    """The position of each of 0..n-1 in elems, -1 off it."""
    index = np.full(n, -1, dtype=np.int64)
    index[list(elems)] = np.arange(len(elems))
    return index


def _restrict(perms: np.ndarray, elems: Sequence[int], index: np.ndarray) -> tuple:
    """The rows of perms cut down to elems, in its coordinates (index, its
    _carrier_index; -1 where an image leaves it), and the first (row,
    element, image), in row-major order, whose image leaves elems, or None."""
    res = index[perms[:, list(elems)]]
    row, j = divmod(int((res < 0).argmax()), len(elems))
    return res, ((row, elems[j], int(perms[row, elems[j]])) if res[row, j] < 0 else None)


def restrict_action(I: SkewBrace, chi: ActionTriple):
    """Restrict an action on I to its annihilator.

    Returns (coefficient brace, restricted triple, element list): the
    annihilator carried as a trivial brace on indices 0..k-1, the three
    families cut down to it, and the list embedding those indices back
    into I.  Raises on the first member, nu, mu, sigma in that order, that
    fails to preserve the annihilator, cut as one stack by _restrict.
    """
    elems, nh = annihilator(I), len(chi.nu)
    res, out = _restrict(np.array(chi.nu + chi.mu + chi.sigma, dtype=np.int64), elems,
                         _carrier_index(elems, I.n))
    if out is not None:
        raise ValidationError("action does not preserve the annihilator",
                              family=("nu", "mu", "sigma")[out[0] // nh], h=out[0] % nh,
                              element=out[1], image=out[2])
    fams = [tuple(map(tuple, res[k * nh:(k + 1) * nh].tolist())) for k in range(3)]
    sub = group_from_elements(elems, lambda a, b: I.add.table[a][b])
    return trivial_brace(sub), ActionTriple(*fams), elems


def embed_pair(pair: CocyclePair, elems: Sequence[int]) -> CocyclePair:
    """Re-coordinate an annihilator-valued pair into ambient I elements."""
    g = tuple(tuple(elems[v] for v in row) for row in pair.g)
    f = tuple(tuple(elems[v] for v in row) for row in pair.f)
    return CocyclePair(g, f)


# --- action on extension classes ---------------------------------------------

def h2_act_triplet(H: SkewBrace, I: SkewBrace, pair: CocyclePair, t: Triplet) -> Triplet:
    """Shift a triplet by an annihilator-valued cocycle pair.

    pair carries ambient I elements; every value must lie in Ann(I).  The
    result is (chi, g + beta, f o tau); the shifts are central in both
    operations, so the summand order is immaterial.  The pair is accepted
    exactly when the shifted triplet rebuilds (TripletInvalid otherwise),
    the package's one validity test for triplets (extensions module
    docstring); for a valid t that is membership of the pair, in
    annihilator coordinates, in Z^2 of the action restricted to Ann(I)
    (restrict_action), as tests/test_cohomology.py checks pair by pair.
    The rebuild is read through budget.shared, so h2_act, which calls this
    inside a limit() block, takes its extension instead of rebuilding.
    """
    _pair_shape_check(H.n, pair)
    ann = set(annihilator(I))
    for name, tab in (("g", pair.g), ("f", pair.f)):
        for a in range(H.n):
            for b in range(H.n):
                if tab[a][b] not in ann:
                    raise ValuesNotInAnnihilator(
                        f"{name}({a}, {b}) lies outside the annihilator",
                        table=name,
                        h1=a,
                        h2=b,
                        value=tab[a][b],
                    )
    shifted = _shift(H, I, pair, t)
    budget_mod.shared(extension_from_triplet, H, I, shifted)
    return shifted


def _shift(H: SkewBrace, I: SkewBrace, pair: CocyclePair, t: Triplet) -> Triplet:
    """h2_act_triplet with no check of the pair.  On Ann(I), y o z =
    y + lam_y(z) = y + z, so both shifts are pair_add."""
    shifted = pair_add(I, pair, CocyclePair(t.beta, t.tau))
    return Triplet(t.chi, shifted.g, shifted.f)


def h2_act(H: SkewBrace, I: SkewBrace, pair: CocyclePair, ext: Extension) -> Extension:
    """Act on an extension by an annihilator-valued cocycle pair: the
    extension of the rebuild that decides h2_act_triplet, read back
    through budget.shared in one limit() block."""
    with budget_mod.limit():
        shifted = h2_act_triplet(H, I, pair, extract_triplet(ext))
        return budget_mod.shared(extension_from_triplet, H, I, shifted)


# --- theorem-level verification ----------------------------------------------

def ext_bijection_check(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> dict:
    """Compare |H^2| with the number of extension classes carrying chi.

    Coefficients must be a trivial abelian brace, in which case the coupling
    relation collapses to equality of action triples, so classes are matched
    by their canonical-section action.  Returns the counts and raises when
    the two sides disagree.  The H^2 group and the classification are read
    through budget.shared, so the checks of one command build each once.
    """
    grp = budget_mod.shared(h2N, H, I, chi)
    matched = 0
    for rep_chi, classes in budget_mod.shared(_class_heads, H, I):
        related = _first_witnesses(I, rep_chi, chi) is not None
        if related != (rep_chi == chi):
            raise ValidationError(
                "coupling relation should collapse to equality for abelian "
                "trivial coefficients"
            )
        if related:
            matched += len(classes)
    report = {
        "z2_order": grp.z2_order,
        "b2_order": grp.b2_order,
        "h2_order": grp.order,
        "ext_classes": matched,
        "equal": grp.order == matched,
    }
    if not report["equal"]:
        raise ValidationError(
            "cohomology order differs from the extension class count", **report
        )
    return report


def _act_permutation(
    H: SkewBrace,
    I: SkewBrace,
    pair_ambient: CocyclePair,
    class_keys: Sequence[Triplet],
) -> list:
    """Where acting by one cocycle pair sends each class, given by its class
    key (extensions._class_key): a shift commutes with every twist, so the
    key of the shifted key names the image, and exactly one class must
    have it.  The pair, an embedded h2N representative, is a cocycle pair
    into Ann(I), so it is not checked again (tests/test_cohomology.py
    asserts it); a shifted triplet with a class's key is a twist of a valid
    triplet, hence valid, so no extension is rebuilt.  The pairwise search
    is the oracle _act_permutation_pairwise in tests/test_cohomology.py."""
    index: dict = {}
    for j, key in enumerate(class_keys):
        index.setdefault(key, []).append(j)
    row = []
    for key in class_keys:
        hits = index.get(_class_key(H, I, _shift(H, I, pair_ambient, key)), [])
        if len(hits) != 1:
            raise ValidationError(
                "acted extension matched an unexpected number of classes",
                matches=len(hits),
            )
        row.append(hits[0])
    return row


def verify_free_transitive(H: SkewBrace, I: SkewBrace) -> dict:
    """Check freeness (and transitivity, for trivial I) of the H^2 action.

    Enumerates every extension class of H by I, groups them by coupling,
    and lets H^2(H, Ann(I)) with the restricted action act by cocycle
    shifts.  Freeness means no nonzero class fixes any extension class;
    transitivity (asserted only for trivial I) means a single orbit per
    coupling.  For trivial I the centre equals the annihilator, so the
    |Ext(H, I)| = |Ext(H, Z(I))| comparison is the per-coupling equality
    of class count and cohomology order.  H^2 acts on the class key of
    each class's head; the H^2 groups and the classification are read
    through budget.shared, so the checks of one command build each once.
    """
    buckets = budget_mod.shared(_class_heads, H, I)
    per_coupling = []
    all_free = True
    all_transitive = True
    for rep_chi, classes in buckets:
        reps = [_class_key(H, I, extract_triplet(head)) for head, _ in classes]
        I_res, chi_res, elems = restrict_action(I, rep_chi)
        grp = budget_mod.shared(h2N, H, I_res, chi_res)
        rows = [_act_permutation(H, I, embed_pair(p, elems), reps)
                for p in grp.representatives]
        identity = list(range(len(reps)))
        if rows[0] != identity:
            raise ValidationError("zero class failed to act as the identity")
        free = all(
            rows[k][j] != j for k in range(1, grp.order) for j in range(len(reps))
        )
        orbit = {0}
        frontier = [0]
        while frontier:
            j = frontier.pop()
            for k in range(grp.order):
                m = rows[k][j]
                if m not in orbit:
                    orbit.add(m)
                    frontier.append(m)
        transitive = len(orbit) == len(reps)
        all_free = all_free and free
        if I.is_trivial:
            all_transitive = all_transitive and transitive
            if not transitive or grp.order != len(reps):
                raise ValidationError(
                    "action should be transitive with trivial coefficients",
                    classes=len(reps),
                    h2_order=grp.order,
                )
        per_coupling.append(
            {
                "classes": len(reps),
                "h2_ann_order": grp.order,
                "free": free,
                "transitive": transitive,
            }
        )
    if not all_free:
        raise ValidationError("action is not free", report=per_coupling)
    return {
        "couplings": len(buckets),
        "per_coupling": per_coupling,
        "free": all_free,
        "transitive": all_transitive if I.is_trivial else None,
    }
