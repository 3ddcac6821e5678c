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

together with the compatibility that makes (chi, g, f) build an actual
extension; the two laws alone govern each component separately but do not
tie them together (see z2N).  Coboundaries arise from maps theta : H -> I
with theta(0) = 0:

    g_theta(h1, h2) = nu_{h1+h2}(-theta(h1+h2)) + mu_{h2}(nu_{h1}(theta(h1)))
                      + nu_{h2}(theta(h2))
    f_theta(h1, h2) = -theta(h1 o h2) + sigma_{h2}(theta(h1)) + theta(h2)

Derivations are exactly the theta whose coboundary is (0, 0); the displayed
one-line forms of the two derivation laws are recovered by moving the
leading negative term across, and the test suite asserts that derivations
are the kernel of the coboundary map.

The quotient H^2 = Z^2 / B^2 acts on extension classes of H by a general
brace I through annihilator-valued pairs: (g, f) . (chi, beta, tau) =
(chi, g + beta, f + tau), the sums taken in I (g, f land in Ann(I), so the
order of the summands is immaterial and "+" agrees with "o" there).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .braces import SkewBrace, annihilator, trivial_brace
from .errors import (
    CoefficientsNotAbelian,
    InputError,
    NotAutomorphism,
    NotTrivialCoefficients,
    SearchBudgetExceeded,
    ValidationError,
    ValuesNotInAnnihilator,
)
from .extensions import (
    Extension,
    Triplet,
    _first_witnesses,
    _parent_relation_residual,
    ext_classes,
    extension_from_triplet,
    extract_triplet,
    is_valid_triplet,
    triplets_equivalent,
)
from .groups import group_from_elements, is_automorphism
from .split import ActionTriple, check_hom_laws


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
    """Check chi is a legal action for abelian trivial-brace coefficients.

    Families must consist of automorphisms of (I, +); nu must be a
    homomorphism on (H, o) and mu, sigma anti-homomorphisms on (H, +) and
    (H, o) respectively (inner twists vanish for abelian coefficients).
    """
    require_coefficients(I)
    if len(chi.nu) != H.n:
        raise InputError("action families must be indexed by the elements of H")
    for name, fam in (("nu", chi.nu), ("mu", chi.mu), ("sigma", chi.sigma)):
        for h, p in enumerate(fam):
            if not is_automorphism(p, I.add):
                raise NotAutomorphism(
                    f"{name}[{h}] is not an automorphism of the coefficient group",
                    family=name,
                    h=h,
                )
    check_hom_laws(H, chi)


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


def pair_sub(I: SkewBrace, p: CocyclePair, q: CocyclePair) -> CocyclePair:
    return pair_add(I, p, pair_neg(I, q))


def component_law_witness(
    op_table: Sequence[Sequence[int]],
    I: SkewBrace,
    act: Sequence[Sequence[int]],
    tab: Sequence[Sequence[int]],
) -> Optional[tuple]:
    """First (h1, h2, h3) violating the component cocycle law, or None.

    The law reads v(h1, h2*h3) + v(h2, h3) = v(h1*h2, h3) + act_{h3}(v(h1, h2))
    where * is the given H-operation and + the abelian coefficient addition.
    """
    nh = len(op_table)
    Ia = I.add.table
    for h1 in range(nh):
        for h2 in range(nh):
            r12 = tab[h1][h2]
            t12 = op_table[h1][h2]
            for h3 in range(nh):
                lhs = Ia[tab[h1][op_table[h2][h3]]][tab[h2][h3]]
                rhs = Ia[tab[t12][h3]][act[h3][r12]]
                if lhs != rhs:
                    return (h1, h2, h3)
    return None


def pair_is_cocycle(H: SkewBrace, I: SkewBrace, chi: ActionTriple, pair: CocyclePair) -> bool:
    _pair_shape_check(H.n, pair)
    if component_law_witness(H.add.table, I, chi.mu, pair.g) is not None:
        return False
    return component_law_witness(H.circ.table, I, chi.sigma, pair.f) is None


def _component_cocycles(
    op_table: Sequence[Sequence[int]],
    I: SkewBrace,
    act: Sequence[Sequence[int]],
    budget: Optional[int],
    what: str,
) -> list:
    """All normalized tables satisfying one component law, lex-sorted.

    Backtracking over the non-degenerate cells in row-major order; every
    law instance is checked as soon as its last cell is assigned, so
    inconsistent prefixes are pruned instead of brute-forcing the full
    value grid.
    """
    nh = len(op_table)
    ni = I.n
    Ia = I.add.table
    cells = [(a, b) for a in range(1, nh) for b in range(1, nh)]
    pos = {c: k for k, c in enumerate(cells)}
    by_last: list = [[] for _ in cells]
    for h1 in range(nh):
        for h2 in range(nh):
            for h3 in range(nh):
                involved = [
                    pos[c]
                    for c in (
                        (h1, op_table[h2][h3]),
                        (h2, h3),
                        (op_table[h1][h2], h3),
                        (h1, h2),
                    )
                    if c in pos
                ]
                if involved:
                    by_last[max(involved)].append((h1, h2, h3))
    tab = [[0] * nh for _ in range(nh)]
    out: list = []
    limit = budget_mod.get_budget(budget)
    nodes = 0

    def law_ok(h1: int, h2: int, h3: int) -> bool:
        lhs = Ia[tab[h1][op_table[h2][h3]]][tab[h2][h3]]
        rhs = Ia[tab[op_table[h1][h2]][h3]][act[h3][tab[h1][h2]]]
        return lhs == rhs

    # depth-first with an explicit stack: nxt[k] is the next value to try
    # in cell k, so the search depth is not bounded by the recursion limit
    nxt = [0] * len(cells)
    k = 0
    while k >= 0:
        if k == len(cells):
            out.append(tuple(tuple(row) for row in tab))
            k -= 1
            continue
        a, b = cells[k]
        v = nxt[k]
        if v == ni:
            nxt[k] = 0
            tab[a][b] = 0
            k -= 1
            continue
        nxt[k] = v + 1
        nodes += 1
        if nodes > limit:
            raise SearchBudgetExceeded(what, nodes, limit, len(out))
        tab[a][b] = v
        if all(law_ok(*inst) for inst in by_last[k]):
            k += 1
    return out


def z2N(
    H: SkewBrace,
    I: SkewBrace,
    chi: ActionTriple,
    budget: Optional[int] = None,
    laws_only: bool = False,
) -> list:
    """All cocycle pairs for the given action, lex-sorted.

    The two component laws never couple g with f, so the components are
    enumerated independently and paired.  The laws alone, however, do not
    cut out the pairs associated to extensions: the compatibility between
    the two operations of the would-be extension ties the components
    together (already at H = trivial Z2, I = Z3 with the trivial action it
    forces 2 g(1,1) = 2 f(1,1), cutting 9 law-abiding pairs down to 3).
    The default therefore keeps exactly the pairs (g, f) for which
    (chi, g, f) builds a valid extension, which is what the quotient-vs-
    class-count theorems need; laws_only=True returns the unconstrained
    product set as a diagnostic.

    The compatibility is decided without rebuilding each pair.  With
    abelian trivial coefficients every term of the derived parent relation
    (extensions.parent_relation_witness) is an automorphism image of one
    g or f entry or of one y, so its residual -rhs + lhs splits as
    R_chi(h, y) + L(g, f; h) with L additive in (g, f) and free of y.
    Write r0 for the residual of the zero pair at y = 0 and dg, df for
    the residuals of (g, 0) and (0, f) minus r0; then (g, f) has residual
    zero at y = 0 exactly when df = -(r0 + dg), so each g is matched with
    a bucket of f values.  Every valid pair is among these candidates.
    When the zero pair is valid, R_chi vanishes and the candidates are
    exactly the valid pairs, which one rebuild of the zero pair confirms;
    otherwise each candidate is confirmed by its own rebuild.
    """
    validate_cocycle_action(H, I, chi)
    gs = _component_cocycles(H.add.table, I, chi.mu, budget, "z2N additive component")
    fs = _component_cocycles(H.circ.table, I, chi.sigma, budget, "z2N multiplicative component")
    if laws_only:
        return [CocyclePair(g, f) for g in gs for f in fs]
    Ia, Ineg = I.add.table, I.add.inv
    zero = zero_pair(H.n).g

    def residual(g, f) -> tuple:
        return _parent_relation_residual(H, I, Triplet(chi, g, f))

    r0 = residual(zero, zero)
    f_buckets: dict = {}
    for f in fs:
        df = tuple(Ia[x][Ineg[x0]] for x, x0 in zip(residual(zero, f), r0))
        f_buckets.setdefault(df, []).append(f)
    zero_valid = is_valid_triplet(H, I, Triplet(chi, zero, zero))
    out = []
    for g in gs:
        # -(r0 + dg) = -(residual of (g, 0))
        wanted = tuple(Ineg[x] for x in residual(g, zero))
        for f in f_buckets.get(wanted, ()):
            if zero_valid or is_valid_triplet(H, I, Triplet(chi, g, f)):
                out.append(CocyclePair(g, f))
    return out


def coboundary_pair(
    H: SkewBrace, I: SkewBrace, chi: ActionTriple, theta: Sequence[int]
) -> CocyclePair:
    """The cocycle pair of a normalization-respecting map theta : H -> I."""
    if len(theta) != H.n or theta[0] != 0:
        raise InputError("theta must be indexed by H with theta(0) = 0")
    nh = len(theta)
    Ia, Ineg = I.add.table, I.add.inv
    Ha, Hc = H.add.table, H.circ.table
    nu, mu, sigma = chi.nu, chi.mu, chi.sigma
    g = []
    f = []
    for a in range(nh):
        grow = []
        frow = []
        for b in range(nh):
            ab = Ha[a][b]
            gv = Ia[Ia[nu[ab][Ineg[theta[ab]]]][mu[b][nu[a][theta[a]]]]][nu[b][theta[b]]]
            grow.append(gv)
            cb = Hc[a][b]
            fv = Ia[Ia[Ineg[theta[cb]]][sigma[b][theta[a]]]][theta[b]]
            frow.append(fv)
        g.append(tuple(grow))
        f.append(tuple(frow))
    return CocyclePair(tuple(g), tuple(f))


def b2N(
    H: SkewBrace, I: SkewBrace, chi: ActionTriple, budget: Optional[int] = None
) -> list:
    """All coboundary pairs, deduplicated and lex-sorted."""
    validate_cocycle_action(H, I, chi)
    nh, ni = H.n, I.n
    budget_mod.guard(ni ** max(nh - 1, 0), "b2N theta sweep", budget)
    seen = {}
    for tail in itertools.product(range(ni), repeat=nh - 1):
        theta = (0,) + tail
        pair = coboundary_pair(H, I, chi, theta)
        if pair not in seen:
            if not pair_is_cocycle(H, I, chi, pair):
                raise ValidationError(
                    "coboundary pair fails the cocycle laws, which should be impossible",
                    theta=theta,
                )
            seen[pair] = theta
    return sorted(seen, key=CocyclePair.sort_key)


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One opaque void scalar per row, equal exactly when the rows are."""
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()


def _distinct_keys(rows: np.ndarray) -> np.ndarray:
    """The row keys of rows, sorted, without repeats (np.unique would
    import numpy.ma on first use)."""
    keys = np.sort(_row_keys(rows))
    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return keys[first]


def _lookup(sorted_keys: np.ndarray, keys: np.ndarray) -> tuple:
    """(found, pos): whether each key occurs in sorted_keys, and where."""
    pos = np.searchsorted(sorted_keys, keys)
    np.minimum(pos, len(sorted_keys) - 1, out=pos)
    return sorted_keys[pos] == keys, pos


class CohomologyGroup:
    """Cosets of coboundaries inside cocycle pairs, under pointwise addition.

    Representatives are the lexicographically least members of their cosets;
    the zero pair represents the zero class.  Construction asserts the group
    structure: both levels are closed under addition and negation, cosets
    partition the cocycles evenly, and class arithmetic stays inside the
    representative list.

    The checks and the coset labelling run on integer rows: each pair is
    its g table followed by its f table, flattened, sums are gathers
    through the coefficient addition table, and rows are compared by
    their bytes.  One representative (or coboundary) row is added to all
    coboundary rows at a time, so no |Z^2| x |B^2| block is formed.
    """

    def __init__(self, H: SkewBrace, I: SkewBrace, chi: ActionTriple, z2: list, b2: list):
        self.H = H
        self.I = I
        self.chi = chi
        self.z2 = list(z2)
        self.b2 = list(b2)
        width = 2 * H.n * H.n
        t_add = I.add.np_table
        neg = np.array(I.add.inv, dtype=np.int64)
        Z = np.array([p.g + p.f for p in self.z2], dtype=np.int64).reshape(len(self.z2), width)
        B = np.array([p.g + p.f for p in self.b2], dtype=np.int64).reshape(len(self.b2), width)
        z_keys = _distinct_keys(Z)
        b_keys = _distinct_keys(B)
        if len(Z) and not _lookup(z_keys, _row_keys(neg[Z]))[0].all():
            raise ValidationError("cocycle pairs are not closed under negation")
        if not (B == 0).all(axis=1).any():
            raise ValidationError("coboundaries must contain the zero pair")
        for row in B:
            if not _lookup(b_keys, _row_keys(t_add[row, B]))[0].all():
                raise ValidationError("coboundaries are not closed under addition")
        # label[u] is the coset of the distinct cocycle row z_keys[u]
        uid = np.searchsorted(z_keys, _row_keys(Z))
        label = np.full(len(z_keys), -1, dtype=np.int64)
        reps = []
        for i in np.lexsort(Z.T[::-1]).tolist():
            if label[uid[i]] >= 0:
                continue
            k = len(reps)
            reps.append(self.z2[i])
            found, pos = _lookup(z_keys, _row_keys(t_add[Z[i], B]))
            # a member already labelled belongs to an earlier coset
            bad = ~found | (label[pos] >= 0)
            if bad.any():
                j = int(np.argmax(bad))
                if not found[j]:
                    raise ValidationError(
                        "cocycle pairs are not closed under adding a coboundary"
                    )
                raise ValidationError("coset partition is inconsistent")
            label[pos] = k
        if (label < 0).any():
            raise ValidationError("cosets do not partition the cocycle pairs")
        if len(reps) * len(self.b2) != len(self.z2):
            raise ValidationError("coset sizes are uneven")
        self.representatives = reps
        self._index_of = dict(zip(self.z2, label[uid].tolist()))
        # the row data, kept for callers that move whole blocks of cocycles
        self._rows = Z
        self._keys = z_keys
        self._labels = label
        for p in reps:
            self.add(p, p)
            self.class_of(pair_neg(I, p))

    @property
    def order(self) -> int:
        return len(self.representatives)

    def index_of(self, pair: CocyclePair) -> int:
        try:
            return self._index_of[pair]
        except KeyError:
            raise InputError("pair is not a cocycle pair for this action") from None

    def _row_classes(self, rows: np.ndarray) -> tuple:
        """(found, index) for integer rows laid out like the cocycle rows:
        whether each is a cocycle pair, and its class index where it is."""
        found, pos = _lookup(self._keys, _row_keys(rows))
        return found, self._labels[pos]

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
        return f"CohomologyGroup(order={self.order}, |Z2|={len(self.z2)}, |B2|={len(self.b2)})"


def h2N(
    H: SkewBrace, I: SkewBrace, chi: ActionTriple, budget: Optional[int] = None
) -> CohomologyGroup:
    z2 = z2N(H, I, chi, budget)
    if zero_pair(H.n) not in set(z2):
        raise ValidationError(
            "the zero pair is not an associated pair for this action, so no "
            "split extension carries it and the quotient has no zero class"
        )
    b2 = b2N(H, I, chi, budget)
    return CohomologyGroup(H, I, chi, z2, b2)


# --- derivations -------------------------------------------------------------

def z1N(
    H: SkewBrace,
    I: SkewBrace,
    chi: ActionTriple,
    budget: Optional[int] = None,
) -> list:
    """All derivations theta : H -> I, lex-sorted by table.

    The adopted laws are

        theta(h1 o h2) = sigma_{h2}(theta(h1)) + theta(h2)
        nu_{h1+h2}(theta(h1+h2)) = mu_{h2}(nu_{h1}(theta(h1))) + nu_{h2}(theta(h2))

    equivalently: the coboundary pair of theta vanishes.
    """
    validate_cocycle_action(H, I, chi)
    nh, ni = H.n, I.n
    budget_mod.guard(ni ** max(nh - 1, 0), "z1N theta sweep", budget)
    Ia = I.add.table
    Ha, Hc = H.add.table, H.circ.table
    nu, mu, sigma = chi.nu, chi.mu, chi.sigma
    out = []
    for tail in itertools.product(range(ni), repeat=nh - 1):
        theta = (0,) + tail
        good = True
        for h1 in range(nh):
            for h2 in range(nh):
                mult = Ia[sigma[h2][theta[h1]]][theta[h2]]
                if theta[Hc[h1][h2]] != mult:
                    good = False
                    break
                hs = Ha[h1][h2]
                add = Ia[mu[h2][nu[h1][theta[h1]]]][nu[h2][theta[h2]]]
                if nu[hs][theta[hs]] != add:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append(Derivation(theta))
    return out


def derivation_add(I: SkewBrace, d1: Derivation, d2: Derivation) -> Derivation:
    Ia = I.add.table
    return Derivation(tuple(Ia[a][b] for a, b in zip(d1.theta, d2.theta)))


# --- restriction to the annihilator ------------------------------------------

def restrict_action(I: SkewBrace, chi: ActionTriple):
    """Restrict an action on I to its annihilator.

    Returns (coefficient brace, restricted triple, element list): the
    annihilator carried as a trivial brace on indices 0..k-1, the three
    families cut down to it, and the list embedding those indices back
    into I.  Raises when some family member fails to preserve the
    annihilator.
    """
    elems = list(annihilator(I))
    index = {e: j for j, e in enumerate(elems)}
    sub = group_from_elements(elems, lambda a, b: I.add.table[a][b])
    I_res = trivial_brace(sub)
    fams = []
    for name, fam in (("nu", chi.nu), ("mu", chi.mu), ("sigma", chi.sigma)):
        res = []
        for h, p in enumerate(fam):
            for e in elems:
                if p[e] not in index:
                    raise ValidationError(
                        "action does not preserve the annihilator",
                        family=name,
                        h=h,
                        element=e,
                        image=p[e],
                    )
            res.append(tuple(index[p[e]] for e in elems))
        fams.append(tuple(res))
    return I_res, ActionTriple(*fams), tuple(elems)


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
    operations, so the summand order is immaterial.
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
    if component_law_witness(H.add.table, I, t.chi.mu, pair.g) is not None:
        raise ValidationError("g fails the additive cocycle law for this action")
    if component_law_witness(H.circ.table, I, t.chi.sigma, pair.f) is not None:
        raise ValidationError("f fails the multiplicative cocycle law for this action")
    Ia, Ic = I.add.table, I.circ.table
    beta = tuple(
        tuple(Ia[pair.g[a][b]][t.beta[a][b]] for b in range(H.n)) for a in range(H.n)
    )
    tau = tuple(
        tuple(Ic[pair.f[a][b]][t.tau[a][b]] for b in range(H.n)) for a in range(H.n)
    )
    return Triplet(t.chi, beta, tau)


def h2_act(H: SkewBrace, I: SkewBrace, pair: CocyclePair, ext: Extension) -> Extension:
    """Act on an extension by an annihilator-valued cocycle pair."""
    t = extract_triplet(ext)
    return extension_from_triplet(H, I, h2_act_triplet(H, I, pair, t))


# --- theorem-level verification ----------------------------------------------

def ext_bijection_check(
    H: SkewBrace, I: SkewBrace, chi: ActionTriple, budget: Optional[int] = None
) -> dict:
    """Compare |H^2| with the number of extension classes carrying chi.

    Coefficients must be a trivial abelian brace, in which case the coupling
    relation collapses to equality of action triples, so classes are matched
    by their canonical-section action.  Returns the counts and raises when
    the two sides disagree.
    """
    grp = h2N(H, I, chi, budget)
    return bijection_report(I, chi, grp, ext_classes(H, I, budget))


def bijection_report(I: SkewBrace, chi: ActionTriple, grp, buckets: list) -> dict:
    """ext_bijection_check on a computed H^2 and ext_classes result."""
    matched = 0
    for rep_chi, classes in buckets:
        related = _first_witnesses(I, rep_chi, chi) is not None
        if related != (rep_chi == chi):
            raise ValidationError(
                "coupling relation should collapse to equality for abelian "
                "trivial coefficients"
            )
        if related:
            matched += len(classes)
    report = {
        "z2_order": len(grp.z2),
        "b2_order": len(grp.b2),
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
    class_triplets: Sequence[Triplet],
) -> list:
    """Where acting by one cocycle pair sends each class, given by the
    canonical triplet of its representative.  A shifted triplet that
    matches one is a twist of a valid triplet, hence valid, so no extension
    is rebuilt; exactly one class must match."""
    row = []
    for t in class_triplets:
        acted = h2_act_triplet(H, I, pair_ambient, t)
        hits = [
            j
            for j, other in enumerate(class_triplets)
            if triplets_equivalent(H, I, acted, other) is not None
        ]
        if len(hits) != 1:
            raise ValidationError(
                "acted extension matched an unexpected number of classes",
                matches=len(hits),
            )
        row.append(hits[0])
    return row


def verify_free_transitive(H: SkewBrace, I: SkewBrace, budget: Optional[int] = None) -> dict:
    """Check freeness (and transitivity, for trivial I) of the H^2 action.

    Enumerates every extension class of H by I, groups them by coupling,
    and lets H^2(H, Ann(I)) with the restricted action act by cocycle
    shifts.  Freeness means no nonzero class fixes any extension class;
    transitivity (asserted only for trivial I) means a single orbit per
    coupling.  For trivial I the centre equals the annihilator, so the
    |Ext(H, I)| = |Ext(H, Z(I))| comparison is the per-coupling equality
    of class count and cohomology order.
    """
    return free_transitive_report(H, I, ext_classes(H, I, budget), budget)


def free_transitive_report(
    H: SkewBrace, I: SkewBrace, buckets: list, budget: Optional[int]
) -> dict:
    """verify_free_transitive on a computed ext_classes result."""
    per_coupling = []
    all_free = True
    all_transitive = True
    for rep_chi, classes in buckets:
        reps = [extract_triplet(cls[0]) for cls in classes]
        I_res, chi_res, elems = restrict_action(I, rep_chi)
        grp = h2N(H, I_res, chi_res, budget)
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
