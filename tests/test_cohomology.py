"""Second cohomology of the pair formulation: cocycle pairs, coboundaries,
the quotient group, derivations, the action on extension classes, and the
bijection/freeness/transitivity theorems at desk scale.

The enumerating routes that cohomology replaced by integer linear algebra
(the backtracking component search, the bucketing z2N, the theta sweeps of
b2N and z1N, and the list-built CohomologyGroup with its coset pass) are
kept here as oracles, and the two routes are compared member by member."""

import itertools
import random
import sys
from typing import Sequence

import numpy as np
import pytest

import braceforge.cohomology as cohomology_mod
import braceforge.extensions as extensions_mod
from braceforge import budget as budget_mod
from braceforge import catalog
from braceforge.braces import annihilator, trivial_brace
from braceforge.cohomology import (
    CocyclePair,
    Derivation,
    _Cochains,
    _Echelon,
    _act_permutation,
    _coboundary_images,
    _cocycle_space,
    _echelon,
    _shift,
    _theta_rows,
    b2N,
    coboundary_pair,
    embed_pair,
    ext_bijection_check,
    h2N,
    h2_act,
    h2_act_triplet,
    pair_add,
    pair_neg,
    restrict_action,
    validate_cocycle_action,
    verify_free_transitive,
    z1N,
    z2N,
    zero_pair,
)
from braceforge.errors import (
    CoefficientsNotAbelian,
    InputError,
    NotAutomorphism,
    NotTrivialCoefficients,
    SearchBudgetExceeded,
    TripletInvalid,
    ValidationError,
)
from braceforge.extensions import (
    Triplet,
    _class_heads,
    _class_key,
    _extension_orbits,
    _first_witnesses,
    _partition_triplets,
    ext_classes,
    extension_from_triplet,
    extract_triplet,
    h2_alpha,
    is_valid_triplet,
    triplets_equivalent,
    twist_triplet,
    z2_alpha,
    zero_triplet,
)
from braceforge.braces import SkewBrace
from braceforge.groups import (
    FiniteGroup,
    automorphism_group,
    cyclic_group,
    dihedral_group,
    direct_product_group,
    group_from_elements,
    identity_perm,
    invert_perm,
    klein_group,
    standard_groups_of_order,
)
from braceforge.split import (ActionTriple, _compat_on_lifts, enumerate_split_triples,
                              identity_triple, validate_split_triple)
from test_extensions import (
    _extensions_equivalent_loop,
    _parent_relation_cells,
    _partition_first_fit,
)


# --- the enumerating routes, kept as oracles -----------------------------------

def _parent_relation_residual(H: SkewBrace, I: SkewBrace, t: Triplet) -> tuple:
    """-rhs + lhs of the derived parent relation at y1 = y2 = y3 = 0, one
    entry per (h1, h2, h3) in lex order, cell by cell: the oracle for
    cohomology._parent_residual_stack."""
    Ia, Ineg = I.add.table, I.add.inv
    return tuple(
        Ia[Ineg[rhs]][lhs] for _, lhs, rhs in _parent_relation_cells(H, I, t, ys=(0,))
    )


def _component_cocycles(
    op_table: Sequence[Sequence[int]],
    I: SkewBrace,
    act: Sequence[Sequence[int]],
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
    limit = budget_mod.get_budget()
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


def _z2N_enumerated(
    H: SkewBrace,
    I: SkewBrace,
    chi: ActionTriple,
    laws_only: bool = False,
) -> list:
    """The enumerating z2N, the oracle for cohomology.z2N: each component
    law's tables by backtracking, paired; without laws_only, each g is
    matched with the bucket of f whose parent-relation residual cancels
    its own, and when the zero pair does not rebuild, each candidate is
    confirmed by its own rebuild."""
    validate_cocycle_action(H, I, chi)
    gs = _component_cocycles(H.add.table, I, chi.mu, "z2N additive component")
    fs = _component_cocycles(H.circ.table, I, chi.sigma, "z2N multiplicative component")
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


# --- the full-cube cocycle route, kept as an oracle ------------------------------
#
# cohomology._cocycle_space reads Z^2 off rebuilt unit pairs on generator
# cells.  The route it replaced, kept here, evaluates each component law and
# the parent relation at y = 0 from their hand transcriptions at every cell
# (h1, h2, h3): one kernel per component law, then the parent residual's
# kernel on the rows those leave, with a marker row for the zero pair's
# residual.

def _kernel(images: np.ndarray, tmods: np.ndarray, cmods: np.ndarray) -> np.ndarray:
    """Generators of the kernel of the homomorphism from
    Z/cmods[0] + Z/cmods[1] + ... to Z/tmods[0] + ... that sends the k-th
    unit to images[k] (each image of order dividing cmods[k]).

    The echelon form of the graph, rows (images[k], e_k), over the image
    columns leaves exactly the graph's members with image 0; image columns
    that are 0 throughout are dropped first.  The package reads kernels off
    one echelon with the span (cohomology._span_and_kernel)."""
    keep = images.any(axis=0)
    width = int(keep.sum())
    graph = np.hstack([images[:, keep], np.eye(len(cmods), dtype=np.int64)])
    _, rest = _echelon(graph, np.concatenate([tmods[keep], cmods]), width)
    return rest[:, width:]


def _component_law_residual(op_table, I: SkewBrace, act, tabs: np.ndarray) -> np.ndarray:
    """lhs - rhs of the component cocycle law

        v(h1, h2*h3) + v(h2, h3) = v(h1*h2, h3) + act_{h3}(v(h1, h2))

    at every (h1, h2, h3) in lex order, for a stack of tables v: shape
    (k, n, n, n) from tabs of shape (k, n, n).  * is the given H-operation
    and + the abelian coefficient addition.  The residual is Z-linear in v,
    so on unit tables it gives the law's matrix."""
    op = np.asarray(op_table)
    act = np.asarray(act)
    Ia, neg = I.add.np_table, np.asarray(I.add.inv)
    h = np.arange(len(op))
    h1, h2, h3 = h[:, None, None], h[None, :, None], h
    lhs = Ia[tabs[:, h1, op[h2, h3]], tabs[:, h2, h3]]
    rhs = Ia[tabs[:, op[h1, h2], h3], act[h3, tabs[:, h1, h2]]]
    return Ia[lhs, neg[rhs]]


def _parent_residual_stack(
    H: SkewBrace, I: SkewBrace, chi: ActionTriple, beta: np.ndarray, tau: np.ndarray
) -> np.ndarray:
    """-rhs + lhs of the derived parent relation at y1 = y2 = y3 = 0, for a
    stack of table pairs: shape (k, n^3), one cell per (h1, h2, h3) in lex
    order, from beta and tau of shape (k, n, n).

    The parent relation equates the I-part of x1 o (x2 + x3) with that of
    x1 o x2 - x1 + x1 o x3 at xi = (hi, yi), in the coordinates of the
    rebuild formulas (extensions module docstring):

        lhs = nu_{h1 o (h2+h3)}( tau(h1, h2+h3) o sigma_{h2+h3}(y1) o w ),
          w = nu_{h2+h3}^-1( beta(h2, h3) + mu_{h3}(nu_{h2}(y2)) + nu_{h3}(y3) )
        rhs = beta(h1 o h2 - h1, h1 o h3)
              + mu_{h1 o h3}( beta(h1 o h2, -h1)
                              + mu_{-h1}( nu_{h1 o h2}(tau(h1, h2) o sigma_{h2}(y1) o y2)
                                          - nu_{h1}(y1) )
                              - beta(h1, -h1) )
              + nu_{h1 o h3}( tau(h1, h3) o sigma_{h3}(y1) o y3 )

    nu, mu and sigma fix 0, so at y = 0 every y term drops out and the two
    sides are

        lhs = nu_{h1 o (h2+h3)}( tau(h1, h2+h3) o nu_{h2+h3}^-1(beta(h2, h3)) )
        rhs = beta(h1 o h2 - h1, h1 o h3)
              + mu_{h1 o h3}( beta(h1 o h2, -h1)
                              + mu_{-h1}(nu_{h1 o h2}(tau(h1, h2)))
                              - beta(h1, -h1) )
              + nu_{h1 o h3}(tau(h1, h3))

    The relation over every y, cell by cell, is the oracle
    parent_relation_witness in tests/test_extensions.py; at y = 0 it is
    _parent_relation_residual."""
    Ha, Hc, Hneg = H.add.np_table, H.circ.np_table, np.asarray(H.add.inv)
    Ia, Ic, Ineg = I.add.np_table, I.circ.np_table, np.asarray(I.add.inv)
    nu, mu = np.asarray(chi.nu), np.asarray(chi.mu)
    inv_nu = np.argsort(nu, axis=1)
    h = np.arange(H.n)
    h1, h2, h3 = h[:, None, None], h[None, :, None], h
    nh1, h12, h13, h23 = Hneg[h1], Hc[h1, h2], Hc[h1, h3], Ha[h2, h3]
    mid = Ia[Ia[beta[:, h12, nh1], mu[nh1, nu[h12, tau[:, h1, h2]]]], Ineg[beta[:, h1, nh1]]]
    rhs = Ia[Ia[beta[:, Ha[h12, nh1], h13], mu[h13, mid]], nu[h13, tau[:, h1, h3]]]
    lhs = nu[Hc[h1, h23], Ic[tau[:, h1, h23], inv_nu[h23, beta[:, h2, h3]]]]
    return Ia[Ineg[rhs], lhs].reshape(len(beta), H.n ** 3)



def _cube_cocycle_space(H: SkewBrace, I: SkewBrace, chi: ActionTriple):
    """(laws, z2, particular, zero_valid) by the full cube: generators of
    the pairs that satisfy both component laws; the echelon form of the
    law-abiding pairs on which the linear part of the parent residual at
    y = 0 vanishes; one law-abiding pair whose residual vanishes, or None;
    and whether chi is a split triple.  The candidates are particular + z2."""
    sp = _Cochains(H.n, I)
    co = sp.co
    n, half = H.n, len(sp.mods) // 2
    # one unit pair per free cell and coordinate, g cells first
    units = sp.labels(np.eye(len(sp.mods), dtype=np.int64)).reshape(len(sp.mods), 2, n, n)
    # the moduli of a law's residual, one cell per (h1, h2, h3)
    tmods = np.tile(co.mods, n ** 3)
    gens = []
    for k, (op, act) in enumerate(((H.add.np_table, chi.mu), (H.circ.np_table, chi.sigma))):
        block = slice(k * half, (k + 1) * half)
        res = _component_law_residual(op, I, act, units[block, k])
        ker = _kernel(co.coords[res].reshape(half, len(tmods)), tmods, sp.mods[block])
        full = np.zeros((len(ker), len(sp.mods)), dtype=np.int64)
        full[:, block] = ker
        gens.append(full)
    laws = np.vstack(gens)
    Ia, neg = I.add.np_table, np.asarray(I.add.inv)
    # the zero pair, then the rows that generate the kernels
    stack = np.vstack([np.zeros((1, 2 * n * n), dtype=np.int64), sp.labels(laws)])
    stack = stack.reshape(len(stack), 2, n, n)
    res = _parent_residual_stack(H, I, chi, stack[:, 0], stack[:, 1])
    r0 = res[0]
    images = co.coords[np.vstack([r0[None], Ia[res[1:], neg[r0]]])].reshape(len(res), len(tmods))
    e = co.exponent
    coef = _kernel(images, tmods, np.full(len(images), e, dtype=np.int64))
    # the solutions (c, x) of c r0 + linear part(x) = 0; the pairs wanted
    # have c = 1
    sols = np.hstack([coef[:, :1], coef[:, 1:] @ laws])
    pivots, _ = _echelon(sols, np.concatenate([[e], sp.mods]), 1 + len(sp.mods))
    particular = None
    if pivots and pivots[0][0] == 0:
        if pivots[0][1][0] == 1:
            particular = pivots[0][1][1:]
        pivots = pivots[1:]
    elif e == 1:
        particular = np.zeros(len(sp.mods), dtype=np.int64)
    z2 = _Echelon([(c - 1, p[1:]) for c, p in pivots], sp.mods)
    return laws, z2, particular, bool(_compat_on_lifts(H, I, [chi.nu], [chi.mu], [chi.sigma]).all())


def _z2N_laws_only(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> list:
    """The span of the two component-law kernels, lex-sorted: the pairs
    that satisfy both cocycle laws, before the parent relation ties g to f."""
    validate_cocycle_action(H, I, chi)
    sp = _Cochains(H.n, I)
    return sp.pairs(_Echelon.of(_cube_cocycle_space(H, I, chi)[0], sp.mods).members())


def _coboundary_pair_loop(H: SkewBrace, I: SkewBrace, chi: ActionTriple, theta) -> CocyclePair:
    """Oracle for coboundary_pair: the module docstring's g_theta and
    f_theta, cell by cell."""
    Ia, Ineg = I.add.table, I.add.inv
    Ha, Hc = H.add.table, H.circ.table
    nu, mu, sigma = chi.nu, chi.mu, chi.sigma
    g, f = [], []
    for a in range(H.n):
        grow, frow = [], []
        for b in range(H.n):
            ab, cb = Ha[a][b], Hc[a][b]
            grow.append(Ia[Ia[nu[ab][Ineg[theta[ab]]]][mu[b][nu[a][theta[a]]]]][nu[b][theta[b]]])
            frow.append(Ia[Ia[Ineg[theta[cb]]][sigma[b][theta[a]]]][theta[b]])
        g.append(tuple(grow))
        f.append(tuple(frow))
    return CocyclePair(tuple(g), tuple(f))


def _act_permutation_pairwise(H, I, pair_ambient, class_triplets) -> list:
    """Oracle for _act_permutation: each shifted class triplet searched
    against every class with triplets_equivalent."""
    row = []
    for t in class_triplets:
        acted = _shift(H, I, pair_ambient, t)
        hits = [j for j, other in enumerate(class_triplets)
                if triplets_equivalent(H, I, acted, other) is not None]
        if len(hits) != 1:
            raise ValidationError(
                "acted extension matched an unexpected number of classes",
                matches=len(hits),
            )
        row.append(hits[0])
    return row


def _b2N_sweep(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> list:
    """The theta sweep, the oracle for cohomology.b2N: the coboundary pair of
    every theta, deduplicated and lex-sorted."""
    validate_cocycle_action(H, I, chi)
    nh, ni = H.n, I.n
    budget_mod.guard(ni ** max(nh - 1, 0), "b2N theta sweep")
    seen = {}
    for tail in itertools.product(range(ni), repeat=nh - 1):
        theta = (0,) + tail
        pair = coboundary_pair(H, I, chi, theta)
        if pair not in seen:
            if (component_law_witness(H.add.table, I, chi.mu, pair.g) is not None
                    or component_law_witness(H.circ.table, I, chi.sigma, pair.f) is not None):
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


class _ListCohomologyGroup:
    """The list-built CohomologyGroup, the oracle for cohomology's: cosets
    of coboundaries inside cocycle pairs, under pointwise addition, from
    the lists of both.

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


def _h2N_enumerated(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> "_ListCohomologyGroup":
    """The enumerating h2N: the list-built group on the oracle lists."""
    z2 = _z2N_enumerated(H, I, chi)
    if zero_pair(H.n) not in set(z2):
        raise ValidationError(
            "the zero pair is not an associated pair for this action, so no "
            "split extension carries it and the quotient has no zero class"
        )
    b2 = _b2N_sweep(H, I, chi)
    return _ListCohomologyGroup(H, I, chi, z2, b2)


def _z1N_sweep(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> list:
    """The theta sweep, the oracle for cohomology.z1N: every theta checked
    against the two derivation laws, lex-sorted."""
    validate_cocycle_action(H, I, chi)
    nh, ni = H.n, I.n
    budget_mod.guard(ni ** max(nh - 1, 0), "z1N theta sweep")
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



def test_pair_sets_2_by_2(Z2):
    chi = identity_triple(Z2, Z2)
    z2 = z2N(Z2, Z2, chi)
    assert len(z2) == 4
    # at this pair the two raw laws already imply compatibility
    assert len(_z2N_laws_only(Z2, Z2, chi)) == 4
    assert len(b2N(Z2, Z2, chi)) == 1
    grp = h2N(Z2, Z2, chi)
    assert grp.order == 4


def test_compatibility_filter_cuts_2_by_3(Z2, Z3):
    chi = identity_triple(Z2, Z3)
    raw = _z2N_laws_only(Z2, Z3, chi)
    operative = z2N(Z2, Z3, chi)
    assert len(raw) == 9
    assert len(operative) == 3
    # compatibility ties the two components together cell by cell
    assert all(p.g[1][1] == p.f[1][1] for p in operative)
    assert len(b2N(Z2, Z3, chi)) == 3
    assert h2N(Z2, Z3, chi).order == 1


def test_group_structure_4_by_2(Z2, Z4):
    grp = h2N(Z4, Z2, identity_triple(Z4, Z2))
    assert len(grp.z2) == 16
    assert len(grp.b2) == 4
    assert grp.order == 4
    for p in grp.representatives:
        assert grp.add(grp.zero, p) == p
        assert grp.add(p, grp.neg(p)) == grp.zero
        assert pair_add(Z2, p, pair_neg(Z2, p)) == zero_pair(4)


def test_pair_arithmetic(Z2):
    chi = identity_triple(Z2, Z2)
    z2 = z2N(Z2, Z2, chi)
    zp = zero_pair(2)
    for p in z2:
        assert pair_add(Z2, p, zp) == p
        assert pair_add(Z2, p, pair_neg(Z2, p)) == zp
        assert component_law_witness(Z2.add.table, Z2, chi.mu, p.g) is None
        assert component_law_witness(Z2.circ.table, Z2, chi.sigma, p.f) is None


def component_law_witness(op_table, I, act, tab):
    """First (h1, h2, h3) violating the component cocycle law, or None:
    the first nonzero cell of _component_law_residual."""
    res = _component_law_residual(op_table, I, act, np.asarray(tab)[None])[0]
    bad = np.flatnonzero(res)
    if not len(bad):
        return None
    return tuple(int(h) for h in np.unravel_index(bad[0], res.shape))


def _component_law_witness_loop(op_table, I, act, tab):
    """The per-cell loop component_law_witness replaced, its oracle."""
    nh = len(op_table)
    Ia = I.add.table
    for h1 in range(nh):
        for h2 in range(nh):
            for h3 in range(nh):
                lhs = Ia[tab[h1][op_table[h2][h3]]][tab[h2][h3]]
                rhs = Ia[tab[op_table[h1][h2]][h3]][act[h3][tab[h1][h2]]]
                if lhs != rhs:
                    return (h1, h2, h3)
    return None


def test_component_law_witness_matches_loop(Z3, xor4):
    # random normalized tables, and cocycles among them, for both
    # operations of a brace and random actions
    rng = random.Random(31)
    V = trivial_brace(klein_group())
    S3 = trivial_brace(dihedral_group(3))
    found = set()
    for H, I in ((xor4, Z3), (S3, V), (V, trivial_brace(cyclic_group(4)))):
        auts = sorted(automorphism_group(I.add))
        for _ in range(40):
            act = (identity_perm(I.n),) + tuple(rng.choice(auts) for _ in range(H.n - 1))
            tab = [[0] * H.n] + [[0] + [rng.randrange(I.n) for _ in range(H.n - 1)]
                                 for _ in range(H.n - 1)]
            if rng.random() < 0.3:
                tab = [[0] * H.n for _ in range(H.n)]
            for op in (H.add.table, H.circ.table):
                got = component_law_witness(op, I, act, tab)
                assert got == _component_law_witness_loop(op, I, act, tab)
                found.add(got is None)
    assert found == {True, False}


def test_derivations_are_coboundary_kernel(Z2):
    chi = identity_triple(Z2, Z2)
    z1 = z1N(Z2, Z2, chi)
    assert len(z1) == 2
    for d in z1:
        assert coboundary_pair(Z2, Z2, chi, d.theta) == zero_pair(2)
    thetas = {d.theta for d in z1}
    for d1 in z1:
        for d2 in z1:
            assert tuple(Z2.add.table[a][b] for a, b in zip(d1.theta, d2.theta)) in thetas
    # every non-derivation has a nonzero coboundary
    others = [theta for theta in ((0, 0), (0, 1)) if theta not in thetas]
    for theta in others:
        assert coboundary_pair(Z2, Z2, chi, theta) != zero_pair(2)


def test_bijection_checks(Z2, Z3):
    rep = ext_bijection_check(Z2, Z2, identity_triple(Z2, Z2))
    assert rep["equal"] and rep["h2_order"] == 4 and rep["ext_classes"] == 4
    rep23 = ext_bijection_check(Z2, Z3, identity_triple(Z2, Z3))
    assert rep23["equal"] and rep23["h2_order"] == 1 and rep23["ext_classes"] == 1


def test_h2_act_moves_and_composes(Z2):
    chi = identity_triple(Z2, Z2)
    grp = h2N(Z2, Z2, chi)
    split = extension_from_triplet(Z2, Z2, zero_triplet(Z2, Z2))
    lift = next(p for p in grp.representatives if p.g[1][1] == 1 and p.f[1][1] == 0)
    moved = h2_act(Z2, Z2, lift, split)
    assert _extensions_equivalent_loop(split, moved) is None
    # the additive shift g(1,1)=1 turns Klein addition into cyclic Z4
    assert sorted(moved.E.add.element_order(x) for x in range(4)) == [1, 2, 4, 4]
    assert _extensions_equivalent_loop(split, h2_act(Z2, Z2, grp.zero, split)) is not None
    for p in grp.representatives:
        for q in grp.representatives:
            lhs = h2_act(Z2, Z2, grp.add(p, q), split)
            rhs = h2_act(Z2, Z2, p, h2_act(Z2, Z2, q, split))
            assert _extensions_equivalent_loop(lhs, rhs) is not None


def _annihilator_pairs(H, I):
    """Every normalized pair (g, f) with values in Ann(I), lex by cells."""
    ann, free = annihilator(I), (H.n - 1) ** 2

    def table(cells):
        return ((0,) * H.n,) + tuple((0,) + cells[k:k + H.n - 1]
                                     for k in range(0, free, H.n - 1))

    for cells in itertools.product(ann, repeat=2 * free):
        yield CocyclePair(table(cells[:free]), table(cells[free:]))


def test_h2_act_triplet_accepts_exactly_the_restricted_cocycle_pairs(Z2, Z3, flip4,
                                                                     count_calls):
    # the shift of the zero triplet rebuilds exactly when the pair lies in
    # the embedded Z^2 of the restricted action; the component laws alone,
    # which h2_act_triplet once checked instead, hold on more pairs
    for H, I, want in ((Z2, Z3, (9, 9, 3)), (Z3, flip4, (256, 16, 4))):
        t = zero_triplet(H, I)
        I_res, chi_res, elems = restrict_action(I, t.chi)
        cocycles = {embed_pair(p, elems) for p in z2N(H, I_res, chi_res)}
        pairs = lawful = accepted = 0
        for pair in _annihilator_pairs(H, I):
            pairs += 1
            lawful += (component_law_witness(H.add.table, I, t.chi.mu, pair.g) is None
                       and component_law_witness(H.circ.table, I, t.chi.sigma, pair.f) is None)
            if pair in cocycles:
                assert h2_act_triplet(H, I, pair, t) == _shift(H, I, pair, t)
                accepted += 1
            else:
                with pytest.raises(TripletInvalid):
                    h2_act_triplet(H, I, pair, t)
        assert (pairs, lawful, accepted) == want == (pairs, lawful, len(cocycles))
    # h2_act returns the extension of h2_act_triplet's one rebuild, also
    # inside a command's limit() block, where equal calls share it
    ext = extension_from_triplet(Z3, flip4, zero_triplet(Z3, flip4))
    pair = sorted(cocycles, key=CocyclePair.sort_key)[-1]
    rebuilds = count_calls(extensions_mod.extension_from_triplet)
    moved = h2_act(Z3, flip4, pair, ext)
    assert rebuilds["calls"] == 1
    assert extract_triplet(moved) == _shift(Z3, flip4, pair, zero_triplet(Z3, flip4))
    with budget_mod.limit():
        assert h2_act(Z3, flip4, pair, ext) == h2_act(Z3, flip4, pair, ext) == moved
    assert rebuilds["calls"] == 2


def test_free_and_transitive(Z2, Z3):
    r = verify_free_transitive(Z2, Z2)
    assert r["free"] and r["transitive"] and r["couplings"] == 1
    r23 = verify_free_transitive(Z2, Z3)
    assert r23["free"] and r23["transitive"] and r23["couplings"] == 6
    r32 = verify_free_transitive(Z3, Z2)
    assert r32["free"] and r32["transitive"] and r32["couplings"] == 1


def test_free_transitive_work_counts(Z2, Z3, count_calls):
    for I in (Z2, Z3):
        shifts = count_calls(extensions_mod.extensions_equivalent)
        rebuilds = count_calls(extensions_mod.extension_from_triplet)
        compared = count_calls(extensions_mod.triplets_equivalent)
        verify_free_transitive(Z2, I)
        # classes are matched by class key, and h2N decides the zero pair
        # with the lifts check, so nothing is rebuilt or searched pairwise
        assert (shifts["calls"], rebuilds["calls"], compared["calls"]) == (0, 0, 0)


def test_free_transitive_shifts_without_rechecking(Z2, Z3, count_calls):
    # the classes are shifted by h2N representatives, which are cocycle
    # pairs with values in Ann(I) by construction, so no law is checked:
    # h2_act_triplet, the one route that checks them, is never called
    for I in (Z2, Z3):
        acts = count_calls(h2_act_triplet)
        verify_free_transitive(Z2, I)
        assert acts["calls"] == 0
    # the check it drops holds on every pair it shifts by, at every class
    shifted = 0
    for H, I in ((Z2, Z2), (Z2, Z3), (Z3, Z2)):
        ann = set(annihilator(I))
        for rep_chi, classes in ext_classes(H, I):
            I_res, chi_res, elems = restrict_action(I, rep_chi)
            for p in h2N(H, I_res, chi_res).representatives:
                pair = embed_pair(p, elems)
                assert {v for tab in (pair.g, pair.f) for row in tab for v in row} <= ann
                for cls in classes:
                    chi = extract_triplet(cls[0]).chi
                    assert component_law_witness(H.add.table, I, chi.mu, pair.g) is None
                    assert component_law_witness(H.circ.table, I, chi.sigma, pair.f) is None
                    shifted += 1
    assert shifted > 0


def _assert_rows_match_pairwise(H, I, grp, elems, class_triplets) -> int:
    """The keyed action rows of every H^2 representative equal the pairwise
    oracle's on the given class triplets; returns the number of rows."""
    keys = [_class_key(H, I, t) for t in class_triplets]
    for p in grp.representatives:
        pair = embed_pair(p, elems)
        assert _act_permutation(H, I, pair, keys) == _act_permutation_pairwise(
            H, I, pair, class_triplets)
    return grp.order


def _class_key_every_twist(H, I, t):
    """Oracle for _class_key: the least of every twisted triplet."""
    return min((twist_triplet(H, I, t, (0,) + tail)
                for tail in itertools.product(range(I.n), repeat=H.n - 1)),
               key=Triplet.sort_key)


def _recorded_class_keys(monkeypatch) -> dict:
    """Rebind _class_key in every loaded braceforge module and in this
    module to a wrapper that asserts each key equal to the oracle's and
    records each distinct (H, I, t) with its key."""
    keyed, calls = _class_key, {}

    def recorded(H, I, t):
        if (H, I, t) not in calls:
            calls[(H, I, t)] = keyed(H, I, t)
            assert calls[(H, I, t)] == _class_key_every_twist(H, I, t)
        return calls[(H, I, t)]

    for name, mod in list(sys.modules.items()):
        if name == "braceforge" or name.startswith("braceforge.") or mod is sys.modules[__name__]:
            for attr, val in list(vars(mod).items()):
                if val is keyed:
                    monkeypatch.setattr(mod, attr, recorded)
    return calls


def test_class_key_matches_pairwise(Z2, Z3, flip4, xor4, monkeypatch):
    # ext_classes and verify_free_transitive: the keyed partition of each
    # orbit's extensions equals the first-fit one, and the keyed action rows
    # equal the pairwise ones; every key asked for on the way, per-h argmin
    # twists only, is the least of all twists
    keys_asked = _recorded_class_keys(monkeypatch)
    rows = 0
    for H, I in ((Z2, Z2), (Z2, Z3), (Z3, Z2)):
        _, orbits = _extension_orbits(H, I)
        for found, _ in orbits:
            triplets = [extract_triplet(ext) for ext in found]
            assert list(_partition_triplets(H, I, triplets).values()) == (
                _partition_first_fit(H, I, triplets))
        for rep_chi, classes in _class_heads(H, I):
            I_res, chi_res, elems = restrict_action(I, rep_chi)
            rows += _assert_rows_match_pairwise(
                H, I, h2N(H, I_res, chi_res), elems,
                [extract_triplet(head) for head, _ in classes])
    # h2_alpha with the identity action, and H^2 acting on its classes
    # (Z2, Z3) is one class whose three members no twist fixes
    for H, I, n_classes in ((Z2, Z2, 4), (Z2, Z3, 1), (Z3, Z3, 9)):
        chi = identity_triple(H, I)
        triplets = z2_alpha(H, I, chi)
        parts = _partition_first_fit(H, I, triplets)
        assert list(_partition_triplets(H, I, triplets).values()) == parts
        assert len(parts) == n_classes
        rows += _assert_rows_match_pairwise(
            H, I, h2N(H, I, chi), tuple(range(I.n)), [triplets[ks[0]] for ks in parts])
    assert rows == 4 + 6 * 1 + 1 + 4 + 1 + 9
    # every pair of z2_alpha triplets over the split triples of a
    # non-trivial kernel: equal keys exactly when a twist relates the
    # triplets, and equal key chi exactly when one relates their actions
    for I in (flip4, xor4):
        triplets = sorted({t for alpha in enumerate_split_triples(Z2, I)
                           for t in z2_alpha(Z2, I, alpha)}, key=Triplet.sort_key)
        keys = [_class_key(Z2, I, t) for t in triplets]
        assert (len(triplets), len(set(keys)), len({k.chi for k in keys})) == (32, 16, 4)
        for t1, k1 in zip(triplets, keys):
            for t2, k2 in zip(triplets, keys):
                assert (k1 == k2) == (triplets_equivalent(Z2, I, t1, t2) is not None)
                assert (k1.chi == k2.chi) == (_first_witnesses(I, t1.chi, t2.chi) is not None)
    # 52 of the 104 distinct inputs are not their own key, so a key that
    # skipped the twist would fail here
    twisted = sum(t != key for (_, _, t), key in keys_asked.items())
    assert (len(keys_asked), twisted) == (104, 52)


def test_class_key_undoes_a_twist(Z2, Z3):
    # the twist by theta = (0, 1) moves the zero triplet of (Z2, Z3) off
    # itself, and its key is the zero triplet's: a key that returned its
    # input untwisted fails here, as the classification tests at n <= 7
    # cannot tell
    t = zero_triplet(Z2, Z3)
    t2 = twist_triplet(Z2, Z3, t, (0, 1))
    assert (t2.chi, t2.beta, t2.tau) == (t.chi, ((0, 0), (0, 2)), ((0, 0), (0, 2)))
    assert t2 != t
    assert _class_key(Z2, Z3, t2) == _class_key(Z2, Z3, t) == t


def test_quotient_route_class_keys_match_every_twist(Z2, Z3, monkeypatch):
    # every triplet the quotient route keys, class heads included; each of
    # the 11 distinct canonical triplets found on a representative is
    # already its own key, which is why the classification tests alone
    # cannot tell a key from none (test_class_key_matches_pairwise can)
    keys_asked = _recorded_class_keys(monkeypatch)
    for H, I in ((Z2, Z2), (Z2, Z3), (Z3, Z2)):
        _class_heads(H, I)
    twisted = sum(t != key for (_, _, t), key in keys_asked.items())
    assert (len(keys_asked), twisted) == (11, 0)


def test_coboundary_pair_is_the_twist_of_the_zero_pair():
    # on every cohomology-sweep action and every theta
    checked = 0
    for H, I, chi in _cohomology_sweep_actions():
        for tail in itertools.product(range(I.n), repeat=H.n - 1):
            theta = (0,) + tail
            assert coboundary_pair(H, I, chi, theta) == _coboundary_pair_loop(H, I, chi, theta)
            checked += 1
    assert checked == 426


def test_single_theta_classes_are_finer_than_componentwise(Z3):
    # 27 valid pairs over 3 coboundaries: 9 classes, strictly finer than
    # the product of the two one-component class counts
    chi = identity_triple(Z3, Z3)
    grp = h2N(Z3, Z3, chi)
    assert len(grp.z2) == 27
    assert len(grp.b2) == 3
    assert grp.order == 9
    # independent route through whole triplets
    alpha = identity_triple(Z3, Z3)
    assert len(z2_alpha(Z3, Z3, alpha)) == 27
    classes = h2_alpha(Z3, Z3, alpha)
    assert len(classes) == 9
    assert sorted(len(c) for c in classes) == [3] * 9


def test_zero_pair_guard_for_non_split_action(Z2, Z3):
    # this orbit-map family satisfies every hom condition but admits no
    # cocycle pair at all, so there is no split class to center the group on
    neg = (0, 2, 1)
    idp = identity_perm(3)
    chi = ActionTriple((idp, neg), (idp, idp), (idp, idp))
    validate_cocycle_action(Z2, Z3, chi)
    assert z2N(Z2, Z3, chi) == []
    with pytest.raises(ValidationError):
        h2N(Z2, Z3, chi)


def test_cocycle_action_check_is_splits(Z3, Z4, flip4):
    # validate_cocycle_action runs split's action check after the
    # coefficient check: the first member outside Aut(I, +) in split's
    # order, h first and then nu, mu, sigma, is the witness, as
    # validate_split_triple reports it; a wrong length is split's InputError
    idp, bad = identity_perm(4), (0, 2, 1, 3)
    chi = ActionTriple((idp, idp, bad), (idp, bad, idp), (idp, idp, idp))
    raised = []
    for check in (validate_cocycle_action, validate_split_triple):
        with pytest.raises(NotAutomorphism) as exc:
            check(Z3, Z4, chi)
        raised.append((str(exc.value), exc.value.witness))
    assert raised == [("mu[1] is not in Aut(I, +)", {"h": 1, "family": "mu"})] * 2
    with pytest.raises(NotTrivialCoefficients):
        validate_cocycle_action(Z3, flip4, chi)
    with pytest.raises(InputError, match=r"triple indexed by 1 elements, \|H\| = 3"):
        validate_cocycle_action(Z3, Z4, ActionTriple((idp,), (idp,), (idp,)))


def _rebuild_filter(H, I, chi):
    """The reference route: keep the law-abiding pairs that rebuild."""
    return [
        p for p in _z2N_laws_only(H, I, chi)
        if is_valid_triplet(H, I, Triplet(chi, p.g, p.f))
    ]


def _random_action(rng, H, I, auts):
    """A legal action whose family members are drawn from auts."""
    while True:
        chi = ActionTriple(*(
            (identity_perm(I.n),) + tuple(rng.choice(auts) for _ in range(H.n - 1))
            for _ in range(3)
        ))
        try:
            validate_cocycle_action(H, I, chi)
            return chi
        except ValidationError:
            pass


def test_z2N_matches_rebuild_filter(Z2, Z3, Z4):
    V = trivial_brace(klein_group())
    S3 = trivial_brace(dihedral_group(3))
    D4 = trivial_brace(dihedral_group(4))
    Z5 = trivial_brace(cyclic_group(5))
    checked = 0
    for H, I in ((Z2, Z3), (Z3, Z2), (Z2, V), (V, Z2), (S3, Z2)):
        for chi in enumerate_split_triples(H, I):
            assert z2N(H, I, chi) == _rebuild_filter(H, I, chi)
            checked += 1
    for chi in enumerate_split_triples(Z2, D4):
        I_res, chi_res, _ = restrict_action(D4, chi)
        assert z2N(Z2, I_res, chi_res) == _rebuild_filter(Z2, I_res, chi_res)
        checked += 1
    assert checked == 6 + 1 + 28 + 1 + 1 + 96
    # 200 seeded random legal actions.  A (V, Z3) action costs the
    # reference 729 rebuilds, so that pair is drawn less often and a
    # repeated action reuses its reference result.
    rng = random.Random(2024)
    pairs = [(H, I, sorted(automorphism_group(I.add))) for H, I in ((Z2, Z5), (Z2, Z4), (V, Z3))]
    reference = {}
    zero_invalid = 0
    for _ in range(200):
        H, I, auts = rng.choices(pairs, weights=(10, 10, 1))[0]
        chi = _random_action(rng, H, I, auts)
        if (H, I, chi) not in reference:
            reference[H, I, chi] = _rebuild_filter(H, I, chi)
        expected = reference[H, I, chi]
        zero_invalid += zero_pair(H.n) not in expected
        assert z2N(H, I, chi) == expected
    assert zero_invalid > 0


def test_z2N_rebuilds_at_most_the_zero_pair(monkeypatch, Z2, Z3, Z4):
    calls = []
    rebuild = extensions_mod.extension_from_triplet

    def counted(*args, **kwargs):
        calls.append(args)
        return rebuild(*args, **kwargs)

    monkeypatch.setattr(extensions_mod, "extension_from_triplet", counted)
    # b2N and the quotient make no rebuilds, so every call is z2N's
    for H, I, order in ((Z4, Z2, 4), (Z3, Z3, 9)):
        calls.clear()
        assert h2N(H, I, identity_triple(H, I)).order == order
        assert calls == []
        calls.clear()
        assert len(_z2N_laws_only(H, I, identity_triple(H, I))) > 0
        assert calls == []


def test_z2N_deep_cell_search():
    # 33 x 33 = 1089 free cells per component, one search level each:
    # deeper than the default recursion limit
    Z34 = trivial_brace(cyclic_group(34))
    Z1 = trivial_brace(cyclic_group(1))
    chi = identity_triple(Z34, Z1)
    assert z2N(Z34, Z1, chi) == [zero_pair(34)]
    assert h2N(Z34, Z1, chi).order == 1
    assert [d.theta for d in z1N(Z34, Z1, chi)] == [(0,) * 34]


def test_coefficient_requirements(flip4):
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    S3 = trivial_brace(
        group_from_elements(s3, lambda p, q: tuple(p[q[i]] for i in range(3)))
    )
    with pytest.raises(CoefficientsNotAbelian):
        z2N(trivial_brace(cyclic_group(2)), S3, identity_triple(trivial_brace(cyclic_group(2)), S3))
    Z2 = trivial_brace(cyclic_group(2))
    with pytest.raises(NotTrivialCoefficients):
        z2N(Z2, flip4, identity_triple(Z2, flip4))


def test_restrict_action_to_annihilator(Z2, Z3, flip4):
    # trivial abelian coefficients restrict to themselves
    chi = identity_triple(Z2, Z3)
    I_res, chi_res, elems = restrict_action(Z3, chi)
    assert I_res.n == 3 and elems == (0, 1, 2)
    p = h2N(Z2, Z3, chi_res).representatives[0]
    assert embed_pair(p, elems) == p
    # the flip brace restricts to its annihilator {0, 2}
    chi4 = identity_triple(Z2, flip4)
    I_res4, chi_res4, elems4 = restrict_action(flip4, chi4)
    assert elems4 == (0, 2)
    assert I_res4.n == 2 and I_res4.is_trivial and I_res4.add.is_abelian
    grp = h2N(Z2, I_res4, chi_res4)
    assert grp.order >= 1



# --- the list-built group's coset pass against the pairwise construction ------

def _pairwise_cohomology_group(H, I, z2, b2):
    """Oracle for _ListCohomologyGroup: the pairwise construction the coset
    pass replaced, one pair_add per member.  Returns (representatives, index_of)
    or raises what the constructor raised."""
    z2set = set(z2)
    for p in z2:
        if pair_neg(I, p) not in z2set:
            raise ValidationError("cocycle pairs are not closed under negation")
    b2set = set(b2)
    if zero_pair(H.n) not in b2set:
        raise ValidationError("coboundaries must contain the zero pair")
    for p in b2:
        for q in b2:
            if pair_add(I, p, q) not in b2set:
                raise ValidationError("coboundaries are not closed under addition")
    reps = []
    index_of = {}
    for p in sorted(z2, key=CocyclePair.sort_key):
        if p in index_of:
            continue
        k = len(reps)
        reps.append(p)
        for b in b2:
            member = pair_add(I, p, b)
            if member not in z2set:
                raise ValidationError(
                    "cocycle pairs are not closed under adding a coboundary"
                )
            if member in index_of and index_of[member] != k:
                raise ValidationError("coset partition is inconsistent")
            index_of[member] = k
    if len(index_of) != len(z2set):
        raise ValidationError("cosets do not partition the cocycle pairs")
    if len(reps) * len(b2) != len(z2):
        raise ValidationError("coset sizes are uneven")
    for p in reps:
        for q in (pair_add(I, p, p), pair_neg(I, p)):
            if q not in index_of:
                raise InputError("pair is not a cocycle pair for this action")
    return reps, index_of


def _outcome(build):
    try:
        return build()
    except (ValidationError, InputError) as exc:
        return (type(exc), str(exc))


COSET_PAIRS = [
    ("Z2", "V"),
    ("V", "Z2"),
    ("S3", "Z2"),
    ("Z4", "Z2"),
    ("Z2", "D4"),
]


def test_coset_pass_matches_pairwise():
    braces = {
        "Z2": trivial_brace(cyclic_group(2)),
        "Z4": trivial_brace(cyclic_group(4)),
        "V": trivial_brace(klein_group()),
        "S3": trivial_brace(dihedral_group(3)),
        "D4": trivial_brace(dihedral_group(4)),
    }
    checked = 0
    for h_name, i_name in COSET_PAIRS:
        H, I = braces[h_name], braces[i_name]
        for chi in enumerate_split_triples(H, I):
            I_res, chi_res, _ = restrict_action(I, chi)
            z2 = z2N(H, I_res, chi_res)
            b2 = b2N(H, I_res, chi_res)
            grp = _ListCohomologyGroup(H, I_res, chi_res, z2, b2)
            reps, index_of = _pairwise_cohomology_group(H, I_res, z2, b2)
            assert grp.representatives == reps
            assert all(grp.index_of(p) == index_of[p] for p in z2)
            for p in reps:
                assert grp.neg(p) == reps[index_of[pair_neg(I_res, p)]]
                for q in z2:
                    assert grp.add(p, q) == reps[index_of[pair_add(I_res, p, q)]]
            checked += 1
    assert checked == 28 + 1 + 1 + 1 + 96


def _pair2(g, f):
    """A normalized pair on a 2-element H from its one free cell per table."""
    return CocyclePair(((0, 0), (0, g)), ((0, 0), (0, f)))


def test_coset_pass_errors_match_pairwise(Z2, Z3):
    chi = identity_triple(Z2, Z3)
    z2 = z2N(Z2, Z3, chi)
    b2 = b2N(Z2, Z3, chi)
    zero = zero_pair(2)
    nonzero = [p for p in b2 if p != zero]
    # tables on which 0 is only a left identity, so a coset can miss its
    # own representative (T3) or run into another coset (T2)
    T3 = SkewBrace(*[FiniteGroup([[0, 1, 2], [2, 0, 1], [2, 0, 0]])] * 2)
    T2 = SkewBrace(*[FiniteGroup([[0, 1], [0, 0]])] * 2)
    crafted = [
        (Z3, z2[:2], b2, "cocycle pairs are not closed under negation"),
        (Z3, z2, nonzero, "coboundaries must contain the zero pair"),
        (Z3, z2, [zero, nonzero[0]], "coboundaries are not closed under addition"),
        (Z3, [zero], b2, "cocycle pairs are not closed under adding a coboundary"),
        (Z3, z2 + [zero], b2, "coset sizes are uneven"),
        (T3, [_pair2(1, 1), _pair2(2, 2)], [zero],
         "cosets do not partition the cocycle pairs"),
        (T2, [_pair2(1, 1), zero], [zero], "coset partition is inconsistent"),
        (Z2, [_pair2(0, 1)], [zero], "pair is not a cocycle pair for this action"),
    ]
    for I, zs, bs, message in crafted:
        expected = _outcome(lambda: _pairwise_cohomology_group(Z2, I, zs, bs))
        assert expected[1] == message
        got = _outcome(lambda: _ListCohomologyGroup(Z2, I, None, zs, bs))
        assert got == expected
    # random tables, lists with duplicates, closures of random generators
    rng = random.Random(7207)
    seen = set()
    for _ in range(400):
        n = rng.randrange(2, 5)
        table = [[x if a == 0 else rng.randrange(n) for x in range(n)] for a in range(n)]
        I = SkewBrace(FiniteGroup(table), FiniteGroup(table))
        cells = [_pair2(a, b) for a in range(n) for b in range(n)]
        bs = [zero] + rng.sample(cells, rng.randrange(0, 3))
        zs = list(bs) + rng.sample(cells, rng.randrange(0, len(cells)))
        for _ in range(rng.randrange(3)):
            bs = list(dict.fromkeys(bs + [pair_add(I, p, q) for p in bs for q in bs]))
            zs = list(dict.fromkeys(zs + [pair_add(I, p, b) for p in zs for b in bs]
                                    + [pair_neg(I, p) for p in zs]))
        zs += rng.sample(zs, rng.randrange(2))
        rng.shuffle(zs)
        rng.shuffle(bs)
        expected = _outcome(lambda: _pairwise_cohomology_group(Z2, I, zs, bs))
        got = _outcome(lambda: _ListCohomologyGroup(Z2, I, None, zs, bs))
        if isinstance(expected, tuple) and isinstance(expected[0], type):
            assert got == expected
            seen.add(expected[1])
        else:
            reps, index_of = expected
            assert got.representatives == reps
            assert all(got.index_of(p) == index_of[p] for p in zs)
            seen.add("ok")
    # every outcome past the first two checks occurs
    assert {"ok", "coboundaries are not closed under addition",
            "cocycle pairs are not closed under adding a coboundary",
            "coset partition is inconsistent", "cosets do not partition the cocycle pairs",
            "coset sizes are uneven"} <= seen


# --- the algebraic route against the enumerating oracles ---------------------


def _span(gens, mods):
    """The subgroup the rows generate, by closure under adding them."""
    seen = {tuple([0] * len(mods))}
    frontier = list(seen)
    while frontier:
        fresh = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, mods))
                if y not in seen:
                    seen.add(y)
                    fresh.append(y)
        frontier = fresh
    return seen


def test_echelon_and_kernel_match_closure():
    # mixed moduli with common factors, so unit scaling, extended gcds and
    # the (mods[c] / pivot) rows all occur
    rng = random.Random(12)
    for _ in range(150):
        width = rng.randrange(1, 5)
        mods = np.array([rng.choice((2, 3, 4, 6, 8, 12)) for _ in range(width)], dtype=np.int64)
        gens = np.array([[rng.randrange(m) for m in mods] for _ in range(rng.randrange(0, 4))],
                        dtype=np.int64).reshape(-1, width)
        expected = _span([tuple(g) for g in gens.tolist()], mods.tolist())
        ech = _Echelon.of(gens, mods)
        members = {tuple(x) for x in ech.members().tolist()}
        assert ech.order == len(expected) == len(members) and members == expected
        everything = np.array(list(itertools.product(*(range(m) for m in mods))), dtype=np.int64)
        inside = ech.contains(everything)
        assert {tuple(x) for x in everything[inside].tolist()} == expected
        # the kernel of the map sending the k-th unit of Z/d_k to gens[k]
        dom = np.array([rng.choice([m for m in (2, 4, 6, 8, 12, 24) if not (g * m % mods).any()])
                        for g in gens], dtype=np.int64)
        ker = _kernel(gens, mods, dom)
        domain = list(itertools.product(*(range(d) for d in dom)))
        want = {x for x in domain if not len(gens) or not ((np.array(x) @ gens) % mods).any()}
        got = _span([tuple(k) for k in ker.tolist()], dom.tolist())
        assert got == want


def _relabelled(I, chi, rng):
    """I and chi with the elements of I renamed by a seeded permutation
    fixing 0, so lex order on labels is no longer numeric order."""
    tail = list(range(1, I.n))
    rng.shuffle(tail)
    perm = [0] + tail
    inv = invert_perm(perm)
    I2 = SkewBrace(I.add.relabel(perm), I.circ.relabel(perm))
    chi2 = ActionTriple(*(
        tuple(tuple(perm[p[inv[y]]] for y in range(I.n)) for p in fam)
        for fam in (chi.nu, chi.mu, chi.sigma)
    ))
    return I2, chi2


def _assert_routes_agree(H, I, chi, laws_only=True):
    """Every list, representative, class index and class operation of the
    algebraic route equals the enumerating oracles'; returns whether the
    zero pair is associated (so that H^2 exists).  laws_only=False skips
    the laws-only lists, whose product grows as |Z^2| squared."""
    z2 = z2N(H, I, chi)
    assert z2 == _z2N_enumerated(H, I, chi)
    laws = []
    if laws_only:
        laws = _z2N_laws_only(H, I, chi)
        assert laws == _z2N_enumerated(H, I, chi, laws_only=True)
    b2 = b2N(H, I, chi)
    assert b2 == _b2N_sweep(H, I, chi)
    assert z1N(H, I, chi) == _z1N_sweep(H, I, chi)
    if zero_pair(H.n) not in set(z2):
        with pytest.raises(ValidationError, match="zero pair is not an associated pair"):
            h2N(H, I, chi)
        return False
    grp = h2N(H, I, chi)
    old = _ListCohomologyGroup(H, I, chi, z2, b2)
    assert (grp.z2_order, grp.b2_order, grp.order) == (len(z2), len(b2), old.order)
    assert grp.z2 == z2 and grp.b2 == b2
    assert grp.representatives == old.representatives
    assert grp.zero == old.zero == zero_pair(H.n)
    assert [grp.index_of(p) for p in z2] == [old.index_of(p) for p in z2]
    for p in old.representatives:
        assert grp.neg(p) == old.neg(p)
        for q in old.representatives:
            assert grp.add(p, q) == old.add(p, q)
    z2set = set(z2)
    for p in laws[:20]:
        if p not in z2set:
            with pytest.raises(InputError):
                grp.index_of(p)
    return True


def _split_actions(H, I):
    """The split triples of (H, I) restricted to the annihilator of I, as
    (H, coefficients, action)."""
    out = []
    for chi in enumerate_split_triples(H, I):
        I_res, chi_res, _ = restrict_action(I, chi)
        out.append((H, I_res, chi_res))
    return out


def test_algebra_matches_oracles_on_coset_pairs():
    braces = {
        "Z2": trivial_brace(cyclic_group(2)),
        "Z4": trivial_brace(cyclic_group(4)),
        "V": trivial_brace(klein_group()),
        "S3": trivial_brace(dihedral_group(3)),
        "D4": trivial_brace(dihedral_group(4)),
    }
    inputs = [x for h, i in COSET_PAIRS for x in _split_actions(braces[h], braces[i])]
    assert len(inputs) == 28 + 1 + 1 + 1 + 96
    assert all(_assert_routes_agree(*x) for x in inputs)


def _cohomology_sweep_actions():
    """The 40 actions of the cohomology-sweep workload: every split action of
    seven pairs, and the identity action of Z4 by Z4."""
    Z2, Z3, Z4 = (trivial_brace(cyclic_group(n)) for n in (2, 3, 4))
    V = trivial_brace(klein_group())
    pairs = [(trivial_brace(cyclic_group(6)), Z2), (V, Z2), (catalog.example4_acting_brace(), Z2),
             (catalog.example4_coefficient_brace(), Z2), (Z4, Z3), (Z2, V),
             (trivial_brace(dihedral_group(3)), Z2)]
    out = [(Z4, Z4, identity_triple(Z4, Z4))]
    out += [(H, I, chi) for H, I in pairs for chi in enumerate_split_triples(H, I)]
    return out


def test_parent_residual_stack_matches_cells():
    # seeded random label tables, stacked behind the zero pair, on every
    # split action of COSET_PAIRS (the one of S3 by Z2 among them) and
    # every cohomology-sweep action
    braces = {
        "Z2": trivial_brace(cyclic_group(2)),
        "Z4": trivial_brace(cyclic_group(4)),
        "V": trivial_brace(klein_group()),
        "S3": trivial_brace(dihedral_group(3)),
        "D4": trivial_brace(dihedral_group(4)),
    }
    inputs = [x for h, i in COSET_PAIRS for x in _split_actions(braces[h], braces[i])]
    inputs += _cohomology_sweep_actions()
    assert len(inputs) == 127 + 40
    rng = np.random.default_rng(315)
    for H, I, chi in inputs:
        stack = rng.integers(0, I.n, size=(4, 2, H.n, H.n))
        stack[0] = 0
        got = _parent_residual_stack(H, I, chi, stack[:, 0], stack[:, 1])
        assert got.shape == (4, H.n ** 3)
        for tabs, row in zip(stack.tolist(), got.tolist()):
            assert tuple(row) == _parent_relation_residual(H, I, Triplet(chi, *tabs))


def test_one_echelon_gives_b2_and_z1():
    # B^2 and Z^1 read off one graph echelon of the coboundary matrix against
    # the separate routes: the same echelon rows as _Echelon.of on the images
    # and on _kernel, the same lists as b2N and z1N, and the echelon rows of
    # Z^1 generate it, on every cohomology-sweep action
    orders = []
    for H, I, chi in _cohomology_sweep_actions():
        grp = h2N(H, I, chi)
        sp = _Cochains(H.n, I)
        images = _coboundary_images(sp, H, I, chi)
        cmods = np.tile(sp.co.mods, H.n - 1)
        for got, want in ((grp._b2, _Echelon.of(images, sp.mods)),
                          (grp._z1, _Echelon.of(_kernel(images, sp.mods, cmods), cmods))):
            assert got.cols == want.cols and np.array_equal(got.rows, want.rows)
        assert grp.b2 == b2N(H, I, chi)
        z1, gens = grp._derivation_rows()
        assert np.array_equal(gens, _theta_rows(sp, grp._z1.rows))
        assert [Derivation(tuple(t)) for t in z1.tolist()] == z1N(H, I, chi)
        reached, frontier = {(0,) * H.n}, [(0,) * H.n]
        while frontier:
            d = frontier.pop()
            for t in gens.tolist():
                e = tuple(I.add.table[a][b] for a, b in zip(d, t))
                if e not in reached:
                    reached.add(e)
                    frontier.append(e)
        assert reached == set(map(tuple, z1.tolist()))
        orders.append((len(z1), len(gens)))
    # (|Z^1|, |T|) runs over (1, 0), (2, 1), (3, 1), (4, 1) and (4, 2)
    assert len(orders) == 40 and set(orders) == {(1, 0), (2, 1), (3, 1), (4, 1), (4, 2)}
    assert [sum(k) for k in zip(*orders)] == [90, 41]


def test_algebra_matches_oracles_on_cohomology_sweep():
    inputs = _cohomology_sweep_actions()
    assert len(inputs) == 40
    assert all(_assert_routes_agree(*x) for x in inputs)
    # Z4 by Z4 alone costs the oracles as much as the rest
    rng = random.Random(1717)
    for H, I, chi in inputs[1:]:
        assert _assert_routes_agree(H, *_relabelled(I, chi, rng))


def test_algebra_matches_oracles_on_cyclic_by_z2():
    Z2 = trivial_brace(cyclic_group(2))
    rng = random.Random(99)
    for n in range(1, 11):
        H = trivial_brace(cyclic_group(n))
        assert _assert_routes_agree(H, Z2, identity_triple(H, Z2), laws_only=n <= 6)
    # Z4 and Z2 x Z4 coefficients: the exponent is not prime
    Z4 = trivial_brace(cyclic_group(4))
    Z2Z4 = trivial_brace(direct_product_group(cyclic_group(2), cyclic_group(4)))
    for n in range(1, 5):
        H = trivial_brace(cyclic_group(n))
        for I in (Z4, Z2Z4):
            chi = identity_triple(H, I)
            assert _assert_routes_agree(H, I, chi, laws_only=n <= 2)
            assert _assert_routes_agree(H, *_relabelled(I, chi, rng), laws_only=n <= 2)


def test_algebra_matches_oracles_on_composite_coefficients():
    # every split action of Z2 and Z3 on Z2 x Z4 and on Z6, then relabelled
    Z2, Z3 = (trivial_brace(cyclic_group(n)) for n in (2, 3))
    rng = random.Random(4242)
    for I, expected in ((trivial_brace(direct_product_group(cyclic_group(2), cyclic_group(4))), 153),
                        (trivial_brace(cyclic_group(6)), 7)):
        checked = zero_valid = 0
        for H in (Z2, Z3):
            for chi in enumerate_split_triples(H, I):
                zero_valid += _assert_routes_agree(H, I, chi, laws_only=H is Z2)
                _assert_routes_agree(H, *_relabelled(I, chi, rng), laws_only=H is Z2)
                checked += 1
        assert checked == zero_valid == expected


def test_algebra_matches_oracles_on_random_actions(Z2, Z3, Z4):
    # the 200 seeded actions of test_z2N_matches_rebuild_filter, some of
    # them with an invalid zero pair, then relabelled
    V = trivial_brace(klein_group())
    Z5 = trivial_brace(cyclic_group(5))
    rng = random.Random(2024)
    pairs = [(H, I, sorted(automorphism_group(I.add))) for H, I in ((Z2, Z5), (Z2, Z4), (V, Z3))]
    seen = {}
    for _ in range(200):
        H, I, auts = rng.choices(pairs, weights=(10, 10, 1))[0]
        chi = _random_action(rng, H, I, auts)
        if (H, I, chi) not in seen:
            seen[H, I, chi] = _assert_routes_agree(H, I, chi)
    assert 0 < sum(seen.values()) < len(seen)
    relabel = random.Random(5)
    for H, I, chi in list(seen)[:60]:
        assert _assert_routes_agree(H, *_relabelled(I, chi, relabel)) == seen[H, I, chi]


def _random_actions():
    """The distinct actions of the 200 seeded draws of
    test_algebra_matches_oracles_on_random_actions, some not split."""
    Z2, Z3, Z4, Z5 = (trivial_brace(cyclic_group(n)) for n in (2, 3, 4, 5))
    V = trivial_brace(klein_group())
    rng = random.Random(2024)
    pairs = [(H, I, sorted(automorphism_group(I.add))) for H, I in ((Z2, Z5), (Z2, Z4), (V, Z3))]
    seen = {}
    for _ in range(200):
        H, I, auts = rng.choices(pairs, weights=(10, 10, 1))[0]
        seen.setdefault((H, I, _random_action(rng, H, I, auts)), None)
    return list(seen)


def test_cocycle_space_matches_the_cube():
    # the generator-cell kernel of rebuilt unit pairs against the full-cube
    # route: the same echelon rows of Z^2 and the same split verdict, which
    # the rebuild of the zero pair confirms; the cube's particular pair lies
    # in Z^2, and with a non-split action the cube's candidates all fail the
    # rebuild, as test_z2N_matches_rebuild_filter checks, while the kernel
    # route lists none
    coefficients = [trivial_brace(cyclic_group(2)), trivial_brace(cyclic_group(3)),
                    trivial_brace(klein_group())]
    groups = [G for n in range(1, 8) for G in standard_groups_of_order(n)]
    groups += [G for _, G in catalog.groups_of_order_8()]
    inputs = [(trivial_brace(G), I, identity_triple(trivial_brace(G), I))
              for G in groups for I in coefficients]
    inputs += _cohomology_sweep_actions() + _random_actions()
    split = 0
    for H, I, chi in inputs:
        space = _cocycle_space(H, I, chi)
        _, z2, particular, zero_valid = _cube_cocycle_space(H, I, chi)
        zero = zero_pair(H.n).g
        assert zero_valid == is_valid_triplet(H, I, Triplet(chi, zero, zero))
        assert (space.z2 is not None) == zero_valid
        if zero_valid:
            assert space.z2.cols == z2.cols and np.array_equal(space.z2.rows, z2.rows)
            assert z2.contains(particular[None]).all()
            split += 1
    # 42 identity actions, 40 cohomology-sweep actions, 30 seeded ones (19 split)
    assert (len(inputs), split) == (112, 101)


def test_cocycle_laws_on_a_non_generating_set_admit_more_pairs(monkeypatch):
    # _cocycle_space with the middles of one component law, or the b's of
    # the brace axiom, cut to the first generator: Z^2 grows, so the other
    # generators' cells carry information.  Cutting the + middles needs a
    # group with three additive generators: on every input tried with two,
    # the other laws made up for the first alone
    real_assoc, real_axiom = cohomology_mod._associativity_sides, cohomology_mod._axiom_sides

    def z2_order(H, I, cut):
        calls = []

        def first(gens):
            # gens is one row of generator lifts, shared by every unit pair
            assert gens.shape[-1] > 1
            return gens[..., :1]

        def assoc(t, mids):
            calls.append(mids.shape[-1])
            return real_assoc(t, first(mids) if cut == len(calls) else mids)

        def axiom(t_add, rows, neg, bs, cs=None):
            return real_axiom(t_add, rows, neg, first(bs) if cut == 3 else bs, cs)

        monkeypatch.setattr(cohomology_mod, "_associativity_sides", assoc)
        monkeypatch.setattr(cohomology_mod, "_axiom_sides", axiom)
        return _cocycle_space(H, I, identity_triple(H, I)).z2.order

    Z2, Z3 = trivial_brace(cyclic_group(2)), trivial_brace(cyclic_group(3))
    D4 = trivial_brace(dihedral_group(4))
    V8 = trivial_brace(direct_product_group(klein_group(), cyclic_group(2)))
    # cut: 0 none, 1 the + middles, 2 the o middles, 3 the brace axiom's b
    got = {(name, cut): z2_order(H, I, cut)
           for name, H, I, cuts in (("V8 by Z2", V8, Z2, (0, 1, 2)), ("V8 by Z3", V8, Z3, (0, 3)),
                                    ("D4 by Z2", D4, Z2, (0, 2, 3)))
           for cut in cuts}
    assert got == {("V8 by Z2", 0): 2 ** 19, ("V8 by Z2", 1): 2 ** 21, ("V8 by Z2", 2): 2 ** 22,
                   ("V8 by Z3", 0): 3 ** 7, ("V8 by Z3", 3): 3 ** 10,
                   ("D4 by Z2", 0): 2 ** 12, ("D4 by Z2", 2): 2 ** 16, ("D4 by Z2", 3): 2 ** 13}


def test_h2N_reach_on_cyclic_by_z2():
    # |H^2| of Z_n by Z2 with the identity action: 4 for even n, 1 for odd n,
    # from the kernels alone within the default budget (the enumerating
    # route took 18 s at n = 12)
    Z2 = trivial_brace(cyclic_group(2))
    for n in range(10, 17):
        H = trivial_brace(cyclic_group(n))
        grp = h2N(H, Z2, identity_triple(H, Z2))
        assert grp.order == (4 if n % 2 == 0 else 1)
        assert grp.z2_order == grp.order * grp.b2_order


def _budget_stop(fn, *args):
    """What, how large and against which budget fn stopped, under a budget
    of 100."""
    with budget_mod.limit(100):
        with pytest.raises(SearchBudgetExceeded) as exc:
            fn(*args)
    return exc.value.what, exc.value.size, exc.value.budget, str(exc.value)


def test_cohomology_group_listings_are_guarded_as_z2N_and_b2N():
    # Z12 by Z2 with the identity triple: 4,096 cocycle pairs and 1,024
    # coboundary pairs; listing them off the group stops on the budget as
    # the z2N and b2N listings do
    Z2 = trivial_brace(cyclic_group(2))
    H = trivial_brace(cyclic_group(12))
    chi = identity_triple(H, Z2)
    stop = _budget_stop(z2N, H, Z2, chi)
    assert stop[:3] == ("z2N listing", 4096, 100)
    assert _budget_stop(lambda: h2N(H, Z2, chi).z2) == stop
    stop = _budget_stop(b2N, H, Z2, chi)
    assert stop[:3] == ("b2N listing", 1024, 100)
    assert _budget_stop(lambda: h2N(H, Z2, chi).b2) == stop
