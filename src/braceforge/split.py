"""Split semidirect products of skew braces.

A split product of I by H is driven by a triple of families indexed by H:

    nu    : (H, o) -> Aut(I, +)   homomorphism
    mu    : (H, +) -> Aut(I, +)   anti-homomorphism
    sigma : (H, o) -> Aut(I, o)   anti-homomorphism

subject to one six-variable compatibility equation coupling all three.  The
product lives on pairs (h, y) encoded as h * |I| + y with

    (h1,y1) + (h2,y2) = (h1 + h2, mu_{h2}(y1) + y2)
    (h1,y1) o (h2,y2) = (h1 o h2, nu_{h1 o h2}(sigma_{h2}(nu_{h1}^-1(y1))
                                                o nu_{h2}^-1(y2)))

Note the mu index in the sum: it must be h2, otherwise + is not associative
for a nontrivial anti-homomorphism mu.

The compatibility equation.  At (h1, h2, h3, y1, y2, y3), with
a = nu_{h1}^-1(y1) and T(h, y) = nu_{h1 o h}(sigma_h(a) o nu_h^-1(y)), the
I-part of (h1, y1) o (h, y), it reads

    T(h2 + h3, mu_{h3}(y2) + y3) = mu_m(T(h2, y2) - y1) + T(h3, y3)

with m = -h1 + (h1 o h3).  That mu index is what expanding the brace axiom
in the product forces, since the two mu factors collapse along the
anti-homomorphism law.  The published m = -h1 + (h2 o h3) rejects valid
data whenever mu is nontrivial; that variant is the erratum diagnostic of
the loop oracle _loop_compat_witness in tests/test_split.py.  The package
decides the equation as the brace axiom below and transcribes it nowhere;
the hand transcription _compat_cells is a test oracle there.

Deciding the equation on generators.  At (h1, h2, h3, y1, y2, y3) the
equation is the I-component of the product's brace axiom at
x1 = (h1, y1), x2 = (h2, y2), x3 = (h3, y3); the H-components agree
because H is a brace.  Once mu is an anti-homomorphism into Aut(I, +),
(E, +) is a group, so by the lambda-additivity lemma in the braces module
the axiom holds everywhere iff it holds with x2 in a generating set of
(E, +).  The lifts (s, 0), s in S(H, +), and (0, t), t in S(I, +),
generate (E, +):

    (h, 0) + (0, y) = (h, y)    and    (s1, 0) + (s2, 0) = (s1 + s2, 0).

x1 needs only the lifts of the circle generators.  If lam(a) is additive,
then for every b and x

    lam(a)(lam(b)(x)) = lam(a)(-b + b o x) = -lam(a)(b) + lam(a)(b o x)
                      = -(a o b) + a + (-a) + a o b o x = lam(a o b)(x),

so lam(a o b) = lam(a) lam(b), which is additive once lam(b) is too.  The
set of a with lam(a) additive therefore contains 0 and is closed under o;
in a finite group it is a subgroup, and it is all of E once it holds a
generating set of (E, o).  The lifts (s, 0), s in S(H, o), and (0, t), t
in S(I, o), generate (E, o):

    (h, 0) o (0, y) = (h, nu_h(y)),
    (s1, 0) o (s2, 0) = (s1 o s2, 0),    (0, y1) o (0, y2) = (0, y1 o y2),

since every nu_h, sigma_h fixes 0 and nu_0 = sigma_0 = id; nu_h is a
bijection, so the first line reaches every (h, y).  The only precondition
of both halves is that both product tables are groups, which holds once
nu, mu and sigma obey their (anti)hom laws into Aut(I, +), Aut(I, +) and
Aut(I, o).  Every caller ensures it: enumeration draws its families from
groups.homs_to_perm_group, and the action check _check_action, which
decides automorphism membership and the laws, runs first in
validate_split_triple and in cohomology.validate_cocycle_action, after
which cohomology._cocycle_space runs.

The one evaluator is braces._axiom_sides, read on each candidate's
zero-cocycle rebuild (_triplet_ops, the one transcription of the rebuild
formulas, with nu, mu and sigma on three layer axes): that is the split
product relabelled by (h, y) -> (h, nu_h^-1(y)), which fixes the lifts
(h, 0) and (0, y) as nu_h(0) = 0 and nu_0 = id.  _compat_on_lifts reads
a = x1 among the circle lifts L_o, b = x2 among the additive lifts L_+
and c = x3 over all of E, |L_o| |L_+| n cells per candidate instead of
n^3 (n = |H| |I|).  The lemma makes this exact at every order, so
enumeration, validate_split_triple and semidirect_product take their
verdicts from it alone, and a valid triple's product, a skew brace, is
not validated again.  Only a failing triple gets a witness, which
_compat_witness reads off the same evaluator with x1 over one fibre at a
time and x2, x3 over every element.  _triplet_tables fills product
tables from the same rebuild.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .braces import BraceHom, SkewBrace, _axiom_sides, brace_hom_ops
from .errors import (
    CompatibilityFailed,
    InputError,
    NotAntiHom,
    NotAutomorphism,
    NotHom,
    NotSplit,
    SectionNotHom,
)
from .groups import (
    FiniteGroup,
    _homomorphisms,
    _relabel_stack,
    automorphism_group,
    homs_to_perm_group,
    identity_perm,
    is_automorphism,
)


def encode_pair(h: int, y: int, ni: int) -> int:
    return h * ni + y


@dataclass(frozen=True)
class ActionTriple:
    """Families (nu, mu, sigma) of permutations of I, indexed by H."""

    nu: tuple
    mu: tuple
    sigma: tuple

    def __post_init__(self):
        if not (len(self.nu) == len(self.mu) == len(self.sigma)):
            raise InputError("nu, mu, sigma must have equal length")

    def sort_key(self) -> tuple:
        return (self.nu, self.mu, self.sigma)


def identity_triple(H: SkewBrace, I: SkewBrace) -> ActionTriple:
    e = identity_perm(I.n)
    fam = tuple(e for _ in range(H.n))
    return ActionTriple(fam, fam, fam)


def triple_from_tables(nu, mu, sigma) -> ActionTriple:
    return ActionTriple(
        tuple(tuple(p) for p in nu),
        tuple(tuple(p) for p in mu),
        tuple(tuple(p) for p in sigma),
    )


def _compat_witness(H: SkewBrace, I: SkewBrace, t: ActionTriple):
    """The lexicographically least (h1, h2, h3, y1, y2, y3) violating the
    compatibility equation, or None.

    nu, mu and sigma must obey their (anti)hom laws, as validate_split_triple
    checks first; a triple that passes on the lifts (module docstring)
    returns None at once.  Otherwise the evaluator of _compat_on_lifts runs
    with a = (h1, y1) over every y1, one h1 at a time, and b and c over
    every element, each product cell (h, y) at its rebuild label
    h |I| + nu_h^-1(y); the first failing h1 and its first failing cell in
    (h2, h3, y1, y2, y3) order are the witness."""
    families = [t.nu], [t.mu], [t.sigma]
    if _compat_on_lifts(H, I, *families).all():
        return None
    nh, ni = H.n, I.n
    labels = np.arange(nh)[:, None] * ni + np.argsort(t.nu, axis=1)   # of every (h, y)
    for h1 in range(nh):
        lhs, rhs = _compat_sides(H, I, *families, labels[h1], labels.ravel(), labels.ravel())
        # axes (y1, h2, y2, h3, y3) into lexicographic order
        bad = (lhs != rhs).reshape(ni, nh, ni, nh, ni).transpose(1, 3, 0, 2, 4)
        if bad.any():
            return (h1,) + tuple(int(v) for v in np.unravel_index(int(bad.argmax()), bad.shape))
    return None


def _compat_on_lifts(H: SkewBrace, I: SkewBrace, nus, mus, sigmas) -> np.ndarray:
    """Whether the candidate (nus[i], mus[j], sigmas[k]) satisfies the
    compatibility equation everywhere, as a boolean array of shape
    (len(nus), len(mus), len(sigmas)).

    The product's brace axiom is read (_compat_sides) with a among the
    lifts of the circle generators of H and I, b among the lifts of their
    additive generators and c over all of E, one nu at a time so that no
    temporary spans more than one nu's candidates; by the module docstring
    that decides it once every candidate obeys the three (anti)hom laws."""
    a, b, cells = _lifts(H.circ, I.circ, I.n), _lifts(H.add, I.add, I.n), np.arange(H.n * I.n)
    return np.concatenate([(lhs == rhs).all(axis=(3, 4, 5)) for lhs, rhs in (
        _compat_sides(H, I, [nu], mus, sigmas, a, b, cells) for nu in nus)])


def _compat_sides(H: SkewBrace, I: SkewBrace, nus, mus, sigmas, a, bs, cs) -> tuple:
    """Both sides of the brace axiom (braces._axiom_sides) in the
    zero-cocycle rebuild of every candidate (nus[i], mus[j], sigmas[k]),
    with a over the labels a, b over bs and c over cs (_AtLifts), as arrays
    (len(nus), len(mus), len(sigmas), len(a), len(bs), len(cs))."""
    nh, ni = H.n, I.n
    axes = ((-1, 1, 1, nh, ni), (1, -1, 1, nh, ni), (1, 1, -1, nh, ni))
    ops = _triplet_ops(H, I, *(np.array(f, dtype=np.intp).reshape(s)
                               for f, s in zip((nus, mus, sigmas), axes)))
    a, bs, cs = (np.asarray(x).reshape(1, 1, 1, -1) for x in (a, bs, cs))
    # an operation's table, n^2 cells a layer, is gathered only when the
    # two sides read at least as many cells
    dense = (nh * ni) ** 2 <= 2 * len(nus) * len(mus) * len(sigmas) * a.size * bs.size * cs.size
    add, circ = (_AtLifts(op, labels, 3)
                 for op, labels in zip(_label_ops(ops, nh, ni, 3, dense), (cs, a)))
    return _axiom_sides(add, circ, _right_inverses(add, a, H, ni), bs, cs)


def _lifts(G: FiniteGroup, K: FiniteGroup, ni: int) -> np.ndarray:
    """The labels h |I| + y of the lifts (s, 0), s in S(G), then (0, t),
    t in S(K), of the generating sequences of G and K."""
    sg, sk = G.generating_sequence(), K.generating_sequence()
    return np.array([s * ni for s in sg] + list(sk), dtype=np.intp)


def check_hom_laws(H: SkewBrace, t: ActionTriple) -> None:
    """Raise unless nu is a homomorphism on (H, o), mu an anti-homomorphism
    on (H, +) and sigma an anti-homomorphism on (H, o).

    Each family must already consist of permutations of one set.  Each law
    is one gather over all (h1, h2); the witness is the first failing
    (h1, h2) in lexicographic order, with nu, mu, sigma checked in that
    order there, as the per-pair loop _loop_hom_laws in
    tests/test_split.py finds it."""
    Ha, Hc, r = H.add.np_table, H.circ.np_table, np.arange(H.n)
    nu, mu, sigma = (np.array(f, dtype=np.intp) for f in (t.nu, t.mu, t.sigma))
    # compose(f[h1], f[h2]) at [h1, h2] is f[r[:, None, None], f[None]], and
    # compose(f[h2], f[h1]) is f[r[None, :, None], f[:, None]]
    laws = (
        (nu[Hc] != nu[r[:, None, None], nu[None]], NotHom,
         "nu is not a homomorphism on (H, o)"),
        (mu[Ha] != mu[r[None, :, None], mu[:, None]], NotAntiHom,
         "mu is not an anti-homomorphism on (H, +)"),
        (sigma[Hc] != sigma[r[None, :, None], sigma[:, None]], NotAntiHom,
         "sigma is not an anti-homomorphism on (H, o)"),
    )
    bad = np.stack([diff.any(axis=2) for diff, _, _ in laws])
    if bad.any():
        h1, h2 = divmod(int(bad.any(axis=0).argmax()), H.n)
        _, err, message = laws[int(bad[:, h1, h2].argmax())]
        raise err(message, h1=h1, h2=h2)


def _check_action(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> None:
    """The action check: t is indexed by H (InputError otherwise), each
    nu_h and mu_h is in Aut(I, +) and each sigma_h in Aut(I, o), checked
    per h in that order (NotAutomorphism at the first that is not), and
    the three (anti)hom laws hold (check_hom_laws).  Returns None."""
    if len(t.nu) != H.n:
        raise InputError(f"triple indexed by {len(t.nu)} elements, |H| = {H.n}")
    for h in range(H.n):
        if not is_automorphism(t.nu[h], I.add):
            raise NotAutomorphism(f"nu[{h}] is not in Aut(I, +)", h=h, family="nu")
        if not is_automorphism(t.mu[h], I.add):
            raise NotAutomorphism(f"mu[{h}] is not in Aut(I, +)", h=h, family="mu")
        if not is_automorphism(t.sigma[h], I.circ):
            raise NotAutomorphism(f"sigma[{h}] is not in Aut(I, o)", h=h, family="sigma")
    check_hom_laws(H, t)


def validate_split_triple(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> None:
    """Check the action (_check_action: automorphism membership and the
    three (anti)hom laws), then the compatibility equation on the lifts
    (module docstring), at every order.  Returns None; raises with a
    witness on failure."""
    _check_action(H, I, t)
    witness = _compat_witness(H, I, t)
    if witness is not None:
        h1, h2, h3, y1, y2, y3 = witness
        raise CompatibilityFailed(
            "compatibility equation failed at "
            f"(h1,h2,h3,y1,y2,y3)=({h1},{h2},{h3},{y1},{y2},{y3})",
            h1=h1, h2=h2, h3=h3, y1=y1, y2=y2, y3=y3,
        )


def _triplet_ops(H: SkewBrace, I: SkewBrace, nus, mus, sigmas, betas=None, taus=None) -> tuple:
    """The (add, circ) operations the triplets (chi, beta, tau) rebuild by
    the formulas in the extensions module docstring, as functions of
    broadcastable coordinates (h1, y1, h2, y2) giving the label h |I| + y
    of the product of (h1, y1) and (h2, y2), each pair standing for s(h) o y.

    nus, mus, sigmas are arrays (..., |H|, |I|), betas and taus (..., |H|,
    |H|) or None (the zero cocycle); their leading axes, as many for each,
    are layer axes that broadcast together and lead the coordinates, so
    each family may have an axis of its own."""
    nh, ni = H.n, I.n
    Ha, Hc_label, Ia, Ic = H.add.np_table, H.circ.np_table * ni, I.add.np_table, I.circ.np_table
    nu, nu_at = _layer_index(np.asarray(nus, dtype=np.intp), 2)
    label = np.arange(0, nh * ni, ni)[:, None] + nu.argsort(axis=-1)    # h |I| + nu_h^-1(z)
    mu, mu_at = _layer_index(np.asarray(mus, dtype=np.intp), 2)
    sigma, sigma_at = _layer_index(np.asarray(sigmas, dtype=np.intp), 2)
    if betas is not None:
        beta, beta_at = _layer_index(np.asarray(betas, dtype=np.intp), 2)
        tau, tau_at = _layer_index(np.asarray(taus, dtype=np.intp), 2)

    def add(h1, y1, h2, y2):
        # beta(h1, h2) + mu_{h2}(nu_{h1}(y1)) + nu_{h2}(y2) over h1 + h2
        at = nu_at(h1, h2)
        z = mu[(*mu_at(h1, h2), h2, nu[(*at, h1, y1)])]
        if betas is not None:
            z = Ia[beta[(*beta_at(h1, h2), h1, h2)], z]
        return label[(*at, Ha[h1, h2], Ia[z, nu[(*at, h2, y2)]])]

    def circ(h1, y1, h2, y2):
        # tau(h1, h2) o sigma_{h2}(y1) o y2 over h1 o h2
        z = sigma[(*sigma_at(h1, h2), h2, y1)]
        if betas is not None:
            z = Ic[tau[(*tau_at(h1, h2), h1, h2)], z]
        return Hc_label[h1, h2] + Ic[z, y2]

    return add, circ


def _layer_index(f: np.ndarray, cell_axes: int) -> tuple:
    """f with its layer axes (all but the last cell_axes) folded into one,
    and the function of two index arrays, led by the layer axes, that
    gives the leading index reading each cell in its own layer."""
    lead = f.shape[:-cell_axes]
    if max(lead, default=1) == 1:
        return f[(0,) * len(lead)], _one_layer
    k = np.arange(prod(lead)).reshape(lead)
    return (f.reshape((-1,) + f.shape[len(lead):]),
            lambda p, q: (k.reshape(lead + (1,) * (max(np.ndim(p), np.ndim(q)) - len(lead))),))


def _one_layer(p, q) -> tuple:
    return ()


def _tables(ops, nh: int, ni: int, layers: int) -> list:
    """_triplet_ops operations on every cell, as arrays (..., n, n) led by
    `layers` layer axes."""
    h, y = np.arange(nh).reshape((1,) * layers + (-1,)), np.arange(ni)
    cells = h[..., None, None, None], y[:, None, None], h[..., None], y
    return [t.reshape(t.shape[:layers] + (nh * ni, nh * ni)) for t in [op(*cells) for op in ops]]


def _label_ops(ops, nh: int, ni: int, layers: int, tabulate: bool) -> tuple:
    """_triplet_ops operations as functions of labels x1, x2 (h |I| + y),
    evaluated at the cells asked or, when tabulate, read off their tables,
    a layered one by one take: faster on large reads than three indices."""
    if not tabulate:
        return tuple(lambda x1, x2, op=op: op(*np.divmod(x1, ni), *np.divmod(x2, ni))
                     for op in ops)
    n = nh * ni
    return tuple((lambda x1, x2, t=t: t[x1, x2]) if t.ndim == 2 else
                 (lambda x1, x2, t=t.ravel(), at=at: t.take((at(x1, x2)[0] * n + x1) * n + x2))
                 for t, at in (_layer_index(t, 2) for t in _tables(ops, nh, ni, layers)))


class _AtLifts:
    """A label operation of _label_ops read as the law evaluators read a
    table, with x and y, or a and c, over the labels `labels`.

    Label arrays lead with the `layers` layer axes, each of its length or
    1.  take(idx, axis=0) is idx times each label, on a new last axis,
    take(idx, axis=-1) each label times idx, on a new axis after the
    layers', and [p, q] the products of broadcast p and q."""

    def __init__(self, op, labels, layers: int):
        self.op, self.labels, self.layers = op, np.asarray(labels).ravel(), layers

    def __getitem__(self, pq) -> np.ndarray:
        return self.op(*pq)

    def take(self, idx, axis: int) -> np.ndarray:
        idx = np.asarray(idx)
        if axis == 0:
            return self.op(idx[..., None], self.labels)
        lay = self.layers
        return self.op(self.labels.reshape((1,) * lay + (-1,) + (1,) * (idx.ndim - lay)),
                       idx.reshape(idx.shape[:lay] + (1,) + idx.shape[lay:]))


def _right_inverses(add: _AtLifts, xs: np.ndarray, H: SkewBrace, ni: int) -> np.ndarray:
    """-x for each label x of xs (leading with the layer axes) in each
    rebuilt (E, +): its right inverse, which lies over -h, as the H-part
    of a sum is the sum of the H-parts."""
    over = (np.asarray(H.add.inv)[xs // ni] * ni)[..., None] + np.arange(ni)
    return over[..., 0] + (add[xs[..., None], over] == 0).argmax(axis=-1)


def _triplet_tables(H: SkewBrace, I: SkewBrace, chis: Sequence[ActionTriple],
                    betas=None, taus=None) -> tuple:
    """The (add, circ) tables _triplet_ops rebuilds from the triplets
    (chis[k], betas[k], taus[k]), as (k, n, n) arrays; chis may hold one
    triple that every layer shares, and betas = taus = None is the zero
    cocycle."""
    fams = np.array([(t.nu, t.mu, t.sigma) for t in chis], dtype=np.intp)
    ops = _triplet_ops(H, I, fams[:, 0], fams[:, 1], fams[:, 2], betas, taus)
    return tuple(_tables(ops, H.n, I.n, 1))


def _product_tables(H: SkewBrace, I: SkewBrace, ts: Sequence[ActionTriple]) -> tuple:
    """The (add, circ) tables of the split products of the triples ts, as
    (k, n, n) arrays in the order of ts, gathered at once.

    In the product h * |I| + y stands for s(h) + y, and s(h) + y = s(h) o
    nu_h^-1(y), since nu_h(z) = -s(h) + s(h) o z.  So the product is the
    zero-cocycle rebuild (_triplet_tables) with each label h * |I| + z
    renamed to h * |I| + nu_h(z), layer by layer (_relabel_stack)."""
    add, circ = _triplet_tables(H, I, ts)
    rename = (np.arange(H.n)[:, None] * I.n
              + np.array([t.nu for t in ts], dtype=np.intp)).reshape(len(ts), -1)
    return _relabel_stack(add, rename), _relabel_stack(circ, rename)


def _product_brace(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> SkewBrace:
    """The split product of a triple already decided valid, built from
    _product_tables with no further check."""
    add, circ = _product_tables(H, I, [t])
    return SkewBrace(FiniteGroup(add[0]), FiniteGroup(circ[0]))


def semidirect_product(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> SkewBrace:
    """The split product brace on pairs (h, y) -> h * |I| + y.

    The triple goes through validate_split_triple, which raises with a
    witness unless it is valid; a valid triple's product tables are a
    skew brace (module docstring), so the product is not validated again.
    """
    validate_split_triple(H, I, t)
    return _product_brace(H, I, t)


def _candidate_families(H: SkewBrace, I: SkewBrace):
    """(nus, mus, sigmas): every family that obeys its own (anti)hom law;
    the candidate triples are their product."""
    aut_add = automorphism_group(I.add)
    aut_circ = automorphism_group(I.circ)
    nus = homs_to_perm_group(H.circ, aut_add)
    mu_homs = homs_to_perm_group(H.add, aut_add)
    sigma_homs = homs_to_perm_group(H.circ, aut_circ)
    mus = sorted({tuple(f[H.add.inv[h]] for h in range(H.n)) for f in mu_homs})
    sigmas = sorted({tuple(g[H.circ.inv[h]] for h in range(H.n)) for g in sigma_homs})
    return nus, mus, sigmas


def enumerate_split_triples(H: SkewBrace, I: SkewBrace) -> list:
    """All action triples passing validate_split_triple, sorted canonically.

    Every candidate is decided at once on the lifts (_compat_on_lifts) and
    no product is built; validating every candidate product is the test
    oracle _products_are_braces in tests/test_split.py."""
    nus, mus, sigmas = _candidate_families(H, I)
    space = len(nus) * len(mus) * len(sigmas)
    budget_mod.guard(space, "enumerate_split_triples")
    compat = _compat_on_lifts(H, I, nus, mus, sigmas)
    found = [ActionTriple(nus[i], mus[j], sigmas[k]) for i, j, k in np.argwhere(compat)]
    found.sort(key=ActionTriple.sort_key)
    return found


def split_decompose(ext, section: Optional[Sequence[int]] = None):
    """Decompose a split extension: (ActionTriple, BraceHom iso onto the
    rebuilt product).  With section=None, searches for a brace-hom section
    and raises NotSplit when none exists.  A given section must lie in the
    fibers (InputError otherwise) and be a brace hom, which BraceHom.is_valid
    decides on generator cells; SectionNotHom, without a witness pair,
    otherwise."""
    from . import extensions as ext_mod

    E, H, I = ext.E, ext.H, ext.I
    if section is None:
        section = _find_hom_section(ext)
        if section is None:
            raise NotSplit("no section of the projection is a brace homomorphism")
    s = tuple(section)
    _check_section(ext, s)
    if not BraceHom(H, E, s).is_valid():
        raise SectionNotHom("section is not a brace homomorphism")
    t = ext_mod.extract_action(ext, s)
    product = semidirect_product(H, I, t)
    inj_index = {e: y for y, e in enumerate(ext.inj)}
    phi = [0] * E.n
    for x in range(E.n):
        h = ext.proj[x]
        y = inj_index[E.add.table[E.add.inv[s[h]]][x]]
        phi[x] = encode_pair(h, y, I.n)
    hom = BraceHom(E, product, tuple(phi))
    if not (hom.is_valid() and hom.is_injective()):
        raise SectionNotHom("decomposition map is not a brace isomorphism")
    return t, hom


def _check_section(ext, s) -> None:
    if len(s) != ext.H.n or s[0] != 0:
        raise InputError("section must map 0 to 0 and be indexed by H")
    for h in range(ext.H.n):
        if not 0 <= s[h] < ext.E.n or ext.proj[s[h]] != h:
            raise InputError(f"section value s[{h}] not in the fiber over {h}")


def _find_hom_section(ext) -> Optional[tuple]:
    """A section of the projection that is a brace homomorphism, or None.

    Generator images are drawn from the generator's fiber; since proj is a
    brace hom, every image the closure adds then lies in the right fiber."""
    E, H = ext.E, ext.H

    def candidates(g: int):
        k = H.add.element_order(g)
        return [x for x in range(E.n) if ext.proj[x] == g and E.add.element_order(x) == k]

    maps = _homomorphisms(
        H.add, candidates, brace_hom_ops(H, E), 0, "hom section search", first_only=True
    )
    return maps[0] if maps else None
