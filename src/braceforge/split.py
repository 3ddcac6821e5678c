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

Deciding the compatibility equation on generators.  At (h1, h2, h3, y1,
y2, y3) the equation is the I-component of the product's brace axiom at
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
groups.homs_to_perm_group, validate_split_triple runs check_hom_laws
first, and cohomology._cocycle_space runs after validate_cocycle_action,
which checks the same laws for trivial-brace coefficients.

_compat_on_lifts decides a stack of candidates with x1 among the circle
lifts L_o, x2 among the additive lifts L_+ and x3 over all of E, |L_o|
|L_+| n cells per candidate instead of n^3 (n = |H| |I|).  The lemma
makes this exact at every order, so enumeration, validate_split_triple
and semidirect_product take their verdicts from it alone.  Both product
tables being groups, the brace axiom is the compatibility equation, so a
valid triple's product is a skew brace and no product table is validated
again.  The full (h1, h2, h3, y1, y2, y3) cube runs only for the witness
of a triple that fails on the lifts.  The published sign variant of the
equation is an erratum diagnostic of the loop oracle _loop_compat_witness
in tests/test_split.py.

_triplet_tables is the one gather that fills product tables: triplet
rebuilds use it, and a split product is its zero-cocycle case relabelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .braces import BraceHom, SkewBrace, brace_hom_ops
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

# Cap on the cells of one batch temporary in _compat_on_lifts: 128 KiB, far
# below the tens of MB the interpreter and numpy occupy, however many
# candidates a pair has.
_BATCH_CELLS = 1 << 14


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


def _family_arrays(t: ActionTriple) -> tuple:
    """nu, mu, sigma and the inverse of each nu as (|H|, |I|) arrays."""
    nu, mu, sigma = (np.array(f, dtype=np.intp) for f in (t.nu, t.mu, t.sigma))
    return nu, mu, sigma, nu.argsort(axis=1)


def _compat_witness(H: SkewBrace, I: SkewBrace, t: ActionTriple):
    """First tuple violating the compatibility equation, or None.

    nu, mu and sigma must obey their (anti)hom laws, as validate_split_triple
    checks first, so that both product tables are groups.  The operative
    equation then holds everywhere iff it holds with (h1, y1) among the
    lifts of the generators of (H, o) and (I, o) and (h2, y2) among the
    lifts of the generators of (H, +) and (I, +) (module docstring), so a
    triple that passes on the lifts returns None at once, and the witness
    of one that fails there is the whole cube's (_compat_cube).
    """
    if _compat_on_lifts(H, I, [t.nu], [t.mu], [t.sigma]).all():
        return None
    return _compat_cube(H, I, t)


def _compat_cube(H: SkewBrace, I: SkewBrace, t: ActionTriple):
    """_compat_witness evaluated on the whole cube.

    With a = nu_{h1}^-1(y1), the equation compared at every (h1, h2, h3,
    y1, y2, y3) is

        nu_{h1 o (h2 + h3)}(sigma_{h2 + h3}(a) o nu_{h2 + h3}^-1(mu_{h3}(y2) + y3))
          = mu_m(nu_{h1 o h2}(sigma_{h2}(a) o nu_{h2}^-1(y2)) - y1)
            + nu_{h1 o h3}(sigma_{h3}(a) o nu_{h3}^-1(y3))

    with m = -h1 + (h1 o h3).  That mu index is what expanding the brace
    axiom in the product forces, since the two mu factors collapse along
    the anti-homomorphism law.  The published m = -h1 + (h2 o h3) rejects
    valid data whenever mu is nontrivial.

    h1 runs through H in order; for each, both sides are evaluated at all
    (h2, h3, y1, y2, y3) at once as a (|H|, |H|, |I|, |I|, |I|) array, so
    no temporary exceeds |H|^2 |I|^3 cells.  The witness is the first
    failing cell in C order of the first failing h1: the lexicographically
    least failing tuple.
    """
    Ha, Hc, Hneg = H.add.np_table, H.circ.np_table, H.add.inv
    Ia, Ic = I.add.np_table, I.circ.np_table
    nh, ni, Ineg = H.n, I.n, np.array(I.add.inv, dtype=np.intp)
    nu, mu, sigma, inv_nu = _family_arrays(t)
    ys = np.arange(ni)
    # Gathers go through flat tables with precomputed offsets, so each
    # (h2, h3, y1, y2, y3) array is built by contiguous adds and takes.
    nu_circ = nu[:, Ic].ravel()               # nu_c(x o z) at c*ni^2 + x*ni + z
    Ia_flat, mu_flat = Ia.ravel(), mu.ravel()
    circ_plus = Hc[:, Ha] * ni * ni           # offset of nu_{h1 o (h2 + h3)}
    sigma_plus = sigma[Ha] * ni               # offset of sigma_{h2 + h3}(.)
    # nu_{h2 + h3}^-1(mu_{h3}(y2) + y3) at [h2, h3, y1, (y2, y3)]
    inner = inv_nu[Ha[:, :, None, None], Ia[mu[:, :, None], ys]]
    inner = np.repeat(inner.reshape(nh, nh, 1, ni * ni), ni, axis=2)
    # nu_{h1 o h}(sigma_h(a) o nu_h^-1(y)) at [h1, h, y1, y], a = nu_{h1}^-1(y1)
    s_a = sigma[np.arange(nh)[:, None], inv_nu[:, None, :]]
    tail = nu_circ[(Hc[:, :, None, None] * ni + s_a[..., None]) * ni + inv_nu[:, None, :]]
    # the tail - y1 that mu acts on, as an offset into mu[m]
    tail_minus_y1 = Ia[tail, Ineg[:, None]]
    # tail at [h1, h3, y1, y2, y3], offset into the row Ia[q]
    tail_rep = np.repeat(tail, ni, axis=2).reshape(nh, nh, ni, ni, ni)
    for h1 in range(nh):
        lhs = nu_circ.take(
            np.repeat(circ_plus[h1][:, :, None] + sigma_plus[:, :, inv_nu[h1]], ni * ni)
            + inner.ravel()
        )
        m = Ha[Hneg[h1], Hc[h1]]                # -h1 + (h1 o h3), over h3
        q = mu_flat.take((m * ni)[:, None, None] + tail_minus_y1[h1][:, None])
        rhs = Ia_flat.take(np.repeat(q * ni, ni).reshape(nh, -1) + tail_rep[h1].reshape(1, -1))
        bad = lhs != rhs.ravel()
        if bad.any():
            cell = np.unravel_index(int(bad.argmax()), (nh, nh, ni, ni, ni))
            return (h1,) + tuple(int(v) for v in cell)
    return None


def _compat_on_lifts(H: SkewBrace, I: SkewBrace, nus, mus, sigmas) -> np.ndarray:
    """Whether the candidate (nus[i], mus[j], sigmas[k]) satisfies the
    compatibility equation everywhere, as a boolean array of shape
    (len(nus), len(mus), len(sigmas)).

    The equation of _compat_cube is evaluated with (h1, y1) among the
    lifts of the circle generators of H and I, (h2, y2) among the lifts of
    their additive generators and every (h3, y3): |L_o| |L_+| n cells per
    candidate.  By the module docstring that decides it whenever every
    candidate obeys the three (anti)hom laws, so that both product tables
    are groups.  When H and I are both trivial there is no lift, and every
    candidate holds.  One unit of work is a candidate and an x1 lift,
    |L_+| n cells; units are stacked in batches of at most _BATCH_CELLS
    cells."""
    nh, ni = H.n, I.n
    Ha, Hc, Hneg = H.add.np_table, H.circ.np_table, np.array(H.add.inv, dtype=np.intp)
    Ia, Ic, Ineg = I.add.np_table, I.circ.np_table, np.array(I.add.inv, dtype=np.intp)
    nu, mu, sigma = (np.array(f, dtype=np.intp).reshape(-1, nh, ni) for f in (nus, mus, sigmas))
    inv_nu = nu.argsort(axis=2)
    # x1 = (h1, y1) over the circle lifts; x2 = (h2, y2) over the additive
    # lifts and x3 = (h3, y3) over all, on axes (lift, h3, y3)
    x1_h, x1_y = _lifts(H.circ, I.circ)
    h2, y2 = (v[:, None, None] for v in _lifts(H.add, I.add))
    h3, y3 = np.arange(nh)[:, None], np.arange(ni)
    p = Ha[h2, h3]                              # h2 + h3
    # Gathers go through flat tables: a family f at (c, h, y) is
    # f_flat[(c nh + h) ni + y], and nu_{c, h}(x o z) is
    # nu_circ[((c nh + h) ni + x) ni + z].
    nu_circ = nu[:, :, Ic].ravel()
    Ia_f, mu_f, sigma_f, inv_f = (f.ravel() for f in (Ia, mu, sigma, inv_nu))
    units = (len(nu), len(mu), len(sigma), len(x1_h))
    ok = np.empty(int(np.prod(units)), dtype=bool)
    step = max(1, _BATCH_CELLS // max(1, len(h2) * nh * ni))
    for lo in range(0, len(ok), step):
        # one (candidate, x1) per row, broadcast against (lift, h3, y3);
        # i, j, k become the row offsets of the nu, mu and sigma tables
        rows = np.arange(lo, min(lo + step, len(ok)))
        i, j, k, l1 = (u[:, None, None, None] for u in np.unravel_index(rows, units))
        i, j, k, h1, y1 = i * nh, j * nh, k * nh, x1_h[l1], x1_y[l1]
        a = inv_f[(i + h1) * ni + y1]

        def tail(h, y):
            """nu_{h1 o h}(sigma_h(a) o nu_h^-1(y)), the I-part of x1 o (h, y)."""
            return nu_circ.take(((i + Hc[h1, h]) * ni + sigma_f.take((k + h) * ni + a)) * ni
                                + inv_f.take((i + h) * ni + y))

        lhs = tail(p, Ia_f.take(mu_f.take((j + h3) * ni + y2) * ni + y3))  # x1 o (x2 + x3)
        q = mu_f.take((j + Ha[Hneg[h1], Hc[h1, h3]]) * ni + Ia[tail(h2, y2), Ineg[y1]])
        ok[lo:lo + step] = (lhs == Ia_f.take(q * ni + tail(h3, y3))).reshape(len(rows), -1).all(axis=1)
    return ok.reshape(units).all(axis=-1)


def _lifts(G: FiniteGroup, K: FiniteGroup) -> tuple:
    """The lifts (s, 0), s in S(G), then (0, t), t in S(K), of the
    generating sequences of G and K, as arrays of h and of y."""
    sg, sk = G.generating_sequence(), K.generating_sequence()
    return (np.array(sg + (0,) * len(sk), dtype=np.intp),
            np.array((0,) * len(sg) + sk, dtype=np.intp))


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


def validate_split_triple(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> None:
    """Check automorphism membership, the three (anti)hom laws and the
    compatibility equation, the last on the lifts (module docstring), at
    every order.  Returns None; raises with a witness on failure."""
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
    witness = _compat_witness(H, I, t)
    if witness is not None:
        h1, h2, h3, y1, y2, y3 = witness
        raise CompatibilityFailed(
            "compatibility equation failed at "
            f"(h1,h2,h3,y1,y2,y3)=({h1},{h2},{h3},{y1},{y2},{y3})",
            h1=h1, h2=h2, h3=h3, y1=y1, y2=y2, y3=y3,
        )


def _triplet_tables(H: SkewBrace, I: SkewBrace, t: ActionTriple, beta, tau) -> tuple:
    """The (add, circ) tables the triplet (t, beta, tau) rebuilds by the
    formulas in the extensions module docstring, on pairs (h, y) -> h * |I|
    + y standing for s(h) o y, as (n, n) arrays, each gathered at once over
    (h1, y1, h2, y2)."""
    nh, ni = H.n, I.n
    Ia, Ic = I.add.np_table, I.circ.np_table
    nu, mu, sigma, inv_nu = _family_arrays(t)
    beta, tau = (np.array(c, dtype=np.intp).reshape(nh, nh) for c in (beta, tau))
    h1, y1 = np.arange(nh)[:, None, None, None], np.arange(ni)[None, :, None, None]
    h2, y2 = np.arange(nh)[None, None, :, None], np.arange(ni)[None, None, None, :]
    ha, hc = H.add.np_table[h1, h2], H.circ.np_table[h1, h2]
    add = ha * ni + inv_nu[ha, Ia[Ia[beta[h1, h2], mu[h2, nu[h1, y1]]], nu[h2, y2]]]
    circ = hc * ni + Ic[Ic[tau[h1, h2], sigma[h2, y1]], y2]
    return add.reshape(nh * ni, nh * ni), circ.reshape(nh * ni, nh * ni)


def _product_tables(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> tuple:
    """The (add, circ) tables of the split product as (n, n) arrays.

    In the product h * |I| + y stands for s(h) + y, and s(h) + y = s(h) o
    nu_h^-1(y), since nu_h(z) = -s(h) + s(h) o z.  So the product is the
    zero-cocycle rebuild (_triplet_tables) with each label h * |I| + z
    renamed to h * |I| + nu_h(z)."""
    zero = np.zeros((H.n, H.n), dtype=np.intp)
    add, circ = _triplet_tables(H, I, t, zero, zero)
    rename = (np.arange(H.n)[:, None] * I.n + np.array(t.nu, dtype=np.intp)).reshape(1, -1)
    return _relabel_stack(add, rename)[0], _relabel_stack(circ, rename)[0]


def _product_brace(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> SkewBrace:
    """The split product of a triple already decided valid, built from
    _product_tables with no further check."""
    add, circ = _product_tables(H, I, t)
    return SkewBrace(FiniteGroup(add), FiniteGroup(circ))


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
        if ext.proj[s[h]] != h:
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
    return tuple(maps[0][h] for h in range(H.n)) if maps else None
