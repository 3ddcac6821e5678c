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
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .braces import BraceHom, SkewBrace, brace_hom_ops, validate_brace
from .errors import (
    CompatibilityFailed,
    InputError,
    InternalInconsistency,
    NotAntiHom,
    NotAutomorphism,
    NotHom,
    NotSplit,
    SectionNotHom,
    ValidationError,
)
from .groups import (
    DEFAULT_ORDER_BOUND,
    FiniteGroup,
    _homomorphisms,
    automorphism_group,
    compose,
    homs_to_perm_group,
    identity_perm,
    is_automorphism,
)

FULL_SWEEP_LIMIT = 64  # full (SE) sweep whenever |H| * |I| is at most this


def encode_pair(h: int, y: int, ni: int) -> int:
    return h * ni + y


def decode_pair(x: int, ni: int) -> tuple:
    return divmod(x, ni)


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


@dataclass(frozen=True)
class SweepInfo:
    full: bool
    checked: int


def _family_arrays(t: ActionTriple) -> tuple:
    """nu, mu, sigma and the inverse of each nu as (|H|, |I|) arrays."""
    nu, mu, sigma = (np.array(f, dtype=np.intp) for f in (t.nu, t.mu, t.sigma))
    return nu, mu, sigma, nu.argsort(axis=1)


def _compat_witness(
    H: SkewBrace, I: SkewBrace, t: ActionTriple, hs: Sequence[int],
    as_written: bool = False,
):
    """First tuple violating the compatibility equation, or None.

    hs is the list of H-indices each h ranges over (all of H for a full
    sweep, a generating set for the heuristic one).  With a = nu_{h1}^-1(y1),
    the equation compared at every (h1, h2, h3, y1, y2, y3) is

        nu_{h1 o (h2 + h3)}(sigma_{h2 + h3}(a) o nu_{h2 + h3}^-1(mu_{h3}(y2) + y3))
          = mu_m(nu_{h1 o h2}(sigma_{h2}(a) o nu_{h2}^-1(y2)) - y1)
            + nu_{h1 o h3}(sigma_{h3}(a) o nu_{h3}^-1(y3))

    with m = -h1 + (h1 o h3).  That mu index is what expanding the brace
    axiom in the product forces, since the two mu factors collapse along
    the anti-homomorphism law.  as_written=True instead uses
    m = -h1 + (h2 o h3), kept only as a diagnostic; it rejects valid data
    whenever mu is nontrivial.

    h1 runs through hs in order; for each, both sides are evaluated at
    all (h2, h3, y1, y2, y3) at once as a (|hs|, |hs|, |I|, |I|, |I|)
    array, so no temporary exceeds |hs|^2 |I|^3 cells.  The witness is the
    first failing cell in C order of the first failing h1: the
    lexicographically least failing tuple, with h2 and h3 ordered as in hs.
    """
    Ha, Hc, Hneg = H.add.np_table, H.circ.np_table, H.add.inv
    Ia, Ic = I.add.np_table, I.circ.np_table
    ni, Ineg = I.n, np.array(I.add.inv, dtype=np.intp)
    nu, mu, sigma, inv_nu = _family_arrays(t)
    k = np.array(hs, dtype=np.intp)
    nk = len(k)
    ys = np.arange(ni)
    # Gathers go through flat tables with precomputed offsets, so each
    # (h2, h3, y1, y2, y3) array is built by contiguous adds and takes.
    nu_circ = nu[:, Ic].ravel()               # nu_c(x o z) at c*ni^2 + x*ni + z
    Ia_flat, mu_flat = Ia.ravel(), mu.ravel()
    plus_k, circ_k = Ha[k[:, None], k], Hc[k[:, None], k]
    circ_plus = Hc[:, plus_k] * ni * ni       # offset of nu_{h1 o (h2 + h3)}
    sigma_plus = sigma[plus_k] * ni           # offset of sigma_{h2 + h3}(.)
    # nu_{h2 + h3}^-1(mu_{h3}(y2) + y3) at [h2, h3, y1, (y2, y3)]
    inner = inv_nu[plus_k[:, :, None, None], Ia[mu[k][:, :, None], ys]]
    inner = np.repeat(inner.reshape(nk, nk, 1, ni * ni), ni, axis=2)
    # nu_{h1 o h}(sigma_h(a) o nu_h^-1(y)) at [h1, h, y1, y], a = nu_{h1}^-1(y1)
    s_a = sigma[k][np.arange(nk)[:, None], inv_nu[k][:, None, :]]
    tail = nu_circ[(circ_k[:, :, None, None] * ni + s_a[..., None]) * ni
                   + inv_nu[k][:, None, :]]
    # the tail - y1 that mu acts on, as an offset into mu[m]
    tail_minus_y1 = Ia[tail, Ineg[:, None]]
    # tail at [h1, h3, y1, y2, y3], offset into the row Ia[q]
    tail_rep = np.repeat(tail, ni, axis=2).reshape(nk, nk, ni, ni, ni)
    for i, h1 in enumerate(hs):
        lhs = nu_circ.take(
            np.repeat(circ_plus[h1][:, :, None] + sigma_plus[:, :, inv_nu[h1]], ni * ni)
            + inner.ravel()
        )
        m = Ha[Hneg[h1], circ_k if as_written else circ_k[i][None, :]]
        q = mu_flat.take((m * ni)[:, :, None, None] + tail_minus_y1[i][:, None])
        rhs = Ia_flat.take(np.repeat(q * ni, ni).reshape(nk, -1) + tail_rep[i].reshape(1, -1))
        bad = lhs != rhs.ravel()
        if bad.any():
            i2, i3, y1, y2, y3 = np.unravel_index(int(bad.argmax()), (nk, nk, ni, ni, ni))
            return (h1, hs[i2], hs[i3], int(y1), int(y2), int(y3))
    return None


def _sweep_domain(H: SkewBrace, I: SkewBrace, full_sweep: Optional[bool]):
    if full_sweep is None:
        full_sweep = H.n * I.n <= FULL_SWEEP_LIMIT
    if full_sweep:
        return True, list(range(H.n))
    hs = {0}
    hs.update(H.add.generating_sequence())
    hs.update(H.circ.generating_sequence())
    hs.update(H.add.inv[h] for h in list(hs))
    return False, sorted(hs)


def check_hom_laws(H: SkewBrace, t: ActionTriple) -> None:
    """Raise unless nu is a homomorphism on (H, o), mu an anti-homomorphism
    on (H, +) and sigma an anti-homomorphism on (H, o)."""
    Ha, Hc = H.add.table, H.circ.table
    for h1 in range(H.n):
        for h2 in range(H.n):
            if t.nu[Hc[h1][h2]] != compose(t.nu[h1], t.nu[h2]):
                raise NotHom("nu is not a homomorphism on (H, o)", h1=h1, h2=h2)
            if t.mu[Ha[h1][h2]] != compose(t.mu[h2], t.mu[h1]):
                raise NotAntiHom("mu is not an anti-homomorphism on (H, +)", h1=h1, h2=h2)
            if t.sigma[Hc[h1][h2]] != compose(t.sigma[h2], t.sigma[h1]):
                raise NotAntiHom(
                    "sigma is not an anti-homomorphism on (H, o)", h1=h1, h2=h2
                )


def validate_split_triple(
    H: SkewBrace,
    I: SkewBrace,
    t: ActionTriple,
    full_sweep: Optional[bool] = None,
) -> SweepInfo:
    """Check automorphism membership, the three (anti)hom laws and the
    compatibility equation.  Raises with a witness on failure."""
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
    full, hs = _sweep_domain(H, I, full_sweep)
    witness = _compat_witness(H, I, t, hs)
    if witness is not None:
        h1, h2, h3, y1, y2, y3 = witness
        raise CompatibilityFailed(
            "compatibility equation failed at "
            f"(h1,h2,h3,y1,y2,y3)=({h1},{h2},{h3},{y1},{y2},{y3})",
            h1=h1, h2=h2, h3=h3, y1=y1, y2=y2, y3=y3,
        )
    return SweepInfo(full=full, checked=len(hs) ** 3 * I.n ** 3)


def compat_as_written_witness(
    H: SkewBrace, I: SkewBrace, t: ActionTriple, full_sweep: Optional[bool] = None
):
    """Diagnostic only: first witness against the compatibility equation
    with the right-hand mu indexed by -h1 + (h2 o h3) instead of the
    derived -h1 + (h1 o h3).  None when that variant also holds."""
    _, hs = _sweep_domain(H, I, full_sweep)
    return _compat_witness(H, I, t, hs, as_written=True)


def _product_tables(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> tuple:
    """The (add, circ) tables of the split product as (n, n) arrays, each
    gathered at once over (h1, y1, h2, y2)."""
    nh, ni = H.n, I.n
    Ha, Hc = H.add.np_table, H.circ.np_table
    Ia, Ic = I.add.np_table, I.circ.np_table
    nu, mu, sigma, inv_nu = _family_arrays(t)
    h1, y1 = np.arange(nh)[:, None, None, None], np.arange(ni)[None, :, None, None]
    h2, y2 = np.arange(nh)[None, None, :, None], np.arange(ni)[None, None, None, :]
    hc = Hc[h1, h2]
    add = Ha[h1, h2] * ni + Ia[mu[h2, y1], y2]
    circ = hc * ni + nu[hc, Ic[sigma[h2, inv_nu[h1, y1]], inv_nu[h2, y2]]]
    return add.reshape(nh * ni, nh * ni), circ.reshape(nh * ni, nh * ni)


def _validated_product(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> tuple:
    """(SweepInfo, product brace): the triple and the product brace each
    validated once, for callers that report the sweep."""
    sweep = validate_split_triple(H, I, t)
    return sweep, validate_brace(*_product_tables(H, I, t))


def semidirect_product(
    H: SkewBrace, I: SkewBrace, t: ActionTriple, validate: bool = True
) -> SkewBrace:
    """The split product brace on pairs (h, y) -> h * |I| + y."""
    if validate:
        return _validated_product(H, I, t)[1]
    add, circ = _product_tables(H, I, t)
    return SkewBrace(FiniteGroup(add), FiniteGroup(circ))


def _candidate_families(H: SkewBrace, I: SkewBrace, max_order: int = DEFAULT_ORDER_BOUND):
    """(nus, mus, sigmas): every family that obeys its own (anti)hom law;
    the candidate triples are their product."""
    aut_add = automorphism_group(I.add, max_order=max_order)
    aut_circ = automorphism_group(I.circ, max_order=max_order)
    nus = homs_to_perm_group(H.circ, aut_add)
    mu_homs = homs_to_perm_group(H.add, aut_add)
    sigma_homs = homs_to_perm_group(H.circ, aut_circ)
    mus = sorted({tuple(f[H.add.inv[h]] for h in range(H.n)) for f in mu_homs})
    sigmas = sorted({tuple(g[H.circ.inv[h]] for h in range(H.n)) for g in sigma_homs})
    return nus, mus, sigmas


def enumerate_split_triples(
    H: SkewBrace,
    I: SkewBrace,
    budget: Optional[int] = None,
    max_order: int = DEFAULT_ORDER_BOUND,
) -> list:
    """All action triples passing validate_split_triple, sorted canonically."""
    nus, mus, sigmas = _candidate_families(H, I, max_order)
    space = len(nus) * len(mus) * len(sigmas)
    budget_mod.guard(space, "enumerate_split_triples", budget)
    full, hs = _sweep_domain(H, I, None)
    found = []
    for nu in nus:
        for mu in mus:
            for sigma in sigmas:
                t = ActionTriple(nu, mu, sigma)
                compat = _compat_witness(H, I, t, hs) is None
                if full:
                    # the built product is the ground truth; the sweep must
                    # agree with it or the sweep itself is broken
                    try:
                        validate_brace(*_product_tables(H, I, t))
                        is_brace = True
                    except ValidationError:
                        is_brace = False
                    if compat != is_brace:
                        raise InternalInconsistency(
                            "compatibility sweep disagrees with product "
                            f"validation for nu={nu} mu={mu} sigma={sigma}"
                        )
                if compat:
                    found.append(t)
    found.sort(key=ActionTriple.sort_key)
    return found


def split_decompose(ext, section: Optional[Sequence[int]] = None):
    """Decompose a split extension: (ActionTriple, BraceHom iso onto the
    rebuilt product).  With section=None, searches for a brace-hom section
    and raises NotSplit when none exists."""
    from . import extensions as ext_mod

    E, H, I = ext.E, ext.H, ext.I
    if section is None:
        section = _find_hom_section(ext)
        if section is None:
            raise NotSplit("no section of the projection is a brace homomorphism")
    s = tuple(section)
    _check_section(ext, s)
    for h1 in range(H.n):
        for h2 in range(H.n):
            if s[H.add.table[h1][h2]] != E.add.table[s[h1]][s[h2]]:
                raise SectionNotHom("section breaks +", h1=h1, h2=h2)
            if s[H.circ.table[h1][h2]] != E.circ.table[s[h1]][s[h2]]:
                raise SectionNotHom("section breaks o", h1=h1, h2=h2)
    t = ext_mod.extract_action(ext, s)
    validate_split_triple(H, I, t)
    product = semidirect_product(H, I, t, validate=False)
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

    maps = _homomorphisms(H.add, candidates, brace_hom_ops(H, E), 0, first_only=True)
    return tuple(maps[0][h] for h in range(H.n)) if maps else None
