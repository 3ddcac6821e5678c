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
    invert_perm,
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


def _compat_witness(
    H: SkewBrace, I: SkewBrace, t: ActionTriple, hs: Sequence[int],
    as_written: bool = False,
):
    """First tuple violating the compatibility equation, or None.

    hs is the list of H-indices each h ranges over (all of H for a full
    sweep, a generating set for the heuristic one).

    The mu on the right-hand side carries index -h1 + (h1 o h3): that is
    what expanding the brace axiom in the product forces, since the two
    mu factors collapse along the anti-homomorphism law.  as_written=True
    instead uses -h1 + (h2 o h3), kept only as a diagnostic; it rejects
    valid data whenever mu is nontrivial.
    """
    Ha, Hc, Hneg = H.add.table, H.circ.table, H.add.inv
    Ia, Ic, Ineg = I.add.table, I.circ.table, I.add.inv
    nu, mu, sigma = t.nu, t.mu, t.sigma
    inv_nu = [invert_perm(p) for p in nu]
    ys = range(I.n)
    for h1 in hs:
        nu1i = inv_nu[h1]
        for h2 in hs:
            s2 = sigma[h2]
            nu2i = inv_nu[h2]
            h12 = Hc[h1][h2]
            nu12 = nu[h12]
            for h3 in hs:
                h23 = Ha[h2][h3]
                s23 = sigma[h23]
                nu23i = inv_nu[h23]
                nuc = nu[Hc[h1][h23]]
                mu_idx = Hc[h2][h3] if as_written else Hc[h1][h3]
                mh = mu[Ha[Hneg[h1]][mu_idx]]
                s3 = sigma[h3]
                nu3i = inv_nu[h3]
                nu13 = nu[Hc[h1][h3]]
                m3 = mu[h3]
                for y1 in ys:
                    a = nu1i[y1]
                    A = s23[a]
                    B2 = s2[a]
                    B3 = s3[a]
                    ny1 = Ineg[y1]
                    rhs_tail = [nu13[Ic[B3][nu3i[y3]]] for y3 in ys]
                    for y2 in ys:
                        q = mh[Ia[nu12[Ic[B2][nu2i[y2]]]][ny1]]
                        m3y2 = m3[y2]
                        row_q = Ia[q]
                        for y3 in ys:
                            lhs = nuc[Ic[A][nu23i[Ia[m3y2][y3]]]]
                            if lhs != row_q[rhs_tail[y3]]:
                                return (h1, h2, h3, y1, y2, y3)
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


def semidirect_product(
    H: SkewBrace, I: SkewBrace, t: ActionTriple, validate: bool = True
) -> SkewBrace:
    """The split product brace on pairs (h, y) -> h * |I| + y."""
    if validate:
        validate_split_triple(H, I, t)
    ni = I.n
    n = H.n * ni
    Ha, Hc = H.add.table, H.circ.table
    Ia, Ic = I.add.table, I.circ.table
    nu, mu, sigma = t.nu, t.mu, t.sigma
    inv_nu = [invert_perm(p) for p in nu]
    add = [[0] * n for _ in range(n)]
    circ = [[0] * n for _ in range(n)]
    for h1 in range(H.n):
        for y1 in range(ni):
            row_a = add[h1 * ni + y1]
            row_c = circ[h1 * ni + y1]
            for h2 in range(H.n):
                ha = Ha[h1][h2]
                hc = Hc[h1][h2]
                m2y1 = mu[h2][y1]
                s2 = sigma[h2][inv_nu[h1][y1]]
                nuc = nu[hc]
                for y2 in range(ni):
                    row_a[h2 * ni + y2] = ha * ni + Ia[m2y1][y2]
                    row_c[h2 * ni + y2] = hc * ni + nuc[Ic[s2][inv_nu[h2][y2]]]
    if validate:
        return validate_brace(add, circ)
    return SkewBrace(FiniteGroup(add), FiniteGroup(circ))


def enumerate_split_triples(
    H: SkewBrace,
    I: SkewBrace,
    budget: Optional[int] = None,
    max_order: int = DEFAULT_ORDER_BOUND,
) -> list:
    """All action triples passing validate_split_triple, sorted canonically."""
    aut_add = automorphism_group(I.add, max_order=max_order)
    aut_circ = automorphism_group(I.circ, max_order=max_order)
    nus = homs_to_perm_group(H.circ, aut_add)
    mu_homs = homs_to_perm_group(H.add, aut_add)
    sigma_homs = homs_to_perm_group(H.circ, aut_circ)
    mus = sorted({tuple(f[H.add.inv[h]] for h in range(H.n)) for f in mu_homs})
    sigmas = sorted({tuple(g[H.circ.inv[h]] for h in range(H.n)) for g in sigma_homs})
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
                    product = semidirect_product(H, I, t, validate=False)
                    try:
                        validate_brace(product.add.table, product.circ.table)
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
