"""General extensions of skew braces and their triplet calculus.

An extension of H by I is a brace E with an injective brace hom inj: I -> E
and a surjective brace hom proj: E -> H whose image and kernel coincide.
Every choice of set-theoretic section s (proj(s(h)) = h, s(0) = 0) yields

    nu_h(y)    = -s(h) + (s(h) o y)        in Aut(I, +)
    mu_h(y)    = -s(h) + y + s(h)          in Aut(I, +)
    sigma_h(y) = s(h)^-1 o y o s(h)        in Aut(I, o)
    beta(h1, h2) = -s(h1 + h2) + s(h1) + s(h2)
    tau(h1, h2)  = s(h1 o h2)^-1 o s(h1) o s(h2)

and conversely a triplet (chi, beta, tau) rebuilds E on pairs (h, y),
identified with s(h) o y, via

    (h1,y1) + (h2,y2) = (h1+h2, nu_{h1+h2}^-1(beta(h1,h2)
                          + mu_{h2}(nu_{h1}(y1)) + nu_{h2}(y2)))
    (h1,y1) o (h2,y2) = (h1 o h2, tau(h1,h2) o sigma_{h2}(y1) o y2)

The rebuilt tables are one gather, split._triplet_tables.  Validity of a
triplet is checked operationally: a well-shaped triplet is valid exactly
when its rebuilt tables form a brace, from which the canonical section
s(h) = (h, 0) then extracts it back (extension_from_triplet).  That is
equivalent to the cocycle and compatibility identities and sidesteps
transcribing them; the per-cell witnesses of the identities, with the
published sign variants, are test oracles in tests/test_extensions.py.

Two extensions are equivalent exactly when a section change (a twist,
twist_triplet) turns one canonical triplet into the other.  The twists of
a triplet are its class, so a class is named by its least member, the
class key (_class_key); every partition into classes and every class
lookup compares keys.  triplets_equivalent finds one twist between two
given triplets, for extensions_equivalent.

Classification searches one labelled brace per orbit of brace tables
under the 0-fixing relabellings (_brace_orbits reads the orbits off the
relabelling index built with the stack of group tables), and reads every
other copy off the orbit: a class's size is its member count on the
representative times the orbit's copy count, and its first member lies
on the representative, the copy with the least table indices
(_class_heads).  Both maps of an extension on the representative come
from the one homomorphism engine: the monomorphisms of I (_brace_monos)
and, in one search grouped by kernel, the surjective brace homs onto H
(_brace_homs_by_kernel), paired where the image is the kernel; no
quotient is built.  Only ext_classes and enumerate_all_extensions, which
return extensions on every copy, carry them there.

Pair encoding follows the split module: (h, y) -> h * |I| + y.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .braces import (
    BraceHom,
    SkewBrace,
    _brace_axiom_holds,
    brace_hom_ops,
    validate_brace,
)
from .errors import (
    InputError,
    InternalInconsistency,
    NotExact,
    TripletInvalid,
    ValidationError,
)
from .groups import (
    FiniteGroup,
    _group_table_index,
    _homomorphisms,
    _order_matched,
    automorphism_group,
    compose,
    equal_mod,
    identity_perm,
    inner_automorphism,
    inner_group,
    invert_perm,
    normal_closure,
)
from .split import ActionTriple, _check_section, _triplet_tables


class Extension:
    """A brace extension with explicit injection and projection tables.

    inj is a length-|I| tuple of E-indices, proj a length-|E| tuple of
    H-indices.  Elements of I are identified with their images.
    """

    __slots__ = ("E", "H", "I", "inj", "proj", "_inj_index")

    def __init__(self, E: SkewBrace, H: SkewBrace, I: SkewBrace, inj, proj):
        self.E = E
        self.H = H
        self.I = I
        self.inj = tuple(inj)
        self.proj = tuple(proj)
        self._inj_index = {e: y for y, e in enumerate(self.inj)}

    def into_I(self, e: int) -> int:
        """Index in I of an E-element lying in the kernel."""
        try:
            return self._inj_index[e]
        except KeyError:
            raise NotExact(f"element {e} is outside the embedded kernel", element=e)

    def fiber(self, h: int) -> tuple:
        return tuple(x for x in range(self.E.n) if self.proj[x] == h)

    def sort_key(self):
        return (self.E.add.table, self.E.circ.table, self.inj, self.proj)

    def __eq__(self, other):
        return (
            isinstance(other, Extension)
            and self.E == other.E
            and self.H == other.H
            and self.I == other.I
            and self.inj == other.inj
            and self.proj == other.proj
        )

    def __hash__(self):
        return hash((self.E, self.inj, self.proj))

    def __repr__(self):
        return f"Extension(|E|={self.E.n}, |H|={self.H.n}, |I|={self.I.n})"


def validate_extension(E: SkewBrace, H: SkewBrace, I: SkewBrace, inj, proj) -> Extension:
    """Check hom-ness and exactness; returns the Extension.  The image of
    inj is then the kernel of the brace hom proj, hence an ideal of E."""
    inj = tuple(inj)
    proj = tuple(proj)
    if len(inj) != I.n or len(proj) != E.n:
        raise InputError("inj must be indexed by I and proj by E")
    ihom = BraceHom(I, E, inj)
    if not ihom.is_valid():
        raise NotExact("inj is not a brace homomorphism")
    if not ihom.is_injective():
        raise NotExact("inj is not injective")
    phom = BraceHom(E, H, proj)
    if not phom.is_valid():
        raise NotExact("proj is not a brace homomorphism")
    if not phom.is_surjective():
        raise NotExact("proj is not surjective")
    image = frozenset(inj)
    kernel = frozenset(x for x in range(E.n) if proj[x] == 0)
    if image != kernel:
        raise NotExact(
            "image of inj differs from kernel of proj",
            image=sorted(image), kernel=sorted(kernel),
        )
    return Extension(E, H, I, inj, proj)


def canonical_section(ext: Extension) -> tuple:
    """s(h) = the least element of the fiber over h."""
    first: dict = {}
    for x, h in enumerate(ext.proj):
        first.setdefault(h, x)
    return tuple(first[h] for h in range(ext.H.n))


def extract_action(ext: Extension, s: Sequence[int]) -> ActionTriple:
    E, I = ext.E, ext.I
    Ea, Ec = E.add.table, E.circ.table
    Eneg, Ecinv = E.add.inv, E.circ.inv
    nu, mu, sigma = [], [], []
    for h in range(ext.H.n):
        sh = s[h]
        nsh, csh = Eneg[sh], Ecinv[sh]
        nu_h, mu_h, sg_h = [], [], []
        for y in range(I.n):
            e = ext.inj[y]
            nu_h.append(ext.into_I(Ea[nsh][Ec[sh][e]]))
            mu_h.append(ext.into_I(Ea[Ea[nsh][e]][sh]))
            sg_h.append(ext.into_I(Ec[Ec[csh][e]][sh]))
        nu.append(tuple(nu_h))
        mu.append(tuple(mu_h))
        sigma.append(tuple(sg_h))
    return ActionTriple(tuple(nu), tuple(mu), tuple(sigma))


def extract_cocycle(ext: Extension, s: Sequence[int]) -> tuple:
    E, H = ext.E, ext.H
    Ea, Ec = E.add.table, E.circ.table
    beta, tau = [], []
    for h1 in range(H.n):
        brow, trow = [], []
        for h2 in range(H.n):
            sa = s[H.add.table[h1][h2]]
            sc = s[H.circ.table[h1][h2]]
            brow.append(ext.into_I(Ea[E.add.inv[sa]][Ea[s[h1]][s[h2]]]))
            trow.append(ext.into_I(Ec[Ec[E.circ.inv[sc]][s[h1]]][s[h2]]))
        beta.append(tuple(brow))
        tau.append(tuple(trow))
    return tuple(beta), tuple(tau)


@dataclass(frozen=True)
class Triplet:
    """(chi, beta, tau) data of an extension relative to a section."""

    chi: ActionTriple
    beta: tuple
    tau: tuple

    def sort_key(self):
        return (self.chi.sort_key(), self.beta, self.tau)


def extract_triplet(ext: Extension, s: Optional[Sequence[int]] = None) -> Triplet:
    """The triplet read through s, the canonical section when None; a given
    s must be a section (split._check_section; InputError otherwise)."""
    if s is None:
        s = canonical_section(ext)
    else:
        _check_section(ext, s)
    beta, tau = extract_cocycle(ext, s)
    return Triplet(extract_action(ext, s), beta, tau)


def _zero_cocycle(n: int) -> tuple:
    return tuple(tuple(0 for _ in range(n)) for _ in range(n))


def zero_triplet(H: SkewBrace, I: SkewBrace) -> Triplet:
    e = identity_perm(I.n)
    fam = tuple(e for _ in range(H.n))
    return Triplet(ActionTriple(fam, fam, fam), _zero_cocycle(H.n), _zero_cocycle(H.n))


def _triplet_shape_check(H: SkewBrace, I: SkewBrace, t: Triplet) -> None:
    if len(t.chi.nu) != H.n or len(t.beta) != H.n or len(t.tau) != H.n:
        raise TripletInvalid("triplet not indexed by H")
    e = identity_perm(I.n)
    if not (t.chi.nu[0] == t.chi.mu[0] == t.chi.sigma[0] == e):
        raise TripletInvalid("chi is not normalized at 0")
    for h in range(H.n):
        for fam, name in ((t.chi.nu, "nu"), (t.chi.mu, "mu"), (t.chi.sigma, "sigma")):
            if sorted(fam[h]) != list(range(I.n)) or fam[h][0] != 0:
                raise TripletInvalid(f"{name}[{h}] is not a 0-fixing permutation", h=h)
        if t.beta[h][0] != 0 or t.beta[0][h] != 0:
            raise TripletInvalid("beta does not vanish on degenerate pairs", h=h)
        if t.tau[h][0] != 0 or t.tau[0][h] != 0:
            raise TripletInvalid("tau does not vanish on degenerate pairs", h=h)
    for c, name in ((t.beta, "beta"), (t.tau, "tau")):
        if any(len(row) != H.n or not all(0 <= x < I.n for x in row) for row in c):
            raise TripletInvalid(f"{name} is not an |H| x |H| table of elements of I")


def extension_from_triplet(H: SkewBrace, I: SkewBrace, t: Triplet) -> Extension:
    """Rebuild the extension on pairs (h, y) -> h * |I| + y.

    A well-shaped triplet is valid exactly when its rebuilt tables pass
    validate_brace; TripletInvalid otherwise.  The rest follows from the
    rebuild formulas: proj(h, y) = h is a brace hom onto H; as nu_0 = mu_0
    = sigma_0 = id and beta, tau vanish on degenerate pairs, inj(y) = (0, y)
    is an injective brace hom onto ker proj, an ideal; and with s(h) = (h,
    0), the least element of its fiber,

        (h, y) = (h, 0) + (0, nu_h(y)) = (h, 0) o (0, y),
        (0, y) + (h, 0) = (h, 0) + (0, mu_h(y)),
        (0, y) o (h, 0) = (h, 0) o (0, sigma_h(y)),
        (h1, 0) + (h2, 0) = (h1 + h2, 0) + (0, beta(h1, h2)),
        (h1, 0) o (h2, 0) = (h1 o h2, 0) o (0, tau(h1, h2)),

    so that section extracts t back.  The test oracle _round_trip_extension
    in tests/test_extensions.py checks both.
    """
    _triplet_shape_check(H, I, t)
    add, circ = _triplet_tables(H, I, [t.chi], [t.beta], [t.tau])
    try:
        E = validate_brace(add[0], circ[0])
    except ValidationError as exc:
        raise TripletInvalid(f"rebuilt tables are not a brace: {exc}", cause=str(exc))
    return Extension(E, H, I, range(I.n), [x // I.n for x in range(E.n)])


def is_valid_triplet(H: SkewBrace, I: SkewBrace, t: Triplet) -> bool:
    try:
        extension_from_triplet(H, I, t)
        return True
    except (TripletInvalid, ValidationError):
        return False


# ---------------------------------------------------------------------------
# couplings


class Coupling:
    """The coupling of an action triple chi, the one place that answers
    coupling questions: orbits[h] maps each member (nu_h, mu_h, sigma_h)
    that a twist of chi at h (_twist_at, the section change s(h) -> s(h) o y)
    gives to the y, in increasing order, that give it.  Twists compose
    pointwise in (I, o), the twist by z of the twist by y being the twist
    by y o z: lam is a hom (I, o) -> Aut(I, +), inner automorphisms compose
    as their elements do, and nu_h(-lam_y(z)) + nu_h(-y) = nu_h(-(y o z)),
    which needs every nu_h of chi in Aut(I, +), as in every lawful action.
    So witnesses reads the twists carrying another action to chi off the
    y listed under its members: their o-inverses."""

    __slots__ = ("I", "chi", "orbits", "_inverses")

    def __init__(self, I: SkewBrace, chi: ActionTriple):
        self.I = I
        self.chi = chi
        self.orbits = []
        for h in range(len(chi.nu)):
            orbit: dict = {}
            for y in range(I.n):
                orbit.setdefault(_twist_at(I, chi, h, y), []).append(y)
            self.orbits.append(orbit)
        # per h, each listed set's sorted o-inverses by its head, on first use
        self._inverses = [{} for _ in self.orbits]

    def witnesses(self, other: ActionTriple) -> Optional[tuple]:
        """Per-h witness sets Theta_h = {y : the twist of other at h by y
        gives chi's members}, each in increasing order, or None when some
        set is empty or Theta_0 misses 0."""
        if len(other.nu) != len(self.chi.nu):
            return None
        out = []
        for orbit, inverses, members in zip(self.orbits, self._inverses,
                                            zip(other.nu, other.mu, other.sigma)):
            ys = orbit.get(members)
            if ys is None:
                return None
            theta_h = inverses.get(ys[0])
            if theta_h is None:
                inv = self.I.circ.inv
                theta_h = inverses[ys[0]] = tuple(sorted(inv[y] for y in ys))
            out.append(theta_h)
        if out[0][0] != 0:
            return None
        return tuple(out)


def coupling_of(ext: Extension) -> Coupling:
    """The Coupling of an extension's canonical-section action; asserts
    section-independence by asking it about the actions of the two sections
    that shift each fiber choice forward by one and by two."""
    coup = Coupling(ext.I, extract_action(ext, canonical_section(ext)))
    fibers = [sorted(ext.fiber(h)) for h in range(ext.H.n)]
    for k in (1, 2):
        s = [0] + [fib[k % len(fib)] for fib in fibers[1:]]
        if coup.witnesses(extract_action(ext, tuple(s))) is None:
            raise ValidationError(
                "coupling varies with the section, which should be impossible",
                section=tuple(s),
            )
    return coup


def couplings_related(I: SkewBrace, chi1: ActionTriple, chi2: ActionTriple):
    """Per-h witness sets Theta_h = {y : chi2 = twist of chi1 at h by y},
    or None when some set is empty or Theta_0 misses 0: what chi2's
    Coupling says of chi1.

    The twist at y is nu lam_y, i+_{nu(-y)} mu, io_{y^-1} sigma.
    """
    return Coupling(I, chi2).witnesses(chi1)


def couplings_classwise_equal(coup: Coupling, chi1: ActionTriple, chi2: ActionTriple) -> bool:
    """Memberwise comparison modulo N (the normal closure of the lambda
    maps in Aut(I, +)), Inn(I, +) and Inn(I, o), built from coup.I: the
    coarser published quotient reading, kept as a diagnostic alongside the
    witness-based relation."""
    I = coup.I
    N = normal_closure(automorphism_group(I.add), {I.lam(y) for y in range(I.n)})
    inn_add, inn_circ = inner_group(I.add), inner_group(I.circ)
    return all(
        equal_mod(N, chi1.nu[h], chi2.nu[h])
        and equal_mod(inn_add, chi1.mu[h], chi2.mu[h])
        and equal_mod(inn_circ, chi1.sigma[h], chi2.sigma[h])
        for h in range(len(chi1.nu))
    )


def _twist_at(I: SkewBrace, chi: ActionTriple, h: int, y: int) -> tuple:
    """(nu_h, mu_h, sigma_h) of the action extracted from a section shifted
    by y at h; they depend on the shift at h alone."""
    nu_h = chi.nu[h]
    if not y:  # a twist by 0 leaves the 0-fixing members as they are
        return nu_h, chi.mu[h], chi.sigma[h]
    return (compose(nu_h, I.lam(y)),
            compose(inner_automorphism(I.add, nu_h[I.add.inv[y]]), chi.mu[h]),
            compose(inner_automorphism(I.circ, I.circ.inv[y]), chi.sigma[h]))


def twist_action(I: SkewBrace, chi: ActionTriple, theta: Sequence[int]) -> ActionTriple:
    """The action extracted from the theta-shifted section s'(h) = s(h) o theta(h)."""
    nu, mu, sigma = list(chi.nu), list(chi.mu), list(chi.sigma)
    for h, y in enumerate(theta):
        if y:
            nu[h], mu[h], sigma[h] = _twist_at(I, chi, h, y)
    return ActionTriple(tuple(nu), tuple(mu), tuple(sigma))


def twist_cocycle(
    H: SkewBrace, I: SkewBrace, t: Triplet, theta: Sequence[int]
) -> tuple:
    """(beta2, tau2) extracted from the theta-shifted section, by the
    section-change formulas:

        beta2(h1,h2) = nu_{h1+h2}(-theta(h1+h2)) + beta(h1,h2)
                       + mu_{h2}(nu_{h1}(theta(h1))) + nu_{h2}(theta(h2))
        tau2(h1,h2)  = theta(h1 o h2)^-1 o tau(h1,h2)
                       o sigma_{h2}(theta(h1)) o theta(h2)
    """
    Ia, Ic = I.add.table, I.circ.table
    nu, mu, sigma = t.chi.nu, t.chi.mu, t.chi.sigma
    beta2, tau2 = [], []
    for h1 in range(H.n):
        brow, trow = [], []
        for h2 in range(H.n):
            ha = H.add.table[h1][h2]
            hc = H.circ.table[h1][h2]
            b = Ia[nu[ha][I.add.inv[theta[ha]]]][t.beta[h1][h2]]
            b = Ia[b][mu[h2][nu[h1][theta[h1]]]]
            brow.append(Ia[b][nu[h2][theta[h2]]])
            tv = Ic[I.circ.inv[theta[hc]]][t.tau[h1][h2]]
            tv = Ic[tv][sigma[h2][theta[h1]]]
            trow.append(Ic[tv][theta[h2]])
        beta2.append(tuple(brow))
        tau2.append(tuple(trow))
    return tuple(beta2), tuple(tau2)


def twist_triplet(H: SkewBrace, I: SkewBrace, t: Triplet, theta: Sequence[int]) -> Triplet:
    beta2, tau2 = twist_cocycle(H, I, t, theta)
    return Triplet(twist_action(I, t.chi, theta), beta2, tau2)


def triplets_equivalent(
    H: SkewBrace, I: SkewBrace, t1: Triplet, t2: Triplet
) -> Optional[tuple]:
    """The lexicographically first theta with theta(0) = 0 turning t1 into
    t2, or None, for extensions_equivalent; classes compare by _class_key.

    Searches the per-h candidate sets from couplings_related, then demands
    that the twisted cocycles match t2 exactly: no sweep of all 6^7 theta
    at |H| = 8, |I| = 6."""
    cands = couplings_related(I, t1.chi, t2.chi)
    if cands is None:
        return None
    cands = ((0,),) + cands[1:]
    for theta in itertools.product(*cands):
        if twist_triplet(H, I, t1, theta) == t2:
            return theta
    return None


# ---------------------------------------------------------------------------
# enumeration


def z2_alpha(H: SkewBrace, I: SkewBrace, alpha: ActionTriple) -> list:
    """All valid triplets whose action is a twist of alpha, sorted.

    Every action related to alpha arises as a twist by some theta with
    theta(0) = 0, so candidates are twisted copies of alpha paired with all
    normalized (beta, tau) tables; validity is the operational check."""
    nh, ni = H.n, I.n
    free = nh - 1
    space = ni ** free * (ni ** (free * free)) ** 2
    budget_mod.guard(space, "z2_alpha")
    chis = {}
    for tail in itertools.product(range(ni), repeat=free):
        theta = (0,) + tail
        chis.setdefault(twist_action(I, alpha, theta), None)
    cell_values = list(itertools.product(range(ni), repeat=free * free))

    def tables(cells):
        it = iter(cells)
        rows = [tuple(0 for _ in range(nh))]
        for _ in range(free):
            rows.append((0,) + tuple(next(it) for _ in range(free)))
        return tuple(rows)

    found = []
    for chi in chis:
        for bcells in cell_values:
            beta = tables(bcells)
            for tcells in cell_values:
                t = Triplet(chi, beta, tables(tcells))
                if is_valid_triplet(H, I, t):
                    found.append(t)
    found.sort(key=Triplet.sort_key)
    return found


def _class_key(H: SkewBrace, I: SkewBrace, t: Triplet) -> Triplet:
    """The least twist of the valid triplet t in Triplet.sort_key order,
    over every theta with theta(0) = 0.

    A twist is a section change and section changes compose, so the twists
    of t are its class, and two valid triplets are equivalent exactly when
    their keys are equal.  sort_key compares chi first, so key.chi is the
    least twist of t.chi: two keys have equal chi exactly when the actions
    are related (couplings_related), and key.chi names the coupling.

    The members of a twisted chi at h depend on theta(h) alone, so the
    least chi is, for h >= 1, the least member of t.chi's twist orbit at h
    (Coupling.orbits), with the y that give it, and at h = 0, where
    theta(0) = 0, t.chi's own members.  Only the theta in the product of
    those y sets have their cocycles twisted.  The minimum over every
    twisted triplet is kept as the oracle _class_key_every_twist in
    tests/test_cohomology.py."""
    budget_mod.guard(I.n ** (H.n - 1), "class key")
    least, argmins = [(t.chi.nu[0], t.chi.mu[0], t.chi.sigma[0])], [(0,)]
    for orbit in Coupling(I, t.chi).orbits[1:]:
        least.append(min(orbit))
        argmins.append(orbit[least[-1]])
    chi = ActionTriple(*zip(*least))
    return min((Triplet(chi, *twist_cocycle(H, I, t, theta))
                for theta in itertools.product(*argmins)),
               key=Triplet.sort_key)


def _partition_triplets(H: SkewBrace, I: SkewBrace, triplets: Sequence[Triplet]) -> dict:
    """The classes of valid triplets as {class key: index list}, in order
    of first member as first fit gives them; the first-fit partition is the
    oracle _partition_first_fit in tests/test_extensions.py."""
    classes: dict = {}
    for k, t in enumerate(triplets):
        classes.setdefault(_class_key(H, I, t), []).append(k)
    return classes


def h2_alpha(H: SkewBrace, I: SkewBrace, alpha: ActionTriple) -> list:
    """Equivalence classes of z2_alpha under the theta relation, read off
    the class keys (_partition_triplets)."""
    triplets = z2_alpha(H, I, alpha)
    return [[triplets[k] for k in members]
            for members in _partition_triplets(H, I, triplets).values()]


def _brace_monos(I: SkewBrace, E: SkewBrace) -> list:
    """All injective brace homomorphisms I -> E as tuples."""
    return sorted(set(_homomorphisms(
        I.add, _order_matched([(I.add, E.add)]), brace_hom_ops(I, E), 0,
        "brace monomorphisms", injective=True,
    )))


def _brace_homs_by_kernel(E: SkewBrace, H: SkewBrace) -> dict:
    """Every surjective brace hom E -> H as a proj tuple, grouped by
    kernel: {kernel: [proj, ...]}, each list in the engine's order.

    One run of the homomorphism engine on (E, +) under brace_hom_ops(E, H):
    a hom sends a generator g to an element whose orders in (H, +) and
    (H, o) divide g's in (E, +) and (E, o), so only those images are
    tried.  The kernel of a brace hom f is an ideal: it is normal in both
    groups, and f(lam_a(k)) = -f(a) + f(a) o f(k) = -f(a) + f(a) = 0 for k
    in it.  So a map onto H with kernel K is the quotient map E -> E/K
    followed by an isomorphism E/K -> H and an automorphism of H; the
    quotient construction is the oracle _quotient_projections in
    tests/test_extensions.py."""
    orders = [(H.add.element_order(x), H.circ.element_order(x)) for x in range(H.n)]

    def candidates(g: int) -> list:
        a, c = E.add.element_order(g), E.circ.element_order(g)
        return [x for x, (ha, hc) in enumerate(orders) if a % ha == 0 and c % hc == 0]

    out: dict = {}
    for proj in _homomorphisms(E.add, candidates, brace_hom_ops(E, H), 0, "brace projections"):
        if len(set(proj)) == H.n:
            out.setdefault(frozenset(x for x, h in enumerate(proj) if h == 0), []).append(proj)
    return out


def _brace_orbits(index: tuple, group) -> list:
    """The brace tables over the group tables of `index`, split into orbits
    under relabelling, as (representative, copies).

    `index` is (stack, perms, where, home) of groups._group_table_index:
    every group table of one order with its relabelling index, and
    `group(k)` the FiniteGroup of table k, asked for only for the tables of
    representatives.  Accepted (add, circ) pairs are visited in order; the
    first pair of each orbit is its representative brace.  The images of
    both its tables under every 0-fixing permutation q are read off the
    index: table k = G_g relabelled by perms[p], (g, p) = home[k], goes to
    where[g, rank of perms[q] o perms[p]], the rank found by np.searchsorted
    on the base-n codes of perms, which increase in lex order.  copies
    holds one (perm index, add index, circ index) per labelled copy,
    indices into perms and the stack, the representative first under the
    identity; no brace is built for a copy.  The representative is the
    copy with the least (add index, circ index): its additive table is the
    first of its relabelling class, and every copy over that table is a
    pair accepted over it.  An index that does not round-trip (some
    where[home[k]] != k, or a stack position without a home) raises
    InternalInconsistency.

    The brace axiom (_brace_axiom_holds) runs only for the first additive
    table of each relabelling class: a relabelling p of a brace is a
    brace, so the pairs accepted over p(add) are the images under p of
    those accepted over add, and the orbits of the latter have already
    put them in `seen`.  Their count, the accepted count of the first
    table times the number of its distinct relabellings, is checked
    against `seen`.  The relabel-and-hash pass over every additive table
    is kept as the oracle _brace_orbits_every_table in
    tests/test_extensions.py."""
    stack, perms, where, home = index
    m, n = len(stack), stack.shape[1]
    if (len(home) != m or where.min() < 0 or where.max() >= m
            or (where[home[:, 0], home[:, 1]] != np.arange(m)).any()):
        raise InternalInconsistency(
            f"the relabelling index of the {m} group tables of order {n} does not round-trip"
        )
    weights = n ** np.arange(n - 1, -1, -1)
    codes = perms @ weights

    def images(k: int) -> list:
        g, p = home[k]
        return where[g, np.searchsorted(codes, perms[:, perms[p]] @ weights)].tolist()

    accepted = 0
    covered: set = set()
    seen: set = set()
    orbits = []
    for i in range(m):
        if i in covered:
            continue
        add_images = images(i)
        covered.update(add_images)
        ok = _brace_axiom_holds(group(i), stack)
        accepted += int(ok.sum()) * len(set(add_images))
        for j in np.flatnonzero(ok).tolist():
            if (i, j) in seen:
                continue
            copies = []
            for q, pair in enumerate(zip(add_images, images(j))):
                if pair not in seen:
                    seen.add(pair)
                    copies.append((q,) + pair)
            orbits.append((SkewBrace(group(i), group(j)), copies))
    if len(seen) != accepted:
        raise InternalInconsistency(
            f"relabelling {accepted} brace tables gave {len(seen)}"
        )
    return orbits


def _extension_orbits(H: SkewBrace, I: SkewBrace) -> tuple:
    """(carry, orbits): every extension of H by I on 0..|H||I|-1, as one
    (found, copies) per orbit of brace tables (see _brace_orbits) that
    carries any, found being the extensions on the representative.

    The stack and its relabelling index come from one call of
    groups._group_table_index.  Its tables are relabellings of groups and
    are wrapped as FiniteGroup without validate_group, each on first use;
    test_all_group_tables_are_groups in tests/test_extensions.py validates
    every one of them at each order n <= 7.

    Only the representative is searched, and only when it has a
    monomorphism from I: its extensions pair each monomorphism inj with
    every surjective brace hom onto H whose kernel is the image of inj, all
    found by one homomorphism search (_brace_homs_by_kernel), and are
    appended in monomorphism order.  carry(copy, exts) carries extensions
    on the representative to a copy: its relabelling p is a brace
    isomorphism onto the copy, so it carries each (inj, proj) to
    (p o inj, proj o p^-1).

    The extensions found are built as Extension without validate_extension:
    inj is a brace monomorphism, and proj a surjective brace homomorphism
    whose kernel, an ideal, is the image of inj.
    test_extension_orbits_are_valid in tests/test_extensions.py validates
    every projection and extension."""
    index = _group_table_index(H.n * I.n)
    stack = index[0]
    budget_mod.guard(len(stack) * len(stack), "enumerate_all_extensions")
    group = functools.cache(lambda k: FiniteGroup(stack[k]))
    perms = index[1].tolist()

    def carry(copy: tuple, exts: list) -> list:
        q, a, c = copy
        if q == 0:  # the representative, under the identity
            return exts
        p, p_inv = perms[q], invert_perm(perms[q])
        F = SkewBrace(group(a), group(c))
        return [Extension(F, H, I, tuple(p[y] for y in ext.inj),
                          tuple(ext.proj[x] for x in p_inv)) for ext in exts]

    orbits = []
    for E, copies in _brace_orbits(index, group):
        monos = _brace_monos(I, E)
        if not monos:
            continue
        projs = _brace_homs_by_kernel(E, H)
        found = [Extension(E, H, I, inj, proj)
                 for inj in monos for proj in projs.get(frozenset(inj), ())]
        if found:
            orbits.append((found, copies))
    return carry, orbits


def enumerate_all_extensions(H: SkewBrace, I: SkewBrace) -> list:
    """Every extension of H by I on the carrier 0..|H||I|-1, sorted.

    Brute force up to relabelling: all brace tables of the right order,
    all embeddings of I, and all brace homs onto H whose kernel is an
    embedding's image.  The group tables are relabellings of known groups
    and are not validated again; the brace axiom is checked against the
    stack of every circle table at once, on the cells with b in a
    generating set of (E, +) (_brace_axiom_holds), for one additive table
    per relabelling class (_brace_orbits).  The search runs on one
    representative per orbit of brace tables under the 0-fixing
    relabellings, read off the relabelling index the stack is built with,
    with one search for its projections; a relabelling is an isomorphism
    onto the copy, so it carries the representative's extensions to every
    other copy (_extension_orbits).  The per-brace loop over every labelled
    table, with projections built from quotients, is kept as the oracle
    enumerate_pairwise in tests/test_extensions.py."""
    carry, orbits = _extension_orbits(H, I)
    out = [ext for found, copies in orbits for copy in copies for ext in carry(copy, found)]
    out.sort(key=Extension.sort_key)
    return out


def _section_shift_maps(e1: Extension, s1: Sequence[int], e2: Extension, s2: Sequence[int],
                        shifts: np.ndarray) -> np.ndarray:
    """The map s1(h) o y -> s2(h) o shift(h) o y from E1 to E2, s1 and s2
    sections, for each row of shifts (maps H -> I), one row per map, as
    one gather; the Wells check's psi is its (ext, ext) case."""
    c1, c2, h = e1.E.circ, e2.E.circ.np_table, np.asarray(e1.proj)
    # y of x = s1(h) o y as an element of E1, then of I, then of E2
    into_I, inj2 = np.empty(e1.E.n, dtype=np.int64), np.asarray(e2.inj)
    into_I[list(e1.inj)] = np.arange(e1.I.n)
    y = inj2[into_I[c1.np_table[np.asarray(c1.inv)[np.asarray(s1)[h]], np.arange(e1.E.n)]]]
    return c2[c2[np.asarray(s2)[h], inj2[shifts[:, h]]], y]


def section_shift_map(e1: Extension, e2: Extension, shift: Sequence[int]) -> tuple:
    """The map s1(h) o y -> s2(h) o shift(h) o y from E1 to E2, with s1, s2
    the canonical sections and shift(h) an element of I: one row of
    _section_shift_maps."""
    rows = _section_shift_maps(e1, canonical_section(e1), e2, canonical_section(e2),
                               np.array([shift], dtype=np.int64))
    return tuple(rows[0].tolist())


def extensions_equivalent(e1: Extension, e2: Extension) -> Optional[BraceHom]:
    """An isomorphism E1 -> E2 restricting to the identity on I and
    inducing the identity on H, or None.

    Any such map sends s1(h) o y to s2(h) o theta(h) o y for a unique
    theta, and is one exactly when theta twists the triplet of E2 into
    that of E1.  triplets_equivalent finds the lexicographically first such
    theta, as the shift loop _extensions_equivalent_loop in
    tests/test_extensions.py does."""
    if e1.H != e2.H or e1.I != e2.I or e1.E.n != e2.E.n:
        return None
    theta = triplets_equivalent(e1.H, e1.I, extract_triplet(e2), extract_triplet(e1))
    if theta is None:
        return None
    return BraceHom(e1.E, e2.E, section_shift_map(e1, e2, theta))


def _classes(H: SkewBrace, I: SkewBrace) -> tuple:
    """(carry, buckets): the extension classes of H by I grouped by
    coupling, buckets = [(chi, [(head, size, members, copies), ...]), ...],
    with carry from _extension_orbits; ext_classes and _class_heads read
    their results off it.

    Within the representative's own list of each orbit of brace tables,
    _partition_triplets splits the canonical triplets of the extensions by
    class key, as in h2_alpha; members are the extensions of one class
    there.  A carried copy joins the class of its source, because the
    relabelling that carried it is itself an equivalence, so the class has
    len(members) members on each of the orbit's copies; extensions on
    non-isomorphic braces are never equivalent.  The head, the least member
    in Extension.sort_key order, lies on the copy with the least (add index,
    circ index), the group tables being in lex order; that copy is the
    representative (_brace_orbits).  Classes are ordered by their head and
    bucketed by the chi of their key, which names the coupling; each
    bucket's chi is its first head's canonical action."""
    carry, orbits = _extension_orbits(H, I)
    classes = []
    for found, copies in orbits:
        triplets = [extract_triplet(ext) for ext in found]
        for key, ks in _partition_triplets(H, I, triplets).items():
            k = min(ks, key=lambda j: found[j].sort_key())
            cls = (found[k], len(ks) * len(copies), [found[j] for j in ks], copies)
            classes.append((key.chi, triplets[k].chi, cls))
    classes.sort(key=lambda cls: cls[2][0].sort_key())
    buckets: dict = {}
    for coupling, chi, cls in classes:
        buckets.setdefault(coupling, (chi, []))[1].append(cls)
    return carry, list(buckets.values())


def _class_heads(H: SkewBrace, I: SkewBrace) -> list:
    """ext_classes with each class given as (head, size), its first
    member and its member count: [(chi, [(head, size), ...]), ...] in the
    same order.  No extension is carried to a copy."""
    _, buckets = _classes(H, I)
    return [(chi, [(head, size) for head, size, _, _ in group]) for chi, group in buckets]


def ext_classes(H: SkewBrace, I: SkewBrace) -> list:
    """Equivalence classes of all extensions, grouped by coupling.

    Returns a list of (representative chi, list of classes); each class is
    a list of Extensions.  Classes are disjoint and cover everything; they
    are ordered by their first member and their members by
    Extension.sort_key, as enumerate_all_extensions orders them.

    The classes are those of _classes, with their members carried to
    every labelled copy of their orbit and then sorted; callers that read
    only each class's first member and size use _class_heads.  The
    pairwise partition of the whole sorted list is kept as the oracle
    _ext_classes_pairwise in tests/test_extensions.py."""
    carry, buckets = _classes(H, I)
    return [
        (chi, [sorted((ext for copy in copies for ext in carry(copy, members)),
                      key=Extension.sort_key)
               for _, _, members, copies in group])
        for chi, group in buckets
    ]
