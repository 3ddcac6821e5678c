"""Automorphism pairs acting on extensions and the Wells-type sequence.

Throughout, the kernel brace I is trivial (a + b = a o b), so the nu family
extracted from an extension is independent of the section, the coefficient
group for cohomology is the centre Z(I) = Ann(I), and the outer classes of
mu and sigma are section-independent.

A pair (phi, theta) of brace automorphisms of H and I turns an extension
E with maps (i, pi) into one with maps (i theta, phi^-1 pi); this is a
right action on equivalence classes.  The stabiliser C of a coupling
consists of the pairs with

    nu_h = theta^-1 nu_{phi(h)} theta          (exactly)
    mu_h = theta^-1 mu_{phi(h)} theta          (modulo inner +-automorphisms)
    sigma_h = theta^-1 sigma_{phi(h)} theta    (modulo inner o-automorphisms)

C also acts on cohomology classes by g -> theta^-1(g(phi x phi)).  For a
fixed extension E, the Wells map sends c in C to the unique cohomology
class h_c with [E]^c = h_c . [E]; it is a derivation for that action, and
the sequence

    0 -> Z1(H, Z(I)) -> Autb_I(E) --rho--> C --omega--> H2(H, Z(I))

is exact: the kernel of rho is the image of the derivation group under
psi(theta)(s(h) o y) = s(h) o theta(h) o y, and the image of rho is the
set-theoretic kernel of omega.

The check runs in factor-set coordinates.  omega(c) is read off the
triplet of [E]^c, transported from that of E, after a section change (see
wells_map), so neither [E]^c nor any shifted extension h.[E] is built;
classes are read off coordinates (CohomologyGroup keeps echelon bases of
Z^2, B^2 and Z^1, the last two from one echelon of the coboundary
matrix), and the C-action on classes and the derivation law are gathers
on the representatives' rows; Autb_I(E) is searched with generator images
already confined to the kernel.  The canonical section, and the triplet
and action of E read through it, are extracted once per check, and the
H^2 of the restricted action is read through budget.shared, built once
per command and coupling.  The orbit-search wells_map and the per-pair
derivation loop are kept as oracles in tests/test_wells.py.

Computed once.  A pair acts on the families by conjugation, so the
stabiliser sweep conjugates every member of nu, mu, sigma once per theta
and reads the member of a pair (phi, theta) at h off the conjugate of
the member at phi(h).  Two automorphisms p, q of (I, +) agree modulo
Inn(I, +) exactly when q lies in the coset Inn(I, +) p, so mu is tested
by one lookup in the coset of mu_h, built once per h, and sigma likewise
with Inn(I, o).  The conjugated action chi^c of every accepted pair stays
on StabilizerC (acted), with the twist that brings it back to chi
(twists), where wells_map reads both, so only (beta, tau) move, by all
of C in one gather (_transport, as the derivation law's rows move).
psi is the (ext, ext) case of extensions._section_shift_maps, one
gather for all of Z^1.
Every cut of permutations to a sub-carrier is cohomology._restrict.

Generating sets.  A pair (phi, theta) is one permutation of H u I, phi
on 0..|H|-1 and |H| + theta after it, so pair_mul is composition, and
StabilizerC decides closure by PermGroup.is_group on a greedy generating
set T of C, |C| |T| products; every c is a word in T.  So the maps are
decided on T: if the phi and theta of each t are brace automorphisms, so
are those of every word in T, as brace automorphisms compose.  The move
g -> theta^-1(g(phi x phi)) of cocycle pairs is additive and a right
action for pair_mul, so two more checks on C need only T:
  - cosets: if each t maps the echelon rows of Z^2 into Z^2 and those of
    B^2 into B^2, so does every word in T;
  - the derivation law omega(c1 c2) = omega(c1)^c2 + omega(c2): if it
    holds on C x {w} and on C x T, then
        omega(c w t) = omega(c w)^t + omega(t) = (omega(c)^w + omega(w))^t + omega(t)
                     = omega(c)^(w t) + omega(w t),
    and induction on words gives it on C x C from w = 1, where it says
    omega(1) = 0.  The law at (1, t) implies that, as x -> x^t is a
    bijection; with T empty, C = {1} and omega(1) = 0 is the whole law.
The same induction serves psi: Z^1 is generated by the echelon rows T of
its coordinates, and once every psi(d) is a bijection, psi(d + t) =
psi(d) psi(t) on Z^1 x T gives psi(0) = 1 at d = 0 and then
psi(a + t_1 + ... + t_k) = psi(a) psi(t_1) ... psi(t_k) = psi(a) psi(b)
for b = t_1 + ... + t_k, so |Z^1| |T| section maps decide the law on
Z^1 x Z^1 (_psi_law).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import budget as budget_mod
from . import cohomology
from .braces import BraceHom, SkewBrace, _brace_automorphism_search, brace_automorphisms
from .cohomology import (CocyclePair, CohomologyGroup, _carrier_index, _check_members,
                         _restrict, restrict_action)
from .errors import (
    ActionNotTransitive,
    InputError,
    NotTrivialCoefficients,
    ValidationError,
)
from .extensions import (
    Coupling,
    Extension,
    Triplet,
    _section_shift_maps,
    canonical_section,
    extract_triplet,
    twist_cocycle,
    validate_extension,
)
from .groups import PermGroup, compose, identity_perm, invert_perm
from .split import ActionTriple, _check_section


def _require_trivial_kernel(I: SkewBrace) -> None:
    if not I.is_trivial:
        raise NotTrivialCoefficients("the kernel brace must be trivial (a + b = a o b)")


# --- automorphism pairs ------------------------------------------------------

@dataclass(frozen=True)
class AutPair:
    """A brace automorphism of H paired with one of I."""

    phi: tuple
    theta: tuple

    def sort_key(self) -> tuple:
        return (self.phi, self.theta)


def pair_identity(H: SkewBrace, I: SkewBrace) -> AutPair:
    return AutPair(identity_perm(H.n), identity_perm(I.n))


def pair_mul(p: AutPair, q: AutPair) -> AutPair:
    """Componentwise composition; the extension action is a right action
    for this product: E^(p q) = (E^p)^q on the nose."""
    return AutPair(compose(p.phi, q.phi), compose(p.theta, q.theta))


def _check_brace_auto(B: SkewBrace, p: Sequence[int], what: str) -> None:
    hom = BraceHom(B, B, tuple(p))
    if not (hom.is_valid() and hom.is_injective()):
        raise InputError(f"{what} is not a brace automorphism")


def pair_act(ext: Extension, pair: AutPair) -> Extension:
    """The extension with injection i o theta and projection phi^-1 o pi."""
    _require_trivial_kernel(ext.I)
    _check_brace_auto(ext.H, pair.phi, "phi")
    _check_brace_auto(ext.I, pair.theta, "theta")
    inj = tuple(ext.inj[pair.theta[y]] for y in range(ext.I.n))
    inv_phi = invert_perm(pair.phi)
    proj = tuple(inv_phi[ext.proj[x]] for x in range(ext.E.n))
    return validate_extension(ext.E, ext.H, ext.I, inj, proj)


# --- the stabiliser of a coupling -------------------------------------------

class StabilizerC:
    """The pairs stabilising a coupling, the one owner of C.  Built, it
    decides that they form a group, by PermGroup.is_group on their
    embeddings in H u I (the identity pair apart: PermGroup reads an empty
    set as {identity}), keeping its generating set T as `generators`; that
    each phi and theta is a brace automorphism, on T alone (module
    docstring; InputError otherwise, as pair_act); and, in `twists`, the
    least y of each witness set chi's one Coupling gives for each pair's
    acted action (`acted`, as stabilizer_C's sweep formed it): a theta
    with theta(0) = 0 twisting it to chi, or None where none does.  Both
    follow the order of `pairs`."""

    def __init__(self, H: SkewBrace, I: SkewBrace, chi: ActionTriple, pairs: Sequence[AutPair],
                 acted: Sequence[ActionTriple]):
        self.H, self.I, self.chi = H, I, chi
        order = sorted(range(len(pairs)), key=lambda k: pairs[k].sort_key())
        self.pairs = tuple(pairs[k] for k in order)
        self.acted = tuple(acted[k] for k in order)
        self._members = set(self.pairs)
        nh = H.n
        grp = PermGroup(nh + I.n, [p.phi + tuple(nh + y for y in p.theta) for p in self.pairs])
        if pair_identity(H, I) not in self._members or not grp.is_group():
            raise ValidationError("stabiliser pairs do not form a group")
        self.generators = tuple(AutPair(g[:nh], tuple(y - nh for y in g[nh:]))
                                for g in grp.generators)
        for t in self.generators:
            _check_brace_auto(H, t.phi, "phi")
            _check_brace_auto(I, t.theta, "theta")
        coupling = Coupling(I, chi)
        self.twists = tuple(None if sets is None else tuple(ys[0] for ys in sets)
                            for sets in map(coupling.witnesses, self.acted))

    @property
    def order(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: AutPair) -> bool:
        return pair in self._members

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StabilizerC(order={self.order})"


def _conjugates(chi: ActionTriple, theta: Sequence[int]) -> tuple:
    """theta^-1 o m o theta for every member m of nu, mu and sigma."""
    inv = invert_perm(theta)
    return tuple([tuple([inv[m[x]] for x in theta]) for m in fam]
                 for fam in (chi.nu, chi.mu, chi.sigma))


def _acted_action(conjugates: tuple, phi: Sequence[int]) -> ActionTriple:
    """chi^c for c = (phi, theta), from the _conjugates of chi by theta:
    the member at h of each family is theta^-1 o fam[phi(h)] o theta, the
    action after the pair acts on it."""
    return ActionTriple(*(tuple([conj[k] for k in phi]) for conj in conjugates))


def stabilizer_C(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> StabilizerC:
    """All pairs satisfying the three conjugation conditions.

    nu must match exactly; mu and sigma only up to inner automorphisms of
    (I, +) and (I, o).  The conditions do not depend on which section of
    the coupling produced chi: a section change leaves nu alone and moves
    mu, sigma by inner factors.  chi must be indexed by H, with every
    member a permutation of I (InputError otherwise).

    Each member is conjugated once per theta, and mu and sigma are tested
    by lookup in the cosets Inn(I, +) mu_h and Inn(I, o) sigma_h, built once
    per h (module docstring, "Computed once"); StabilizerC takes the
    conjugated action of every accepted pair.  The equal_mod sweep is the
    oracle _stabilizer_C_equal_mod in tests/test_wells.py.
    """
    _require_trivial_kernel(I)
    if len(chi.nu) != H.n:
        raise InputError(f"triple indexed by {len(chi.nu)} elements, |H| = {H.n}")
    _check_members(I, chi)
    autb_H = brace_automorphisms(H).sorted_elements()
    autb_Iq = brace_automorphisms(I).sorted_elements()
    budget_mod.guard(len(autb_H) * len(autb_Iq), "stabiliser pair sweep")
    add_cosets = [{compose(g, m) for g in I.add.inner} for m in chi.mu]
    circ_cosets = [{compose(g, m) for g in I.circ.inner} for m in chi.sigma]
    checks = list(zip(range(H.n), chi.nu, add_cosets, circ_cosets))
    found, acted = [], []
    for theta in autb_Iq:
        conj = nu, mu, sigma = _conjugates(chi, theta)
        for phi in autb_H:
            if all(nu[phi[h]] == nu_h and mu[phi[h]] in add_h and sigma[phi[h]] in circ_h
                   for h, nu_h, add_h, circ_h in checks):
                found.append(AutPair(tuple(phi), tuple(theta)))
                acted.append(_acted_action(conj, phi))
    return StabilizerC(H, I, chi, found, acted)


# --- action of C on cohomology ----------------------------------------------

def _transport(rows: np.ndarray, phis: np.ndarray, thetas: np.ndarray) -> np.ndarray:
    """c_act_on_h2 for every pair (phi, theta) of the stacks at once, on rows
    of g cells, then f cells, row-major: an array (pairs, rows, cells)."""
    k, nh = phis.shape
    pick = np.arange(k)[:, None]
    inv = np.empty_like(thetas)
    inv[pick, thetas] = np.arange(thetas.shape[1])
    cells = (phis[:, :, None] * nh + phis[:, None, :]).reshape(k, nh * nh)
    cols = np.concatenate([cells, cells + nh * nh], axis=1)
    return inv[pick[:, :, None], rows[:, cols].transpose(1, 0, 2)]


def c_act_on_h2(pair: AutPair, theta_res: Sequence[int], cpair: CocyclePair) -> CocyclePair:
    """Transform a cocycle pair by g -> theta^-1 (g (phi x phi)): _transport
    on one pair and one row.

    theta_res is pair.theta already cut down to the coefficients 0..k-1
    the tables take values in.  InputError unless phi permutes H = 0..|H|-1,
    theta_res 0..k-1, and cpair is |H| x |H| with values in 0..k-1.
    """
    nh, k = len(pair.phi), len(theta_res)
    if sorted(pair.phi) != list(range(nh)):
        raise InputError("phi is not a permutation of H")
    if sorted(theta_res) != list(range(k)):
        raise InputError("theta_res is not a permutation of the coefficients")
    try:
        row = np.array([cpair.g, cpair.f], dtype=np.int64)
    except (TypeError, ValueError):
        row = None
    if row is None or row.shape != (2, nh, nh) or not ((0 <= row) & (row < k)).all():
        raise InputError("pair is not an |H| x |H| pair with values in the coefficients")
    moved = _transport(row.reshape(1, -1), np.array([pair.phi], dtype=np.int64),
                       np.array([theta_res], dtype=np.int64))
    return CocyclePair(*(tuple(map(tuple, t)) for t in moved.reshape(2, nh, nh).tolist()))


# --- automorphisms of the extension ------------------------------------------

def autb_I(ext: Extension) -> PermGroup:
    """Brace automorphisms of E mapping the kernel image into itself.

    Such a map sends a generator into the image exactly when the generator
    lies in it, so the search admits only those images; the kernel filter
    afterwards checks the result.  The maps form a group by construction;
    test_autb_I_search_matches_closure_oracle in tests/test_wells.py checks
    closure on every wells-sweep and split Z2-by-Q8 extension."""
    img = set(ext.inj)
    found = _brace_automorphism_search(ext.E, lambda g, x: (x in img) == (g in img))
    return PermGroup(ext.E.n, [g for g in sorted(found) if all(g[x] in img for x in img)])


def rho(ext: Extension, s: Sequence[int]) -> Tuple[List[AutPair], List[tuple], int]:
    """(im_rho, ker_rho, |Autb_I(E)|): the distinct pairs (gamma_H, gamma_I)
    induced by the kernel-normalising gamma of autb_I(ext), sorted, the
    gamma that induce the identity pair, sorted, and how many gamma there
    are.

    gamma_I is the restriction to I in I coordinates; gamma_H the map
    induced on H through the canonical section s.  gamma is a brace
    automorphism of E mapping the ideal image onto itself, so gamma_H is
    well defined (pi gamma = gamma_H pi) and both maps are brace
    automorphisms by construction; test_rho_induces_brace_automorphisms in
    tests/test_wells.py checks this on every Tier-1 Wells input.  Both
    maps are gathers on the sorted automorphisms, one induced row per
    gamma; the rows are lex-sorted once, and a pair is built only where a
    row differs from the one before (oracle: _rho_loop).  s must be a
    section (split._check_section; InputError otherwise).
    """
    _check_section(ext, s)
    found = autb_I(ext).sorted_elements()
    G = np.array(found, dtype=np.int64)
    # autb_I keeps only the maps sending the image of I into itself
    rows = np.hstack([np.asarray(ext.proj)[G[:, list(s)]],
                      _restrict(G, ext.inj, _carrier_index(ext.inj, ext.E.n))[0]])
    del G  # 8 bytes a cell; freed before the rows are sorted
    nh, ni = ext.H.n, ext.I.n
    ident = np.concatenate([np.arange(nh), np.arange(ni)])
    ker = [found[k] for k in np.flatnonzero((rows == ident).all(axis=1)).tolist()]
    rows = rows[np.lexsort(rows.T[::-1])]
    head = np.ones(len(rows), dtype=bool)
    head[1:] = (rows[1:] != rows[:-1]).any(axis=1)
    im = [AutPair(tuple(r[:nh]), tuple(r[nh:])) for r in rows[head].tolist()]
    return im, ker, len(found)


# --- the Wells map -----------------------------------------------------------

def wells_map(
    ext: Extension,
    C: StabilizerC,
    h2grp: CohomologyGroup,
    elems: Sequence[int],
    t0: Triplet,
) -> Dict[AutPair, int]:
    """For each c in C, the index of the unique class h_c with [E]^c = h_c.[E].

    Read off coordinates.  The triplet t_c of [E]^c is transported from
    E's canonical triplet t_0: [E]^c keeps E and has the canonical section
    s o phi, so its action is the conjugate C keeps for c, and (beta, tau)
    move as c_act_on_h2 moves a cocycle pair, with the full theta, for
    every c in one _transport.  Those conjugates are of C.chi, so C must
    be the stabiliser of t_0's action itself (InputError otherwise): a C
    built from another section's action has the same pairs but other
    conjugates.  An equivalence [E]^c = h.[E] is a section change of
    E^c, i.e. a twist of t_c.  The twists bringing the coupling of t_c
    to that of t_0 exactly are one twist shifted by maps into
    Z(I) = Ann(I), and such a shift moves the cocycle by a coboundary.
    C keeps that one twist for c (StabilizerC.twists), and only the
    cocycle of t_c twisted by it, t', is computed.  So h_c is the class of
    (beta' - beta_0, tau' o tau_0^-1) in annihilator coordinates; the
    differences of all c are gathered and looked up together.  Where c has
    no twist (its row masked out) or its difference is no annihilator-valued
    cocycle pair, no class reaches [E]^c: the transitivity hypothesis fails,
    raised for the first such c in C's order.  Freeness holds by
    construction: the cosets partition the cocycle pairs.

    No extension is acted on, rebuilt or validated, and nothing C decided
    is decided again; a non-trivial kernel is refused, as in pair_act.  The
    orbit search over rebuilt h.[E] is the oracle _wells_map_orbit in
    tests/test_wells.py.
    """
    H, I = ext.H, ext.I
    _require_trivial_kernel(I)
    if C.chi != t0.chi:
        raise InputError("the stabiliser was built from another action than the triplet's")
    pairs, nh = C.pairs, H.n
    moved = _transport(np.array([t0.beta, t0.tau], dtype=np.int64).reshape(1, -1),
                       np.array([c.phi for c in pairs], dtype=np.int64),
                       np.array([c.theta for c in pairs], dtype=np.int64))
    # a twist by 0 leaves the cocycle as it is
    twisted = [(beta, tau) if y is None else twist_cocycle(H, I, Triplet(chi_c, beta, tau), y)
               for chi_c, y, (beta, tau) in zip(C.acted, C.twists,
                                                moved.reshape(len(pairs), 2, nh, nh).tolist())]
    # a difference value outside Ann(I) becomes -1, which no cocycle row holds
    t1 = np.array(twisted, dtype=np.int64).reshape(len(pairs), 2, nh, nh)
    diff = np.stack([I.add.np_table[t1[:, 0], np.asarray(I.add.inv)[np.array(t0.beta)]],
                     I.circ.np_table[t1[:, 1], np.asarray(I.circ.inv)[np.array(t0.tau)]]], axis=1)
    rows = _carrier_index(elems, I.n)[diff].reshape(len(pairs), 2 * nh * nh)
    ok, classes = h2grp._classes(rows)
    ok &= np.array([y is not None for y in C.twists])
    if not ok.all():
        raise ActionNotTransitive(
            "no cohomology class matches the pair-acted extension",
            pair=pairs[int(ok.argmin())].sort_key(),
        )
    return dict(zip(pairs, classes.tolist()))


def _derivation_law(
    C: StabilizerC,
    omega: Dict[AutPair, int],
    h2grp: CohomologyGroup,
    elems: Sequence[int],
) -> bool:
    """Whether omega(c1 c2) = omega(c1)^c2 + omega(c2) for all c1, c2,
    decided on C x T, T the generating set of C (module docstring).

    Checks on the way that each c moves every cocycle pair to a cocycle
    pair (InputError otherwise, as class_of) and that the moved class
    depends only on the class moved (ValidationError otherwise), on the
    echelon rows of Z^2 and B^2 moved by each t.  Those moves, the
    representatives' and the |C| |T| class sums, charged to the budget,
    are gathers looked up by class in one pass each.  Each theta of T is
    cut to Ann(I) unchecked: it is an automorphism of the trivial I
    (StabilizerC), so it keeps the centre, Ann(I).  The oracles in
    tests/test_wells.py are the per-pair loop _derivation_law_loop and
    these gathers over C x C, _derivation_law_on_every_c2.
    """
    gens = C.generators
    if not gens:  # C = {1}: the law says omega(1) = 0
        return omega[C.pairs[0]] == 0
    budget_mod.guard(C.order * len(gens), "derivation law")
    z_rows, b_rows = h2grp._basis_rows()
    reps = h2grp._rep_rows
    # per t: the moved Z^2 basis, B^2 basis and representatives, in one block
    block = np.vstack([z_rows, b_rows, reps])
    nz, nb = len(z_rows), len(b_rows)
    thetas = _restrict(np.array([t.theta for t in gens], dtype=np.int64), elems,
                       _carrier_index(elems, C.I.n))[0]
    moved = _transport(block, np.array([t.phi for t in gens], dtype=np.int64), thetas)
    # the checks in T's order: the first t that moves a cocycle pair out
    # of Z^2 (InputError) or a coboundary out of the zero class
    # (ValidationError), whichever comes first
    ok, idx = h2grp._classes(moved.reshape(-1, block.shape[1]))
    ok = ok.reshape(len(gens), len(block)).all(axis=1)
    first = int(ok.argmin()) if not ok.all() else len(gens)
    idx = idx[:first * len(block)].reshape(first, len(block))
    if idx[:, nz:nz + nb].any():
        raise ValidationError("cohomology action of C is not constant on cosets")
    if first < len(gens):
        raise InputError("pair is not a cocycle pair for this action")
    acted = idx[:, nz + nb:]
    om = np.array([omega[c] for c in C], dtype=np.int64)
    lhs = [omega[pair_mul(c, t)] for t in gens for c in C]
    t_add = h2grp.I.add.np_table
    left = acted[:, om].ravel()
    right = np.repeat([omega[t] for t in gens], len(om))
    rhs = h2grp._class_indices(t_add[reps[left], reps[right]])
    return lhs == rhs.tolist()


# --- the exact sequence -------------------------------------------------------

def _psi_law(ext: Extension, s: Sequence[int], elems: np.ndarray, add: np.ndarray,
             z1: np.ndarray, gens: np.ndarray, psi: np.ndarray) -> bool:
    """Whether psi(d + t) = psi(d) psi(t) for every d in Z^1 (rows z1 in
    annihilator coordinates, added by the table add, with maps psi) and t
    in the generating set T (rows gens): |Z^1| |T| section maps.

    That decides the law on Z^1 x Z^1 once every psi(d) is a bijection
    (verify_exact_sequence checks that first).  At (0, t) it gives
    psi(t) = psi(0) psi(t), so psi(0) = 1; every b in Z^1 is a sum
    t_1 + ... + t_k of members of T, and by induction on k
        psi(a + b) = psi(a) psi(t_1) ... psi(t_k) = psi(a) psi(b).
    With T empty, Z^1 = {0} and the law says psi(0) psi(0) = psi(0).  The
    loop over Z^1 x Z^1 is the oracle _psi_law_loop in tests/test_wells.py.
    """
    if not len(gens):
        return bool((psi[0][psi[0]] == psi[0]).all())
    at = {row: k for k, row in enumerate(map(tuple, z1.tolist()))}
    psi_t = psi[[at[t] for t in map(tuple, gens.tolist())]]
    sums = add[z1[:, None, :], gens[None, :, :]].reshape(-1, z1.shape[1])
    lhs = _section_shift_maps(ext, s, ext, s, elems[sums]).reshape(len(z1), len(gens), -1)
    # psi(d) psi(t) at x is psi(d) at psi(t)(x)
    return bool((lhs == psi[:, psi_t]).all())


def verify_exact_sequence(ext: Extension) -> dict:
    """Exhaustively verify the Wells-type exact sequence for one extension.

    The canonical section s and the canonical triplet of E, with its
    action, are extracted once and shared by rho, psi and wells_map.
    The H^2 of the restricted action is read through budget.shared, so
    the checks of one command on the same coupling, as in selftest,
    build it once.
    Checks, in order: the annihilator of the kernel is its centre; the
    image of rho lies in the stabiliser; the derivation group maps
    bijectively onto the kernel of rho via psi, and homomorphically, the
    law decided on Z^1 x T for a generating set T of Z^1 (_psi_law); the
    Wells map sends the identity pair to the zero class, and the image of
    rho equals its set-theoretic kernel; and the Wells map satisfies the
    derivation law omega(c1 c2) = omega(c1)^c2 + omega(c2) for every pair,
    with the cohomology action of C well defined on classes, both decided
    on C's generating set (module docstring).
    """
    H, I = ext.H, ext.I
    _require_trivial_kernel(I)
    s = canonical_section(ext)
    t0 = extract_triplet(ext, s)
    I_res, chi_res, elems = restrict_action(I, t0.chi)
    if set(elems) != set(I.add.centre()):
        raise ValidationError("annihilator of a trivial brace must be the centre")
    # cohomology's binding of h2N, so every caller shares one key
    h2grp = budget_mod.shared(cohomology.h2N, H, I_res, chi_res)
    z1, gens = h2grp._derivation_rows()
    C = stabilizer_C(H, I, t0.chi)
    im_rho, ker_rho, autb_order = rho(ext, s)
    for pair in im_rho:
        if pair not in C:
            raise ValidationError(
                "induced pair falls outside the stabiliser", pair=pair.sort_key()
            )

    # psi : derivations -> kernel of rho, bijective and operation-preserving.
    el = np.asarray(elems, dtype=np.int64)
    psi = _section_shift_maps(ext, s, ext, s, el[z1])
    psi_images = list(map(tuple, psi.tolist()))
    psi_bijective = sorted(psi_images) == ker_rho and len(set(psi_images)) == len(psi_images)
    if not psi_bijective:
        raise ValidationError(
            "derivations do not biject onto the kernel of rho",
            derivations=len(z1),
            kernel=len(ker_rho),
        )
    psi_hom = _psi_law(ext, s, el, I_res.add.np_table, z1, gens, psi)
    if not psi_hom:
        raise ValidationError("psi does not convert derivation addition to composition")

    omega = wells_map(ext, C, h2grp, elems, t0)
    if omega[pair_identity(H, I)] != 0:
        raise ValidationError("identity pair must map to the zero class")
    ker_omega = sorted((c for c, k in omega.items() if k == 0), key=AutPair.sort_key)
    exact = ker_omega == im_rho

    # The C-action on classes is well defined and omega is a derivation.
    derivation_law = _derivation_law(C, omega, h2grp, elems)
    if not derivation_law:
        raise ValidationError("the Wells map violates the derivation law")

    return {
        "kernel_rho_order": len(ker_rho),
        "z1_order": len(z1),
        "im_rho_order": len(im_rho),
        "ker_omega_order": len(ker_omega),
        "c_order": C.order,
        "h2_order": h2grp.order,
        "autb_I_order": autb_order,
        "exact": exact,
        "psi_bijective": psi_bijective,
        "psi_hom": psi_hom,
        "derivation_law": derivation_law,
        "omega_table": [
            {"phi": list(c.phi), "theta": list(c.theta), "class_index": omega[c]}
            for c in C
        ],
    }
