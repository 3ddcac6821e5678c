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
Z^2 and B^2), and the C-action on classes and the derivation law are
gathers on the representatives' rows; Autb_I(E) is searched with
generator images already confined to the kernel.  The orbit-search
wells_map and the per-pair derivation loop are kept as oracles in
tests/test_wells.py.

Generating sets.  A pair (phi, theta) is one permutation of H u I, phi
on 0..|H|-1 and |H| + theta after it, so pair_mul is composition, and
StabilizerC decides closure by PermGroup.is_group on a greedy generating
set T of C, |C| |T| products; every c is a word in T.  The move
g -> theta^-1(g(phi x phi)) of cocycle pairs is additive and a right
action for pair_mul, so two checks on C need only T:
  - cosets: if each t maps the echelon rows of Z^2 into Z^2 and those of
    B^2 into B^2, so does every word in T;
  - the derivation law omega(c1 c2) = omega(c1)^c2 + omega(c2): if it
    holds on C x {w} and on C x T, then
        omega(c w t) = omega(c w)^t + omega(t) = (omega(c)^w + omega(w))^t + omega(t)
                     = omega(c)^(w t) + omega(w t),
    and induction on words gives it on C x C from w = 1, where it says
    omega(1) = 0.  The law at (1, t) implies that, as x -> x^t is a
    bijection; with T empty, C = {1} and omega(1) = 0 is the whole law.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import budget as budget_mod
from .braces import BraceHom, SkewBrace, _brace_automorphism_search, brace_automorphisms
from .cohomology import CocyclePair, CohomologyGroup, h2N, restrict_action
from .errors import (
    ActionNotTransitive,
    InputError,
    InternalInconsistency,
    NotTrivialCoefficients,
    ValidationError,
)
from .extensions import (
    Extension,
    Triplet,
    _first_witnesses,
    canonical_section,
    extract_action,
    extract_triplet,
    section_shift_map,
    twist_triplet,
    validate_extension,
)
from .groups import PermGroup, compose, equal_mod, identity_perm, inner_group, invert_perm
from .split import ActionTriple


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
    """The pairs stabilising a coupling, checked to form a group by
    PermGroup.is_group on their embeddings in H u I, whose generating set
    T it keeps as `generators` (module docstring).  The identity pair is
    checked apart: PermGroup reads an empty set as {identity}."""

    def __init__(self, H: SkewBrace, I: SkewBrace, chi: ActionTriple, pairs: Sequence[AutPair]):
        self.H, self.I, self.chi = H, I, chi
        self.pairs = tuple(sorted(pairs, key=AutPair.sort_key))
        self._members = set(self.pairs)
        nh = H.n
        grp = PermGroup(nh + I.n, [p.phi + tuple(nh + y for y in p.theta) for p in self.pairs])
        if pair_identity(H, I) not in self._members or not grp.is_group():
            raise ValidationError("stabiliser pairs do not form a group")
        self.generators = tuple(AutPair(g[:nh], tuple(y - nh for y in g[nh:]))
                                for g in grp.generators)

    @property
    def order(self) -> int:
        return len(self.pairs)

    def __contains__(self, pair: AutPair) -> bool:
        return pair in self._members

    def __iter__(self):
        return iter(self.pairs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StabilizerC(order={self.order})"


def _conjugated(fam, phi, theta, inv_theta, h: int) -> tuple:
    """theta^-1 o fam[phi(h)] o theta: the member at h of an action family
    after the pair (phi, theta) acts on it."""
    return compose(inv_theta, compose(fam[phi[h]], theta))


def stabilizer_C(H: SkewBrace, I: SkewBrace, chi: ActionTriple) -> StabilizerC:
    """All pairs satisfying the three conjugation conditions.

    nu must match exactly; mu and sigma only up to inner automorphisms of
    (I, +) and (I, o).  The conditions do not depend on which section of
    the coupling produced chi: a section change leaves nu alone and moves
    mu, sigma by inner factors.
    """
    _require_trivial_kernel(I)
    autb_H = brace_automorphisms(H).sorted_elements()
    autb_Iq = brace_automorphisms(I).sorted_elements()
    budget_mod.guard(len(autb_H) * len(autb_Iq), "stabiliser pair sweep")
    inn_add = inner_group(I.add)
    inn_circ = inner_group(I.circ)
    found = []
    for phi in autb_H:
        for theta in autb_Iq:
            inv_theta = invert_perm(theta)
            for h in range(H.n):
                if (chi.nu[h] != _conjugated(chi.nu, phi, theta, inv_theta, h)
                        or not equal_mod(inn_add, chi.mu[h],
                                         _conjugated(chi.mu, phi, theta, inv_theta, h))
                        or not equal_mod(inn_circ, chi.sigma[h],
                                         _conjugated(chi.sigma, phi, theta, inv_theta, h))):
                    break
            else:
                found.append(AutPair(tuple(phi), tuple(theta)))
    return StabilizerC(H, I, chi, found)


# --- action of C on cohomology ----------------------------------------------

def restrict_automorphism(theta: Sequence[int], elems: Sequence[int]) -> tuple:
    """Cut an automorphism of I down to annihilator coordinates."""
    index = {e: j for j, e in enumerate(elems)}
    out = []
    for e in elems:
        img = theta[e]
        if img not in index:
            raise ValidationError(
                "automorphism does not preserve the annihilator", element=e, image=img
            )
        out.append(index[img])
    return tuple(out)


def c_act_on_h2(pair: AutPair, theta_res: Sequence[int], cpair: CocyclePair) -> CocyclePair:
    """Transform a cocycle pair by g -> theta^-1 (g (phi x phi)).

    theta_res is pair.theta already cut down to the coefficient
    coordinates the tables take values in.
    """
    inv_theta = invert_perm(theta_res)
    phi = pair.phi
    return CocyclePair(*(
        tuple(tuple(inv_theta[t[pa][pb]] for pb in phi) for pa in phi)
        for t in (cpair.g, cpair.f)
    ))


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


def rho(ext: Extension) -> List[Tuple[tuple, AutPair]]:
    """Pairs (gamma, (gamma_H, gamma_I)) for every kernel-normalising gamma,
    one per element of autb_I(ext).

    gamma_I is the restriction to I in I coordinates; gamma_H the map
    induced on H through the canonical section.  gamma is a brace
    automorphism of E mapping the ideal image onto itself, so gamma_H is
    well defined (pi gamma = gamma_H pi) and both maps are brace
    automorphisms by construction; test_rho_induces_brace_automorphisms in
    tests/test_wells.py checks this on every Tier-1 Wells input.
    """
    s = canonical_section(ext)
    return [
        (gamma, AutPair(tuple(ext.proj[gamma[s[h]]] for h in range(ext.H.n)),
                        tuple(ext.into_I(gamma[ext.inj[y]]) for y in range(ext.I.n))))
        for gamma in autb_I(ext).sorted_elements()
    ]


# --- the Wells map -----------------------------------------------------------

def _acted_triplet(t: Triplet, c: AutPair) -> Triplet:
    """The canonical triplet of pair_act(ext, c), from that of ext, t.

    The acted extension keeps E and has the canonical section s o phi, so
    chi is conjugated by theta (_conjugated, as in stabilizer_C) and
    (beta, tau) move as c_act_on_h2 moves a cocycle pair, with the full
    theta."""
    inv_theta = invert_perm(c.theta)
    chi = ActionTriple(*(
        tuple(_conjugated(fam, c.phi, c.theta, inv_theta, h) for h in range(len(c.phi)))
        for fam in (t.chi.nu, t.chi.mu, t.chi.sigma)
    ))
    moved = c_act_on_h2(c, c.theta, CocyclePair(t.beta, t.tau))
    return Triplet(chi, moved.g, moved.f)


def wells_map(
    ext: Extension,
    C: StabilizerC,
    h2grp: CohomologyGroup,
    elems: Sequence[int],
) -> Dict[AutPair, int]:
    """For each c in C, the index of the unique class h_c with [E]^c = h_c.[E].

    Read off coordinates.  The triplet t_c of [E]^c is transported from
    E's triplet t_0 (_acted_triplet).  An equivalence [E]^c = h.[E] is a
    section change of E^c, i.e. a twist of t_c.  The twists bringing the
    coupling of t_c to that of t_0 exactly are one twist (the first
    witness of each couplings_related set, _first_witnesses) shifted by
    maps into Z(I) = Ann(I), and such a shift moves the cocycle by a
    coboundary.  So with t' that twist of t_c, h_c is the class of the
    difference (beta' - beta_0, tau' o tau_0^-1) in annihilator
    coordinates; when the couplings are unrelated, or the difference is
    not an annihilator-valued cocycle pair, no class reaches [E]^c and the
    transitivity hypothesis fails (for the first such c in C's order).
    The differences of all c are looked up by class together.  Freeness
    holds by construction: the cosets partition the cocycle pairs.

    No extension is acted on, rebuilt or validated; as in pair_act, a
    non-trivial kernel and a phi or theta of C that is not a brace
    automorphism are refused, each distinct map checked once.  The orbit
    search over rebuilt h.[E] is the oracle _wells_map_orbit in
    tests/test_wells.py.
    """
    H, I = ext.H, ext.I
    _require_trivial_kernel(I)
    for phi in {c.phi for c in C}:
        _check_brace_auto(H, phi, "phi")
    for theta in {c.theta for c in C}:
        _check_brace_auto(I, theta, "theta")
    Ia, Ic, neg, cinv = I.add.table, I.circ.table, I.add.inv, I.circ.inv
    # a difference value outside Ann(I) becomes -1, which no cocycle row holds
    index = {e: j for j, e in enumerate(elems)}
    t0 = extract_triplet(ext)
    pairs, rows, failure = list(C), [], None
    for c in pairs:
        tc = _acted_triplet(t0, c)
        theta = _first_witnesses(I, tc.chi, t0.chi)
        if theta is None:
            failure = ActionNotTransitive(
                "no cohomology class matches the pair-acted extension",
                pair=c.sort_key(),
            )
            break
        t1 = twist_triplet(H, I, tc, theta)
        if t1.chi != t0.chi:
            failure = InternalInconsistency(
                "twisting by coupling witnesses did not reach the extension's action"
            )
            break
        rows.append(
            [index.get(Ia[b1][neg[b0]], -1)
             for r1, r0 in zip(t1.beta, t0.beta) for b1, b0 in zip(r1, r0)]
            + [index.get(Ic[u1][cinv[u0]], -1)
               for r1, r0 in zip(t1.tau, t0.tau) for u1, u0 in zip(r1, r0)]
        )
    # the first c in C's order that fails, whichever way
    ok, classes = h2grp._classes(np.array(rows, dtype=np.int64).reshape(len(rows), 2 * H.n * H.n))
    if not ok.all():
        raise ActionNotTransitive(
            "no cohomology class matches the pair-acted extension",
            pair=pairs[int(ok.argmin())].sort_key(),
        )
    if failure is not None:
        raise failure
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
    are gathers looked up by class in one pass each.  The oracles in
    tests/test_wells.py are the per-pair loop _derivation_law_loop and
    these gathers over C x C, _derivation_law_on_every_c2.
    """
    gens = C.generators
    if not gens:  # C = {1}: the law says omega(1) = 0
        return omega[C.pairs[0]] == 0
    budget_mod.guard(C.order * len(gens), "derivation law")
    nh = h2grp.H.n
    z_rows, b_rows = h2grp._basis_rows()
    reps = h2grp._rep_rows
    # per t: the moved Z^2 basis, B^2 basis and representatives, in one block
    block = np.vstack([z_rows, b_rows, reps])
    nz, nb = len(z_rows), len(b_rows)
    cells = np.arange(nh * nh).reshape(nh, nh)
    moved = []
    for t in gens:
        inv_theta = np.array(invert_perm(restrict_automorphism(t.theta, elems)), dtype=np.int64)
        phi = np.array(t.phi)
        cols = cells[phi[:, None], phi[None, :]].ravel()
        cols = np.concatenate([cols, cols + nh * nh])  # the g cells, then the f cells
        moved.append(inv_theta[block[:, cols]])
    moved = np.concatenate(moved)
    # the checks in T's order: the first t that moves a cocycle pair out
    # of Z^2 (InputError) or a coboundary out of the zero class
    # (ValidationError), whichever comes first
    ok, idx = h2grp._classes(moved)
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

def psi_automorphism(ext: Extension, theta_I: Sequence[int]) -> tuple:
    """The map s(h) o y -> s(h) o theta(h) o y as a permutation of E."""
    return section_shift_map(ext, ext, theta_I)


def verify_exact_sequence(ext: Extension) -> dict:
    """Exhaustively verify the Wells-type exact sequence for one extension.

    Checks, in order: the annihilator of the kernel is its centre; the
    image of rho lies in the stabiliser; the derivation group maps
    bijectively and homomorphically onto the kernel of rho via psi; the
    Wells map sends the identity pair to the zero class, and the image of
    rho equals its set-theoretic kernel; and the Wells map satisfies the
    derivation law omega(c1 c2) = omega(c1)^c2 + omega(c2) for every pair,
    with the cohomology action of C well defined on classes, both decided
    on C's generating set (module docstring).
    """
    H, I = ext.H, ext.I
    _require_trivial_kernel(I)
    chi = extract_action(ext, canonical_section(ext))
    I_res, chi_res, elems = restrict_action(I, chi)
    if set(elems) != set(I.add.centre()):
        raise ValidationError("annihilator of a trivial brace must be the centre")
    h2grp = h2N(H, I_res, chi_res)
    derivations = h2grp._derivations()
    C = stabilizer_C(H, I, chi)
    pairs_of = rho(ext)
    im_rho = sorted({pair for _, pair in pairs_of}, key=AutPair.sort_key)
    for pair in im_rho:
        if pair not in C:
            raise ValidationError(
                "induced pair falls outside the stabiliser", pair=pair.sort_key()
            )
    ident = pair_identity(H, I)
    ker_rho = sorted(gamma for gamma, pair in pairs_of if pair == ident)

    # psi : derivations -> kernel of rho, bijective and operation-preserving.
    psi_images = []
    for d in derivations:
        theta_I = tuple(elems[v] for v in d.theta)
        psi_images.append(psi_automorphism(ext, theta_I))
    psi_bijective = sorted(psi_images) == list(ker_rho) and len(set(psi_images)) == len(
        psi_images
    )
    if not psi_bijective:
        raise ValidationError(
            "derivations do not biject onto the kernel of rho",
            derivations=len(derivations),
            kernel=len(ker_rho),
        )
    psi_hom = True
    Ia = I_res.add.table
    for d1, psi1 in zip(derivations, psi_images):
        for d2, psi2 in zip(derivations, psi_images):
            summed = tuple(Ia[a][b] for a, b in zip(d1.theta, d2.theta))
            theta_I = tuple(elems[v] for v in summed)
            if psi_automorphism(ext, theta_I) != compose(psi1, psi2):
                psi_hom = False
    if not psi_hom:
        raise ValidationError("psi does not convert derivation addition to composition")

    omega = wells_map(ext, C, h2grp, elems)
    if omega[ident] != 0:
        raise ValidationError("identity pair must map to the zero class")
    ker_omega = sorted((c for c, k in omega.items() if k == 0), key=AutPair.sort_key)
    exact = list(ker_omega) == list(im_rho)

    # The C-action on classes is well defined and omega is a derivation.
    derivation_law = _derivation_law(C, omega, h2grp, elems)
    if not derivation_law:
        raise ValidationError("the Wells map violates the derivation law")

    return {
        "kernel_rho_order": len(ker_rho),
        "z1_order": len(derivations),
        "im_rho_order": len(im_rho),
        "ker_omega_order": len(ker_omega),
        "c_order": C.order,
        "h2_order": h2grp.order,
        "autb_I_order": len(pairs_of),
        "exact": exact,
        "psi_bijective": psi_bijective,
        "psi_hom": psi_hom,
        "derivation_law": derivation_law,
        "omega_table": [
            {"phi": list(c.phi), "theta": list(c.theta), "class_index": omega[c]}
            for c in C
        ],
    }
