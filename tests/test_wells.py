"""The automorphism exact sequence: the compatible-pair action, the
stabilizer, the restriction map rho, the obstruction map omega with its
derivation law, and full exactness reports on fixed extensions."""

import itertools
import random
from collections import Counter

import numpy as np
import pytest

from braceforge import braces, budget, cohomology, extensions, groups, wells
from braceforge.braces import SkewBrace, annihilator, brace_automorphisms, trivial_brace
from braceforge.cohomology import (
    CocyclePair,
    embed_pair,
    h2N,
    h2_act,
    pair_add,
    restrict_action,
)
from braceforge.errors import (
    ActionNotTransitive,
    BraceforgeError,
    InputError,
    NotTrivialCoefficients,
    SearchBudgetExceeded,
    ValidationError,
)
from braceforge.extensions import (
    ActionTriple,
    Triplet,
    canonical_section,
    extension_from_triplet,
    extract_action,
    extract_triplet,
    section_shift_map,
    twist_triplet,
    validate_extension,
    zero_triplet,
)
from braceforge.groups import (
    PermGroup,
    compose,
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    direct_product_group,
    equal_mod,
    identity_perm,
    inner_group,
    invert_perm,
    klein_group,
)
from braceforge.split import enumerate_split_triples, identity_triple, semidirect_product
from braceforge.wells import (
    AutPair,
    StabilizerC,
    autb_I,
    c_act_on_h2,
    pair_act,
    pair_identity,
    pair_mul,
    rho,
    stabilizer_C,
    verify_exact_sequence,
    wells_map,
)
from test_cohomology import _h2N_enumerated
from test_extensions import _extensions_equivalent_loop, _section_shift_map_loop, sections
from test_groups import _closure_is_group, _engine_against_oracle, _is_group_matches_closure

CARRY = ((0, 0, 0), (0, 0, 1), (0, 1, 1))


@pytest.fixture(scope="module")
def carry_ext(Z3):
    """Extension with cyclic Z9 addition from the base-3 carry cocycle."""
    return extension_from_triplet(Z3, Z3, Triplet(identity_triple(Z3, Z3), CARRY, CARRY))


@pytest.fixture(scope="module")
def neg_ext(Z2, Z3):
    """Split extension of Z2 by Z3 with the negation action."""
    neg = (0, 2, 1)
    idp = identity_perm(3)
    chi = ActionTriple((idp, neg), (idp, neg), (idp, neg))
    return extension_from_triplet(Z2, Z3, Triplet(chi, ((0, 0), (0, 0)), ((0, 0), (0, 0))))


def _split_extensions(H, I):
    out = []
    for t in enumerate_split_triples(H, I):
        E = semidirect_product(H, I, t)
        out.append(validate_extension(E, H, I, range(I.n), [x // I.n for x in range(E.n)]))
    return out


@pytest.fixture(scope="module")
def d4_exts(Z2):
    """The 96 split extensions of trivial Z2 by trivial D4."""
    return _split_extensions(Z2, trivial_brace(dihedral_group(4)))


@pytest.fixture(scope="module")
def q8_exts(Z2):
    """The 160 split extensions of trivial Z2 by trivial Q8."""
    return _split_extensions(Z2, trivial_brace(dicyclic_group(2)))


@pytest.fixture(scope="module")
def sweep_exts(Z2, Z3, xor4, flip4, d4_exts):
    """The 188 split extensions of the nine wells-sweep benchmark pairs."""
    V = trivial_brace(klein_group())
    S3 = trivial_brace(dihedral_group(3))
    pairs = [(V, Z3), (flip4, Z3), (xor4, Z3), (Z2, V), (Z3, V), (S3, Z2), (xor4, Z2), (V, Z2)]
    return [ext for H, I in pairs for ext in _split_extensions(H, I)] + d4_exts


def _restrict_loop(theta, elems):
    """theta cut down to annihilator coordinates by a dict loop, the
    oracle for cohomology._restrict on one permutation."""
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


def _restrict_action_loop(I, chi):
    """restrict_action as a per-family dict loop, its oracle."""
    elems = list(annihilator(I))
    index = {e: j for j, e in enumerate(elems)}
    I_res = trivial_brace(groups.group_from_elements(elems, lambda a, b: I.add.table[a][b]))
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


def _c_act_loop(pair, theta_res, cpair):
    """c_act_on_h2 as a tuple loop over the cells, the oracle for
    wells._transport on one pair and one cocycle pair."""
    inv_theta = invert_perm(theta_res)
    phi = pair.phi
    return CocyclePair(*(
        tuple(tuple(inv_theta[t[pa][pb]] for pb in phi) for pa in phi)
        for t in (cpair.g, cpair.f)
    ))


def _rho_loop(ext, s):
    """rho with per-gamma generators over Autb_I(E), its oracle."""
    return [
        (gamma, AutPair(tuple(ext.proj[gamma[s[h]]] for h in range(ext.H.n)),
                        tuple(ext.into_I(gamma[ext.inj[y]]) for y in range(ext.I.n))))
        for gamma in wells.autb_I(ext).sorted_elements()
    ]


def _rho_from_loop(ext, s):
    """rho's (image, kernel, |Autb_I(E)|), read off the per-gamma loop."""
    pairs_of = _rho_loop(ext, s)
    ident = pair_identity(ext.H, ext.I)
    return (sorted({pair for _, pair in pairs_of}, key=AutPair.sort_key),
            sorted(gamma for gamma, pair in pairs_of if pair == ident), len(pairs_of))


def _raised(fn, *args):
    """The type, message and witness of what fn raised."""
    with pytest.raises(BraceforgeError) as exc:
        fn(*args)
    return type(exc.value), str(exc.value), exc.value.witness


def _class_fixtures(ext, h2grp, elems):
    """Every shifted extension h.[E], one per representative h of h2grp,
    each rebuilt and validated from E's triplet by h2_act."""
    return [h2_act(ext.H, ext.I, embed_pair(p, elems), ext) for p in h2grp.representatives]


def _wells_map_orbit(ext, C, h2grp, elems):
    """The orbit-search Wells map, the oracle for wells.wells_map.

    Computed by direct orbit search: the shifted extensions h.[E] are built
    once per representative and matched against [E]^c.  No match means the
    cohomology action missed [E]^c (the transitivity hypothesis fails);
    several matches would contradict freeness.
    """
    shifted = _class_fixtures(ext, h2grp, elems)
    omega = {}
    for c in C:
        acted = pair_act(ext, c)
        hits = [
            k for k, cand in enumerate(shifted) if _extensions_equivalent_loop(acted, cand) is not None
        ]
        if not hits:
            raise ActionNotTransitive(
                "no cohomology class matches the pair-acted extension",
                pair=c.sort_key(),
            )
        if len(hits) > 1:
            raise ValidationError(
                "several cohomology classes match one acted extension; freeness fails",
                pair=c.sort_key(),
                matches=hits,
            )
        omega[c] = hits[0]
    return omega


def _derivation_law_loop(C, omega, h2grp, elems):
    """The per-pair C-action and derivation-law loop, the oracle for
    wells._derivation_law."""
    I_res = h2grp.I
    reps = h2grp.representatives
    derivation_law = True
    for c2 in C:
        theta_res = _restrict_loop(c2.theta, elems)
        transformed = {}
        for k, rep in enumerate(reps):
            moved = h2grp.class_of(_c_act_loop(c2, theta_res, rep))
            transformed[k] = moved
            for b in h2grp.b2:
                other = h2grp.class_of(
                    _c_act_loop(c2, theta_res, pair_add(I_res, rep, b))
                )
                if other != moved:
                    raise ValidationError(
                        "cohomology action of C is not constant on cosets"
                    )
        for c1 in C:
            lhs = reps[omega[pair_mul(c1, c2)]]
            rhs = h2grp.add(transformed[omega[c1]], reps[omega[c2]])
            if lhs != rhs:
                derivation_law = False
    return derivation_law


def _derivation_law_on_every_c2(C, omega, h2grp, elems):
    """The gathers of wells._derivation_law with c2 over all of C, |C|^2
    class sums, its oracle: the coset checks and the law on C x C."""
    nh = h2grp.H.n
    z_rows, b_rows = h2grp._basis_rows()
    reps = h2grp._rep_rows
    block = np.vstack([z_rows, b_rows, reps])
    nz, nb = len(z_rows), len(b_rows)
    cells = np.arange(nh * nh).reshape(nh, nh)
    moved = []
    for c2 in C:
        inv_theta = np.array(invert_perm(_restrict_loop(c2.theta, elems)), dtype=np.int64)
        phi = np.array(c2.phi)
        cols = cells[phi[:, None], phi[None, :]].ravel()
        cols = np.concatenate([cols, cols + nh * nh])
        moved.append(inv_theta[block[:, cols]])
    ok, idx = h2grp._classes(np.concatenate(moved))
    ok = ok.reshape(C.order, len(block)).all(axis=1)
    first = int(ok.argmin()) if not ok.all() else C.order
    idx = idx[:first * len(block)].reshape(first, len(block))
    if idx[:, nz:nz + nb].any():
        raise ValidationError("cohomology action of C is not constant on cosets")
    if first < C.order:
        raise InputError("pair is not a cocycle pair for this action")
    acted = idx[:, nz + nb:]
    om = np.array([omega[c] for c in C], dtype=np.int64)
    lhs = [omega[pair_mul(c1, c2)] for c2 in C for c1 in C]
    t_add = h2grp.I.add.np_table
    rhs = h2grp._class_indices(t_add[reps[acted[:, om].ravel()], reps[np.repeat(om, len(om))]])
    return lhs == rhs.tolist()


def _oracle_group(ext, grp):
    """The list-built H^2 of the enumerating oracles for ext's restricted
    action, checked to list grp's representatives in grp's order."""
    old = _h2N_enumerated(ext.H, grp.I, grp.chi)
    assert old.representatives == grp.representatives
    return old


def _wells_inputs(ext):
    """(C, h2grp, elems, t0) as verify_exact_sequence builds them."""
    t0 = extract_triplet(ext)
    I_res, chi_res, elems = restrict_action(ext.I, t0.chi)
    return stabilizer_C(ext.H, ext.I, t0.chi), h2N(ext.H, I_res, chi_res), elems, t0


def _hand_built_C(H, I, chi, pairs):
    """StabilizerC on the given pairs, each with the action it carries chi
    to, as stabilizer_C's sweep would keep it."""
    acted = [wells._acted_action(wells._conjugates(chi, p.theta), p.phi) for p in pairs]
    return StabilizerC(H, I, chi, pairs, acted)


def _outcome(fn, *args):
    """fn's result, or the type, message and pair witness of what it raised."""
    try:
        return fn(*args)
    except BraceforgeError as exc:
        return (type(exc), str(exc), getattr(exc, "witness", {}).get("pair"))


def _stabilizer_C_equal_mod(H, I, chi):
    """The equal_mod stabiliser sweep, the oracle for wells.stabilizer_C:
    every (phi, theta) conjugates the members at every h afresh, and mu and
    sigma are compared modulo Inn(I, +) and Inn(I, o) with equal_mod."""
    inn_add, inn_circ = inner_group(I.add), inner_group(I.circ)
    found = []
    for phi in brace_automorphisms(H).sorted_elements():
        for theta in brace_automorphisms(I).sorted_elements():
            inv = invert_perm(theta)

            def conj(fam, h):
                return compose(inv, compose(fam[phi[h]], theta))

            if all(chi.nu[h] == conj(chi.nu, h)
                   and equal_mod(inn_add, chi.mu[h], conj(chi.mu, h))
                   and equal_mod(inn_circ, chi.sigma[h], conj(chi.sigma, h))
                   for h in range(H.n)):
                found.append(AutPair(tuple(phi), tuple(theta)))
    return _hand_built_C(H, I, chi, found)


def _psi_law_loop(ext, z1, elems, add, psi):
    """The psi-hom loop over Z^1 x Z^1, one _section_shift_map_loop per
    pair, the oracle for wells._psi_law: psi(d1 + d2) against psi[d1]
    psi[d2]."""
    for d1, p1 in zip(z1.tolist(), psi.tolist()):
        for d2, p2 in zip(z1.tolist(), psi.tolist()):
            summed = tuple(int(elems[add[a][b]]) for a, b in zip(d1, d2))
            if _section_shift_map_loop(ext, ext, summed) != compose(p1, p2):
                return False
    return True


def _psi_inputs(ext):
    """(s, elems, add, Z^1, T) as verify_exact_sequence builds them."""
    s = canonical_section(ext)
    I_res, chi_res, elems = restrict_action(ext.I, extract_triplet(ext, s).chi)
    z1, gens = h2N(ext.H, I_res, chi_res)._derivation_rows()
    return s, np.array(elems), I_res.add.np_table, z1, gens


def test_split_2_by_3_report(split_ext):
    rep = verify_exact_sequence(split_ext)
    assert rep["exact"] and rep["psi_bijective"] and rep["psi_hom"]
    assert rep["derivation_law"]
    assert rep["kernel_rho_order"] == 1 and rep["z1_order"] == 1
    assert rep["im_rho_order"] == 2 and rep["ker_omega_order"] == 2
    assert rep["c_order"] == 2 and rep["h2_order"] == 1
    assert rep["autb_I_order"] == 2


def test_z4_additive_report(z4_ext):
    rep = verify_exact_sequence(z4_ext)
    assert rep["exact"] and rep["psi_bijective"] and rep["psi_hom"]
    assert rep["derivation_law"]
    assert rep["kernel_rho_order"] == 2 and rep["z1_order"] == 2
    assert rep["c_order"] == 1
    assert rep["im_rho_order"] == rep["ker_omega_order"] == 1


def test_negation_split_report(neg_ext):
    rep = verify_exact_sequence(neg_ext)
    assert rep["exact"]
    assert rep["kernel_rho_order"] == 3 and rep["z1_order"] == 3
    assert rep["im_rho_order"] == 2 and rep["ker_omega_order"] == 2
    assert rep["c_order"] == 2 and rep["h2_order"] == 1


def test_carry_extension_has_nonzero_obstruction(carry_ext):
    rep = verify_exact_sequence(carry_ext)
    assert rep["exact"]
    assert rep["c_order"] == 4
    assert rep["im_rho_order"] == 2 and rep["ker_omega_order"] == 2
    assert rep["h2_order"] == 9
    nonzero = [row for row in rep["omega_table"] if row["class_index"] != 0]
    assert len(nonzero) == 2


def test_obstruction_is_not_additive(Z3, carry_ext):
    chi = extract_action(carry_ext, canonical_section(carry_ext))
    I_res, chi_res, elems = restrict_action(Z3, chi)
    grp = h2N(Z3, I_res, chi_res)
    C = stabilizer_C(Z3, Z3, chi)
    omega = wells_map(carry_ext, C, grp, elems, extract_triplet(carry_ext))
    breaks = 0
    for c1 in C:
        for c2 in C:
            value_of_product = grp.representatives[omega[pair_mul(c1, c2)]]
            plain_sum = grp.add(
                grp.representatives[omega[c1]], grp.representatives[omega[c2]]
            )
            breaks += grp.class_of(value_of_product) != grp.class_of(plain_sum)
    assert breaks > 0


def test_degenerate_order_one_kernel(Z3):
    One = trivial_brace(cyclic_group(1))
    ext = validate_extension(Z3, Z3, One, (0,), tuple(range(3)))
    rep = verify_exact_sequence(ext)
    assert rep["exact"] and rep["h2_order"] == 1
    assert rep["c_order"] == rep["im_rho_order"] == rep["ker_omega_order"]


def test_pair_action_laws(Z2, Z3, split_ext):
    autH = brace_automorphisms(Z2).sorted_elements()
    autI = brace_automorphisms(Z3).sorted_elements()
    pairs = [AutPair(p, t) for p in autH for t in autI]
    for a, b in itertools.product(pairs, repeat=2):
        lhs = pair_act(pair_act(split_ext, a), b)
        rhs = pair_act(split_ext, pair_mul(a, b))
        assert lhs.inj == rhs.inj and lhs.proj == rhs.proj
        assert lhs.E.add.table == rhs.E.add.table
    ident = pair_identity(Z2, Z3)
    fixed = pair_act(split_ext, ident)
    assert fixed.inj == split_ext.inj and fixed.proj == split_ext.proj
    for a in pairs:
        back = pair_act(pair_act(split_ext, a), AutPair(invert_perm(a.phi), invert_perm(a.theta)))
        assert back.E.add.table == split_ext.E.add.table
        assert back.inj == split_ext.inj and back.proj == split_ext.proj


def test_pair_act_refuses_a_map_outside_the_carrier(Z3, split_ext):
    # phi = (0, 2) on Z2 names no element 2: refused, not an IndexError
    with pytest.raises(InputError, match="phi is not a brace automorphism"):
        pair_act(split_ext, AutPair((0, 2), identity_perm(3)))


def test_rho_image_and_autb(split_ext, carry_ext):
    assert autb_I(split_ext).order == 2
    induced, _, order = rho(split_ext, canonical_section(split_ext))
    assert len(induced) == 2 and order == 2
    induced9, _, _ = rho(carry_ext, canonical_section(carry_ext))
    assert len(induced9) == 2


def test_rho_induces_brace_automorphisms(sweep_exts, q8_exts):
    # every gamma of Autb_I(E) induces a well-defined map on H, and both
    # induced maps are brace automorphisms; rho relies on it unchecked
    gammas = 0
    for ext in sweep_exts + q8_exts:
        s = canonical_section(ext)
        for gamma, pair in _rho_loop(ext, s):
            assert all(ext.proj[gamma[x]] == pair.phi[ext.proj[x]] for x in range(ext.E.n))
            gammas += 1
        for pair in rho(ext, s)[0]:
            for B, p in ((ext.H, pair.phi), (ext.I, pair.theta)):
                hom = braces.BraceHom(B, B, p)
                assert hom.is_valid() and hom.is_injective()
    assert gammas > len(sweep_exts) + len(q8_exts)


def test_rho_checks_no_brace_hom(split_ext, carry_ext, d4_exts, monkeypatch):
    # rho reads the induced pairs off autb_I's automorphisms without
    # re-checking them as brace homomorphisms
    counter = {"calls": 0}
    is_valid = braces.BraceHom.is_valid

    def counted(self):
        counter["calls"] += 1
        return is_valid(self)

    monkeypatch.setattr(braces.BraceHom, "is_valid", counted)
    gammas = sum(rho(ext, canonical_section(ext))[2]
                 for ext in [split_ext, carry_ext] + d4_exts[:8])
    assert gammas > 10 and counter["calls"] == 0


def test_rho_matches_loop(sweep_exts, q8_exts):
    # the gathers and the sorted rows of the sorted Autb_I(E) against the
    # image and kernel of the per-gamma loop
    gammas = 0
    for ext in sweep_exts + q8_exts:
        s = canonical_section(ext)
        got = rho(ext, s)
        assert got == _rho_from_loop(ext, s)
        gammas += got[2]
    assert gammas == 3328


def test_rho_matches_loop_on_z2_by_z2_4(Z2, monkeypatch):
    # the identity split extension of Z2 by Z2^4, whose Autb_I(E) has
    # 322,560 elements, searched once for both routes
    V16 = trivial_brace(direct_product_group(klein_group(), klein_group()))
    E = semidirect_product(Z2, V16, identity_triple(Z2, V16))
    ext = validate_extension(E, Z2, V16, range(16), [x // 16 for x in range(32)])
    found = autb_I(ext)
    monkeypatch.setattr(wells, "autb_I", lambda _: found)
    s = canonical_section(ext)
    got = rho(ext, s)
    assert (len(got[0]), len(got[1]), got[2]) == (20160, 16, 322560)
    assert got == _rho_from_loop(ext, s)


def test_restriction_gather_matches_the_loops(sweep_exts, q8_exts):
    # every family member and every C generator of each wells-sweep and
    # split Z2-by-Q8 extension, cut down to Ann(I) by the one gather and
    # by the dict loop; restrict_action against its per-family loop
    cut = proper = 0
    for ext in sweep_exts + q8_exts:
        C, _, elems, t0 = _wells_inputs(ext)
        assert restrict_action(ext.I, t0.chi) == _restrict_action_loop(ext.I, t0.chi)
        perms = list(t0.chi.nu + t0.chi.mu + t0.chi.sigma) + [t.theta for t in C.generators]
        index = cohomology._carrier_index(elems, ext.I.n)
        rows, out = cohomology._restrict(np.array(perms), elems, index)
        assert out is None
        assert list(map(tuple, rows.tolist())) == [_restrict_loop(p, elems) for p in perms]
        cut += len(perms)
        proper += len(elems) < ext.I.n
    assert (cut, proper) == (3079, 256)


def test_restriction_gather_refuses_as_the_loops(d4_exts):
    # a theta swapping the central element z of D4 with a y outside
    # Ann(I) = Z(D4): the gather names (row, z, y), as the one-permutation
    # loop does, and restrict_action, with theta as the member at h = 1 of
    # each family in turn, refuses it as its loop does; a C with theta in a
    # pair is refused when it is built, as theta is no brace automorphism,
    # so the derivation law never cuts it
    ext = d4_exts[0]
    _, grp, elems, t0 = _wells_inputs(ext)
    n, z = ext.I.n, elems[1]
    y = next(y for y in range(n) if y not in elems)
    theta = tuple(y if x == z else z if x == y else x for x in range(n))
    rows, out = cohomology._restrict(np.array([identity_perm(n), theta]), elems,
                                     cohomology._carrier_index(elems, n))
    assert out == (1, z, y) and rows.tolist() == [[0, 1], [0, -1]]
    assert _raised(_restrict_loop, theta, elems)[2] == {"element": z, "image": y}
    for k in range(3):
        fams = [list(fam) for fam in (t0.chi.nu, t0.chi.mu, t0.chi.sigma)]
        fams[k][1] = theta
        chi = ActionTriple(*map(tuple, fams))
        got = _raised(restrict_action, ext.I, chi)
        assert got == _raised(_restrict_action_loop, ext.I, chi)
        assert got[2] == {"family": ("nu", "mu", "sigma")[k], "h": 1, "element": z, "image": y}
    with pytest.raises(InputError, match="theta is not a brace automorphism"):
        _hand_built_C(ext.H, ext.I, t0.chi,
                      [pair_identity(ext.H, ext.I), AutPair(identity_perm(ext.H.n), theta)])


def test_twists_compose_pointwise_in_the_circle_group(sweep_exts, q8_exts):
    # the section s(h) o a(h) shifted again by b is s(h) o (a(h) o b(h)), so
    # a twist by a, then by b, is the twist by a o b taken pointwise in
    # (I, o); seeded maps with a(0) = b(0) = 0.  Coupling.witnesses reads
    # its witness sets by this law
    rng = random.Random(5)
    checked = 0
    for ext in sweep_exts + q8_exts:
        H, I, t = ext.H, ext.I, extract_triplet(ext)
        for _ in range(3):
            a, b = [(0,) + tuple(rng.randrange(I.n) for _ in range(H.n - 1)) for _ in "ab"]
            ab = tuple(I.circ.table[x][y] for x, y in zip(a, b))
            assert twist_triplet(H, I, twist_triplet(H, I, t, a), b) == twist_triplet(H, I, t, ab)
            checked += 1
    assert checked == 3 * (188 + 160)


def test_twists_compose_only_for_nu_in_aut_add():
    # the law above, which Coupling.witnesses reads its sets by, needs every
    # nu_h in Aut(I, +): with a nu_1 outside it, on trivial S3, the mu
    # members of two twists in turn miss those of the single twist
    S3 = trivial_brace(dihedral_group(3))
    nu1 = (0, 2, 1, 3, 4, 5)
    assert not braces.BraceHom(S3, S3, nu1).is_valid()
    e = identity_perm(6)
    chi = ActionTriple((e, nu1), (e, e), (e, e))
    def both(y, z):  # twisted by y then by z, and by y o z
        twist = extensions.twist_action
        return (twist(S3, twist(S3, chi, (0, y)), (0, z)),
                twist(S3, chi, (0, S3.circ.table[y][z])))
    missed = [(y, z) for y in range(6) for z in range(6) if len(set(both(y, z))) == 2]
    assert missed and all(len({t.nu for t in both(y, z)}) == 1 for y, z in missed)


def test_c_action_is_classwise_well_defined(Z3, carry_ext):
    chi = extract_action(carry_ext, canonical_section(carry_ext))
    I_res, chi_res, elems = restrict_action(Z3, chi)
    grp = h2N(Z3, I_res, chi_res)
    C = stabilizer_C(Z3, Z3, chi)
    for c in C:
        theta_res = _restrict_loop(c.theta, elems)
        for p in grp.z2:
            moved = c_act_on_h2(c, theta_res, p)
            moved_rep = c_act_on_h2(c, theta_res, grp.class_of(p))
            assert grp.class_of(moved) == grp.class_of(moved_rep)


def test_one_autb_I_search_per_check(split_ext, z4_ext, carry_ext, count_calls):
    orders = [autb_I(ext).order for ext in (split_ext, z4_ext, carry_ext)]
    searches = count_calls(wells.autb_I)
    reports = [verify_exact_sequence(ext) for ext in (split_ext, z4_ext, carry_ext)]
    assert searches["calls"] == 3
    assert [rep["autb_I_order"] for rep in reports] == orders


def test_wells_map_matches_orbit_search(split_ext, z4_ext, carry_ext, neg_ext, d4_exts, q8_exts):
    exts = [split_ext, z4_ext, carry_ext, neg_ext] + d4_exts + q8_exts
    assert (len(d4_exts), len(q8_exts)) == (96, 160)
    failures = 0
    for ext in exts:
        C, grp, elems, t0 = _wells_inputs(ext)
        got = _outcome(wells_map, ext, C, grp, elems, t0)
        assert got == _outcome(_wells_map_orbit, ext, C, grp, elems)
        if isinstance(got, dict):
            assert list(got) == list(C) and got[pair_identity(ext.H, ext.I)] == 0
        else:
            assert got[:2] == (
                ActionNotTransitive, "no cohomology class matches the pair-acted extension"
            )
            failures += 1
    # both routes agree on the open stabiliser defect, whatever its size
    assert 0 < failures < len(exts)


def test_derivation_law_matches_loop(split_ext, z4_ext, carry_ext, neg_ext, d4_exts, q8_exts):
    compared = 0
    for ext in [split_ext, z4_ext, carry_ext, neg_ext] + d4_exts + q8_exts:
        C, grp, elems, t0 = _wells_inputs(ext)
        try:
            omega = wells_map(ext, C, grp, elems, t0)
        except ActionNotTransitive:
            continue
        law = wells._derivation_law(C, omega, grp, elems)
        # the loop runs on the list-built group of the enumerating oracles,
        # whose class indices are the algebraic group's
        assert law is _derivation_law_loop(C, omega, _oracle_group(ext, grp), elems) is True
        compared += 1
    assert compared > 4


def _embedded(H, pairs):
    """The pairs as permutations of H u I, as StabilizerC embeds them."""
    return PermGroup(H.n + len(pairs[0].theta),
                     [p.phi + tuple(H.n + y for y in p.theta) for p in pairs])


def _closes_to_C(C):
    """Whether the identity times words in C.generators on the right reaches
    exactly the pairs of C."""
    one = pair_identity(C.H, C.I)
    reached, frontier = {one}, [one]
    while frontier:
        p = frontier.pop()
        for t in C.generators:
            q = pair_mul(p, t)
            if q not in reached:
                reached.add(q)
                frontier.append(q)
    return reached == set(C.pairs)


@pytest.fixture(scope="module")
def v8_ext(Z2):
    """The split extension of Z2 by trivial Z2^3 with the identity action:
    |C| = |GL(3, 2)| = 168."""
    V8 = trivial_brace(direct_product_group(klein_group(), cyclic_group(2)))
    E = semidirect_product(Z2, V8, identity_triple(Z2, V8))
    return validate_extension(E, Z2, V8, range(8), [x // 8 for x in range(16)])


def test_derivation_law_on_generators_matches_every_c2(
        split_ext, z4_ext, carry_ext, neg_ext, sweep_exts, q8_exts, v8_ext):
    # the law on C x T against the law on C x C, and T generates C, on every
    # Tier-1 Wells input and on Z2 by Z2^3
    compared = 0
    for ext in [split_ext, z4_ext, carry_ext, neg_ext, v8_ext] + sweep_exts + q8_exts:
        C, grp, elems, t0 = _wells_inputs(ext)
        assert _closes_to_C(C)
        try:
            omega = wells_map(ext, C, grp, elems, t0)
        except ActionNotTransitive:
            continue
        args = (C, omega, grp, elems)
        assert _outcome(wells._derivation_law, *args) is True
        assert _outcome(_derivation_law_on_every_c2, *args) is True
        compared += 1
    C = _wells_inputs(v8_ext)[0]
    assert (C.order, len(C.generators)) == (168, 5)
    assert compared > 200


def test_derivation_law_on_generators_matches_every_c2_on_tampers(sweep_exts):
    # omega changed at one c, for every c of every wells-sweep extension
    # with |H^2| > 1: both checks give the same verdict
    verdicts = []
    for ext in sweep_exts:
        C, grp, elems, t0 = _wells_inputs(ext)
        try:
            omega = wells_map(ext, C, grp, elems, t0)
        except ActionNotTransitive:
            continue
        if grp.order == 1:
            continue
        for c in C:
            tampered = dict(omega)
            tampered[c] = (omega[c] + 1) % grp.order
            args = (C, tampered, grp, elems)
            got = _outcome(wells._derivation_law, *args)
            assert got == _outcome(_derivation_law_on_every_c2, *args)
            verdicts.append(got)
    assert (len(verdicts), verdicts.count(True), verdicts.count(False)) == (452, 18, 434)


def test_derivation_law_errors_match_every_c2(sweep_exts):
    # C replaced by all of Autb(H) x Autb(I), whose pairs need not
    # stabilise the coupling, and omega by zero: both checks give the same
    # verdict or refuse the same way
    outcomes = []
    for ext in sweep_exts[:92]:
        _, grp, elems, t0 = _wells_inputs(ext)
        pairs = [AutPair(p, t) for p in brace_automorphisms(ext.H).sorted_elements()
                 for t in brace_automorphisms(ext.I).sorted_elements()]
        C = _hand_built_C(ext.H, ext.I, t0.chi, pairs)
        omega = dict.fromkeys(C, 0)
        got = _outcome(wells._derivation_law, C, omega, grp, elems)
        assert got == _outcome(_derivation_law_on_every_c2, C, omega, grp, elems)
        outcomes.append(got if isinstance(got, bool) else got[0])
    assert (outcomes.count(True), outcomes.count(InputError)) == (18, 74)


def test_stabiliser_of_order_one(z4_ext):
    # T is empty: the law holds without a gather, and with omega(1) != 0 it
    # fails as the law on C x C does
    C, grp, elems, t0 = _wells_inputs(z4_ext)
    omega = wells_map(z4_ext, C, grp, elems, t0)
    assert (C.order, C.generators, grp.order) == (1, (), 4)
    assert wells._derivation_law(C, omega, grp, elems) is True
    assert _derivation_law_on_every_c2(C, omega, grp, elems) is True
    shifted = {c: 1 for c in C}
    assert wells._derivation_law(C, shifted, grp, elems) is False
    assert _derivation_law_on_every_c2(C, shifted, grp, elems) is False


def test_stabiliser_closure_matches_oracle(Z2, Z3, carry_ext, d4_exts):
    # StabilizerC refuses what is not a group of pairs, in agreement with the
    # all-pairs closure oracle on the embedded permutations
    chi = identity_triple(Z2, Z3)
    ident = pair_identity(Z2, Z3)
    neg = AutPair((0, 1), (0, 2, 1))
    for pairs in ([], [neg], [ident, AutPair((0, 1), (1, 2, 0))]):
        if pairs:
            assert _closure_is_group(_embedded(Z2, pairs)) is False
        with pytest.raises(ValidationError, match="stabiliser pairs do not form a group"):
            _hand_built_C(Z2, Z3, chi, pairs)
    # each stabiliser less its identity, or less its last pair
    cuts = 0
    for ext in [carry_ext] + d4_exts[:24]:
        C = _wells_inputs(ext)[0]
        assert _closure_is_group(_embedded(ext.H, C.pairs)) is True
        for cut in (C.pairs[1:], C.pairs[:-1]):
            if cut:
                assert _closure_is_group(_embedded(ext.H, cut)) is False
                with pytest.raises(ValidationError, match="stabiliser pairs do not form a group"):
                    _hand_built_C(ext.H, ext.I, C.chi, cut)
                cuts += 1
    assert cuts == 50


def test_derivation_law_is_budgeted(carry_ext):
    # |C| |T| class sums: 4 * 2 for the carry extension
    C, grp, elems, t0 = _wells_inputs(carry_ext)
    omega = wells_map(carry_ext, C, grp, elems, t0)
    size = C.order * len(C.generators)
    assert size == 8
    with budget.limit(size - 1):
        with pytest.raises(SearchBudgetExceeded) as exc:
            wells._derivation_law(C, omega, grp, elems)
    assert (exc.value.what, exc.value.size) == ("derivation law", size)
    with budget.limit(size):
        assert wells._derivation_law(C, omega, grp, elems) is True


def test_derivation_law_rejects_tampered_omega(carry_ext):
    C, grp, elems, t0 = _wells_inputs(carry_ext)
    omega = wells_map(carry_ext, C, grp, elems, t0)
    c = next(c for c in C if omega[c] != 0)
    tampered = dict(omega)
    tampered[c] = omega[c] % (grp.order - 1) + 1
    assert tampered[c] not in (0, omega[c])
    assert wells._derivation_law(C, tampered, grp, elems) is False
    assert _derivation_law_loop(C, tampered, _oracle_group(carry_ext, grp), elems) is False


def test_exact_sequence_shares_its_h2(split_ext, z4_ext, count_calls):
    # two checks in one limit() block build the H^2 of the restricted
    # action once (budget.shared, under cohomology's h2N), outside any block
    # each check builds its own, and the reports are the same; the check
    # reads the representatives' rows only, so their pairs are never listed
    built = count_calls(h2N)
    for ext in (split_ext, z4_ext):
        built["calls"] = 0
        I_res, chi_res, _ = restrict_action(ext.I, extract_triplet(ext).chi)
        with budget.limit():
            first = verify_exact_sequence(ext)
            again = verify_exact_sequence(ext)
            grp = budget.shared(cohomology.h2N, ext.H, I_res, chi_res)
        assert built["calls"] == 1
        assert "representatives" not in vars(grp)
        assert first == again == verify_exact_sequence(ext) == verify_exact_sequence(ext)
        assert built["calls"] == 3
        reps = grp.representatives
        assert grp.representatives is reps and len(reps) == grp.order == first["h2_order"]


def test_exact_sequence_work_counts(split_ext, z4_ext, carry_ext, neg_ext, count_calls,
                                    monkeypatch):
    laws = []
    for ext in (split_ext, z4_ext, carry_ext, neg_ext):
        z1, gens = _psi_inputs(ext)[3:]
        matches = count_calls(extensions.extensions_equivalent)
        searches = count_calls(braces.brace_automorphisms)
        kernel_searches = count_calls(wells.autb_I)
        rebuilds = count_calls(extensions.extension_from_triplet)
        acted = count_calls(wells.pair_act)
        sections_ = count_calls(extensions.canonical_section)
        actions = count_calls(extensions.extract_action)
        cosets = count_calls(groups.equal_mod)
        shifts = count_calls(extensions.section_shift_map)
        moves = count_calls(wells.c_act_on_h2)
        transports = count_calls(wells._transport)
        maps, in_map = [], []
        shift_maps, wells_map_ = wells._section_shift_maps, wells.wells_map

        def mapped(*args):
            before = transports["calls"]
            out = wells_map_(*args)
            in_map.append(transports["calls"] - before)
            return out

        monkeypatch.setattr(wells, "wells_map", mapped)

        def counted(e1, s1, e2, s2, rows):
            assert e1 is e2 and s1 is s2
            maps.append(len(rows))
            return shift_maps(e1, s1, e2, s2, rows)

        monkeypatch.setattr(wells, "_section_shift_maps", counted)
        rep = verify_exact_sequence(ext)
        monkeypatch.setattr(wells, "_section_shift_maps", shift_maps)
        monkeypatch.setattr(wells, "wells_map", wells_map_)
        assert matches["calls"] == acted["calls"] == 0
        # (beta, tau) move by all of C in one transport inside wells_map, and
        # the derivation law's rows by C's generators, if any, in one more
        assert moves["calls"] == 0 and in_map == [1]
        assert transports["calls"] == 1 + (rep["c_order"] > 1)
        # Autb(H) and Autb(I) for the stabiliser; Autb_I(E) has its own search
        assert searches["calls"] == 2 and kernel_searches["calls"] == 1
        # h2N decides the zero pair with the lifts check, and the Wells map
        # rebuilds no extension
        assert rebuilds["calls"] == 0
        # one section and one action per check, shared by rho, psi and the
        # Wells map; the stabiliser tests cosets by lookup
        assert sections_["calls"] == actions["calls"] == 1
        assert cosets["calls"] == shifts["calls"] == 0
        # psi on Z^1, then |Z^1| |T| section maps for the law on Z^1 x T
        assert rep["z1_order"] == len(z1)
        assert maps == [len(z1)] + ([len(z1) * len(gens)] if len(gens) else [])
        laws.append((len(z1), len(gens)))
    assert laws == [(1, 0), (2, 1), (3, 1), (3, 1)]


def test_every_shifted_class_rebuilds(sweep_exts, q8_exts):
    # the shifted extensions h.[E] that wells_map no longer builds are
    # valid extensions for every input the wells-sweep workload checks
    assert (len(sweep_exts), len(q8_exts)) == (188, 160)
    rebuilt = 0
    for ext in sweep_exts + q8_exts:
        chi = extract_action(ext, canonical_section(ext))
        I_res, chi_res, elems = restrict_action(ext.I, chi)
        grp = h2N(ext.H, I_res, chi_res)
        shifted = _class_fixtures(ext, grp, elems)
        assert len(shifted) == grp.order
        rebuilt += len(shifted)
    assert rebuilt > len(sweep_exts) + len(q8_exts)


def test_every_class_of_an_abelian_kernel_is_exact(Z2, sweep_exts):
    # the Wells sequence on every extension class, not only split ones:
    # each shifted class h.[E] of every split E of the eight abelian-kernel
    # wells-sweep pairs and of (Z2, Z4) and (Z4, Z2), checked once per class
    # key, is exact, with psi a bijective hom and omega a derivation
    Z4 = trivial_brace(cyclic_group(4))
    exts = ([ext for ext in sweep_exts if ext.I.add.is_abelian]
            + _split_extensions(Z2, Z4) + _split_extensions(Z4, Z2))
    assert len(exts) == 101
    seen = set()
    for ext in exts:
        H, I = ext.H, ext.I
        I_res, chi_res, elems = restrict_action(I, extract_triplet(ext).chi)
        for shifted in _class_fixtures(ext, h2N(H, I_res, chi_res), elems):
            key = (H, I, extensions._class_key(H, I, extract_triplet(shifted)))
            if key not in seen:
                seen.add(key)
                rep = verify_exact_sequence(shifted)
                assert (rep["exact"], rep["psi_bijective"], rep["psi_hom"],
                        rep["derivation_law"]) == (True, True, True, True)
    assert len(seen) == 329


def test_nu_is_section_independent(sweep_exts, q8_exts):
    # a trivial kernel makes nu independent of the section; verify_exact_sequence
    # relies on it without a runtime check
    checked = 0
    for ext in sweep_exts + q8_exts:
        nu0 = extract_action(ext, canonical_section(ext)).nu
        for s in sections(ext):
            assert extract_action(ext, s).nu == nu0
            checked += 1
    assert checked > 4 * len(sweep_exts + q8_exts)


def test_acted_triplet_matches_pair_act(sweep_exts, q8_exts):
    # (beta_0, tau_0) moved by all of C in one transport, as wells_map moves
    # them, with the action C keeps for each pair, is the triplet of the
    # pair-acted extension, rebuilt and validated by pair_act; each move is
    # the one the cell loop makes, and the one c_act_on_h2 makes
    pairs = 0
    for ext in sweep_exts + q8_exts:
        t0 = extract_triplet(ext)
        C = stabilizer_C(ext.H, ext.I, t0.chi)
        nh = ext.H.n
        moved = wells._transport(np.array([t0.beta, t0.tau]).reshape(1, -1),
                                 np.array([c.phi for c in C]), np.array([c.theta for c in C]))
        assert moved.shape == (C.order, 1, 2 * nh * nh)
        for c, chi_c, (beta, tau) in zip(C, C.acted, moved.reshape(-1, 2, nh, nh).tolist()):
            beta, tau = tuple(map(tuple, beta)), tuple(map(tuple, tau))
            assert Triplet(chi_c, beta, tau) == extract_triplet(pair_act(ext, c))
            t = CocyclePair(t0.beta, t0.tau)
            assert CocyclePair(beta, tau) == _c_act_loop(c, c.theta, t) == c_act_on_h2(c, c.theta, t)
            pairs += 1
    assert pairs == 2112


def test_coset_sweep_matches_equal_mod(sweep_exts, q8_exts, d4_exts):
    # the stabiliser from shared conjugates and coset lookups against the
    # equal_mod sweep: the same pairs, generators and acted actions on every
    # wells-sweep extension (the 96 Z2-by-D4 among them, with the inputs
    # whose Wells map raises ActionNotTransitive) and every split Z2-by-Q8
    pairs = raised = 0
    d4 = set(map(id, d4_exts))
    for ext in sweep_exts + q8_exts:
        C, grp, elems, t0 = _wells_inputs(ext)
        old = _stabilizer_C_equal_mod(ext.H, ext.I, C.chi)
        assert (C.pairs, C.generators, C.acted) == (old.pairs, old.generators, old.acted)
        pairs += C.order
        if id(ext) in d4:
            got = _outcome(wells_map, ext, C, grp, elems, t0)
            raised += isinstance(got, tuple) and got[0] is ActionNotTransitive
    assert (pairs, raised) == (2112, 24)


def test_psi_law_on_generators_matches_loop(split_ext, z4_ext, carry_ext, neg_ext, sweep_exts,
                                            q8_exts):
    # psi as the (ext, ext) case of the one section-shift gather against the
    # per-element loop, and the law on Z^1 x T against the loop over
    # Z^1 x Z^1: both hold on every Tier-1 Wells input, and both fail once
    # one psi(d), d != 0, is replaced by the identity
    seen = tampered = 0
    for ext in [split_ext, z4_ext, carry_ext, neg_ext] + sweep_exts + q8_exts:
        s, elems, add, z1, gens = _psi_inputs(ext)
        psi = extensions._section_shift_maps(ext, s, ext, s, elems[z1])
        assert psi.tolist() == [list(_section_shift_map_loop(ext, ext, tuple(elems[d].tolist())))
                                for d in z1]
        args = (ext, s, elems, add, z1, gens)
        assert wells._psi_law(*args, psi) is _psi_law_loop(ext, z1, elems, add, psi) is True
        seen += len(z1)
        if len(z1) > 1:
            bad = psi.copy()
            bad[-1] = np.arange(ext.E.n)
            assert wells._psi_law(*args, bad) is _psi_law_loop(ext, z1, elems, add, bad) is False
            tampered += 1
    assert (seen, tampered) == (686, 304)


def test_section_shift_maps_match_the_loop(sweep_exts, q8_exts):
    # the one gather between two extensions, and section_shift_map as its
    # one-row case, against the per-element loop: from each extension to
    # itself and to the next one over the same H and I, by three seeded
    # shifts each
    rng = random.Random(4417)
    exts = sweep_exts + q8_exts
    rows = between = 0
    for e1, nxt in zip(exts, exts[1:] + exts[:1]):
        for e2 in (e1, nxt) if (nxt.H, nxt.I) == (e1.H, e1.I) else (e1,):
            shifts = [tuple(rng.randrange(e1.I.n) for _ in range(e1.H.n)) for _ in range(3)]
            got = extensions._section_shift_maps(e1, canonical_section(e1), e2,
                                                 canonical_section(e2), np.array(shifts))
            want = [_section_shift_map_loop(e1, e2, shift) for shift in shifts]
            assert [tuple(row) for row in got.tolist()] == want
            assert [section_shift_map(e1, e2, shift) for shift in shifts] == want
            rows += len(shifts)
            between += e2 is not e1
    assert (len(exts), rows, between) == (348, 2058, 338)


def _twists_at_loop(I, chi1, chi2, h):
    """The y whose twist at h carries chi1's members to chi2's, each member
    twisted by composition: the oracle for the witness sets of
    extensions.Coupling."""
    out = []
    for y in range(I.n):
        shift = chi1.nu[h][I.add.inv[y]]
        if (chi2.nu[h] == compose(chi1.nu[h], I.lam(y))
                and chi2.mu[h] == compose(I.add.inner[shift], chi1.mu[h])
                and chi2.sigma[h] == compose(I.circ.inner[I.circ.inv[y]], chi1.sigma[h])):
            out.append(y)
    return tuple(out)


def _witnesses_loop(I, chi1, chi2):
    """couplings_related(I, chi1, chi2) by _twists_at_loop at every h."""
    sets = tuple(_twists_at_loop(I, chi1, chi2, h) for h in range(len(chi1.nu)))
    return sets if all(sets) and 0 in sets[0] else None


def test_coupling_witnesses_match_the_twist_loop(Z2, sweep_exts, q8_exts):
    # the witness sets read off one Coupling's twist orbits, as wells_map,
    # ext_bijection_check and coupling_of ask for them, and those of
    # couplings_related are the sets the twist-by-twist loop finds, and
    # None exactly where it finds none: on the coupling of each acted
    # triplet against its source, and of each extension against its
    # neighbour's
    related = unrelated = 0
    exts = sweep_exts + q8_exts
    for ext, other in zip(exts, exts[1:] + exts[:1]):
        t0 = extract_triplet(ext)
        coupling = extensions.Coupling(ext.I, t0.chi)
        chis = list(stabilizer_C(ext.H, ext.I, t0.chi).acted)
        if other.H == ext.H and other.I == ext.I:
            chis.append(extract_triplet(other).chi)
        for chi in chis:
            want = _witnesses_loop(ext.I, chi, t0.chi)
            assert coupling.witnesses(chi) == want
            assert extensions.couplings_related(ext.I, chi, t0.chi) == want
            related += want is not None
            unrelated += want is None
    assert (related, unrelated) == (1701, 749)
    # a twist at 0 by a non-central y leaves 0 out of Theta_0
    S3 = trivial_brace(dihedral_group(3))
    chi = identity_triple(Z2, S3)
    moved = extensions.twist_action(S3, chi, (1, 0))
    assert _twists_at_loop(S3, chi, moved, 0) == (1,)
    assert _witnesses_loop(S3, chi, moved) is None
    assert extensions.couplings_related(S3, chi, moved) is None
    assert extensions.Coupling(S3, moved).witnesses(chi) is None


def test_wells_map_checks_its_inputs(Z2, Z4, flip4, split_ext):
    # as pair_act does: a hand-built stabiliser with a non-automorphism pair
    # is refused when it is built, and wells_map refuses a non-trivial kernel
    ext = extension_from_triplet(Z2, Z4, zero_triplet(Z2, Z4))
    t0 = extract_triplet(ext)
    swap = (0, 2, 1, 3)  # exchanges an element of order 4 with one of order 2
    with pytest.raises(InputError, match="theta is not a brace automorphism"):
        _hand_built_C(Z2, Z4, t0.chi, [pair_identity(Z2, Z4), AutPair((0, 1), swap)])
    E = semidirect_product(Z2, flip4, identity_triple(Z2, flip4))
    wide = validate_extension(E, Z2, flip4, tuple(range(4)), tuple(x // 4 for x in range(8)))
    with pytest.raises(NotTrivialCoefficients):
        wells_map(wide, *_wells_inputs(split_ext))


def test_wells_entries_refuse_misshaped_arguments(Z2, Z3, split_ext):
    # rho reads a given s only once it is a section of E
    for s in ((0, 1), (0, -1), (0,)):
        with pytest.raises(InputError, match="section"):
            rho(split_ext, s)
    # c_act_on_h2 moves only an |H| x |H| pair with values in 0..k-1, by a
    # permutation phi of H and a permutation theta_res of 0..k-1
    pair, theta_res = AutPair((0, 1), (0, 2, 1)), (0, 2, 1)
    zero = CocyclePair(((0, 0), (0, 0)), ((0, 0), (0, 0)))
    assert c_act_on_h2(pair, theta_res, zero) == zero
    for args in ((AutPair((0, -1), pair.theta), theta_res, zero),
                 (pair, (0, -1, 1), zero),
                 (pair, theta_res, CocyclePair(((0, 0), (0, 7)), zero.f)),
                 (pair, theta_res, CocyclePair(((0, 0), (0,)), zero.f)),
                 (pair, theta_res, CocyclePair(((0, 0, 0),) * 3, ((0, 0, 0),) * 3))):
        with pytest.raises(InputError):
            c_act_on_h2(*args)
    # stabilizer_C takes an action indexed by H whose members permute I
    V = trivial_brace(klein_group())
    for chi in (identity_triple(V, Z3), identity_triple(Z2, Z2)):
        with pytest.raises(InputError):
            stabilizer_C(Z2, Z3, chi)


def test_stabiliser_keeps_each_pairs_twist(sweep_exts, q8_exts, d4_exts):
    # C.twists[k] is None exactly where the twist loop finds no witness
    # set, and elsewhere the heads of the loop's sets, a 0-fixing theta
    # whose twist of the acted action is chi; the pairs without a twist are
    # exactly those of the extensions whose check raises
    # ActionNotTransitive, counted per kernel by (pairs without a twist, |C|)
    kernel = {**dict.fromkeys(map(id, d4_exts), "D4"), **dict.fromkeys(map(id, q8_exts), "Q8")}
    census = Counter()
    for ext in sweep_exts + q8_exts:
        C = stabilizer_C(ext.H, ext.I, extract_triplet(ext).chi)
        assert len(C.twists) == C.order
        missing = 0
        for chi_c, y in zip(C.acted, C.twists):
            want = _witnesses_loop(ext.I, chi_c, C.chi)
            if y is None:
                assert want is None
                missing += 1
            else:
                assert y == tuple(ys[0] for ys in want) and y[0] == 0
                assert extensions.twist_action(ext.I, chi_c, y) == C.chi
        raised = _outcome(verify_exact_sequence, ext)
        assert (missing > 0) == (isinstance(raised, tuple) and raised[0] is ActionNotTransitive)
        if missing:
            census[kernel.get(id(ext)), missing, C.order] += 1
    assert census == {("D4", 4, 8): 16, ("D4", 2, 4): 8,
                      ("Q8", 16, 24): 12, ("Q8", 4, 8): 24, ("Q8", 2, 4): 24}


def test_wells_map_refuses_a_stabiliser_of_another_section(d4_exts):
    # a section change moves mu and sigma by inner factors: the stabiliser of
    # that action has the same pairs but conjugates of the other action, so
    # wells_map refuses it with E's canonical triplet instead of mixing the
    # two sections
    refused = 0
    for ext in d4_exts[:24]:
        C, grp, elems, t0 = _wells_inputs(ext)
        for s in sections(ext):
            chi = extract_action(ext, s)
            if chi == t0.chi:
                continue
            other = stabilizer_C(ext.H, ext.I, chi)
            assert other.pairs == C.pairs and other.acted != C.acted
            with pytest.raises(InputError, match="another action than the triplet's"):
                wells_map(ext, other, grp, elems, t0)
            refused += 1
    assert refused == 144


def test_autb_I_equals_filtered_automorphisms(d4_exts, q8_exts, Z3):
    for ext in d4_exts + q8_exts:
        img = set(ext.inj)
        filtered = [
            g for g in brace_automorphisms(ext.E).sorted_elements()
            if all(g[x] in img for x in img)
        ]
        assert autb_I(ext).sorted_elements() == filtered
    # above order 16 too: no order bound stops the search
    S3 = trivial_brace(dihedral_group(3))
    big = _split_extensions(Z3, S3)[0]
    assert big.E.n == 18
    img = set(big.inj)
    filtered = [
        g for g in brace_automorphisms(big.E).sorted_elements()
        if all(g[x] in img for x in img)
    ]
    assert autb_I(big).sorted_elements() == filtered


def test_autb_I_search_matches_closure_oracle(sweep_exts, q8_exts, monkeypatch):
    # the admit search of autb_I, and the group it returns, on every
    # wells-sweep extension and every split Z2-by-Q8 extension
    searches = _engine_against_oracle(monkeypatch)
    for ext in sweep_exts + q8_exts:
        assert _is_group_matches_closure(autb_I(ext))
    assert searches == {"brace_automorphisms": len(sweep_exts) + len(q8_exts)}


def _relabel_extension(ext, p):
    """ext with E relabelled by the 0-fixing permutation p, inj and proj
    carried along."""
    E = SkewBrace(ext.E.add.relabel(p), ext.E.circ.relabel(p))
    proj = [0] * E.n
    for x in range(E.n):
        proj[p[x]] = ext.proj[x]
    return validate_extension(E, ext.H, ext.I, [p[e] for e in ext.inj], proj)


def test_report_is_invariant_under_relabelling_E(split_ext, z4_ext, carry_ext, d4_exts):
    rng = random.Random(1207)
    raised = 0
    for ext in [split_ext, z4_ext, carry_ext] + d4_exts[:40]:
        base = _outcome(verify_exact_sequence, ext)
        for _ in range(3):
            tail = list(range(1, ext.E.n))
            rng.shuffle(tail)
            moved = _relabel_extension(ext, [0] + tail)
            got = _outcome(verify_exact_sequence, moved)
            if isinstance(base, dict):
                # omega_table too: the relabelling is an equivalence, and for a
                # trivial kernel the restricted action, hence H2 and its class
                # order, does not depend on the section
                assert got == base
            else:
                assert base[0] is ActionNotTransitive and got[0] is ActionNotTransitive
                raised += 1
    assert raised > 0


def _relabel_kernel_and_quotient(ext, pH, pI):
    """ext with H relabelled by pH and I by pI, both 0-fixing; E is kept
    and inj, proj are carried along."""
    H = SkewBrace(ext.H.add.relabel(pH), ext.H.circ.relabel(pH))
    I = SkewBrace(ext.I.add.relabel(pI), ext.I.circ.relabel(pI))
    inj = [0] * I.n
    for y in range(I.n):
        inj[pI[y]] = ext.inj[y]
    return validate_extension(ext.E, H, I, inj, [pH[h] for h in ext.proj])


REPORT_ORDERS = ("kernel_rho_order", "z1_order", "im_rho_order", "ker_omega_order",
                 "c_order", "h2_order", "autb_I_order")
REPORT_FLAGS = ("exact", "psi_bijective", "psi_hom", "derivation_law")


def test_report_is_invariant_under_relabelling_H_and_I(split_ext, z4_ext, carry_ext, d4_exts):
    rng = random.Random(4711)
    raised = moved_I = 0
    for ext in [split_ext, z4_ext, carry_ext] + d4_exts[:40]:
        base = _outcome(verify_exact_sequence, ext)
        for _ in range(2):
            pH = (0,) + tuple(rng.sample(range(1, ext.H.n), ext.H.n - 1))
            pI = (0,) + tuple(rng.sample(range(1, ext.I.n), ext.I.n - 1))
            moved = _relabel_kernel_and_quotient(ext, pH, pI)
            moved_I += moved.I != ext.I
            got = _outcome(verify_exact_sequence, moved)
            if isinstance(base, dict):
                # class indices in omega_table follow the labels of H and I;
                # every order and verdict must not
                assert isinstance(got, dict)
                assert [got[k] for k in REPORT_ORDERS + REPORT_FLAGS] == [
                    base[k] for k in REPORT_ORDERS + REPORT_FLAGS
                ]
            else:
                assert base[0] is ActionNotTransitive and got[0] is ActionNotTransitive
                raised += 1
    assert raised > 0 and moved_I > 40
