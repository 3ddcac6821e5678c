"""The automorphism exact sequence: the compatible-pair action, the
stabilizer, the restriction map rho, the obstruction map omega with its
derivation law, and full exactness reports on fixed extensions."""

import itertools
import random

import pytest

from braceforge import braces, extensions, wells
from braceforge.braces import SkewBrace, brace_automorphisms, trivial_brace
from braceforge.cohomology import embed_pair, h2N, h2_act_triplet, pair_add, restrict_action
from braceforge.errors import (
    ActionNotTransitive,
    InputError,
    NotTrivialCoefficients,
    ValidationError,
)
from braceforge.extensions import (
    ActionTriple,
    Triplet,
    canonical_section,
    extension_from_triplet,
    extract_action,
    extract_triplet,
    sections,
    validate_extension,
    zero_triplet,
)
from braceforge.groups import (
    cyclic_group,
    dicyclic_group,
    dihedral_group,
    identity_perm,
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
    pair_inv,
    pair_mul,
    restrict_automorphism,
    rho,
    stabilizer_C,
    verify_exact_sequence,
    wells_map,
)
from test_cohomology import _h2N_enumerated
from test_extensions import _extensions_equivalent_loop
from test_groups import _engine_against_oracle, _is_group_matches_closure

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


def _class_fixtures(ext, h2grp, elems):
    """Every shifted extension h.[E], one per representative h of h2grp,
    each rebuilt and validated from E's triplet by extension_from_triplet."""
    t = extract_triplet(ext)
    return [
        extension_from_triplet(ext.H, ext.I, h2_act_triplet(ext.H, ext.I, embed_pair(p, elems), t))
        for p in h2grp.representatives
    ]


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
        theta_res = restrict_automorphism(c2.theta, elems)
        transformed = {}
        for k, rep in enumerate(reps):
            moved = h2grp.class_of(c_act_on_h2(c2, theta_res, rep))
            transformed[k] = moved
            for b in h2grp.b2:
                other = h2grp.class_of(
                    c_act_on_h2(c2, theta_res, pair_add(I_res, rep, b))
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


def _oracle_group(ext, grp):
    """The list-built H^2 of the enumerating oracles for ext's restricted
    action, checked to list grp's representatives in grp's order."""
    old = _h2N_enumerated(ext.H, grp.I, grp.chi)
    assert old.representatives == grp.representatives
    return old


def _wells_inputs(ext):
    """(C, h2grp, elems) as verify_exact_sequence builds them."""
    chi = extract_action(ext, canonical_section(ext))
    I_res, chi_res, elems = restrict_action(ext.I, chi)
    return stabilizer_C(ext.H, ext.I, chi), h2N(ext.H, I_res, chi_res), elems


def _outcome(fn, *args):
    """fn's result, or the type, message and pair witness of what it raised."""
    try:
        return fn(*args)
    except ValidationError as exc:
        return (type(exc), str(exc), exc.witness.get("pair"))


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
    omega = wells_map(carry_ext, C, grp, elems)
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
        back = pair_act(pair_act(split_ext, a), pair_inv(a))
        assert back.E.add.table == split_ext.E.add.table
        assert back.inj == split_ext.inj and back.proj == split_ext.proj


def test_rho_image_and_autb(split_ext, carry_ext):
    assert autb_I(split_ext).order == 2
    induced = {pair for _, pair in rho(split_ext)}
    assert len(induced) == 2
    induced9 = {pair for _, pair in rho(carry_ext)}
    assert len(induced9) == 2


def test_rho_induces_brace_automorphisms(sweep_exts, q8_exts):
    # every gamma of Autb_I(E) induces a well-defined map on H, and both
    # induced maps are brace automorphisms; rho relies on it unchecked
    pairs = 0
    for ext in sweep_exts + q8_exts:
        for gamma, pair in rho(ext):
            assert all(ext.proj[gamma[x]] == pair.phi[ext.proj[x]] for x in range(ext.E.n))
            for B, p in ((ext.H, pair.phi), (ext.I, pair.theta)):
                hom = braces.BraceHom(B, B, p)
                assert hom.is_valid() and hom.is_injective()
            pairs += 1
    assert pairs > len(sweep_exts) + len(q8_exts)


def test_rho_checks_no_brace_hom(split_ext, carry_ext, d4_exts, monkeypatch):
    # rho reads the induced pairs off autb_I's automorphisms without
    # re-checking them as brace homomorphisms
    counter = {"calls": 0}
    is_valid = braces.BraceHom.is_valid

    def counted(self):
        counter["calls"] += 1
        return is_valid(self)

    monkeypatch.setattr(braces.BraceHom, "is_valid", counted)
    gammas = sum(len(rho(ext)) for ext in [split_ext, carry_ext] + d4_exts[:8])
    assert gammas > 10 and counter["calls"] == 0


def test_c_action_is_classwise_well_defined(Z3, carry_ext):
    chi = extract_action(carry_ext, canonical_section(carry_ext))
    I_res, chi_res, elems = restrict_action(Z3, chi)
    grp = h2N(Z3, I_res, chi_res)
    C = stabilizer_C(Z3, Z3, chi)
    for c in C:
        theta_res = restrict_automorphism(c.theta, elems)
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
        C, grp, elems = _wells_inputs(ext)
        got = _outcome(wells_map, ext, C, grp, elems)
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
        C, grp, elems = _wells_inputs(ext)
        try:
            omega = wells_map(ext, C, grp, elems)
        except ActionNotTransitive:
            continue
        law = wells._derivation_law(C, omega, grp, elems)
        # the loop runs on the list-built group of the enumerating oracles,
        # whose class indices are the algebraic group's
        assert law is _derivation_law_loop(C, omega, _oracle_group(ext, grp), elems) is True
        compared += 1
    assert compared > 4


def test_derivation_law_rejects_tampered_omega(carry_ext):
    C, grp, elems = _wells_inputs(carry_ext)
    omega = wells_map(carry_ext, C, grp, elems)
    c = next(c for c in C if omega[c] != 0)
    tampered = dict(omega)
    tampered[c] = omega[c] % (grp.order - 1) + 1
    assert tampered[c] not in (0, omega[c])
    assert wells._derivation_law(C, tampered, grp, elems) is False
    assert _derivation_law_loop(C, tampered, _oracle_group(carry_ext, grp), elems) is False


def test_exact_sequence_work_counts(split_ext, z4_ext, carry_ext, count_calls):
    for ext in (split_ext, z4_ext, carry_ext):
        matches = count_calls(extensions.extensions_equivalent)
        searches = count_calls(braces.brace_automorphisms)
        rebuilds = count_calls(extensions.extension_from_triplet)
        acted = count_calls(wells.pair_act)
        verify_exact_sequence(ext)
        assert matches["calls"] == acted["calls"] == 0
        # Autb(H) and Autb(I) for the stabiliser; Autb_I(E) has its own search
        assert searches["calls"] == 2
        # h2N decides the zero pair with the lifts check, and the Wells map
        # rebuilds no extension
        assert rebuilds["calls"] == 0


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
    # the transported triplet wells_map reads omega from is the triplet of
    # the pair-acted extension, rebuilt and validated by pair_act
    pairs = 0
    for ext in sweep_exts + q8_exts:
        t0 = extract_triplet(ext)
        C = stabilizer_C(ext.H, ext.I, t0.chi)
        for c in C:
            assert wells._acted_triplet(t0, c) == extract_triplet(pair_act(ext, c))
            pairs += 1
    assert pairs == 2112


def test_first_witnesses_are_heads_of_the_full_sets(Z2, sweep_exts, q8_exts):
    # the early-stopping search wells_map, ext_classes and coupling_of use
    # gives the head of every couplings_related set, and None exactly where
    # the full search does: on the coupling of each acted triplet against
    # its source, and of each extension against its neighbour's
    related = unrelated = 0
    exts = sweep_exts + q8_exts
    for ext, other in zip(exts, exts[1:] + exts[:1]):
        t0 = extract_triplet(ext)
        chis = [wells._acted_triplet(t0, c).chi for c in stabilizer_C(ext.H, ext.I, t0.chi)]
        if other.H == ext.H and other.I == ext.I:
            chis.append(extract_triplet(other).chi)
        for chi in chis:
            full = extensions.couplings_related(ext.I, chi, t0.chi)
            heads = None if full is None else tuple(ys[0] for ys in full)
            assert extensions._first_witnesses(ext.I, chi, t0.chi) == heads
            related += full is not None
            unrelated += full is None
    assert (related, unrelated) == (1701, 749)
    # a twist at 0 by a non-central y leaves 0 out of Theta_0
    S3 = trivial_brace(dihedral_group(3))
    chi = identity_triple(Z2, S3)
    moved = extensions.twist_action(S3, chi, (1, 0))
    assert extensions.couplings_related(S3, chi, moved) is None
    assert extensions._first_witnesses(S3, chi, moved) is None


def test_wells_map_checks_its_inputs(Z2, Z4, flip4, split_ext):
    # as pair_act does: a non-automorphism pair of a hand-built stabiliser
    # and a non-trivial kernel are refused before any omega is read
    ext = extension_from_triplet(Z2, Z4, zero_triplet(Z2, Z4))
    _, grp, elems = _wells_inputs(ext)
    swap = (0, 2, 1, 3)  # exchanges an element of order 4 with one of order 2
    C = StabilizerC(Z2, Z4, extract_triplet(ext).chi, [pair_identity(Z2, Z4), AutPair((0, 1), swap)])
    with pytest.raises(InputError, match="theta is not a brace automorphism"):
        wells_map(ext, C, grp, elems)
    E = semidirect_product(Z2, flip4, identity_triple(Z2, flip4))
    wide = validate_extension(E, Z2, flip4, tuple(range(4)), tuple(x // 4 for x in range(8)))
    with pytest.raises(NotTrivialCoefficients):
        wells_map(wide, *_wells_inputs(split_ext))


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
