"""The automorphism exact sequence: the compatible-pair action, the
stabilizer, the restriction map rho, the obstruction map omega with its
derivation law, and full exactness reports on fixed extensions."""

import itertools
import random

import pytest

from braceforge import braces, extensions, wells
from braceforge.braces import SkewBrace, brace_automorphisms, trivial_brace
from braceforge.cohomology import embed_pair, h2N, h2_act_triplet, pair_add, restrict_action
from braceforge.errors import ActionNotTransitive, OrderBoundExceeded, ValidationError
from braceforge.extensions import (
    ActionTriple,
    Triplet,
    canonical_section,
    extension_from_triplet,
    extensions_equivalent,
    extract_action,
    extract_triplet,
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
            k for k, cand in enumerate(shifted) if extensions_equivalent(acted, cand) is not None
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
        assert law is _derivation_law_loop(C, omega, grp, elems) is True
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
    assert _derivation_law_loop(C, tampered, grp, elems) is False


def test_exact_sequence_work_counts(split_ext, z4_ext, carry_ext, count_calls):
    for ext in (split_ext, z4_ext, carry_ext):
        matches = count_calls(extensions.extensions_equivalent)
        searches = count_calls(braces.brace_automorphisms)
        rebuilds = count_calls(extensions.extension_from_triplet)
        verify_exact_sequence(ext)
        assert matches["calls"] == 0
        # Autb(H) and Autb(I) for the stabiliser; Autb_I(E) has its own search
        assert searches["calls"] == 2
        # the zero pair in z2N; the Wells map rebuilds no extension
        assert rebuilds["calls"] == 1


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


def test_autb_I_equals_filtered_automorphisms(d4_exts, q8_exts, Z3):
    for ext in d4_exts + q8_exts:
        img = set(ext.inj)
        filtered = [
            g for g in brace_automorphisms(ext.E).sorted_elements()
            if all(g[x] in img for x in img)
        ]
        assert autb_I(ext).sorted_elements() == filtered
    S3 = trivial_brace(dihedral_group(3))
    big = _split_extensions(Z3, S3)[0]
    assert big.E.n == 18
    with pytest.raises(OrderBoundExceeded):
        autb_I(big)


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
