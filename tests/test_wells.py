"""The automorphism exact sequence: the compatible-pair action, the
stabilizer, the restriction map rho, the obstruction map omega with its
derivation law, and full exactness reports on fixed extensions."""

import itertools

import pytest

from braceforge import wells
from braceforge.braces import brace_automorphisms, trivial_brace
from braceforge.cohomology import h2N, restrict_action
from braceforge.extensions import (
    ActionTriple,
    Triplet,
    canonical_section,
    extension_from_triplet,
    extract_action,
    validate_extension,
    zero_triplet,
)
from braceforge.groups import cyclic_group, identity_perm
from braceforge.split import identity_triple
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


def test_negation_split_report(Z2, Z3):
    neg = (0, 2, 1)
    idp = identity_perm(3)
    chi = ActionTriple((idp, neg), (idp, neg), (idp, neg))
    ext = extension_from_triplet(Z2, Z3, Triplet(chi, ((0, 0), (0, 0)), ((0, 0), (0, 0))))
    rep = verify_exact_sequence(ext)
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
