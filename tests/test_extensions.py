"""Extensions: validation and exactness, sections, triplet extraction and
rebuild, the identity sweeps with their sign variants, couplings, twists,
triplet-level cohomology sets and exhaustive classification."""

import collections
import itertools
import random
from typing import Iterator, Optional, Sequence

import numpy as np
import pytest

from braceforge import braces as braces_mod
from braceforge import catalog
from braceforge import extensions as extensions_mod
from braceforge import groups as groups_mod
from braceforge.braces import (
    BraceHom,
    SkewBrace,
    brace_automorphisms,
    find_brace_isomorphism,
    is_ideal,
    trivial_brace,
    validate_brace,
)
from braceforge.cohomology import ext_bijection_check, z2N
from braceforge.errors import (
    BraceAxiomFailed,
    InputError,
    InternalInconsistency,
    NotExact,
    TripletInvalid,
    ValidationError,
)
from braceforge.extensions import (
    ActionTriple,
    Extension,
    _brace_monos,
    Triplet,
    canonical_section,
    coupling_of,
    couplings_classwise_equal,
    couplings_related,
    enumerate_all_extensions,
    ext_classes,
    extension_from_triplet,
    extensions_equivalent,
    extract_action,
    extract_triplet,
    h2_alpha,
    is_valid_triplet,
    twist_triplet,
    triplets_equivalent,
    twist_action,
    validate_extension,
    z2_alpha,
    zero_triplet,
)
from braceforge.groups import (
    FiniteGroup,
    _group_table_index,
    _relabel_stack,
    _zero_fixing_perms,
    all_group_tables,
    compose,
    cyclic_group,
    dihedral_group,
    group_from_elements,
    identity_perm,
    inner_automorphism,
    invert_perm,
    klein_group,
    relabel_table,
    standard_groups_of_order,
    validate_group,
)
from braceforge.split import (
    _triplet_tables,
    enumerate_split_triples,
    identity_triple,
    semidirect_product,
)
from test_generator_axioms import _cube_brace_axiom
from test_groups import _engine_against_oracle


def sections(ext: Extension) -> Iterator[tuple]:
    """All st-sections, lazily: s(0) = 0, s(h) ranges over the fiber."""
    fibers = [ext.fiber(h) for h in range(ext.H.n)]
    for tail in itertools.product(*fibers[1:]):
        yield (0,) + tail


def perm_pow(p, k):
    out = identity_perm(len(p))
    for _ in range(k):
        out = compose(p, out)
    return out


@pytest.fixture(scope="module")
def order6_coefficients():
    """Nonabelian-addition brace of order 6 on pairs (n mod 3, m mod 2)."""

    def idx(n, m):
        return 2 * (n % 3) + (m % 2)

    add = [[0] * 6 for _ in range(6)]
    circ = [[0] * 6 for _ in range(6)]
    for n in range(3):
        for m in range(2):
            for s in range(3):
                for t in range(2):
                    add[idx(n, m)][idx(s, t)] = idx(n + 2 ** m * s, m + t)
                    circ[idx(n, m)][idx(s, t)] = idx(2 ** t * n + 2 ** m * s, m + t)
    return validate_brace(add, circ)


@pytest.fixture(scope="module")
def ext48(order6_coefficients):
    """Order-48 split extension twisting the order-6 coefficients by an
    order-2 automorphism family over cyclic Z8."""
    H8 = trivial_brace(cyclic_group(8))
    psi = tuple((2 * (x // 2) % 3) * 2 + (x % 2) for x in range(6))
    nu = tuple(perm_pow(psi, k) for k in range(8))
    t = ActionTriple(nu, tuple(identity_perm(6) for _ in range(8)), nu)
    E = semidirect_product(H8, order6_coefficients, t)
    return validate_extension(
        E, H8, order6_coefficients, tuple(range(6)), tuple(x // 6 for x in range(48))
    )


def test_validate_extension_errors(Z2, Z3, split_ext):
    E, H, I = split_ext.E, split_ext.H, split_ext.I
    with pytest.raises(InputError):
        validate_extension(E, H, I, (0, 1), split_ext.proj)
    with pytest.raises(NotExact) as exc:
        validate_extension(E, H, I, split_ext.inj, tuple(x % 2 for x in range(6)))
    assert "homomorphism" in str(exc.value)
    # proj must kill exactly the embedded copy
    bad_proj = tuple(0 for _ in range(6))
    with pytest.raises(NotExact):
        validate_extension(E, H, I, split_ext.inj, bad_proj)
    # an out-of-range value of inj or proj is no brace hom, not an IndexError
    with pytest.raises(NotExact, match="inj is not a brace homomorphism"):
        validate_extension(E, H, I, (0, 6, 2), split_ext.proj)
    with pytest.raises(NotExact, match="proj is not a brace homomorphism"):
        validate_extension(E, H, I, split_ext.inj, (0, 0, 0, 2, 2, 2))


def test_sections_and_canonical(split_ext):
    all_sections = list(sections(split_ext))
    assert len(all_sections) == 3
    assert canonical_section(split_ext) in all_sections
    assert canonical_section(split_ext) == (0, 3)


def test_extract_triplet_refuses_a_non_section(split_ext):
    # a given s is checked as a section: 0 at 0, indexed by H, each value
    # in its fiber (the canonical section is (0, 3))
    for s in ((0, 0), (0, 9), (0, -1), (0, 1), (0,), (1, 3)):
        with pytest.raises(InputError, match="section"):
            extract_triplet(split_ext, s)
    assert extract_triplet(split_ext, (0, 3)) == extract_triplet(split_ext)


def test_triplet_extraction_round_trip(ext48):
    T = extract_triplet(ext48)
    rebuilt = extension_from_triplet(ext48.H, ext48.I, T)
    # the rebuild lives on circle-decomposed pair labels while the split
    # product uses additive ones, so equality holds as extensions, not as
    # raw tables
    assert extensions_equivalent(ext48, rebuilt) is not None
    assert extract_triplet(rebuilt) == T


def test_both_pair_conventions_extract_the_same_triplet(Z2, Z3):
    for chi in enumerate_split_triples(Z2, Z3):
        t = Triplet(chi, ((0, 0), (0, 0)), ((0, 0), (0, 0)))
        built = extension_from_triplet(Z2, Z3, t)
        E = semidirect_product(Z2, Z3, chi)
        product = validate_extension(
            E, Z2, Z3, tuple(range(3)), tuple(x // 3 for x in range(6))
        )
        assert extract_triplet(product) == t
        assert extensions_equivalent(built, product) is not None


# --- the triplet laws cell by cell, with their published sign variants -----
#
# The package decides these laws by rebuilding the triplet
# (extension_from_triplet), and cohomology.z2N reads them off rebuilt unit
# triplets; the witnesses below are the oracles and the erratum
# diagnostics the sweeps pin.


def action_identities_witness(
    H: SkewBrace, I: SkewBrace, t: Triplet, as_written: bool = False
) -> Optional[tuple]:
    """First (law, h1, h2) violating the three composition identities.

    Derived forms (how extracted data actually composes):

        nu_{h1 o h2}    = nu_{h1} nu_{h2} lambda^-1_{tau(h1,h2)}
        mu_{h1 + h2}    = i+_{beta(h1,h2)} mu_{h2} mu_{h1}
        sigma_{h1 o h2} = io_{tau(h1,h2)} sigma_{h2} sigma_{h1}

    as_written=True flips the conjugators to i+_{-beta(h1,h2)} and
    io_{tau(h1,h2)^-1}; kept as a diagnostic for the published forms.
    """
    nu, mu, sigma = t.chi.nu, t.chi.mu, t.chi.sigma
    for h1 in range(H.n):
        for h2 in range(H.n):
            b = t.beta[h1][h2]
            tv = t.tau[h1][h2]
            if as_written:
                b = I.add.inv[b]
                tv = I.circ.inv[tv]
            lam_inv = invert_perm(I.lam(t.tau[h1][h2]))
            if nu[H.circ.table[h1][h2]] != compose(nu[h1], compose(nu[h2], lam_inv)):
                return ("nu", h1, h2)
            rhs_mu = compose(inner_automorphism(I.add, b), compose(mu[h2], mu[h1]))
            if mu[H.add.table[h1][h2]] != rhs_mu:
                return ("mu", h1, h2)
            rhs_sg = compose(inner_automorphism(I.circ, tv), compose(sigma[h2], sigma[h1]))
            if sigma[H.circ.table[h1][h2]] != rhs_sg:
                return ("sigma", h1, h2)
    return None


def cocycle_conditions_witness(
    H: SkewBrace, I: SkewBrace, t: Triplet, as_written: bool = False
) -> Optional[tuple]:
    """First (which, h1, h2, h3) violating the two cocycle conditions.

    Derived forms (term order matters when I is nonabelian):

        beta(h1, h2+h3) + beta(h2, h3) = beta(h1+h2, h3) + mu_{h3}(beta(h1, h2))
        tau(h1, h2 o h3) o tau(h2, h3) = tau(h1 o h2, h3) o sigma_{h3}(tau(h1, h2))

    as_written=True swaps each right-hand side's two terms, matching the
    published "... - beta(h1+h2,h3) - mu(...) = 0" reading.
    """
    Ia, Ic = I.add.table, I.circ.table
    Ha, Hc = H.add.table, H.circ.table
    beta, tau = t.beta, t.tau
    mu, sigma = t.chi.mu, t.chi.sigma
    for h1 in range(H.n):
        for h2 in range(H.n):
            for h3 in range(H.n):
                lhs_b = Ia[beta[h1][Ha[h2][h3]]][beta[h2][h3]]
                x, y = beta[Ha[h1][h2]][h3], mu[h3][beta[h1][h2]]
                rhs_b = Ia[y][x] if as_written else Ia[x][y]
                if lhs_b != rhs_b:
                    return ("beta", h1, h2, h3)
                lhs_t = Ic[tau[h1][Hc[h2][h3]]][tau[h2][h3]]
                u, v = tau[Hc[h1][h2]][h3], sigma[h3][tau[h1][h2]]
                rhs_t = Ic[v][u] if as_written else Ic[u][v]
                if lhs_t != rhs_t:
                    return ("tau", h1, h2, h3)
    return None


def _parent_relation_cells(
    H: SkewBrace,
    I: SkewBrace,
    t: Triplet,
    as_written: bool = False,
    ys: Optional[Sequence[int]] = None,
) -> Iterator[tuple]:
    """Yield ((h1, h2, h3, y1, y2, y3), lhs, rhs) for every instance of the
    parent relation (see parent_relation_witness), in lex order; ys limits
    the range of the three y coordinates (default: all of I)."""
    Ha, Hc, Hneg = H.add.table, H.circ.table, H.add.inv
    Ia, Ic, Ineg = I.add.table, I.circ.table, I.add.inv
    nu, mu, sigma = t.chi.nu, t.chi.mu, t.chi.sigma
    beta, tau = t.beta, t.tau
    inv_nu = [invert_perm(p) for p in nu]
    rng = range(H.n)
    if ys is None:
        ys = range(I.n)
    for h1 in rng:
        nh1 = Hneg[h1]
        b_h1_inv = beta[h1][nh1]
        mu_n1 = mu[nh1]
        nu1 = nu[h1]
        for h2 in rng:
            h12 = Hc[h1][h2]
            g = Ha[h12][nh1]
            b12 = beta[h12][nh1]
            nu12 = nu[h12]
            t12 = tau[h1][h2]
            s2 = sigma[h2]
            for h3 in rng:
                h13 = Hc[h1][h3]
                h23 = Ha[h2][h3]
                first_b = beta[Ha[h13][nh1] if as_written else g][h13]
                mu13, nu13 = mu[h13], nu[h13]
                t13 = tau[h1][h3]
                s3 = sigma[h3]
                hL = Hc[h1][h23]
                nuL = nu[hL]
                tL = tau[h1][h23]
                sL = sigma[h23]
                b23 = beta[h2][h3]
                nu2, nu3, mu3 = nu[h2], nu[h3], mu[h3]
                inv_nu23 = inv_nu[h23]
                for y1 in ys:
                    ny1 = Ineg[nu1[y1]]
                    sLy1 = sL[y1]
                    s2y1 = s2[y1]
                    s3y1 = s3[y1]
                    for y2 in ys:
                        inner2 = Ic[Ic[t12][s2y1]][y2]
                        if as_written:
                            mid = Ia[Ia[Ia[b12][mu_n1[nu12[inner2]]]][ny1]][Ineg[b_h1_inv]]
                        else:
                            mid = Ia[Ia[b12][mu_n1[Ia[nu12[inner2]][ny1]]]][Ineg[b_h1_inv]]
                        acc = Ia[first_b][mu13[mid]]
                        w_pre = Ia[b23][mu3[nu2[y2]]]
                        for y3 in ys:
                            rhs = Ia[acc][nu13[Ic[Ic[t13][s3y1]][y3]]]
                            w = inv_nu23[Ia[w_pre][nu3[y3]]]
                            lhs = nuL[Ic[Ic[tL][sLy1]][w]]
                            yield (h1, h2, h3, y1, y2, y3), lhs, rhs


def parent_relation_witness(
    H: SkewBrace, I: SkewBrace, t: Triplet, as_written: bool = False
) -> Optional[tuple]:
    """First 6-tuple violating the joint compatibility of (chi, beta, tau).

    The relation equates the additive I-part of x1 o (x2 + x3) with that of
    x1 o x2 - x1 + x1 o x3 in section coordinates.  The derived right side is

        beta(h1 o h2 - h1, h1 o h3)
        + mu_{h1 o h3}( beta(h1 o h2, -h1)
                        + mu_{-h1}( nu_{h1 o h2}(tau(h1,h2) o sigma_{h2}(y1) o y2)
                                    - nu_{h1}(y1) )
                        - beta(h1, -h1) )
        + nu_{h1 o h3}( tau(h1,h3) o sigma_{h3}(y1) o y3 )

    as_written=True uses the published variant: the first beta argument is
    h1 o h3 - h1 and -nu_{h1}(y1) is applied after mu_{-h1} instead of
    inside it.
    """
    for cell, lhs, rhs in _parent_relation_cells(H, I, t, as_written):
        if lhs != rhs:
            return cell
    return None


def test_identity_sweeps_across_sections(ext48):
    H, I = ext48.H, ext48.I
    rng = random.Random(7)
    derived = {"act": 0, "coc": 0, "par": 0}
    as_written = {"act": 0, "coc": 0, "par": 0}
    for _ in range(12):
        s = tuple(0 if h == 0 else h * 6 + rng.randrange(6) for h in range(8))
        t = extract_triplet(ext48, s)
        derived["act"] += action_identities_witness(H, I, t) is not None
        derived["coc"] += cocycle_conditions_witness(H, I, t) is not None
        derived["par"] += parent_relation_witness(H, I, t) is not None
        as_written["act"] += action_identities_witness(H, I, t, as_written=True) is not None
        as_written["coc"] += cocycle_conditions_witness(H, I, t, as_written=True) is not None
        as_written["par"] += parent_relation_witness(H, I, t, as_written=True) is not None
    assert derived == {"act": 0, "coc": 0, "par": 0}
    assert as_written == {"act": 12, "coc": 11, "par": 12}


def test_identity_sweeps_nonabelian_circle(Z2):
    s3 = [(0, 1, 2), (1, 2, 0), (2, 0, 1), (0, 2, 1), (2, 1, 0), (1, 0, 2)]
    S3 = trivial_brace(
        group_from_elements(s3, lambda p, q: tuple(p[q[i]] for i in range(3)))
    )
    tid = ActionTriple(
        (identity_perm(6),) * 2, (identity_perm(6),) * 2, (identity_perm(6),) * 2
    )
    E = semidirect_product(Z2, S3, tid)
    ext = validate_extension(E, Z2, S3, tuple(range(6)), tuple(x // 6 for x in range(12)))
    derived = [0, 0, 0]
    as_written = [0, 0, 0]
    for s1 in range(6):
        t = extract_triplet(ext, (0, 6 + s1))
        derived[0] += action_identities_witness(Z2, S3, t) is not None
        derived[1] += cocycle_conditions_witness(Z2, S3, t) is not None
        derived[2] += parent_relation_witness(Z2, S3, t) is not None
        as_written[0] += action_identities_witness(Z2, S3, t, as_written=True) is not None
        as_written[1] += cocycle_conditions_witness(Z2, S3, t, as_written=True) is not None
        as_written[2] += parent_relation_witness(Z2, S3, t, as_written=True) is not None
    assert derived == [0, 0, 0]
    assert as_written == [2, 0, 5]


def test_section_change_is_a_twist(ext48):
    H, I = ext48.H, ext48.I
    s_a = canonical_section(ext48)
    s_b = tuple(0 if h == 0 else h * 6 + (h % 6) for h in range(8))
    ta = extract_triplet(ext48, s_a)
    tb = extract_triplet(ext48, s_b)
    theta = triplets_equivalent(H, I, ta, tb)
    expected = tuple(
        ext48.into_I(ext48.E.circ.table[ext48.E.circ.inv[s_a[h]]][s_b[h]])
        for h in range(8)
    )
    assert theta == expected
    assert twist_triplet(H, I, ta, theta) == tb


def test_coupling_is_section_independent(ext48):
    # coupling_of itself raises when sampled sections disagree
    coup = coupling_of(ext48)
    ta = extract_triplet(ext48, canonical_section(ext48))
    tb = extract_triplet(ext48, tuple(0 if h == 0 else h * 6 + (h % 6) for h in range(8)))
    witness_sets = couplings_related(ext48.I, ta.chi, tb.chi)
    assert witness_sets is not None and 0 in witness_sets[0]
    assert couplings_classwise_equal(coup, ta.chi, tb.chi)


def test_coupling_of_builds_no_group(ext48, count_calls):
    # a Coupling is its twist orbits: no Aut(I, +), normal closure or inner
    # group is built; the coarse diagnostic builds them from coup.I
    built = [count_calls(fn) for fn in (groups_mod.automorphism_group,
                                        groups_mod.normal_closure, groups_mod.inner_group)]
    coup = coupling_of(ext48)
    assert [c["calls"] for c in built] == [0, 0, 0]
    # each orbit lists every y of I once, under the member its twist gives
    assert all(sorted(y for ys in orbit.values() for y in ys) == list(range(ext48.I.n))
               for orbit in coup.orbits)
    chi = extract_action(ext48, canonical_section(ext48))
    assert coup.chi == chi and coup.witnesses(chi)[0][0] == 0
    assert couplings_classwise_equal(coup, chi, chi)
    assert [c["calls"] for c in built] == [1, 1, 2]


def test_triplet_cohomology_sets(Z2):
    tid = ActionTriple((identity_perm(2),) * 2, (identity_perm(2),) * 2, (identity_perm(2),) * 2)
    zset = z2_alpha(Z2, Z2, tid)
    assert len(zset) == 4
    classes = h2_alpha(Z2, Z2, tid)
    assert len(classes) == 4
    assert sorted(len(c) for c in classes) == [1, 1, 1, 1]
    assert sum(1 for t in zset if t.beta[1][1] == 1) == 2


def _round_trip_extension(H, I, t):
    """Oracle for extension_from_triplet, with no shape check: the rebuilt
    tables must be a brace, the rebuild must pass validate_extension, and
    the canonical section must extract t back.  None when any fails."""
    add, circ = _triplet_tables(H, I, [t.chi], [t.beta], [t.tau])
    try:
        E = validate_brace(add[0], circ[0])
        ext = validate_extension(E, H, I, tuple(range(I.n)), tuple(x // I.n for x in range(E.n)))
    except ValidationError:
        return None
    return ext if extract_triplet(ext, canonical_section(ext)) == t else None


def _z2_alpha_candidates(H, I, alpha):
    """Every triplet z2_alpha decides: the twists of alpha with every
    normalized (beta, tau)."""
    free = H.n - 1
    chis = {twist_action(I, alpha, (0,) + tail): None
            for tail in itertools.product(range(I.n), repeat=free)}

    def table(cells):
        rows = [cells[k * free:(k + 1) * free] for k in range(free)]
        return ((0,) * H.n,) + tuple((0,) + tuple(r) for r in rows)

    cells = [table(c) for c in itertools.product(range(I.n), repeat=free * free)]
    return [Triplet(chi, b, t) for chi in chis for b in cells for t in cells]


def _off_shape(t, n):
    """Copies of the triplet t (|I| = n) that fail the shape check in one
    place each: nu_0 or mu_0 not the identity, a sigma_h moving 0, or a
    cocycle value on a degenerate pair."""
    rotate = tuple((y + 1) % n for y in range(n))
    swap = (0,) + tuple(range(n - 1, 0, -1))

    def family(fam, h, p):
        return fam[:h] + (p,) + fam[h + 1:]

    def cell(c, h1, h2):
        return tuple(tuple(1 if (a, b) == (h1, h2) else v for b, v in enumerate(row))
                     for a, row in enumerate(c))

    chi = t.chi
    out = [Triplet(chi, cell(t.beta, 1, 0), t.tau), Triplet(chi, t.beta, cell(t.tau, 0, 1)),
           Triplet(ActionTriple(chi.nu, chi.mu, family(chi.sigma, 1, rotate)), t.beta, t.tau)]
    for p in (rotate, swap) if n > 2 else (rotate,):
        out.append(Triplet(ActionTriple(family(chi.nu, 0, p), chi.mu, chi.sigma), t.beta, t.tau))
        out.append(Triplet(ActionTriple(chi.nu, family(chi.mu, 0, p), chi.sigma), t.beta, t.tau))
    return out


def test_triplet_rebuild_is_an_extension(Z2, Z3, flip4, xor4):
    # every candidate of z2_alpha on these inputs, valid or not, the seeded
    # triplets of criterion 9, and copies of the valid ones that fail the
    # shape check: the direct rebuild accepts exactly the triplets the
    # validated round trip accepts, as the same extension
    from test_acceptance import SEED

    cases = [(H, I, identity_triple(H, I)) for H, I in ((Z2, Z2), (Z2, Z3), (Z3, Z2))]
    cases += [(Z2, I, t) for I in (flip4, xor4) for t in enumerate_split_triples(Z2, I)]
    inputs = [(H, I, t) for H, I, alpha in cases for t in _z2_alpha_candidates(H, I, alpha)]
    rng = random.Random(SEED)
    for H, I in ((Z2, Z2), (Z3, Z2)):
        pool = [Triplet(chi, p.g, p.f) for chi in enumerate_split_triples(H, I)
                for p in z2N(H, I, chi)]
        inputs += [(H, I, rng.choice(pool)) for _ in range(100)]
    valid = []
    for H, I, t in inputs:
        want = _round_trip_extension(H, I, t)
        try:
            got = extension_from_triplet(H, I, t)
        except TripletInvalid as exc:
            assert want is None and str(exc).startswith("rebuilt tables are not a brace")
            continue
        assert got == want
        valid.append((H, I, t))
    assert 200 < len(valid) < len(inputs)
    for H, I, t in valid[::4]:
        for bad in _off_shape(t, I.n):
            assert _round_trip_extension(H, I, bad) is None
            with pytest.raises(TripletInvalid):
                extension_from_triplet(H, I, bad)


def test_enumerate_and_classify_2_by_2(Z2):
    exts = enumerate_all_extensions(Z2, Z2)
    assert len(exts) == 12
    buckets = ext_classes(Z2, Z2)
    assert len(buckets) == 1
    sizes = sorted(len(c) for _, classes in buckets for c in classes)
    assert sizes == [3, 3, 3, 3]


def test_enumerate_and_classify_2_by_3(Z2, Z3):
    buckets = ext_classes(Z2, Z3)
    assert len(buckets) == 6
    assert [len(classes) for _, classes in buckets] == [1, 1, 1, 1, 1, 1]
    assert sum(len(c) for _, classes in buckets for c in classes) == 560


def test_enumerate_and_classify_3_by_2(Z2, Z3):
    # the quotient group of the total brace can be nonabelian here, which
    # exercises the additive-normality requirement on embedded kernels
    buckets = ext_classes(Z3, Z2)
    assert len(buckets) == 1
    assert [len(classes) for _, classes in buckets] == [1]
    assert sum(len(c) for _, classes in buckets for c in classes) == 120


def _section_shift_map_loop(e1, e2, shift):
    """The per-element map s1(h) o y -> s2(h) o shift(h) o y from E1 to E2,
    s1 and s2 the canonical sections: the oracle for
    extensions._section_shift_maps and its one-row case section_shift_map."""
    E1c, E2c, inj2 = e1.E.circ, e2.E.circ.table, e2.inj
    s1, s2 = canonical_section(e1), canonical_section(e2)
    out = []
    for x in range(e1.E.n):
        h = e1.proj[x]
        y = e1.into_I(E1c.table[E1c.inv[s1[h]]][x])
        out.append(E2c[E2c[s2[h]][inj2[shift[h]]]][inj2[y]])
    return tuple(out)


def _extensions_equivalent_loop(e1, e2):
    """Oracle for extensions_equivalent: one full _section_shift_map_loop
    per shift, in the same order; returns the map found, or None.  It
    shares no step with triplets_equivalent, so the oracles here and in
    test_wells.py and test_cohomology.py decide equivalence with it."""
    if e1.H != e2.H or e1.I != e2.I or e1.E.n != e2.E.n:
        return None
    for tail in itertools.product(range(e1.I.n), repeat=e1.H.n - 1):
        phi = _section_shift_map_loop(e1, e2, (0,) + tail)
        hom = BraceHom(e1.E, e2.E, phi)
        if (hom.is_valid() and hom.is_injective()
                and all(e2.proj[phi[x]] == e1.proj[x] for x in range(e1.E.n))
                and all(phi[e1.inj[y]] == e2.inj[y] for y in range(e1.I.n))):
            return phi
    return None


def test_extensions_equivalent_matches_shift_loop(Z2, Z3):
    rng = random.Random(5150)
    exts = enumerate_all_extensions(Z2, Z2)
    pairs = [(a, b) for a in exts for b in exts]
    for H, I in ((Z2, Z3), (Z3, Z2)):
        more = enumerate_all_extensions(H, I)
        pairs += [(rng.choice(more), rng.choice(more)) for _ in range(150)]
    pairs += [(exts[0], catalog.split_z2_z3_extension())]
    found = 0
    for e1, e2 in pairs:
        hom = extensions_equivalent(e1, e2)
        expected = _extensions_equivalent_loop(e1, e2)
        assert (hom.map if hom is not None else None) == expected
        found += expected is not None
    assert 0 < found < len(pairs)


def _quotient_by_ideal(E, kernel):
    """(quotient brace, coset label per E-element); labels sorted by
    minimal coset member, identity coset first.

    kernel must be an ideal (braces.is_ideal): its additive cosets are
    then its circle cosets and the quotient of E by it is a skew brace,
    so the tables are wrapped without validation."""
    reps = {}
    labels = [None] * E.n
    cosets = []
    for x in range(E.n):
        c = frozenset(E.add.table[x][k] for k in kernel)
        key = min(c)
        if key not in reps:
            reps[key] = None
            cosets.append(key)
    cosets.sort()
    index = {key: i for i, key in enumerate(cosets)}
    for x in range(E.n):
        labels[x] = index[min(E.add.table[x][k] for k in kernel)]
    m = len(cosets)
    add = [[0] * m for _ in range(m)]
    circ = [[0] * m for _ in range(m)]
    for a_key in cosets:
        for b_key in cosets:
            add[index[a_key]][index[b_key]] = labels[E.add.table[a_key][b_key]]
            circ[index[a_key]][index[b_key]] = labels[E.circ.table[a_key][b_key]]
    return SkewBrace(FiniteGroup(add), FiniteGroup(circ)), tuple(labels)


def _quotient_projections(E, H, kernel, auts_H):
    """Oracle for extensions._brace_homs_by_kernel: every surjective brace
    hom E -> H with kernel `kernel`, as proj tuples, built as the quotient
    map followed by an isomorphism of the quotient onto H and each
    automorphism of H in `auts_H`, in that order; [] when `kernel` is not
    an ideal or the quotient is not isomorphic to H."""
    try:
        if not is_ideal(E, kernel):
            return []
    except ValidationError:
        return []
    Q, labels = _quotient_by_ideal(E, kernel)
    iso = find_brace_isomorphism(Q, H)
    if iso is None:
        return []
    base = tuple(iso[labels[x]] for x in range(E.n))
    return [tuple(a[hx] for hx in base) for a in auts_H]


def enumerate_pairwise(H, I, braces):
    """enumerate_all_extensions over a given list of candidate braces."""
    auts_H = sorted(brace_automorphisms(H))
    out = []
    for E in braces:
        for inj in _brace_monos(I, E):
            for proj in _quotient_projections(E, H, frozenset(inj), auts_H):
                out.append(validate_extension(E, H, I, inj, proj))
    out.sort(key=Extension.sort_key)
    return out


def _partition_first_fit(H, I, triplets):
    """Oracle for _partition_triplets: index lists of the classes under
    triplets_equivalent, first fit, each triplet joining the first class
    whose head it matches."""
    classes = []
    for k, t in enumerate(triplets):
        for members in classes:
            if triplets_equivalent(H, I, triplets[members[0]], t) is not None:
                members.append(k)
                break
        else:
            classes.append([k])
    return classes


def _ext_classes_pairwise(I, exts):
    """Oracle for ext_classes: the pairwise partition of the whole sorted
    extension list, then the grouping of classes by coupling."""
    classes = []
    for ext in exts:
        for cls in classes:
            if _extensions_equivalent_loop(cls[0], ext) is not None:
                cls.append(ext)
                break
        else:
            classes.append([ext])
    buckets = []
    for cls in classes:
        chi = extract_action(cls[0], canonical_section(cls[0]))
        for rep_chi, group in buckets:
            if couplings_related(I, rep_chi, chi) is not None:
                group.append(cls)
                break
        else:
            buckets.append((chi, [cls]))
    return buckets


@pytest.fixture(scope="module")
def degenerate_pairs(flip4, xor4, order6_coefficients):
    """(Z1, B) and (B, Z1) for the braces B of orders 4 to 6 the tests
    classify against the pairwise oracle."""
    Z1 = trivial_brace(cyclic_group(1))
    braces = [trivial_brace(cyclic_group(4)), trivial_brace(klein_group()), flip4, xor4,
              trivial_brace(cyclic_group(5)), trivial_brace(cyclic_group(6)),
              trivial_brace(dihedral_group(3)), order6_coefficients]
    return [(Z1, B) for B in braces] + [(B, Z1) for B in braces]


def test_enumerate_matches_pairwise_validation(Z2, Z3, degenerate_pairs, pairwise_braces):
    pairs = [(Z2, Z2), (Z2, Z3), (Z3, Z2)] + degenerate_pairs
    for H, I in pairs:
        fast = enumerate_all_extensions(H, I)
        slow = enumerate_pairwise(H, I, pairwise_braces(H.n * I.n))
        assert fast == slow
        assert [e.sort_key() for e in fast] == [e.sort_key() for e in slow]
        got, want = ext_classes(H, I), _ext_classes_pairwise(I, slow)
        assert [chi for chi, _ in got] == [chi for chi, _ in want]
        assert [classes for _, classes in got] == [classes for _, classes in want]
        # the heads route reads each class's first member and size off the
        # orbits, with the same couplings in the same order
        heads = extensions_mod._class_heads(H, I)
        assert [chi for chi, _ in heads] == [chi for chi, _ in got]
        assert [[(head, size) for head, size in classes] for _, classes in heads] == [
            [(cls[0], len(cls)) for cls in classes] for _, classes in got
        ]
    assert len(enumerate_all_extensions(Z2, Z3)) == 560


def _validated(stack):
    """_brace_orbits's group argument, with every table validated."""
    return lambda k: validate_group(stack[k].tolist())


def _index_orbits(index):
    return extensions_mod._brace_orbits(index, _validated(index[0]))


def _unreachable(index, k):
    """The relabelling index with stack position k dropped from the stack
    and from home: the later positions no longer round-trip."""
    stack, perms, where, home = index
    return np.delete(stack, k, axis=0), perms, where, np.delete(home, k, axis=0)


def _index_orbit_tables(stack, orbits):
    """The (permutation, add table, circ table) of each copy of index-form
    orbits (_brace_orbits), as _orbit_tables gives them for the oracle."""
    perms = [tuple(p) for p in _zero_fixing_perms(stack.shape[1]).tolist()]
    tables = [tuple(map(tuple, t)) for t in stack.tolist()]
    return [[(perms[q], tables[a], tables[c]) for q, a, c in copies] for _, copies in orbits]


def test_brace_orbits_census(pairwise_braces):
    # skew braces up to isomorphism (Guarnieri-Vendramin, Math. Comp. 86)
    census = []
    for n in range(1, 8):
        index = _group_table_index(n)
        stack = index[0]
        orbits = _index_orbits(index)
        census.append(len(orbits))
        if n > 6:
            continue
        rows = _index_orbit_tables(stack, orbits)
        copies = [(add, circ) for orbit in rows for _, add, circ in orbit]
        pairwise = [(E.add.table, E.circ.table) for E in pairwise_braces(n)]
        assert len(copies) == len(set(copies)) == len(pairwise)
        assert set(copies) == set(pairwise)
        for (rep, _), ((p0, add0, circ0), *rest) in zip(orbits, rows):
            assert p0 == identity_perm(n)
            assert (rep.add.table, rep.circ.table) == (add0, circ0)
            # the least copy, where _class_heads reads each class's head
            assert all((add0, circ0) < (add, circ) for _, add, circ in rest)
            for p, add, circ in rest:
                assert add == rep.add.relabel(p).table and circ == rep.circ.relabel(p).table
    assert census == [1, 1, 1, 4, 1, 6, 1]
    assert len(pairwise_braces(6)) == 280
    # every relabelled table must be among the given ones: an index whose
    # stack lacks table 1 does not round-trip
    with pytest.raises(InternalInconsistency):
        _index_orbits(_unreachable(_group_table_index(6), 1))


def _brace_orbits_every_table(groups):
    """Oracle for _brace_orbits: the brace axiom decided for every additive
    table, not one per relabelling class; pairs already in an orbit are
    skipped, and the accepted count is the plain sum over all tables."""
    index = {G.np_table.tobytes(): k for k, G in enumerate(groups)}
    perms = _zero_fixing_perms(groups[0].n)
    circs = np.stack([G.np_table for G in groups])

    def images(G):
        try:
            return [index[t.tobytes()] for t in _relabel_stack(G.np_table, perms)]
        except KeyError:
            raise InternalInconsistency(
                f"a relabelled group table of order {G.n} is not among the given tables"
            ) from None

    accepted = 0
    seen = set()
    orbits = []
    for i, add in enumerate(groups):
        ok = braces_mod._brace_axiom_holds(add, circs)
        accepted += int(ok.sum())
        for j in np.flatnonzero(ok).tolist():
            if (i, j) in seen:
                continue
            orbit = []
            for p, pair in zip(perms, zip(images(add), images(groups[j]))):
                if pair not in seen:
                    seen.add(pair)
                    orbit.append((tuple(p.tolist()),
                                  braces_mod.SkewBrace(*(groups[k] for k in pair))))
            orbits.append(orbit)
    if len(seen) != accepted:
        raise InternalInconsistency(f"relabelling {accepted} brace tables gave {len(seen)}")
    return orbits


def _orbit_tables(orbits):
    return [[(p, E.add.table, E.circ.table) for p, E in orbit] for orbit in orbits]


def test_brace_orbits_match_every_table_pass():
    # the stack comes with its relabelling index: where[g] holds the stack
    # positions of standard group g relabelled by every 0-fixing
    # permutation, home[k] one (g, p) landing on table k; one axiom pass
    # per additive relabelling class, read off the index, gives the orbits,
    # their order and every (permutation, brace) entry of the per-table
    # relabel-and-hash pass
    for n in range(1, 8):
        stack, perms, where, home = index = _group_table_index(n)
        assert (perms == _zero_fixing_perms(n)).all()
        for g, G in enumerate(standard_groups_of_order(n)):
            assert (stack[where[g]] == _relabel_stack(G.np_table, perms)).all()
        assert (where[home[:, 0], home[:, 1]] == np.arange(len(stack))).all()
        groups = [validate_group(t) for t in all_group_tables(n)]
        got = _index_orbit_tables(stack, _index_orbits(index))
        assert got == _orbit_tables(_brace_orbits_every_table(groups))
    # both refuse a stack that lacks table 1 of order 6: the index no
    # longer round-trips, and the oracle finds a relabelled table missing
    six = [validate_group(t) for t in all_group_tables(6)]
    with pytest.raises(InternalInconsistency, match="order 6 does not round-trip"):
        _index_orbits(_unreachable(_group_table_index(6), 1))
    with pytest.raises(InternalInconsistency, match="order 6 is not among"):
        _brace_orbits_every_table(six[:1] + six[2:])
    # the index is refused as well for a home that lands on another table,
    # a stack position that no relabelling reaches, a relabelling that
    # lands outside the stack and a table without a home
    stack, perms, where, home = _group_table_index(6)
    swapped = home.copy()
    swapped[[0, 1]] = swapped[[1, 0]]
    unreached = np.where(where == 5, 4, where)
    outside = where.copy()
    outside[0, -1] = len(stack)
    extra = np.concatenate([stack, stack[:1]]), perms, where, home
    for bad in ((stack, perms, where, swapped), (stack, perms, unreached, home),
                (stack, perms, outside, home), extra):
        with pytest.raises(InternalInconsistency, match="does not round-trip"):
            _index_orbits(bad)


def test_brace_orbits_decide_the_axiom_once_per_additive_class(count_calls):
    # order 6 has two additive relabelling classes (Z6 and S3) among its 80
    # tables; the per-table pass ran the axiom 80 times
    checked = count_calls(braces_mod._brace_axiom_holds)
    _index_orbits(_group_table_index(6))
    assert checked["calls"] == 2


def test_ext_classes_searches_one_brace_per_orbit(Z2, Z3, count_calls):
    monos = count_calls(extensions_mod._brace_monos)
    validated = count_calls(extensions_mod.validate_extension)
    compared = count_calls(extensions_mod.triplets_equivalent)
    keyed = count_calls(extensions_mod._class_key)
    shifted = count_calls(extensions_mod.extensions_equivalent)
    ext_classes(Z2, Z3)
    # one representative per isomorphism class of the 280 labelled braces
    # of order 6, where every labelled brace was searched before; classes
    # are read off one class key per extension found on a representative,
    # never by a pairwise or shift search; the extensions found are built
    # without validate_extension (test_extension_orbits_are_valid
    # validates them)
    assert (monos["calls"], validated["calls"], compared["calls"]) == (6, 0, 0)
    assert (keyed["calls"], shifted["calls"]) == (12, 0)


def test_extension_orbits_are_valid(Z2, Z3, monkeypatch):
    # _extension_orbits builds its projections and extensions without
    # validating them; each projection is a brace hom onto H whose kernel
    # is an ideal, and each extension is what validate_extension makes of
    # the same tables and maps
    searched = []
    search = extensions_mod._brace_homs_by_kernel

    def recorded(E, H):
        found = search(E, H)
        searched.append((E, H, found))
        return found

    monkeypatch.setattr(extensions_mod, "_brace_homs_by_kernel", recorded)
    checked = 0
    for H, I in ((Z2, Z2), (Z2, Z3), (Z3, Z2)):
        exts = enumerate_all_extensions(H, I)
        exts += [ext for _, classes in ext_classes(H, I) for cls in classes for ext in cls]
        for ext in exts:
            assert validate_extension(ext.E, ext.H, ext.I, ext.inj, ext.proj) == ext
        checked += len(exts)
    projections = [(E, H, kernel, proj) for E, H, found in searched
                   for kernel, projs in found.items() for proj in projs]
    assert checked > 0 and len(projections) > 0
    for E, H, kernel, proj in projections:
        hom = BraceHom(E, H, proj)
        assert hom.is_valid() and hom.is_surjective()
        assert frozenset(hom.kernel()) == kernel and is_ideal(E, kernel)


def _ideals(E):
    """Every ideal of E, tried on each subset holding 0."""
    out = []
    for tail in itertools.product((False, True), repeat=E.n - 1):
        kernel = frozenset([0] + [x for x, keep in enumerate(tail, 1) if keep])
        try:
            if is_ideal(E, kernel):
                out.append(kernel)
        except ValidationError:  # not a sub-brace
            continue
    return out


def test_brace_homs_by_kernel_are_the_quotient_projections(Z2, Z3, degenerate_pairs):
    # the lemma the extension search relies on: a surjective brace hom
    # E -> H is the quotient map by its kernel, an ideal, followed by an
    # isomorphism of the quotient onto H and an automorphism of H; checked
    # on every orbit representative of the order of each pair, every ideal
    # of it tried, so no kernel is found that the quotients miss
    pairs = [(Z2, Z2), (Z2, Z3), (Z3, Z2)] + degenerate_pairs
    representatives = {n: [E for E, _ in _index_orbits(_group_table_index(n))]
                       for n in {H.n * I.n for H, I in pairs}}
    ideals = {}
    checked = 0
    for H, I in pairs:
        auts_H = sorted(brace_automorphisms(H))
        for E in representatives[H.n * I.n]:
            if E not in ideals:
                ideals[E] = _ideals(E)
            found = extensions_mod._brace_homs_by_kernel(E, H)
            want = {}
            for kernel in ideals[E]:
                projs = _quotient_projections(E, H, kernel, auts_H)
                if projs:
                    want[kernel] = sorted(projs)
            assert {kernel: sorted(projs) for kernel, projs in found.items()} == want
            assert all(len(set(projs)) == len(projs) for projs in found.values())
            assert all(is_ideal(E, kernel) for kernel in found)
            checked += len(found)
    assert checked > len(pairs)


def test_brace_monos_match_closure_oracle(Z2, Z3, monkeypatch):
    searches = _engine_against_oracle(monkeypatch)
    ext_classes(Z2, Z3)
    assert searches == {"brace monomorphisms": 6, "brace projections": 6}


def _relabelled_brace(B, p):
    return validate_brace(relabel_table(B.add.table, p), relabel_table(B.circ.table, p))


def _classification_invariants(H, I):
    buckets = ext_classes(H, I)
    out = {
        "extensions": len(enumerate_all_extensions(H, I)),
        "couplings": len(buckets),
        "classes": sorted(
            (len(classes), sorted(len(c) for c in classes)) for _, classes in buckets
        ),
    }
    if I.is_trivial and I.add.is_abelian:
        out["bijection"] = sorted(
            (rep["h2_order"], rep["ext_classes"])
            for rep in (ext_bijection_check(H, I, chi) for chi, _ in buckets)
        )
    return out


def test_classification_is_invariant_under_relabelling(Z2, Z3, order6_coefficients):
    # Z2 and Z3 have no 0-fixing relabelling that moves their tables; the
    # order-6 coefficient brace is the case whose tables do move
    rng = random.Random(2017)
    Z1 = trivial_brace(cyclic_group(1))
    for H, I in ((Z2, Z2), (Z2, Z3), (Z3, Z2), (Z1, order6_coefficients)):
        expected = _classification_invariants(H, I)
        for _ in range(3):
            pH = (0,) + tuple(rng.sample(range(1, H.n), H.n - 1))
            pI = (0,) + tuple(rng.sample(range(1, I.n), I.n - 1))
            moved = _classification_invariants(
                _relabelled_brace(H, pH), _relabelled_brace(I, pI)
            )
            assert moved == expected


def test_enumerate_validates_each_table_once(monkeypatch, Z2, Z3):
    calls = collections.Counter()

    def counting(table):
        calls[len(table)] += 1
        return validate_group(table)

    monkeypatch.setattr(braces_mod, "validate_group", counting)
    monkeypatch.setattr(extensions_mod, "validate_group", counting, raising=False)
    enumerate_all_extensions(Z2, Z3)
    # the 80 tables of order 6 are relabellings of Z6 and S3 and are not
    # validated again (test_all_group_tables_are_groups checks them)
    assert calls[6] == 0


def test_all_group_tables_are_groups():
    # the quotient route wraps these tables as groups without validation
    for n in range(1, 8):
        tables = all_group_tables(n)
        groups = [validate_group(t) for t in tables]
        assert [G.table for G in groups] == tables


def test_axiom_witness_is_unchanged():
    # messages and witnesses as validate_brace reported them before the
    # axiom check was shared with the batched enumeration
    six = all_group_tables(6)
    cases = [
        ([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 1, 0], [3, 2, 0, 1]], cyclic_group(4).table,
         (1, 1, 1), "(a,b,c)=(1,1,1): 1 != 0"),
        (six[0], six[1], (2, 2, 2), "(a,b,c)=(2,2,2): 1 != 0"),
        (six[49], six[68], (1, 1, 3), "(a,b,c)=(1,1,3): 1 != 2"),
        (six[79], six[0], (1, 1, 1), "(a,b,c)=(1,1,1): 4 != 5"),
    ]
    for add, circ, abc, tail in cases:
        with pytest.raises(BraceAxiomFailed) as exc:
            validate_brace(add, circ)
        assert str(exc.value) == "a o (b + c) != a o b - a + a o c at " + tail
        assert exc.value.witness == dict(zip("abc", abc))


def test_batched_axiom_matches_validate_brace():
    # per-table verdicts and the first witness of one stacked check agree
    # with one validate_brace call per circle table
    six = all_group_tables(6)
    circs = np.stack([validate_group(c).np_table for c in six])
    for add in (six[0], six[49], six[79]):
        ok = braces_mod._brace_axiom_holds(validate_group(add), circs)
        _, witness = _cube_brace_axiom(validate_group(add), circs)
        failures = []
        for circ in six:
            try:
                validate_brace(add, circ)
            except BraceAxiomFailed as exc:
                failures.append(exc)
            else:
                failures.append(None)
        assert ok.tolist() == [f is None for f in failures]
        first = next(f for f in failures if f is not None)
        a, b, c, lhs, rhs = witness
        assert first.witness == {"a": a, "b": b, "c": c}
        assert str(first).endswith(f"({a},{b},{c}): {lhs} != {rhs}")

def test_brace_monos_match_brute_force(flip4, xor4, order6_coefficients, axiom_braces):
    # oracle: every injective 0-fixing map, kept when it preserves + and o
    braces = [B for _, B in axiom_braces if B.n <= 6]
    braces += [flip4, xor4, order6_coefficients]
    for I, E in itertools.product(braces, repeat=2):
        if I.n > E.n:
            continue
        slow = sorted(
            m
            for tail in itertools.permutations(range(1, E.n), I.n - 1)
            for m in [(0,) + tail]
            if BraceHom(I, E, m).is_valid()
        )
        assert _brace_monos(I, E) == slow


def _loop_triplet_tables(H, I, t):
    """The reference rebuild: both tables of a triplet filled one cell at a
    time, (h1, y1) row by row."""
    ni = I.n
    n = H.n * ni
    Ha, Hc = H.add.table, H.circ.table
    Ia, Ic = I.add.table, I.circ.table
    nu, mu, sigma = t.chi.nu, t.chi.mu, t.chi.sigma
    inv_nu = [invert_perm(p) for p in nu]
    add = [[0] * n for _ in range(n)]
    circ = [[0] * n for _ in range(n)]
    for h1 in range(H.n):
        for h2 in range(H.n):
            ha, hc = Ha[h1][h2], Hc[h1][h2]
            b, tv = t.beta[h1][h2], t.tau[h1][h2]
            for y1 in range(ni):
                left = Ia[b][mu[h2][nu[h1][y1]]]
                tl = Ic[tv][sigma[h2][y1]]
                for y2 in range(ni):
                    add[h1 * ni + y1][h2 * ni + y2] = ha * ni + inv_nu[ha][Ia[left][nu[h2][y2]]]
                    circ[h1 * ni + y1][h2 * ni + y2] = hc * ni + Ic[tl][y2]
    return add, circ


def test_triplet_tables_match_loop(Z2, Z3, Z4):
    # every law-abiding cocycle pair of every split action, valid or not,
    # the pairs of one action as one stack: the gather gives the loop's
    # tables, and a valid triplet's rebuild, a stack of one, carries them
    from test_cohomology import _z2N_laws_only  # test_cohomology imports this module
    checked = invalid = 0
    for H, I in ((Z2, Z3), (Z3, Z2), (Z2, Z2), (Z4, Z2), (Z3, Z3)):
        for chi in enumerate_split_triples(H, I):
            pairs = _z2N_laws_only(H, I, chi)
            adds, circs = _triplet_tables(H, I, [chi] * len(pairs), [p.g for p in pairs],
                                          [p.f for p in pairs])
            for pair, add, circ in zip(pairs, adds, circs):
                t = Triplet(chi, pair.g, pair.f)
                expected = _loop_triplet_tables(H, I, t)
                assert (add.tolist(), circ.tolist()) == expected
                try:
                    E = extension_from_triplet(H, I, t).E
                except TripletInvalid:
                    invalid += 1
                else:
                    assert (list(map(list, E.add.table)), list(map(list, E.circ.table))) == expected
                checked += 1
    assert checked > invalid > 0


def test_invalid_triplets_are_rejected(Z2, Z3):
    t = zero_triplet(Z2, Z3)
    # shape rejection: beta must vanish when either argument is 0
    bad_shape = Triplet(t.chi, ((0, 1), (0, 0)), t.tau)
    with pytest.raises(TripletInvalid):
        extension_from_triplet(Z2, Z3, bad_shape)
    assert not is_valid_triplet(Z2, Z3, bad_shape)
    # law rejection: normalized tables whose cocycle pair breaks the
    # compatibility between the two operations
    bad_law = Triplet(t.chi, ((0, 0), (0, 1)), t.tau)
    with pytest.raises(TripletInvalid):
        extension_from_triplet(Z2, Z3, bad_law)
    assert not is_valid_triplet(Z2, Z3, bad_law)
    # cocycle tables off the |H| x |H| shape or with entries outside I are
    # rejected by the shape check, before the rebuild
    for beta in (((0, 0), (0, -2)), ((0, 0), (0, 3)), ((0, 0, 0), (0, 1, 2))):
        with pytest.raises(TripletInvalid, match="beta is not an"):
            extension_from_triplet(Z2, Z3, Triplet(t.chi, beta, t.tau))


def test_round_trip_of_carry_triplet(Z3):
    carry = ((0, 0, 0), (0, 0, 1), (0, 1, 1))
    t = Triplet(
        ActionTriple((identity_perm(3),) * 3, (identity_perm(3),) * 3, (identity_perm(3),) * 3),
        carry,
        carry,
    )
    ext = extension_from_triplet(Z3, Z3, t)
    assert sorted(ext.E.add.element_order(x) for x in range(9)) == [1, 3, 3, 9, 9, 9, 9, 9, 9]
    assert extract_triplet(ext) == t
