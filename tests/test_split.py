"""Split products: action-triple validation with its error taxonomy, the
pair-table construction, exhaustive triple enumeration, and decomposition
of split extensions back into triples."""

import itertools
import random

import numpy as np
import pytest

from braceforge import budget, catalog
from braceforge.braces import SkewBrace, _brace_axiom_holds, trivial_brace, validate_brace
from braceforge.errors import (
    CompatibilityFailed,
    NotAntiHom,
    NotAutomorphism,
    NotHom,
    NotSplit,
    SearchBudgetExceeded,
    SectionNotHom,
    ValidationError,
)
from braceforge.extensions import Extension, validate_extension
from braceforge.groups import (
    compose,
    cyclic_group,
    dihedral_group,
    find_isomorphism,
    identity_perm,
    invert_perm,
    klein_group,
    validate_group,
)
from braceforge.split import (
    ActionTriple,
    _candidate_families,
    _compat_on_lifts,
    _compat_witness,
    _product_tables,
    check_hom_laws,
    encode_pair,
    enumerate_split_triples,
    identity_triple,
    semidirect_product,
    split_decompose,
    triple_from_tables,
    validate_split_triple,
)
from test_groups import _engine_against_oracle

IDP3 = identity_perm(3)
NEG3 = (0, 2, 1)


def negation_triple(Z2, Z3):
    """Both nontrivial orbit maps of Z2 on Z3 send y to -y."""
    return ActionTriple((IDP3, NEG3), (IDP3, NEG3), (IDP3, NEG3))


def test_pair_encoding_round_trip():
    for h in range(4):
        for y in range(5):
            assert divmod(encode_pair(h, y, 5), 5) == (h, y)


def test_identity_triple_gives_direct_product(Z2, Z3):
    t = identity_triple(Z2, Z3)
    assert validate_split_triple(Z2, Z3, t) is None
    E = semidirect_product(Z2, Z3, t)
    assert E.n == 6 and E.is_trivial
    assert E.add.is_abelian


def test_negation_product_is_symmetric_group_brace(Z2, Z3):
    t = negation_triple(Z2, Z3)
    validate_split_triple(Z2, Z3, t)
    E = semidirect_product(Z2, Z3, t)
    assert E.n == 6
    assert find_isomorphism(E.add, dihedral_group(3)) is not None
    assert find_isomorphism(E.circ, dihedral_group(3)) is not None
    # the product converts directly into an extension with the pair maps
    ext = validate_extension(E, Z2, Z3, tuple(range(3)), tuple(x // 3 for x in range(6)))
    assert ext.fiber(1) == (3, 4, 5)


def test_validate_split_triple_error_taxonomy(Z2, Z3):
    shift = (1, 2, 0)
    cases = [
        (ActionTriple((IDP3, shift), (IDP3, IDP3), (IDP3, IDP3)), NotAutomorphism,
         {"h": 1, "family": "nu"}),
        (ActionTriple((NEG3, NEG3), (IDP3, IDP3), (IDP3, IDP3)), NotHom,
         {"h1": 0, "h2": 0}),
        (ActionTriple((IDP3, IDP3), (NEG3, IDP3), (IDP3, IDP3)), NotAntiHom,
         {"h1": 0, "h2": 0}),
        (ActionTriple((IDP3, IDP3), (IDP3, IDP3), (IDP3, NEG3)), CompatibilityFailed,
         {"h1": 0, "h2": 1, "h3": 1, "y1": 1, "y2": 0, "y3": 0}),
        (ActionTriple((IDP3, NEG3), (IDP3, IDP3), (IDP3, IDP3)), CompatibilityFailed,
         {"h1": 0, "h2": 1, "h3": 1, "y1": 1, "y2": 0, "y3": 0}),
    ]
    for triple, err, witness in cases:
        with pytest.raises(err) as exc:
            validate_split_triple(Z2, Z3, triple)
        assert dict(exc.value.witness) == witness


def test_triple_from_tables(Z2, Z3):
    t = triple_from_tables([IDP3, NEG3], [IDP3, NEG3], [IDP3, NEG3])
    assert t == negation_triple(Z2, Z3)


def test_enumerate_split_triples_counts(Z2, Z3, xor4, flip4):
    trips = enumerate_split_triples(Z2, Z3)
    assert len(trips) == 6
    idmu = [t for t in trips if t.mu == (IDP3, IDP3)]
    assert len(idmu) == 2
    assert negation_triple(Z2, Z3) in trips
    # the two orbit-map patterns rejected by the compatibility sweep
    flags = {(t.nu[1] == NEG3, t.mu[1] == NEG3, t.sigma[1] == NEG3) for t in trips}
    assert (False, False, True) not in flags and (True, False, False) not in flags

    assert len(enumerate_split_triples(xor4, flip4)) == 8

    H8 = catalog.example5_acting_brace()
    assert len(enumerate_split_triples(H8, flip4)) == 16


def test_enumeration_matches_ground_truth_on_dihedral_pair():
    # the sweep's verdicts on this pair agree with validating every built
    # product (test_compat_on_lifts_matches_product_validation)
    H = trivial_brace(dihedral_group(4))
    I = trivial_brace(cyclic_group(3))
    trips = enumerate_split_triples(H, I)
    assert len(trips) == 28
    neg = tuple((-x) % 3 for x in range(3))
    fam = tuple(neg if ((x // 2) + (x % 2)) % 2 else identity_perm(3) for x in range(8))
    alternating = ActionTriple(fam, fam, fam)
    assert alternating in trips
    aw_failures = sum(
        1 for t in trips if _loop_compat_witness(H, I, t, as_written=True) is not None
    )
    assert aw_failures == 24


def test_as_written_variant_differs(Z2, Z3):
    # the sign-variant compatibility law rejects a triple that the
    # operative law accepts
    H = trivial_brace(dihedral_group(4))
    I = trivial_brace(cyclic_group(3))
    neg = tuple((-x) % 3 for x in range(3))
    fam = tuple(neg if ((x // 2) + (x % 2)) % 2 else identity_perm(3) for x in range(8))
    t = ActionTriple(fam, fam, fam)
    assert validate_split_triple(H, I, t) is None
    assert _loop_compat_witness(H, I, t, as_written=True) == (0, 1, 0, 0, 1, 0)
    # the negation triple of (Z2, Z3) also separates the two variants
    assert _loop_compat_witness(Z2, Z3, negation_triple(Z2, Z3), as_written=True) is not None
    # with identity orbit maps every variant degenerates to the same law
    assert _loop_compat_witness(Z2, Z3, identity_triple(Z2, Z3), as_written=True) is None


def test_split_decompose_round_trip(Z2, Z3, xor4, flip4, split_ext, z4_ext):
    t, hom = split_decompose(split_ext)
    assert t == identity_triple(Z2, Z3)
    assert hom.is_valid()
    with pytest.raises(NotSplit):
        split_decompose(z4_ext)
    # a section that is not a brace hom: in Z2 x Z3, on pairs h * 3 + y,
    # s(1) = 4 = (1, 1) has order 6, so s(1) + s(1) = (0, 2) != s(0)
    assert split_ext.E.add.element_order(4) == 6
    with pytest.raises(SectionNotHom, match="section is not a brace homomorphism"):
        split_decompose(split_ext, section=(0, 4))
    # a brace-hom section exists on every split product
    pairs = [
        (Z2, Z3),
        (xor4, flip4),
        (catalog.example5_acting_brace(), flip4),
        (trivial_brace(dihedral_group(4)), trivial_brace(cyclic_group(3))),
    ]
    for H, I in pairs:
        for t in enumerate_split_triples(H, I):
            E = semidirect_product(H, I, t)
            ext = validate_extension(
                E, H, I, tuple(range(I.n)), tuple(x // I.n for x in range(E.n))
            )
            found, hom = split_decompose(ext)
            assert found == t
            assert hom.is_valid() and hom.is_injective()


def test_hom_section_search_matches_closure_oracle(Z2, Z3, xor4, flip4, split_ext, z4_ext,
                                                   monkeypatch):
    # the section searches of the round trip above, each compared with the
    # closure oracle
    searches = _engine_against_oracle(monkeypatch)
    test_split_decompose_round_trip(Z2, Z3, xor4, flip4, split_ext, z4_ext)
    assert searches["hom section search"] > 2


def test_split_products_validate_the_triple_only(count_calls, Z2, Z3):
    # the triple's verdict decides the product: semidirect_product and
    # split_decompose each run one compatibility check and validate no
    # product table, and example 4 builds its candidate products unchecked
    sweeps = count_calls(_compat_witness)
    braces = count_calls(validate_brace)
    groups = count_calls(validate_group)
    E = semidirect_product(Z2, Z3, negation_triple(Z2, Z3))
    split_decompose(Extension(E, Z2, Z3, range(3), [x // 3 for x in range(6)]))
    assert (sweeps["calls"], braces["calls"], groups["calls"]) == (2, 0, 0)
    sweeps["calls"] = 0
    catalog.example4()
    # the acting and coefficient braces are built through validate_brace
    assert (sweeps["calls"], braces["calls"]) == (1, 2)


def test_enumeration_budget_guard(Z2, Z3):
    with budget.limit(5):
        with pytest.raises(SearchBudgetExceeded):
            enumerate_split_triples(Z2, Z3)


def _loop_compat_witness(H, I, t, as_written=False):
    """The reference sweep: the compatibility equation evaluated one tuple
    at a time, in lexicographic order.  as_written=True uses the published
    mu index -h1 + (h2 o h3) in place of -h1 + (h1 o h3), the erratum that
    test_as_written_variant_differs pins."""
    Ha, Hc, Hneg = H.add.table, H.circ.table, H.add.inv
    Ia, Ic, Ineg = I.add.table, I.circ.table, I.add.inv
    nu, mu, sigma = t.nu, t.mu, t.sigma
    inv_nu = [invert_perm(p) for p in nu]
    hs, ys = range(H.n), range(I.n)
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


def _loop_hom_laws(H, t):
    """The reference law check, pair by pair: (error type, message, h1, h2)
    of the first failing law, or None."""
    Ha, Hc = H.add.table, H.circ.table
    for h1 in range(H.n):
        for h2 in range(H.n):
            if t.nu[Hc[h1][h2]] != compose(t.nu[h1], t.nu[h2]):
                return NotHom, "nu is not a homomorphism on (H, o)", h1, h2
            if t.mu[Ha[h1][h2]] != compose(t.mu[h2], t.mu[h1]):
                return NotAntiHom, "mu is not an anti-homomorphism on (H, +)", h1, h2
            if t.sigma[Hc[h1][h2]] != compose(t.sigma[h2], t.sigma[h1]):
                return NotAntiHom, "sigma is not an anti-homomorphism on (H, o)", h1, h2
    return None


def test_hom_laws_match_loop(Z2, Z3, Z4, xor4, flip4):
    # the gathered law check raises what the pair loop finds first, on
    # every law-abiding candidate and on seeded triples that mix them with
    # families of random automorphisms (identity at 0); (S3, V) has
    # homomorphisms into Aut(V) that are not anti-homomorphisms
    rng = random.Random(1607)
    outcomes = set()
    S3, V = trivial_brace(dihedral_group(3)), trivial_brace(klein_group())
    for H, I in _oracle_pairs(Z2, Z3, Z4, xor4, flip4) + [(S3, V)]:
        families = _candidate_families(H, I)
        auts = [sorted({f for fam in families[k] for f in fam}) for k in (0, 1, 2)]
        triples = _candidates(H, I)
        for _ in range(60):
            triples.append(ActionTriple(*(
                rng.choice(families[k]) if rng.random() < 0.5
                else (identity_perm(I.n),) + tuple(rng.choice(auts[k]) for _ in range(H.n - 1))
                for k in (0, 1, 2)
            )))
        # nu as mu and sigma: a homomorphism in place of anti-homomorphisms
        triples += [ActionTriple(nu, nu, nu) for nu in families[0]]
        for t in triples:
            try:
                check_hom_laws(H, t)
                got = None
            except ValidationError as exc:
                got = (type(exc), exc.args[0], exc.witness["h1"], exc.witness["h2"])
            expected = _loop_hom_laws(H, t)
            assert got == expected
            outcomes.add(None if expected is None else expected[1])
    assert len(outcomes) == 4


def _loop_product_tables(H, I, t):
    """The reference product: both tables filled one cell at a time."""
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
    return add, circ


def _oracle_pairs(Z2, Z3, Z4, xor4, flip4):
    V = trivial_brace(klein_group())
    D4 = trivial_brace(dihedral_group(4))
    S3 = trivial_brace(dihedral_group(3))
    return [
        (Z2, Z3), (Z3, Z2), (V, Z3), (xor4, Z2), (Z2, D4), (S3, Z2),
        (catalog.example5_acting_brace(), flip4), (xor4, flip4), (Z2, V), (Z4, Z4),
    ]


def _candidates(H, I):
    """Every triple of families obeying its own law, valid or not."""
    return [ActionTriple(*fams) for fams in itertools.product(*_candidate_families(H, I))]


def test_compat_kernel_matches_loop(Z2, Z3, Z4, xor4, flip4):
    checked = failing = 0
    for H, I in _oracle_pairs(Z2, Z3, Z4, xor4, flip4):
        for t in _candidates(H, I):
            expected = _loop_compat_witness(H, I, t)
            assert _compat_witness(H, I, t) == expected
            checked += 1
            failing += expected is not None
    assert checked > failing > 0


def test_product_tables_match_loop(Z2, Z3, Z4, xor4, flip4):
    # one triple at a time, and every candidate of a pair as one stack
    checked = 0
    for H, I in _oracle_pairs(Z2, Z3, Z4, xor4, flip4):
        candidates = _candidates(H, I)
        adds, circs = _product_tables(H, I, candidates)
        assert adds.shape == circs.shape == (len(candidates), H.n * I.n, H.n * I.n)
        for t, stacked in zip(candidates, zip(adds.tolist(), circs.tolist())):
            add, circ = _product_tables(H, I, [t])
            expected = _loop_product_tables(H, I, t)
            assert (add[0].tolist(), circ[0].tolist()) == stacked == expected
            checked += 1
        for t in enumerate_split_triples(H, I):
            E = semidirect_product(H, I, t)
            tables = ([list(r) for r in E.add.table], [list(r) for r in E.circ.table])
            assert tables == _loop_product_tables(H, I, t)
    assert checked > 0


def _wells_sweep_pairs(Z2, Z3, xor4, flip4):
    """The nine pairs of the wells-sweep benchmark workload."""
    V = trivial_brace(klein_group())
    return [
        (V, Z3), (flip4, Z3), (xor4, Z3), (Z2, V), (Z3, V),
        (trivial_brace(dihedral_group(3)), Z2), (xor4, Z2), (V, Z2),
        (Z2, trivial_brace(dihedral_group(4))),
    ]


def _compat_cube(H, I, t):
    """The full-cube oracle for _compat_witness: the compatibility
    equation (split module docstring) at every (h1, h2, h3, y1, y2, y3),
    evaluated in its own gather layout.

    h1 runs through H in order; for each, both sides are evaluated at all
    (h2, h3, y1, y2, y3) at once as a (|H|, |H|, |I|, |I|, |I|) array.  The
    witness is the first failing cell in C order of the first failing h1:
    the lexicographically least failing tuple."""
    Ha, Hc, Hneg = H.add.np_table, H.circ.np_table, H.add.inv
    Ia, Ic = I.add.np_table, I.circ.np_table
    nh, ni, Ineg = H.n, I.n, np.array(I.add.inv, dtype=np.intp)
    nu, mu, sigma = (np.array(f, dtype=np.intp) for f in (t.nu, t.mu, t.sigma))
    inv_nu = nu.argsort(axis=1)
    ys = np.arange(ni)
    # Gathers go through flat tables with precomputed offsets, so each
    # (h2, h3, y1, y2, y3) array is built by contiguous adds and takes.
    nu_circ = nu[:, Ic].ravel()               # nu_c(x o z) at c*ni^2 + x*ni + z
    Ia_flat, mu_flat = Ia.ravel(), mu.ravel()
    circ_plus = Hc[:, Ha] * ni * ni           # offset of nu_{h1 o (h2 + h3)}
    sigma_plus = sigma[Ha] * ni               # offset of sigma_{h2 + h3}(.)
    # nu_{h2 + h3}^-1(mu_{h3}(y2) + y3) at [h2, h3, y1, (y2, y3)]
    inner = inv_nu[Ha[:, :, None, None], Ia[mu[:, :, None], ys]]
    inner = np.repeat(inner.reshape(nh, nh, 1, ni * ni), ni, axis=2)
    # nu_{h1 o h}(sigma_h(a) o nu_h^-1(y)) at [h1, h, y1, y], a = nu_{h1}^-1(y1)
    s_a = sigma[np.arange(nh)[:, None], inv_nu[:, None, :]]
    tail = nu_circ[(Hc[:, :, None, None] * ni + s_a[..., None]) * ni + inv_nu[:, None, :]]
    # the tail - y1 that mu acts on, as an offset into mu[m]
    tail_minus_y1 = Ia[tail, Ineg[:, None]]
    # tail at [h1, h3, y1, y2, y3], offset into the row Ia[q]
    tail_rep = np.repeat(tail, ni, axis=2).reshape(nh, nh, ni, ni, ni)
    for h1 in range(nh):
        lhs = nu_circ.take(
            np.repeat(circ_plus[h1][:, :, None] + sigma_plus[:, :, inv_nu[h1]], ni * ni)
            + inner.ravel()
        )
        m = Ha[Hneg[h1], Hc[h1]]                # -h1 + (h1 o h3), over h3
        q = mu_flat.take((m * ni)[:, None, None] + tail_minus_y1[h1][:, None])
        rhs = Ia_flat.take(np.repeat(q * ni, ni).reshape(nh, -1) + tail_rep[h1].reshape(1, -1))
        bad = lhs != rhs.ravel()
        if bad.any():
            cell = np.unravel_index(int(bad.argmax()), (nh, nh, ni, ni, ni))
            return (h1,) + tuple(int(v) for v in cell)
    return None


def test_compat_on_lifts_matches_cube(Z2, Z3, Z4, xor4, flip4):
    # deciding the equation with x2 among the lifts of the additive
    # generators agrees with the full cube on every candidate, and the
    # witness read off the evaluator over every element is the cube's
    checked = failing = 0
    pairs = _oracle_pairs(Z2, Z3, Z4, xor4, flip4) + _wells_sweep_pairs(Z2, Z3, xor4, flip4)
    for H, I in pairs:
        families = _candidate_families(H, I)
        got = _compat_on_lifts(H, I, *families).ravel().tolist()
        cubes = [_compat_cube(H, I, t) for t in _candidates(H, I)]
        assert got == [w is None for w in cubes]
        assert [_compat_witness(H, I, t) for t in _candidates(H, I)] == cubes
        checked += len(cubes)
        failing += got.count(False)
    assert checked > failing > 0


def _compat_on_every_x1(H, I, nus, mus, sigmas):
    """The oracle for _compat_on_lifts: the same batched sweep with (h1, y1)
    over every element of E instead of the lifts of the circle
    generators, n |L_+| n cells per candidate."""
    nh, ni = H.n, I.n
    Ha, Hc, Hneg = H.add.np_table, H.circ.np_table, np.array(H.add.inv, dtype=np.intp)
    Ia, Ic, Ineg = I.add.np_table, I.circ.np_table, np.array(I.add.inv, dtype=np.intp)
    nu, mu, sigma = (np.array(f, dtype=np.intp).reshape(-1, nh, ni) for f in (nus, mus, sigmas))
    inv_nu = nu.argsort(axis=2)
    sh, si = H.add.generating_sequence(), I.add.generating_sequence()
    h2 = np.array(sh + (0,) * len(si), dtype=np.intp)[:, None, None]
    y2 = np.array((0,) * len(sh) + si, dtype=np.intp)[:, None, None]
    h3, y3 = np.arange(nh)[:, None], np.arange(ni)
    p = Ha[h2, h3]
    nu_circ = nu[:, :, Ic].ravel()
    Ia_f, mu_f, sigma_f, inv_f = (f.ravel() for f in (Ia, mu, sigma, inv_nu))
    units = (len(nu), len(mu), len(sigma), nh, ni)
    ok = np.empty(int(np.prod(units)), dtype=bool)
    step = max(1, (1 << 14) // max(1, len(sh + si) * nh * ni))
    for lo in range(0, len(ok), step):
        rows = np.arange(lo, min(lo + step, len(ok)))
        i, j, k, h1, y1 = (u[:, None, None, None] for u in np.unravel_index(rows, units))
        i, j, k = i * nh, j * nh, k * nh
        a = inv_f[(i + h1) * ni + y1]

        def tail(h, y):
            return nu_circ.take(((i + Hc[h1, h]) * ni + sigma_f.take((k + h) * ni + a)) * ni
                                + inv_f.take((i + h) * ni + y))

        lhs = tail(p, Ia_f.take(mu_f.take((j + h3) * ni + y2) * ni + y3))
        q = mu_f.take((j + Ha[Hneg[h1], Hc[h1, h3]]) * ni + Ia[tail(h2, y2), Ineg[y1]])
        ok[lo:lo + step] = (lhs == Ia_f.take(q * ni + tail(h3, y3))).reshape(len(rows), -1).all(axis=1)
    return ok.reshape(units[:3] + (nh * ni,)).all(axis=-1)


def test_compat_on_lifts_matches_every_x1(Z2, Z3, Z4, xor4, flip4):
    # x1 among the circle lifts decides every candidate as x1 over all of E
    # does, element for element, on every pair the split tests use (the
    # example-4 and example-5 pairs, (Z2, D4) and (S3, Z2) among them) and
    # on pairs with a factor of order 1, whose circle generating set is
    # empty (with both of order 1 there is no lift at all)
    D4, one = trivial_brace(dihedral_group(4)), trivial_brace(cyclic_group(1))
    pairs = (_oracle_pairs(Z2, Z3, Z4, xor4, flip4) + _wells_sweep_pairs(Z2, Z3, xor4, flip4)
             + [(D4, Z3)] + _pairs_above_64()
             + [(one, one), (one, Z3), (Z3, one), (one, D4), (D4, one), (one, flip4)])
    checked = failing = 0
    for H, I in pairs:
        families = _candidate_families(H, I)
        expected = _compat_on_every_x1(H, I, *families)
        got = _compat_on_lifts(H, I, *families)
        assert got.shape == expected.shape and np.array_equal(got, expected)
        checked += expected.size
        failing += int((~expected).sum())
    assert checked > failing > 0


def _validates(H, I, t):
    try:
        validate_brace(*(table[0] for table in _product_tables(H, I, [t])))
        return True
    except ValidationError:
        return False


def _group_or_none(table):
    """validate_group's group, or None where it raises."""
    try:
        return validate_group(table)
    except ValidationError:
        return None


def _products_are_braces(H, I, nus, mus, sigmas):
    """The product-validation oracle for _compat_on_lifts: whether
    validate_brace accepts the product of each candidate (nus[i], mus[j],
    sigmas[k]), as a boolean array of that shape.

    The additive table depends on mu alone and the circle table on (nu,
    sigma) alone, so each goes through validate_group once; the brace
    axiom is then decided for the stack of circle tables that are groups
    against each additive group, on the cells validate_brace reads."""
    adds = [_group_or_none(add) for add in
            _product_tables(H, I, [ActionTriple(nus[0], mu, sigmas[0]) for mu in mus])[0]]
    pairs = list(itertools.product(nus, sigmas))
    circs = _product_tables(H, I, [ActionTriple(nu, mus[0], sigma) for nu, sigma in pairs])[1]
    groups = np.flatnonzero([_group_or_none(c) is not None for c in circs])
    ok = np.zeros((len(mus), len(pairs)), dtype=bool)
    for j, add in enumerate(adds):
        if add is not None and len(groups):
            ok[j, groups] = _brace_axiom_holds(add, circs[groups])
    return ok.reshape(len(mus), len(nus), len(sigmas)).transpose(1, 0, 2)


def test_products_are_braces_matches_validate_brace(Z2, Z3, Z4, xor4, flip4):
    # the once-per-table cross-check agrees with validating each product
    for H, I in _oracle_pairs(Z2, Z3, Z4, xor4, flip4):
        got = _products_are_braces(H, I, *_candidate_families(H, I)).ravel().tolist()
        assert got == [_validates(H, I, t) for t in _candidates(H, I)]
    # families that break their own laws give tables that are not groups
    fams = list(itertools.product((IDP3, NEG3), repeat=2))
    got = _products_are_braces(Z2, Z3, fams, fams, fams).ravel().tolist()
    expected = [_validates(Z2, Z3, ActionTriple(*t)) for t in itertools.product(fams, repeat=3)]
    assert got == expected and 0 < expected.count(True) < len(expected)


def test_compat_on_lifts_matches_product_validation(Z2, Z3, Z4, xor4, flip4):
    # the sweep's verdict on every candidate is the verdict of validating
    # its built product, on every pair the workloads and examples enumerate
    H8 = catalog.example5_acting_brace()
    D4 = trivial_brace(dihedral_group(4))
    pairs = (_wells_sweep_pairs(Z2, Z3, xor4, flip4) + [(xor4, flip4), (H8, flip4)]
             + _oracle_pairs(Z2, Z3, Z4, xor4, flip4) + [(D4, Z3)])
    checked = failing = 0
    for H, I in pairs:
        families = _candidate_families(H, I)
        expected = _products_are_braces(H, I, *families)
        assert np.array_equal(_compat_on_lifts(H, I, *families), expected)
        checked += expected.size
        failing += int((~expected).sum())
    assert checked > failing > 0


def _pairs_above_64():
    """Pairs with |H| |I| between 68 and 80, above any order the other
    oracle pairs reach; Z17 and Z20 need automorphism groups above order
    16."""
    S3, D4 = trivial_brace(dihedral_group(3)), trivial_brace(dihedral_group(4))
    V, Z = trivial_brace(klein_group()), lambda n: trivial_brace(cyclic_group(n))
    return [(S3, Z(13)), (Z(6), Z(13)), (Z(4), Z(20)), (D4, Z(9)), (V, Z(17))]


def test_compat_on_lifts_matches_product_validation_above_64():
    # the lifts check decides every triple at every order: above order 64
    # too, its verdict on every candidate is that of validating the product
    checked = failing = 0
    for H, I in _pairs_above_64():
        assert 64 < H.n * I.n <= 80
        families = _candidate_families(H, I)
        expected = _products_are_braces(H, I, *families)
        assert np.array_equal(_compat_on_lifts(H, I, *families), expected)
        checked += expected.size
        failing += int((~expected).sum())
    assert checked > failing > 0
    # and the witness validate_split_triple raises is the loop sweep's
    H, I = _pairs_above_64()[3]
    nus, mus, sigmas = _candidate_families(H, I)
    failures = np.argwhere(~_compat_on_lifts(H, I, nus, mus, sigmas))
    witnesses = set()
    for i, j, k in failures:
        t = ActionTriple(nus[i], mus[j], sigmas[k])
        with pytest.raises(CompatibilityFailed) as exc:
            validate_split_triple(H, I, t)
        got = tuple(exc.value.witness[v] for v in ("h1", "h2", "h3", "y1", "y2", "y3"))
        assert got == _loop_compat_witness(H, I, t)
        witnesses.add(got)
    assert len(failures) == 36 and len(witnesses) == 4


def test_enumeration_validates_each_table_once(count_calls, flip4):
    # the example-5 pair has 80 candidates, decided on the lifts without
    # building or validating any product table, and no candidate asks
    # for a witness
    H = catalog.example5_acting_brace()
    assert [len(f) for f in _candidate_families(H, flip4)] == [4, 2, 10]
    groups = count_calls(validate_group)
    braces = count_calls(validate_brace)
    witnesses = count_calls(_compat_witness)
    assert len(enumerate_split_triples(H, flip4)) == 16
    assert groups["calls"] == 0
    assert (braces["calls"], witnesses["calls"]) == (0, 0)


def _relabelled(B, p):
    return SkewBrace(B.add.relabel(p), B.circ.relabel(p))


def _transport(t, pH, pI):
    """The triple t carried along the relabellings pH of H and pI of I:
    each family member f_h becomes pI f_h pI^-1 at index pH(h)."""
    inv = invert_perm(pI)
    fams = []
    for fam in (t.nu, t.mu, t.sigma):
        moved = [None] * len(fam)
        for h, f in enumerate(fam):
            moved[pH[h]] = compose(pI, compose(f, inv))
        fams.append(tuple(moved))
    return ActionTriple(*fams)


def _verdict(H, I, t):
    try:
        validate_split_triple(H, I, t)
        return None
    except ValidationError as exc:
        return type(exc)


def test_enumeration_is_invariant_under_relabelling(Z2, Z3, xor4, flip4):
    # a 0-fixing relabelling of H and of I is a brace isomorphism, so it
    # carries valid triples to valid triples and invalid ones to invalid;
    # example 5 transports its triples by the relabelling (0 2 1 3) of I
    # instead of enumerating them again
    rng = random.Random(4101)

    def seeded(H, I):
        for _ in range(3):
            yield ((0,) + tuple(rng.sample(range(1, H.n), H.n - 1)),
                   (0,) + tuple(rng.sample(range(1, I.n), I.n - 1)))

    pairs = [(H, I, seeded(H, I)) for H, I in _wells_sweep_pairs(Z2, Z3, xor4, flip4)]
    H5 = catalog.example5_acting_brace()
    pairs.append((H5, flip4, [(identity_perm(H5.n), (0, 2, 1, 3))]))
    invalid = 0
    for H, I, relabellings in pairs:
        found = enumerate_split_triples(H, I)
        candidates = _candidates(H, I)
        verdicts = [_verdict(H, I, t) for t in candidates]
        invalid += sum(v is not None for v in verdicts)
        for pH, pI in relabellings:
            H2, I2 = _relabelled(H, pH), _relabelled(I, pI)
            moved = enumerate_split_triples(H2, I2)
            assert len(moved) == len(found)
            assert set(moved) == {_transport(t, pH, pI) for t in found}
            assert [_verdict(H2, I2, _transport(t, pH, pI)) for t in candidates] == verdicts
    assert invalid > 0
