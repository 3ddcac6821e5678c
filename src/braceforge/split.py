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

The compatibility equation.  At (h1, h2, h3, y1, y2, y3), with
a = nu_{h1}^-1(y1) and T(h, y) = nu_{h1 o h}(sigma_h(a) o nu_h^-1(y)), the
I-part of (h1, y1) o (h, y), it reads

    T(h2 + h3, mu_{h3}(y2) + y3) = mu_m(T(h2, y2) - y1) + T(h3, y3)

with m = -h1 + (h1 o h3).  That mu index is what expanding the brace axiom
in the product forces, since the two mu factors collapse along the
anti-homomorphism law.  The published m = -h1 + (h2 o h3) rejects valid
data whenever mu is nontrivial; that variant is the erratum diagnostic of
the loop oracle _loop_compat_witness in tests/test_split.py.
_compat_cells is the one evaluator of the equation in the package.

Deciding the equation on generators.  At (h1, h2, h3, y1, y2, y3) the
equation is the I-component of the product's brace axiom at
x1 = (h1, y1), x2 = (h2, y2), x3 = (h3, y3); the H-components agree
because H is a brace.  Once mu is an anti-homomorphism into Aut(I, +),
(E, +) is a group, so by the lambda-additivity lemma in the braces module
the axiom holds everywhere iff it holds with x2 in a generating set of
(E, +).  The lifts (s, 0), s in S(H, +), and (0, t), t in S(I, +),
generate (E, +):

    (h, 0) + (0, y) = (h, y)    and    (s1, 0) + (s2, 0) = (s1 + s2, 0).

x1 needs only the lifts of the circle generators.  If lam(a) is additive,
then for every b and x

    lam(a)(lam(b)(x)) = lam(a)(-b + b o x) = -lam(a)(b) + lam(a)(b o x)
                      = -(a o b) + a + (-a) + a o b o x = lam(a o b)(x),

so lam(a o b) = lam(a) lam(b), which is additive once lam(b) is too.  The
set of a with lam(a) additive therefore contains 0 and is closed under o;
in a finite group it is a subgroup, and it is all of E once it holds a
generating set of (E, o).  The lifts (s, 0), s in S(H, o), and (0, t), t
in S(I, o), generate (E, o):

    (h, 0) o (0, y) = (h, nu_h(y)),
    (s1, 0) o (s2, 0) = (s1 o s2, 0),    (0, y1) o (0, y2) = (0, y1 o y2),

since every nu_h, sigma_h fixes 0 and nu_0 = sigma_0 = id; nu_h is a
bijection, so the first line reaches every (h, y).  The only precondition
of both halves is that both product tables are groups, which holds once
nu, mu and sigma obey their (anti)hom laws into Aut(I, +), Aut(I, +) and
Aut(I, o).  Every caller ensures it: enumeration draws its families from
groups.homs_to_perm_group, and the action check _check_action, which
decides automorphism membership and the laws, runs first in
validate_split_triple and in cohomology.validate_cocycle_action, after
which cohomology._cocycle_space runs.

_compat_on_lifts decides a stack of candidates with x1 among the circle
lifts L_o, x2 among the additive lifts L_+ and x3 over all of E, |L_o|
|L_+| n cells per candidate instead of n^3 (n = |H| |I|).  The lemma
makes this exact at every order, so enumeration, validate_split_triple
and semidirect_product take their verdicts from it alone.  Both product
tables being groups, the brace axiom is the compatibility equation, so a
valid triple's product is a skew brace and no product table is validated
again.  Only a triple that fails on the lifts gets a witness, which
_compat_witness reads off the same evaluator run with x1 and x2 over
every element.

_triplet_ops is the one transcription of the rebuild formulas, and
_triplet_tables evaluates it on every cell to fill product tables: a
split product is its zero-cocycle case relabelled.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import budget as budget_mod
from .braces import BraceHom, SkewBrace, brace_hom_ops
from .errors import (
    CompatibilityFailed,
    InputError,
    NotAntiHom,
    NotAutomorphism,
    NotHom,
    NotSplit,
    SectionNotHom,
)
from .groups import (
    FiniteGroup,
    _homomorphisms,
    _relabel_stack,
    automorphism_group,
    homs_to_perm_group,
    identity_perm,
    is_automorphism,
)

# Cap on the cells of one batch temporary in _compat_cells: 128 KiB, far
# below the tens of MB the interpreter and numpy occupy, however many
# candidates a pair has.
_BATCH_CELLS = 1 << 14


def encode_pair(h: int, y: int, ni: int) -> int:
    return h * ni + y


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


def _compat_witness(H: SkewBrace, I: SkewBrace, t: ActionTriple):
    """The lexicographically least (h1, h2, h3, y1, y2, y3) violating the
    compatibility equation, or None.

    nu, mu and sigma must obey their (anti)hom laws, as validate_split_triple
    checks first, so that both product tables are groups.  The equation
    then holds everywhere iff it holds on the lifts (module docstring), so
    a triple that passes there returns None at once.  For one that fails,
    _compat_cells runs with x1 = (h1, y1) over every y1, one h1 at a time,
    and x2 over every element, n^2 |I| cells per h1; the first failing h1
    and its first failing cell in (h2, h3, y1, y2, y3) order are the
    witness."""
    families = [t.nu], [t.mu], [t.sigma]
    if _compat_on_lifts(H, I, *families).all():
        return None
    nh, ni = H.n, I.n
    x2 = np.divmod(np.arange(nh * ni), ni)      # every (h2, y2), h2 first
    for h1 in range(nh):
        x1 = (np.full(ni, h1), np.arange(ni))
        cells = np.concatenate(list(_compat_cells(H, I, *families, x1, x2)))
        # axes (y1, h2, y2, h3, y3) into lexicographic order
        bad = ~cells.reshape(ni, nh, ni, nh, ni).transpose(1, 3, 0, 2, 4)
        if bad.any():
            return (h1,) + tuple(int(v) for v in np.unravel_index(int(bad.argmax()), bad.shape))
    return None


def _compat_on_lifts(H: SkewBrace, I: SkewBrace, nus, mus, sigmas) -> np.ndarray:
    """Whether the candidate (nus[i], mus[j], sigmas[k]) satisfies the
    compatibility equation everywhere, as a boolean array of shape
    (len(nus), len(mus), len(sigmas)).

    The equation is evaluated (_compat_cells) with (h1, y1) among the
    lifts of the circle generators of H and I, (h2, y2) among the lifts of
    their additive generators and every (h3, y3): |L_o| |L_+| n cells per
    candidate.  By the module docstring that decides it whenever every
    candidate obeys the three (anti)hom laws, so that both product tables
    are groups.  When H and I are both trivial there is no lift, and every
    candidate holds."""
    x1 = _lifts(H.circ, I.circ)
    units = (len(nus), len(mus), len(sigmas), len(x1[0]))
    batches = _compat_cells(H, I, nus, mus, sigmas, x1, _lifts(H.add, I.add))
    ok = np.concatenate([np.ones(0, dtype=bool)]
                        + [cells.reshape(len(cells), -1).all(axis=1) for cells in batches])
    return ok.reshape(units).all(axis=-1)


def _compat_cells(H: SkewBrace, I: SkewBrace, nus, mus, sigmas, x1, x2):
    """The compatibility equation (module docstring) at every candidate
    (nus[i], mus[j], sigmas[k]), x1 = (h1, y1) in the pairs x1, x2 =
    (h2, y2) in the pairs x2 and every x3 = (h3, y3); x1 and x2 are each
    an (h array, y array) pair.

    Yields boolean arrays of shape (rows, len(x2), |H|, |I|), True where
    the equation holds, one row per (i, j, k, x1) in C order.  Rows are
    batched so that no batch exceeds _BATCH_CELLS cells, however many
    candidates there are."""
    nh, ni = H.n, I.n
    Ha, Hc, Hneg = H.add.np_table, H.circ.np_table, np.array(H.add.inv, dtype=np.intp)
    Ia, Ic, Ineg = I.add.np_table, I.circ.np_table, np.array(I.add.inv, dtype=np.intp)
    nu, mu, sigma = (np.array(f, dtype=np.intp).reshape(-1, nh, ni) for f in (nus, mus, sigmas))
    inv_nu = nu.argsort(axis=2)
    # x2 and x3 = (h3, y3) on axes (x2, h3, y3)
    x1_h, x1_y = x1
    h2, y2 = (v[:, None, None] for v in x2)
    h3, y3 = np.arange(nh)[:, None], np.arange(ni)
    p = Ha[h2, h3]                              # h2 + h3
    # Gathers go through flat tables: a family f at (c, h, y) is
    # f_flat[(c nh + h) ni + y], and nu_{c, h}(x o z) is
    # nu_circ[((c nh + h) ni + x) ni + z].
    nu_circ = nu[:, :, Ic].ravel()
    Ia_f, mu_f, sigma_f, inv_f = (f.ravel() for f in (Ia, mu, sigma, inv_nu))
    units = (len(nu), len(mu), len(sigma), len(x1_h))
    total = int(np.prod(units))
    step = max(1, _BATCH_CELLS // max(1, len(h2) * nh * ni))
    for lo in range(0, total, step):
        # one (candidate, x1) per row, broadcast against (x2, h3, y3);
        # i, j, k become the row offsets of the nu, mu and sigma tables
        rows = np.arange(lo, min(lo + step, total))
        i, j, k, l1 = (u[:, None, None, None] for u in np.unravel_index(rows, units))
        i, j, k, h1, y1 = i * nh, j * nh, k * nh, x1_h[l1], x1_y[l1]
        a = inv_f[(i + h1) * ni + y1]

        def tail(h, y):
            """T(h, y) = nu_{h1 o h}(sigma_h(a) o nu_h^-1(y))."""
            return nu_circ.take(((i + Hc[h1, h]) * ni + sigma_f.take((k + h) * ni + a)) * ni
                                + inv_f.take((i + h) * ni + y))

        lhs = tail(p, Ia_f.take(mu_f.take((j + h3) * ni + y2) * ni + y3))  # x1 o (x2 + x3)
        q = mu_f.take((j + Ha[Hneg[h1], Hc[h1, h3]]) * ni + Ia[tail(h2, y2), Ineg[y1]])
        yield lhs == Ia_f.take(q * ni + tail(h3, y3))


def _lifts(G: FiniteGroup, K: FiniteGroup) -> tuple:
    """The lifts (s, 0), s in S(G), then (0, t), t in S(K), of the
    generating sequences of G and K, as arrays of h and of y."""
    sg, sk = G.generating_sequence(), K.generating_sequence()
    return (np.array(sg + (0,) * len(sk), dtype=np.intp),
            np.array((0,) * len(sg) + sk, dtype=np.intp))


def check_hom_laws(H: SkewBrace, t: ActionTriple) -> None:
    """Raise unless nu is a homomorphism on (H, o), mu an anti-homomorphism
    on (H, +) and sigma an anti-homomorphism on (H, o).

    Each family must already consist of permutations of one set.  Each law
    is one gather over all (h1, h2); the witness is the first failing
    (h1, h2) in lexicographic order, with nu, mu, sigma checked in that
    order there, as the per-pair loop _loop_hom_laws in
    tests/test_split.py finds it."""
    Ha, Hc, r = H.add.np_table, H.circ.np_table, np.arange(H.n)
    nu, mu, sigma = (np.array(f, dtype=np.intp) for f in (t.nu, t.mu, t.sigma))
    # compose(f[h1], f[h2]) at [h1, h2] is f[r[:, None, None], f[None]], and
    # compose(f[h2], f[h1]) is f[r[None, :, None], f[:, None]]
    laws = (
        (nu[Hc] != nu[r[:, None, None], nu[None]], NotHom,
         "nu is not a homomorphism on (H, o)"),
        (mu[Ha] != mu[r[None, :, None], mu[:, None]], NotAntiHom,
         "mu is not an anti-homomorphism on (H, +)"),
        (sigma[Hc] != sigma[r[None, :, None], sigma[:, None]], NotAntiHom,
         "sigma is not an anti-homomorphism on (H, o)"),
    )
    bad = np.stack([diff.any(axis=2) for diff, _, _ in laws])
    if bad.any():
        h1, h2 = divmod(int(bad.any(axis=0).argmax()), H.n)
        _, err, message = laws[int(bad[:, h1, h2].argmax())]
        raise err(message, h1=h1, h2=h2)


def _check_action(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> None:
    """The action check: t is indexed by H (InputError otherwise), each
    nu_h and mu_h is in Aut(I, +) and each sigma_h in Aut(I, o), checked
    per h in that order (NotAutomorphism at the first that is not), and
    the three (anti)hom laws hold (check_hom_laws).  Returns None."""
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


def validate_split_triple(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> None:
    """Check the action (_check_action: automorphism membership and the
    three (anti)hom laws), then the compatibility equation on the lifts
    (module docstring), at every order.  Returns None; raises with a
    witness on failure."""
    _check_action(H, I, t)
    witness = _compat_witness(H, I, t)
    if witness is not None:
        h1, h2, h3, y1, y2, y3 = witness
        raise CompatibilityFailed(
            "compatibility equation failed at "
            f"(h1,h2,h3,y1,y2,y3)=({h1},{h2},{h3},{y1},{y2},{y3})",
            h1=h1, h2=h2, h3=h3, y1=y1, y2=y2, y3=y3,
        )


def _triplet_ops(H: SkewBrace, I: SkewBrace, chis: Sequence[ActionTriple],
                 betas, taus) -> tuple:
    """The (add, circ) operations the triplets (chis[k], betas[k], taus[k])
    rebuild by the formulas in the extensions module docstring, as
    functions of broadcastable index arrays (k, h1, y1, h2, y2) giving the
    label h * |I| + y of the product of (h1, y1) and (h2, y2), each pair
    standing for s(h) o y.  chis may hold one triple that every layer
    shares."""
    nh, ni = H.n, I.n
    Ha, Hc_label = H.add.np_table, H.circ.np_table * ni
    Ia, Ic = I.add.np_table, I.circ.np_table
    beta, tau = (np.array(c, dtype=np.intp).reshape(-1, nh, nh) for c in (betas, taus))
    fams = np.array([(t.nu, t.mu, t.sigma) for t in chis], dtype=np.intp)
    if len(chis) == 1:
        fams = fams[0]      # shared by every layer: no layer index
    nu, mu, sigma = (fams[..., i, :, :] for i in range(3))
    fam = (lambda k: ()) if len(chis) == 1 else (lambda k: (k,))
    # mu_nu[.., h1, y1, h2] = mu_{h2}(nu_{h1}(y1)); label[.., h, z] = h |I| + nu_h^-1(z)
    mu_nu = mu[(*fam(np.arange(len(chis))[:, None, None, None]), np.arange(nh), nu[..., None])]
    label = np.arange(nh)[:, None] * ni + nu.argsort(axis=-1)

    def add(k, h1, y1, h2, y2):
        c = fam(k)
        return label[(*c, Ha[h1, h2], Ia[Ia[beta[k, h1, h2], mu_nu[(*c, h1, y1, h2)]],
                                         nu[(*c, h2, y2)]])]

    def circ(k, h1, y1, h2, y2):
        return Hc_label[h1, h2] + Ic[Ic[tau[k, h1, h2], sigma[(*fam(k), h2, y1)]], y2]

    return add, circ


def _triplet_tables(H: SkewBrace, I: SkewBrace, chis: Sequence[ActionTriple],
                    betas, taus) -> tuple:
    """The (add, circ) tables of the operations _triplet_ops rebuilds, on
    pairs (h, y) -> h * |I| + y, as (k, n, n) arrays, each gathered at once
    over broadcast (k, h1, y1, h2, y2); one triplet is a stack of one."""
    nh, ni = H.n, I.n
    grid = (np.arange(len(betas)).reshape(-1, 1, 1, 1, 1), np.arange(nh).reshape(-1, 1, 1, 1),
            np.arange(ni).reshape(-1, 1, 1), np.arange(nh).reshape(-1, 1), np.arange(ni))
    n = nh * ni
    return tuple(op(*grid).reshape(-1, n, n) for op in _triplet_ops(H, I, chis, betas, taus))


def _product_tables(H: SkewBrace, I: SkewBrace, ts: Sequence[ActionTriple]) -> tuple:
    """The (add, circ) tables of the split products of the triples ts, as
    (k, n, n) arrays in the order of ts, gathered at once.

    In the product h * |I| + y stands for s(h) + y, and s(h) + y = s(h) o
    nu_h^-1(y), since nu_h(z) = -s(h) + s(h) o z.  So the product is the
    zero-cocycle rebuild (_triplet_tables) with each label h * |I| + z
    renamed to h * |I| + nu_h(z), layer by layer (_relabel_stack)."""
    zero = np.zeros((len(ts), H.n, H.n), dtype=np.intp)
    add, circ = _triplet_tables(H, I, ts, zero, zero)
    rename = (np.arange(H.n)[:, None] * I.n
              + np.array([t.nu for t in ts], dtype=np.intp)).reshape(len(ts), -1)
    return _relabel_stack(add, rename), _relabel_stack(circ, rename)


def _product_brace(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> SkewBrace:
    """The split product of a triple already decided valid, built from
    _product_tables with no further check."""
    add, circ = _product_tables(H, I, [t])
    return SkewBrace(FiniteGroup(add[0]), FiniteGroup(circ[0]))


def semidirect_product(H: SkewBrace, I: SkewBrace, t: ActionTriple) -> SkewBrace:
    """The split product brace on pairs (h, y) -> h * |I| + y.

    The triple goes through validate_split_triple, which raises with a
    witness unless it is valid; a valid triple's product tables are a
    skew brace (module docstring), so the product is not validated again.
    """
    validate_split_triple(H, I, t)
    return _product_brace(H, I, t)


def _candidate_families(H: SkewBrace, I: SkewBrace):
    """(nus, mus, sigmas): every family that obeys its own (anti)hom law;
    the candidate triples are their product."""
    aut_add = automorphism_group(I.add)
    aut_circ = automorphism_group(I.circ)
    nus = homs_to_perm_group(H.circ, aut_add)
    mu_homs = homs_to_perm_group(H.add, aut_add)
    sigma_homs = homs_to_perm_group(H.circ, aut_circ)
    mus = sorted({tuple(f[H.add.inv[h]] for h in range(H.n)) for f in mu_homs})
    sigmas = sorted({tuple(g[H.circ.inv[h]] for h in range(H.n)) for g in sigma_homs})
    return nus, mus, sigmas


def enumerate_split_triples(H: SkewBrace, I: SkewBrace) -> list:
    """All action triples passing validate_split_triple, sorted canonically.

    Every candidate is decided at once on the lifts (_compat_on_lifts) and
    no product is built; validating every candidate product is the test
    oracle _products_are_braces in tests/test_split.py."""
    nus, mus, sigmas = _candidate_families(H, I)
    space = len(nus) * len(mus) * len(sigmas)
    budget_mod.guard(space, "enumerate_split_triples")
    compat = _compat_on_lifts(H, I, nus, mus, sigmas)
    found = [ActionTriple(nus[i], mus[j], sigmas[k]) for i, j, k in np.argwhere(compat)]
    found.sort(key=ActionTriple.sort_key)
    return found


def split_decompose(ext, section: Optional[Sequence[int]] = None):
    """Decompose a split extension: (ActionTriple, BraceHom iso onto the
    rebuilt product).  With section=None, searches for a brace-hom section
    and raises NotSplit when none exists.  A given section must lie in the
    fibers (InputError otherwise) and be a brace hom, which BraceHom.is_valid
    decides on generator cells; SectionNotHom, without a witness pair,
    otherwise."""
    from . import extensions as ext_mod

    E, H, I = ext.E, ext.H, ext.I
    if section is None:
        section = _find_hom_section(ext)
        if section is None:
            raise NotSplit("no section of the projection is a brace homomorphism")
    s = tuple(section)
    _check_section(ext, s)
    if not BraceHom(H, E, s).is_valid():
        raise SectionNotHom("section is not a brace homomorphism")
    t = ext_mod.extract_action(ext, s)
    product = semidirect_product(H, I, t)
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

    maps = _homomorphisms(
        H.add, candidates, brace_hom_ops(H, E), 0, "hom section search", first_only=True
    )
    return maps[0] if maps else None
