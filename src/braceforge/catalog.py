"""Built-in fixture catalog and strict JSON file I/O.

File formats (UTF-8 JSON; the canonical form uses sorted keys, two-space
indent and a trailing newline, so saved files are bit-stable):

    group      {"n": int, "table": [[int]]}         n x n Cayley table
    brace      {"n": int, "add": [[int]], "circ": [[int]]}
    triple     {"nu": [[int]], "mu": [[int]], "sigma": [[int]]}
               equal-length arrays of permutations of I, indexed by H
    triplet    {"chi": <triple object>, "beta": [[int]], "tau": [[int]]}
    extension  {"E": <brace>, "H": <brace>, "I": <brace>,
                "inj": [int], "proj": [int]}

Wrong shapes, non-integer entries and unknown fields raise SchemaError;
the mathematical laws are then checked by the module validators, which
run once on every load: the entry keeps the validated object, and
build() hands it back instead of validating the payload again.  A group
or brace whose identity is not element 0 is relabeled on load (the
identity is swapped to index 0) and the entry carries a warning record;
inside an extension payload the relabeling is pushed through inj and
proj so the maps keep their meaning.

The built-in catalog ships the trivial braces on every group of order at
most 8, two extension fixtures used by the theorem checks, and worked
examples 2-5.  Each example builder reconstructs its fixture from first
principles (group tables plus an action triple), rebuilds the product,
and compares it against the closed forms and counts recorded with the
example; disagreements are collected as erratum candidates in the
report, never patched silently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

from .braces import SkewBrace, socle, trivial_brace, validate_brace
from .errors import InputError, ParamOutOfRange, SchemaError, ValidationError
from .extensions import Extension, Triplet, extension_from_triplet, validate_extension, zero_triplet
from .groups import (
    FiniteGroup,
    cyclic_group,
    describe_group,
    dicyclic_group,
    dihedral_group,
    direct_product_group,
    find_isomorphism,
    identity_perm,
    invert_perm,
    klein_group,
    compose,
    relabel_table,
    standard_groups_of_order,
    validate_group,
)
from .split import (
    ActionTriple,
    _validated_product,
    enumerate_split_triples,
    identity_triple,
    semidirect_product,
    triple_from_tables,
)

KINDS = ("group", "brace", "triple", "triplet", "extension")

PROVENANCES = ("example-2", "example-3", "example-4", "example-5", "derived", "trivial")


# --- payload constructors ----------------------------------------------------

def _rows(table) -> list:
    return [[int(x) for x in row] for row in table]


def group_payload(G: FiniteGroup) -> dict:
    return {"n": G.n, "table": _rows(G.table)}


def brace_payload(B: SkewBrace) -> dict:
    return {"n": B.n, "add": _rows(B.add.table), "circ": _rows(B.circ.table)}


def triple_payload(t: ActionTriple) -> dict:
    return {"nu": _rows(t.nu), "mu": _rows(t.mu), "sigma": _rows(t.sigma)}


def triplet_payload(t: Triplet) -> dict:
    return {"chi": triple_payload(t.chi), "beta": _rows(t.beta), "tau": _rows(t.tau)}


def extension_payload(ext: Extension) -> dict:
    return {
        "E": brace_payload(ext.E),
        "H": brace_payload(ext.H),
        "I": brace_payload(ext.I),
        "inj": [int(x) for x in ext.inj],
        "proj": [int(x) for x in ext.proj],
    }


# --- schema checks -----------------------------------------------------------

def _require_object(data, allowed: tuple, path: str) -> None:
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: expected a JSON object", path=path)
    unknown = sorted(set(data) - set(allowed))
    if unknown:
        raise SchemaError(
            f"{path}: unknown field {unknown[0]!r}", path=path, field=unknown[0]
        )
    missing = sorted(set(allowed) - set(data))
    if missing:
        raise SchemaError(
            f"{path}: missing field {missing[0]!r}", path=path, field=missing[0]
        )


def _int_list(value, path: str, fld: str, length: Optional[int] = None) -> list:
    # decoded JSON integers are exactly int; bool, float and the rest are not
    if not isinstance(value, list) or not set(map(type, value)) <= {int}:
        raise SchemaError(f"{path}: {fld} must be a list of integers", path=path, field=fld)
    if length is not None and len(value) != length:
        raise SchemaError(
            f"{path}: {fld} has length {len(value)}, expected {length}",
            path=path,
            field=fld,
        )
    return list(value)


def _int_matrix(
    value,
    path: str,
    fld: str,
    rows: Optional[int] = None,
    cols: Optional[int] = None,
) -> list:
    if not isinstance(value, list) or not value:
        raise SchemaError(
            f"{path}: {fld} must be a non-empty list of rows", path=path, field=fld
        )
    if rows is not None and len(value) != rows:
        raise SchemaError(
            f"{path}: {fld} has {len(value)} rows, expected {rows}", path=path, field=fld
        )
    width = cols if cols is not None else None
    out = []
    for row in value:
        got = _int_list(row, path, fld, length=width)
        if width is None:
            width = len(got)
        out.append(got)
    return out


def _check_int(value, path: str, fld: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise SchemaError(f"{path}: {fld} must be an integer", path=path, field=fld)
    return value


# --- identity relabeling -----------------------------------------------------

def _identity_index(table: Sequence[Sequence[int]]) -> Optional[int]:
    n = len(table)
    for e in range(n):
        row_ok = all(0 <= table[e][x] < n and table[e][x] == x for x in range(n))
        if row_ok and all(table[x][e] == x for x in range(n)):
            return e
    return None


def _move_identity_to_zero(tables: dict, path: str) -> tuple:
    """Relabel every table so the identity of the first sits at index 0.

    Returns (tables, warnings, perm), perm None when nothing moved.  An
    out-of-range entry raises NotClosed; a brace's witness names its table.
    """
    first = next(iter(tables.values()))
    e = _identity_index(first)
    if e is None or e == 0:
        return tables, [], None
    perm = list(range(len(first)))
    perm[0], perm[e] = e, 0
    moved = {}
    for name, table in tables.items():
        try:
            moved[name] = relabel_table(table, perm)
        except ValidationError as exc:
            if len(tables) > 1:
                exc.witness["table"] = name
            raise
    return moved, [f"{path}: identity was at index {e}; relabeled to index 0"], perm


# --- loaders per kind --------------------------------------------------------

def _load_group_payload(data, path: str):
    _require_object(data, ("n", "table"), path)
    n = _check_int(data["n"], path, "n")
    table = _int_matrix(data["table"], path, "table", rows=n, cols=n)
    tables, warnings, perm = _move_identity_to_zero({"table": table}, path)
    G = validate_group(tables["table"])
    return {"n": n, "table": tables["table"]}, warnings, perm, G


def _load_brace_payload(data, path: str):
    _require_object(data, ("n", "add", "circ"), path)
    n = _check_int(data["n"], path, "n")
    add = _int_matrix(data["add"], path, "add", rows=n, cols=n)
    circ = _int_matrix(data["circ"], path, "circ", rows=n, cols=n)
    tables, warnings, perm = _move_identity_to_zero({"add": add, "circ": circ}, path)
    B = validate_brace(tables["add"], tables["circ"])
    return {"n": n, **tables}, warnings, perm, B


def _load_triple_payload(data, path: str):
    _require_object(data, ("nu", "mu", "sigma"), path)
    nu = _int_matrix(data["nu"], path, "nu")
    nh = len(nu)
    ni = len(nu[0])
    nu = _int_matrix(data["nu"], path, "nu", rows=nh, cols=ni)
    mu = _int_matrix(data["mu"], path, "mu", rows=nh, cols=ni)
    sigma = _int_matrix(data["sigma"], path, "sigma", rows=nh, cols=ni)
    for fld, fam in (("nu", nu), ("mu", mu), ("sigma", sigma)):
        for h, p in enumerate(fam):
            if sorted(p) != list(range(ni)):
                raise SchemaError(
                    f"{path}: {fld}[{h}] is not a permutation of 0..{ni - 1}",
                    path=path,
                    field=fld,
                )
    return {"nu": nu, "mu": mu, "sigma": sigma}, [], None, None


def _load_triplet_payload(data, path: str):
    _require_object(data, ("chi", "beta", "tau"), path)
    chi, _, _, _ = _load_triple_payload(data["chi"], f"{path}.chi")
    nh = len(chi["nu"])
    ni = len(chi["nu"][0])
    beta = _int_matrix(data["beta"], path, "beta", rows=nh, cols=nh)
    tau = _int_matrix(data["tau"], path, "tau", rows=nh, cols=nh)
    for fld, tab in (("beta", beta), ("tau", tau)):
        for row in tab:
            for x in row:
                if not 0 <= x < ni:
                    raise SchemaError(
                        f"{path}: {fld} entry {x} outside 0..{ni - 1}",
                        path=path,
                        field=fld,
                    )
    return {"chi": chi, "beta": beta, "tau": tau}, [], None, None


def _load_extension_payload(data, path: str):
    _require_object(data, ("E", "H", "I", "inj", "proj"), path)
    e_payload, warn_e, perm_e, E = _load_brace_payload(data["E"], f"{path}.E")
    h_payload, warn_h, perm_h, H = _load_brace_payload(data["H"], f"{path}.H")
    i_payload, warn_i, perm_i, I = _load_brace_payload(data["I"], f"{path}.I")
    ne, nh, ni = e_payload["n"], h_payload["n"], i_payload["n"]
    inj = _int_list(data["inj"], path, "inj", length=ni)
    proj = _int_list(data["proj"], path, "proj", length=ne)
    if any(not 0 <= x < ne for x in inj):
        raise SchemaError(f"{path}: inj entry outside 0..{ne - 1}", path=path, field="inj")
    if any(not 0 <= x < nh for x in proj):
        raise SchemaError(f"{path}: proj entry outside 0..{nh - 1}", path=path, field="proj")
    # push any identity relabeling through the maps so they keep their meaning
    if perm_i is not None:
        inv = invert_perm(perm_i)
        inj = [inj[inv[y]] for y in range(ni)]
    if perm_e is not None:
        inv = invert_perm(perm_e)
        inj = [perm_e[x] for x in inj]
        proj = [proj[inv[x]] for x in range(ne)]
    if perm_h is not None:
        proj = [perm_h[h] for h in proj]
    payload = {"E": e_payload, "H": h_payload, "I": i_payload, "inj": inj, "proj": proj}
    warnings = warn_e + warn_h + warn_i
    return payload, warnings, None, validate_extension(E, H, I, inj, proj)


_LOADERS = {
    "group": _load_group_payload,
    "brace": _load_brace_payload,
    "triple": _load_triple_payload,
    "triplet": _load_triplet_payload,
    "extension": _load_extension_payload,
}

_KEY_SIGNATURES = {
    frozenset(("n", "table")): "group",
    frozenset(("n", "add", "circ")): "brace",
    frozenset(("nu", "mu", "sigma")): "triple",
    frozenset(("chi", "beta", "tau")): "triplet",
    frozenset(("E", "H", "I", "inj", "proj")): "extension",
}


# --- entries -----------------------------------------------------------------

@dataclass(frozen=True)
class CatalogEntry:
    """A named, validated payload with its origin tag and load warnings.

    An entry made by the loader also carries the object it validated
    (`live`), which build() returns; it takes no part in ==, hash or repr.
    """

    name: str
    kind: str
    payload: dict
    provenance: str
    warnings: tuple = ()
    report: dict = field(default_factory=dict, compare=False)
    live: object = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown catalog kind {self.kind!r}")
        if self.provenance not in PROVENANCES:
            raise InputError(f"unknown provenance {self.provenance!r}")

    def build(self):
        """The validated live object this payload describes."""
        if self.live is not None:
            return self.live
        p = self.payload
        if self.kind == "group":
            return validate_group(p["table"])
        if self.kind == "brace":
            return validate_brace(p["add"], p["circ"])
        if self.kind == "triple":
            return triple_from_tables(p["nu"], p["mu"], p["sigma"])
        if self.kind == "triplet":
            chi = p["chi"]
            return Triplet(
                triple_from_tables(chi["nu"], chi["mu"], chi["sigma"]),
                tuple(tuple(row) for row in p["beta"]),
                tuple(tuple(row) for row in p["tau"]),
            )
        return validate_extension(
            validate_brace(p["E"]["add"], p["E"]["circ"]),
            validate_brace(p["H"]["add"], p["H"]["circ"]),
            validate_brace(p["I"]["add"], p["I"]["circ"]),
            p["inj"],
            p["proj"],
        )


def _dumps_at(obj, pad: str) -> str:
    """json.dumps(obj, sort_keys=True, indent=2) with every line after the
    first prefixed by pad.

    With an indent the json module encodes in pure Python, so lists and
    str-keyed dicts are laid out here, a list of plain ints in one join;
    every other value goes through json.dumps."""
    inner = pad + "  "
    sep = ",\n" + inner
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        if all(type(v) is int for v in obj):
            body = sep.join(map(str, obj))
        else:
            body = sep.join(_dumps_at(v, inner) for v in obj)
        return "[\n" + inner + body + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not all(type(k) is str for k in obj):
            # json sorts such keys by value before turning them into strings
            return json.dumps(obj, sort_keys=True, indent=2).replace("\n", "\n" + pad)
        if not obj:
            return "{}"
        body = sep.join(json.dumps(k) + ": " + _dumps_at(obj[k], inner) for k in sorted(obj))
        return "{\n" + inner + body + "\n" + pad + "}"
    return json.dumps(obj)


def dumps_payload(payload: dict) -> str:
    """Canonical serialization: sorted keys, two-space indent, newline.

    Byte for byte what json.dumps(payload, sort_keys=True, indent=2) gives,
    plus the newline; the CLI writes its reports with it too."""
    return _dumps_at(payload, "") + "\n"


def loads(text: str, kind: Optional[str] = None, name: str = "<string>") -> CatalogEntry:
    """Parse, schema-check, relabel if needed, and validate a payload."""
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{name}: not valid JSON ({exc})", path=name)
    if not isinstance(data, dict):
        raise SchemaError(f"{name}: expected a JSON object", path=name)
    if kind is None:
        kind = _KEY_SIGNATURES.get(frozenset(data))
        if kind is None:
            raise SchemaError(
                f"{name}: keys {sorted(data)} match no documented format", path=name
            )
    if kind not in KINDS:
        raise InputError(f"unknown catalog kind {kind!r}")
    payload, warnings, _, live = _LOADERS[kind](data, name)
    return CatalogEntry(
        name=name, kind=kind, payload=payload, provenance="derived",
        warnings=tuple(warnings), live=live,
    )


def load(path, kind: Optional[str] = None) -> CatalogEntry:
    """Load a payload file; the entry is named after the file stem."""
    p = Path(path)
    entry = loads(p.read_text(encoding="utf-8"), kind=kind, name=str(p))
    return CatalogEntry(
        name=p.stem, kind=entry.kind, payload=entry.payload,
        provenance=entry.provenance, warnings=entry.warnings, live=entry.live,
    )


def save(entry: CatalogEntry, path) -> None:
    Path(path).write_text(dumps_payload(entry.payload), encoding="utf-8")


def entry_for(obj, name: str, provenance: str = "derived", report: Optional[dict] = None) -> CatalogEntry:
    """Wrap a live object in a catalog entry with its canonical payload."""
    if isinstance(obj, SkewBrace):
        kind, payload = "brace", brace_payload(obj)
    elif isinstance(obj, FiniteGroup):
        kind, payload = "group", group_payload(obj)
    elif isinstance(obj, ActionTriple):
        kind, payload = "triple", triple_payload(obj)
    elif isinstance(obj, Triplet):
        kind, payload = "triplet", triplet_payload(obj)
    elif isinstance(obj, Extension):
        kind, payload = "extension", extension_payload(obj)
    else:
        raise InputError(f"cannot catalog object of type {type(obj).__name__}")
    return CatalogEntry(
        name=name, kind=kind, payload=payload, provenance=provenance,
        report=dict(report or {}),
    )


# --- built-in catalog --------------------------------------------------------

def groups_of_order_8() -> list:
    """All five isomorphism classes of groups of order 8, with names."""
    return [
        ("Z8", cyclic_group(8)),
        ("Z4 x Z2", direct_product_group(cyclic_group(4), cyclic_group(2))),
        ("Z2 x Z2 x Z2", direct_product_group(klein_group(), cyclic_group(2))),
        ("D4", dihedral_group(4)),
        ("Q8", dicyclic_group(2)),
    ]


def _slug(name: str) -> str:
    return name.replace(" x ", "x").replace(" ", "-").lower()


def trivial_brace_entries(max_order: int = 8) -> list:
    """Trivial braces on every group of order <= max_order (max_order <= 8)."""
    if max_order > 8:
        raise ParamOutOfRange("trivial_brace_entries supports orders up to 8")
    out = []
    for n in range(1, max_order + 1):
        named = (
            groups_of_order_8()
            if n == 8
            else [(describe_group(G), G) for G in standard_groups_of_order(n)]
        )
        for name, G in named:
            out.append(
                entry_for(trivial_brace(G), f"trivial-{_slug(name)}", provenance="trivial")
            )
    return out


def split_z2_z3_extension() -> Extension:
    """The split extension of the trivial 2-element brace by the trivial
    3-element brace with the identity action."""
    Z2 = trivial_brace(cyclic_group(2))
    Z3 = trivial_brace(cyclic_group(3))
    return extension_from_triplet(Z2, Z3, zero_triplet(Z2, Z3))


def z4_additive_extension() -> Extension:
    """A non-split extension of the trivial 2-element brace by itself whose
    additive group is cyclic of order 4 (carry cocycle beta, zero tau)."""
    Z2 = trivial_brace(cyclic_group(2))
    t = Triplet(identity_triple(Z2, Z2), ((0, 0), (0, 1)), ((0, 0), (0, 0)))
    return extension_from_triplet(Z2, Z2, t)


def fixture_extension_entries() -> list:
    return [
        entry_for(split_z2_z3_extension(), "split-z2-z3", provenance="derived"),
        entry_for(z4_additive_extension(), "z4-over-z2", provenance="derived"),
    ]


# --- worked examples ---------------------------------------------------------

def _perm_power(p: tuple, k: int) -> tuple:
    out = identity_perm(len(p))
    q = p if k >= 0 else invert_perm(p)
    for _ in range(abs(k)):
        out = compose(q, out)
    return out


def _negation(n: int) -> tuple:
    return tuple((-x) % n for x in range(n))


def example2(n: int = 2, p: int = 3, odd: bool = False):
    """Dihedral trivial brace acting on a trivial cyclic brace by negation.

    Even variant: the dihedral group of order 4n acts on Z_p with every
    standard generator negating.  Odd variant (odd n, order 2n): only the
    reflection negates.  Returns (entry, report); the recorded closed
    forms for the product's operations are checked cell-for-cell.
    """
    if p < 2:
        raise ParamOutOfRange(f"p = {p}: the cyclic part needs at least 2 elements")
    if n < 1:
        raise ParamOutOfRange(f"n = {n}: the dihedral part needs n >= 1")
    if odd and n % 2 == 0:
        raise ParamOutOfRange(f"n = {n}: the odd variant needs odd n")
    k = n if odd else 2 * n  # dihedral_group(k) has order 2k, elements 2i+j
    H = trivial_brace(dihedral_group(k))
    I = trivial_brace(cyclic_group(p))
    neg = _negation(p)
    ident = identity_perm(p)
    if odd:
        exps = [x % 2 for x in range(2 * k)]
    else:
        exps = [x // 2 + x % 2 for x in range(2 * k)]
    fam = tuple(neg if e % 2 else ident for e in exps)
    t = ActionTriple(fam, fam, fam)
    sweep, E = _validated_product(H, I, t)
    bad_add = []
    bad_circ = []
    for x1 in range(H.n):
        for y1 in range(p):
            a = x1 * p + y1
            for x2 in range(H.n):
                for y2 in range(p):
                    b = x2 * p + y2
                    hpart = H.add.table[x1][x2]
                    want_add = hpart * p + (y2 + (-1) ** exps[x2] * y1) % p
                    want_circ = hpart * p + (y1 + (-1) ** exps[x1] * y2) % p
                    if E.add.table[a][b] != want_add:
                        bad_add.append((x1, y1, x2, y2))
                    if E.circ.table[a][b] != want_circ:
                        bad_circ.append((x1, y1, x2, y2))
    cells = (H.n * p) ** 2
    report = {
        "name": "example-2",
        "variant": "odd" if odd else "even",
        "n": n,
        "p": p,
        "order": E.n,
        "triple_valid": True,
        "full_sweep": sweep.full,
        "closed_form_cells": cells,
        "closed_form_add_mismatches": len(bad_add),
        "closed_form_circ_mismatches": len(bad_circ),
        "erratum_candidates": [],
    }
    for what, bad in (("additive", bad_add), ("multiplicative", bad_circ)):
        if bad:
            report["erratum_candidates"].append(
                {
                    "claim": f"recorded {what} closed form",
                    "observed": f"{len(bad)} of {cells} cells disagree",
                    "witness": list(bad[0]),
                }
            )
    entry = entry_for(E, f"example-2-{report['variant']}-n{n}-p{p}",
                      provenance="example-2", report=report)
    return entry, report


def example3_coefficient_brace() -> SkewBrace:
    """The order-6 brace on pairs (n, m) with index 2n + m: addition
    (n,m)+(s,t) = (n + 2^m s, m + t), circle (n,m)o(s,t) = (2^t n + 2^m s, m+t)."""
    def idx(a, b):
        return 2 * (a % 3) + (b % 2)

    add = [[0] * 6 for _ in range(6)]
    circ = [[0] * 6 for _ in range(6)]
    for a in range(3):
        for b in range(2):
            for s in range(3):
                for t in range(2):
                    add[idx(a, b)][idx(s, t)] = idx(a + (2 ** b) * s, b + t)
                    circ[idx(a, b)][idx(s, t)] = idx((2 ** t) * a + (2 ** b) * s, b + t)
    return validate_brace(add, circ)


def example3():
    """Trivial 8-element cyclic brace acting on the order-6 brace through
    powers of (n, m) -> (2n, m); the product has order 48.

    The recorded multiplicative closed form twists the left factor too;
    the rebuilt table shows the left factor enters untwisted, so the
    recorded form is reported as an erratum candidate.
    """
    I = example3_coefficient_brace()
    H = trivial_brace(cyclic_group(8))
    psi = tuple((2 * (x // 2) % 3) * 2 + x % 2 for x in range(6))
    nu = tuple(_perm_power(psi, h) for h in range(8))
    t = ActionTriple(nu, tuple(identity_perm(6) for _ in range(8)), nu)
    sweep, E = _validated_product(H, I, t)
    iso_add = find_isomorphism(I.add, dihedral_group(3))
    iso_circ = find_isomorphism(I.circ, cyclic_group(6))
    bad_recorded = 0
    bad_untwisted = 0
    cells = 0
    for k in range(8):
        for y1 in range(6):
            for l in range(8):
                for y2 in range(6):
                    cells += 1
                    got = E.circ.table[k * 6 + y1][l * 6 + y2]
                    hpart = ((k + l) % 8) * 6
                    recorded = hpart + I.circ.table[psi[y1]][nu[k][y2]]
                    untwisted = hpart + I.circ.table[y1][nu[k][y2]]
                    bad_recorded += got != recorded
                    bad_untwisted += got != untwisted
    report = {
        "name": "example-3",
        "order": E.n,
        "coefficient_add_isomorphic_to_s3": iso_add is not None,
        "coefficient_circ_isomorphic_to_z6": iso_circ is not None,
        "iso_add_witness": list(iso_add) if iso_add else None,
        "iso_circ_witness": list(iso_circ) if iso_circ else None,
        "triple_valid": True,
        "full_sweep": sweep.full,
        "closed_form_cells": cells,
        "recorded_circ_mismatches": bad_recorded,
        "untwisted_left_factor_mismatches": bad_untwisted,
        "erratum_candidates": [],
    }
    if bad_recorded:
        report["erratum_candidates"].append(
            {
                "claim": "recorded multiplicative closed form (left factor twisted)",
                "observed": f"{bad_recorded} of {cells} cells disagree; the form "
                "with the left factor untwisted matches "
                f"{cells - bad_untwisted} of {cells}",
            }
        )
    entry = entry_for(E, "example-3", provenance="example-3", report=report)
    return entry, report


def example4_acting_brace() -> SkewBrace:
    """Order-4 brace: addition is XOR on two bits, circle is + mod 4."""
    add = [[a ^ b for b in range(4)] for a in range(4)]
    circ = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    return validate_brace(add, circ)


def example4_coefficient_brace() -> SkewBrace:
    """Order-4 brace: addition mod 4, circle a o b = a + (-1)^a b."""
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    circ = [[(a + (-1) ** a * b) % 4 for b in range(4)] for a in range(4)]
    return validate_brace(add, circ)


def example4(budget: Optional[int] = None):
    """The order-4 XOR/mod-4 brace acting on the mod-4/(-1)^a brace by
    negation powers; the product has order 16.

    The recorded closed form for the product's circle operation is
    l + (-1)^k m + (-1)^n l m; the rebuilt table instead matches
    l + (-1)^k m + 2 l m on every cell, and no valid action triple for
    this pair reproduces the recorded form, so it is reported as an
    erratum candidate with the full sweep recorded.
    """
    H = example4_acting_brace()
    I = example4_coefficient_brace()
    neg = _negation(4)
    nu = tuple(_perm_power(neg, k) for k in range(4))
    t = ActionTriple(nu, tuple(identity_perm(4) for _ in range(4)), nu)
    sweep, E = _validated_product(H, I, t)
    bad_recorded = []
    bad_corrected = []
    h_part_ok = True
    for k in range(4):
        for l in range(4):
            for n_ in range(4):
                for m in range(4):
                    got = E.circ.table[k * 4 + l][n_ * 4 + m]
                    gh, gy = got // 4, got % 4
                    if gh != (k + n_) % 4:
                        h_part_ok = False
                    recorded = (l + (-1) ** k * m + (-1) ** n_ * l * m) % 4
                    corrected = (l + (-1) ** k * m + 2 * l * m) % 4
                    if gy != recorded:
                        bad_recorded.append((k, l, n_, m, gy, recorded))
                    if gy != corrected:
                        bad_corrected.append((k, l, n_, m, gy, corrected))
    triples = enumerate_split_triples(H, I, budget)
    any_reproduces = False
    for cand in triples:
        Ec = semidirect_product(H, I, cand, validate=False)
        if all(
            Ec.circ.table[k * 4 + l][n_ * 4 + m]
            == ((k + n_) % 4) * 4 + (l + (-1) ** k * m + (-1) ** n_ * l * m) % 4
            for k in range(4)
            for l in range(4)
            for n_ in range(4)
            for m in range(4)
        ):
            any_reproduces = True
    report = {
        "name": "example-4",
        "order": E.n,
        "acting_add": describe_group(H.add),
        "acting_circ": describe_group(H.circ),
        "coefficient_add": describe_group(I.add),
        "coefficient_circ": describe_group(I.circ),
        "triple_valid": True,
        "full_sweep": sweep.full,
        "h_part_matches_recorded": h_part_ok,
        "closed_form_cells": 256,
        "recorded_circ_mismatches": len(bad_recorded),
        "recorded_circ_mismatch_cells": [list(w) for w in bad_recorded],
        "corrected_circ_mismatches": len(bad_corrected),
        "corrected_form": "l + (-1)^k m + 2 l m (mod 4)",
        "valid_triples_for_pair": len(triples),
        "some_valid_triple_reproduces_recorded_form": any_reproduces,
        "erratum_candidates": [],
    }
    if bad_recorded:
        report["erratum_candidates"].append(
            {
                "claim": "recorded circle closed form l + (-1)^k m + (-1)^n l m",
                "observed": f"{len(bad_recorded)} of 256 cells disagree; "
                "l + (-1)^k m + 2 l m matches all 256; no valid triple for "
                "this pair reproduces the recorded form",
                "witness": [list(w) for w in bad_recorded[:4]],
            }
        )
    entry = entry_for(E, "example-4", provenance="example-4", report=report)
    return entry, report


def example5_acting_brace() -> SkewBrace:
    """Order-8 brace: addition mod 8, circle a o b = a + b + 2ab."""
    add = [[(a + b) % 8 for b in range(8)] for a in range(8)]
    circ = [[(a + b + 2 * a * b) % 8 for b in range(8)] for a in range(8)]
    return validate_brace(add, circ)


def example5(budget: Optional[int] = None):
    """Enumeration of all split products of the order-4 coefficient brace
    by the order-8 brace whose circle group is Z4 x Z2.

    The recorded count is 8, all with identity mu.  The exhaustive
    enumeration under the corrected compatibility law finds 16 valid
    triples, of which exactly the 8 with identity mu form the set passing
    the uncorrected law, so the recorded total is reported as an erratum
    candidate with the full listing.  Recorded sample triple (i) appears
    verbatim; sample (ii) appears after renumbering the coefficient brace
    by the transposition (1 2).
    """
    H = example5_acting_brace()
    I = example4_coefficient_brace()
    triples = enumerate_split_triples(H, I, budget)
    ident = identity_perm(4)
    idfam = tuple(ident for _ in range(8))
    neg = _negation(4)
    mu_id = [t for t in triples if t.mu == idfam]
    spot_i = any(
        t.nu[1] == neg and t.nu[2] == ident and t.mu == idfam
        and all(s == ident for s in t.sigma)
        for t in triples
    )

    def spot_ii(trips, coeff):
        inv = tuple(coeff.add.inv)
        return any(
            t.nu[1] == inv and t.nu[2] == inv and t.mu == idfam
            and t.sigma[1] == ident and t.sigma[2][2] == 3
            for t in trips
        )

    ii_as_written = spot_ii(triples, I)
    relabel = (0, 2, 1, 3)
    I_relabeled = validate_brace(
        relabel_table(I.add.table, relabel), relabel_table(I.circ.table, relabel)
    )
    triples_relabeled = enumerate_split_triples(H, I_relabeled, budget)
    ii_relabeled = spot_ii(triples_relabeled, I_relabeled)
    report = {
        "name": "example-5",
        "acting_add": describe_group(H.add),
        "acting_circ": describe_group(H.circ),
        "socle_order": len(socle(H)),
        "recorded_count": 8,
        "valid_triples": len(triples),
        "identity_mu_count": len(mu_id),
        "recorded_sample_i_found": spot_i,
        "recorded_sample_ii_found_as_written": ii_as_written,
        "recorded_sample_ii_found_after_relabel": ii_relabeled,
        "relabel_perm": list(relabel),
        "triples": [triple_payload(t) for t in triples],
        "erratum_candidates": [],
    }
    if len(triples) != 8:
        report["erratum_candidates"].append(
            {
                "claim": "8 split products in total, all with identity mu",
                "observed": f"{len(triples)} valid triples, {len(mu_id)} with "
                "identity mu; the identity-mu subset is exactly the set "
                "passing the uncorrected compatibility law",
                "witness": [triple_payload(t) for t in triples],
            }
        )
    if not ii_as_written:
        report["erratum_candidates"].append(
            {
                "claim": "recorded sample triple (ii) in the pinned numbering",
                "observed": "absent as written; present verbatim after "
                f"renumbering the coefficient brace by {list(relabel)}",
            }
        )
    entry = entry_for(H, "example-5", provenance="example-5", report=report)
    return entry, report


def example1_finite(k: int = 2, m: int = 3):
    """Finite analog of the infinite negation fixture: the trivial brace
    on Z_{2k} acts on the trivial brace on Z_m, odd elements negating."""
    if k < 1:
        raise ParamOutOfRange(f"k = {k}: the acting cyclic group needs order >= 2")
    if m < 2:
        raise ParamOutOfRange(f"m = {m}: the coefficient group needs order >= 2")
    H = trivial_brace(cyclic_group(2 * k))
    I = trivial_brace(cyclic_group(m))
    neg = _negation(m)
    fam = tuple(neg if h % 2 else identity_perm(m) for h in range(2 * k))
    t = ActionTriple(fam, fam, fam)
    E = semidirect_product(H, I, t)
    bad = 0
    for h1 in range(2 * k):
        for y1 in range(m):
            for h2 in range(2 * k):
                for y2 in range(m):
                    hpart = (h1 + h2) % (2 * k)
                    want_add = hpart * m + ((-1) ** h2 * y1 + y2) % m
                    want_circ = hpart * m + (y1 + (-1) ** h1 * y2) % m
                    a, b = h1 * m + y1, h2 * m + y2
                    bad += E.add.table[a][b] != want_add
                    bad += E.circ.table[a][b] != want_circ
    report = {
        "name": "example-1-finite",
        "k": k,
        "m": m,
        "order": E.n,
        "closed_form_mismatches": bad,
        "erratum_candidates": [],
    }
    entry = entry_for(E, f"example-1-finite-k{k}-m{m}", provenance="derived",
                      report=report)
    return entry, report


_EXAMPLES = {2: example2, 3: example3, 4: example4, 5: example5}


def example(which: int, budget: Optional[int] = None, **params) -> CatalogEntry:
    """Build worked example 2..5; parameters apply to example 2 only, and
    budget caps the split-triple enumerations of examples 4 and 5."""
    if which not in _EXAMPLES:
        raise ParamOutOfRange(f"example {which}: only examples 2 through 5 exist")
    if which != 2 and params:
        raise ParamOutOfRange(f"example {which} takes no parameters")
    if which in (4, 5):
        params["budget"] = budget
    entry, _ = _EXAMPLES[which](**params)
    return entry


def example_report(which: int, **params) -> dict:
    """The full check report for worked example 2..5."""
    if which not in _EXAMPLES:
        raise ParamOutOfRange(f"example {which}: only examples 2 through 5 exist")
    if which != 2 and params:
        raise ParamOutOfRange(f"example {which} takes no parameters")
    _, report = _EXAMPLES[which](**params)
    return report


def axiom_fixtures() -> list:
    """Named braces for the exhaustive axiom and lemma sweeps: trivial
    braces on all groups of order <= 8, the example instantiations with
    n <= 4 and p in {3, 5}, and every product from the example-5 pair."""
    out = [(e.name, e.build()) for e in trivial_brace_entries(8)]
    for n in (1, 2, 3, 4):
        for p in (3, 5):
            entry, _ = example2(n=n, p=p)
            out.append((entry.name, entry.build()))
    for p in (3, 5):
        entry, _ = example2(n=3, p=p, odd=True)
        out.append((entry.name, entry.build()))
    entry, _ = example3()
    out.append((entry.name, entry.build()))
    entry, _ = example4()
    out.append((entry.name, entry.build()))
    H5 = example5_acting_brace()
    I5 = example4_coefficient_brace()
    out.append(("example-5-acting", H5))
    out.append(("example-5-coefficient", I5))
    for i, t in enumerate(enumerate_split_triples(H5, I5)):
        out.append((f"example-5-product-{i}", semidirect_product(H5, I5, t)))
    return out


def builtin_entries() -> list:
    """Every named entry the catalog ships, in a stable order."""
    entries = trivial_brace_entries(8)
    entries.extend(fixture_extension_entries())
    for n in (2, 3, 4, 5):
        entries.append(example(n))
    entry, _ = example1_finite()
    entries.append(entry)
    return entries
