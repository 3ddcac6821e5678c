"""Outside-in tracing of braceforge's public entry points.

The tracer replaces every binding of each traced function in every loaded
`braceforge.*` namespace with a wrapper.  Calls between modules resolve
module globals at call time, including names imported inside function
bodies, so they reach the wrapper too.  Each call records a span (name,
start, end, parent span, command id) and bumps the call, accept and hit
counters; spans stay in memory until the run writes them out.

A span's self time is its duration minus the time its child spans cover,
so the self times of all spans of a command add up to the command's root
span (`cli.main`).  Time in untraced helpers is charged to the nearest
traced caller.
"""

from __future__ import annotations

import gzip
import json
import sys
from time import perf_counter

# module -> traced functions; "Class.__init__" patches the class in place.
TARGETS = {
    "cli": ["main"],
    "catalog": ["load", "save", "example", "axiom_fixtures"],
    "wells": ["verify_exact_sequence", "stabilizer_C", "rho", "autb_I", "wells_map"],
    "cohomology": ["z2N", "b2N", "z1N", "h2N", "CohomologyGroup.__init__"],
    "extensions": ["extension_from_triplet", "enumerate_all_extensions", "ext_classes",
                   "extensions_equivalent"],
    "split": ["enumerate_split_triples", "validate_split_triple", "semidirect_product"],
    "braces": ["validate_brace", "brace_automorphisms", "find_brace_isomorphism",
               "lambda_is_hom"],
    "groups": ["validate_group", "automorphism_group", "homs_to_perm_group",
               "all_group_tables"],
}

# Per-layer metrics reported by the traced run, beyond `<module>.self_s`.
METRICS = {
    "cohomology": ["z2N.calls", "z2N.self_s", "b2N.self_s", "z1N.self_s", "h2N.total_s",
                   "CohomologyGroup.self_s"],
    "extensions": ["extension_from_triplet.calls", "extension_from_triplet.self_s",
                   "extension_from_triplet.accept_ratio", "enumerate_all_extensions.self_s",
                   "ext_classes.calls", "extensions_equivalent.calls",
                   "extensions_equivalent.self_s", "extensions_equivalent.hit_ratio"],
    "braces": ["validate_brace.calls", "validate_brace.self_s", "validate_brace.accept_ratio",
               "brace_automorphisms.calls", "brace_automorphisms.self_s",
               "find_brace_isomorphism.calls", "find_brace_isomorphism.self_s",
               "lambda_is_hom.self_s"],
    "groups": ["validate_group.calls", "validate_group.self_s", "automorphism_group.calls",
               "automorphism_group.self_s", "homs_to_perm_group.self_s",
               "all_group_tables.self_s"],
    "split": ["enumerate_split_triples.calls", "enumerate_split_triples.self_s",
              "validate_split_triple.self_s", "semidirect_product.calls",
              "semidirect_product.self_s"],
    "wells": ["verify_exact_sequence.calls", "verify_exact_sequence.total_s",
              "stabilizer_C.self_s", "rho.self_s", "autb_I.total_s", "wells_map.self_s",
              "wells_map.total_s"],
    "catalog": ["load.calls", "load.self_s", "save.calls", "save.self_s", "example.self_s",
                "axiom_fixtures.self_s"],
    "cli": ["main.calls"],
}


def layer_metric_names() -> list:
    names = []
    for layer, stats in METRICS.items():
        names.append(f"{layer}.self_s")
        names.extend(f"{layer}.{s}" for s in stats)
    return names


class Tracer:
    def __init__(self):
        self.names = []                  # span name by name id
        self.spans = []                  # [name id, start, end, parent, command, child time]
        self.stack = []                  # indices of open spans
        self.depth = []                  # per name id: active calls (for total_s)
        self.total = []                  # per name id: time in outermost calls
        self.calls, self.accepts, self.hits = [], [], []
        self.command = -1
        self._patches = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        mods = {k: v for k, v in sys.modules.items()
                if k == "braceforge" or k.startswith("braceforge.")}
        for layer, funcs in TARGETS.items():
            home = mods[f"braceforge.{layer}"]
            for func in funcs:
                name = f"{layer}.{func.split('.')[0]}"
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(home, cls_name)
                    self._patch(cls, attr, getattr(cls, attr), name)
                    continue
                orig = getattr(home, func)
                for mod in mods.values():
                    for key, val in list(vars(mod).items()):
                        if val is orig:
                            self._patch(mod, key, orig, name)

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    def _patch(self, owner, key, orig, name) -> None:
        if name not in self.names:
            self.names.append(name)
            for lst in (self.depth, self.total, self.calls, self.accepts, self.hits):
                lst.append(0)
        setattr(owner, key, self._wrap(self.names.index(name), orig))
        self._patches.append((owner, key, orig))

    def _wrap(self, nid, fn):
        spans, stack, depth, total = self.spans, self.stack, self.depth, self.total
        calls, accepts, hits = self.calls, self.accepts, self.hits

        def traced(*args, **kwargs):
            span = [nid, 0.0, 0.0, stack[-1] if stack else -1, self.command, 0.0]
            stack.append(len(spans))
            spans.append(span)
            calls[nid] += 1
            depth[nid] += 1
            accepted = False
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                accepted = True
            finally:
                span[2] = end = perf_counter()
                stack.pop()
                depth[nid] -= 1
                dur = end - span[1]
                if stack:
                    spans[stack[-1]][5] += dur
                if depth[nid] == 0:
                    total[nid] += dur
                if accepted:
                    accepts[nid] += 1
                    if result is not None:
                        hits[nid] += 1
            return result

        return traced

    # -- results ---------------------------------------------------------------

    def metrics(self, passes: int) -> dict:
        """Per-pass per-layer metrics; ratios are 0 where a function had no calls."""
        per = {}
        self_s = [0.0] * len(self.names)
        for nid, start, end, _, _, child in self.spans:
            self_s[nid] += end - start - child
        for nid, name in enumerate(self.names):
            c = self.calls[nid]
            per[f"{name}.calls"] = c / passes
            per[f"{name}.self_s"] = self_s[nid] / passes
            per[f"{name}.total_s"] = self.total[nid] / passes
            per[f"{name}.accept_ratio"] = self.accepts[nid] / c if c else 0.0
            per[f"{name}.hit_ratio"] = self.hits[nid] / c if c else 0.0
            layer = name.split(".")[0]
            per[f"{layer}.self_s"] = per.get(f"{layer}.self_s", 0.0) + self_s[nid] / passes
        return {name: per.get(name, 0.0) for name in layer_metric_names()}

    def root_time(self) -> float:
        return sum(end - start for _, start, end, parent, _, _ in self.spans if parent == -1)

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON: names plus one row per span."""
        rows = [[nid, round(start, 7), round(end, 7), parent, cmd]
                for nid, start, end, parent, cmd, _ in self.spans]
        with gzip.open(path, "wt") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start", "end", "parent", "command"],
                       "spans": rows}, fh)
