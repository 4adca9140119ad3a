"""Layer tracing from outside the package.

`Tracer.install()` replaces each traced fockweyl function with a wrapper at
every place a fockweyl module or class binds it by name, so calls made through
`from .linalg import field_det` style imports, package re-exports and class
aliases such as `MultiRat.__radd__ = __add__` are all seen.  Span wrappers
record one span per call (layer, start, end, parent span, case) in compact
arrays and accumulate per-layer calls and self time; count wrappers only count
and feed the gcd-path counters, so they take nothing out of any self time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array
from collections import Counter
from functools import wraps

# (module, attribute or Class.method, layer).  Several attributes may share
# a layer; their calls and self time are summed.
SPAN_TARGETS = (
    ("linalg", "field_det", "linalg.field_det"),
    ("linalg", "field_echelon", "linalg.field_echelon"),
    ("linalg", "ff_echelon", "linalg.ff_echelon"),
    ("verma", "gram_matrix", "verma.gram_matrix"),
    ("verma", "shapovalov_pair", "verma.shapovalov_pair"),
    ("verma", "jantzen_engine", "verma.jantzen_engine"),
    ("multirat", "poly_gcd_multi", "multirat.poly_gcd_multi"),
    ("multirat", "_divexact", "multirat.divexact"),
    ("multirat", "MultiRat.__init__", "multirat.MultiRat.init"),
    ("multirat", "MultiRat.__add__", "multirat.MultiRat.add"),
    ("multirat", "MultiRat.__mul__", "multirat.MultiRat.mul"),
    ("ring", "QFrac.__init__", "ring.QFrac.init"),
    ("ring", "poly_gcd", "ring.poly_gcd"),
    ("weyl", "tensor_act", "weyl.tensor_act"),
    ("weyl", "tensor_form", "weyl.tensor_form"),
    ("weyl", "highest_weight_vector", "weyl.highest_weight_vector"),
    ("fock", "apply_E", "fock.apply"),
    ("fock", "apply_F", "fock.apply"),
    ("fock", "apply_K", "fock.apply"),
    ("reports", "render_json", "reports.render_json"),
    ("verify", "run_case", "verify.run_case"),
) + tuple(
    # Generator functions (all_partitions, partitions_of, Partition.boxes)
    # are left out: their bodies run after the call returns.
    ("partitions", name, "partitions") for name in (
        "content", "color", "is_addable", "is_removable", "addable_boxes",
        "removable_boxes", "n_left", "n_right", "addable_row_indices",
        "Partition.__new__", "Partition.part", "Partition.contains",
        "Partition.add_box", "Partition.remove_box"))

COUNT_TARGETS = (
    ("multirat", "_heugcd"),
    ("multirat", "_certified_coprime"),
    ("multirat", "_gcd_subresultant"),
    ("ring", "LaurentQ.__mul__"),
)

# Layers reported as <layer>.calls and <layer>.self_s.
REPORTED_LAYERS = (
    "linalg.field_det", "linalg.field_echelon", "linalg.ff_echelon",
    "verma.gram_matrix", "verma.shapovalov_pair", "verma.jantzen_engine",
    "multirat.poly_gcd_multi", "multirat.divexact", "multirat.MultiRat.init",
    "multirat.MultiRat.add", "multirat.MultiRat.mul", "ring.QFrac.init",
    "ring.poly_gcd", "weyl.tensor_act", "weyl.tensor_form",
    "weyl.highest_weight_vector", "fock.apply", "reports.render_json",
)

# Fixed here rather than read from fockweyl.verify, so that the metric names
# stay the same whatever the package under test defines.
FAMILIES = ("fock-relations", "theorem51", "prop52", "lemma62", "lemma63",
            "prop64", "prop65", "theorem61")


def per_layer_names():
    """Every per-layer metric name with its unit, in report order."""
    out = []
    for layer in REPORTED_LAYERS:
        out += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    out += [
        ("partitions.self_s", "s"),
        ("linalg.field_det.per_gram", "calls/gram"),
        ("verma.gram_matrix.independent_ratio", "ratio"),
        ("verma.kostant_p.hit_ratio", "ratio"),
        ("multirat.gcd.heuristic_hits", "count"),
        ("multirat.gcd.certify_failed", "count"),
        ("multirat.gcd.subresultant", "count"),
        ("multirat.gcd.nontrivial_ratio", "ratio"),
        ("ring.poly_gcd.nontrivial_ratio", "ratio"),
        ("ring.LaurentQ.mul.calls", "count"),
        ("weyl.mu_singular_vectors.hits", "count"),
        ("weyl.mu_singular_vectors.misses", "count"),
        ("verify.cases", "count"),
    ]
    out += [(f"verify.family.{f}_s", "s") for f in FAMILIES]
    out += [("trace.spans", "count"), ("trace.overhead_s", "s")]
    return out


def _is_one_multi(p) -> bool:
    if len(p.terms) != 1:
        return False
    ((exps, coeff),) = p.terms.items()
    return coeff == 1 and not any(exps)


def _lookup(module, attr):
    """The raw namespace entry for 'func' or 'Class.method' in
    fockweyl.<module> (a staticmethod object for __new__)."""
    owner = importlib.import_module(f"fockweyl.{module}")
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return vars(owner)[attr]


def _unwrap(value):
    return value.__func__ if isinstance(value, staticmethod) else value


def _namespaces():
    """Every loaded fockweyl module and each class defined in it."""
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "fockweyl"
                               or mod_name.startswith("fockweyl.")):
            continue
        yield mod
        yield from (v for v in vars(mod).values()
                    if isinstance(v, type) and v.__module__ == mod_name)


class Tracer:
    """Spans and counters for one traced pass; patch with install()."""

    def __init__(self):
        self.layers: list[str] = []
        self._layer_index: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.counters: Counter = Counter()
        self.family_s: Counter = Counter()
        self.case_ids: list[str] = []
        self.case = -1
        # spans, one entry per call, parallel arrays
        self.span_layer = array("H")
        self.span_parent = array("i")
        self.span_case = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []    # [span index, child seconds]
        self._patched: list[tuple] = []  # (owner, name, original raw attr)
        self.originals: list = []

    # -- wrappers -----------------------------------------------------------

    def _layer(self, name: str) -> int:
        if name not in self._layer_index:
            self._layer_index[name] = len(self.layers)
            self.layers.append(name)
            self.calls.append(0)
            self.self_s.append(0.0)
        return self._layer_index[name]

    def _span_wrapper(self, fn, layer: str, after=None):
        li = self._layer(layer)
        stack = self._stack
        perf = time.perf_counter
        layer_a, parent_a, case_a = self.span_layer, self.span_parent, self.span_case
        start_a, end_a = self.span_start, self.span_end
        calls, self_s = self.calls, self.self_s

        @wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start_a)
            layer_a.append(li)
            parent_a.append(stack[-1][0] if stack else -1)
            case_a.append(self.case)
            end_a.append(0.0)
            frame = [idx, 0.0]
            stack.append(frame)
            t0 = perf()
            start_a.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                end_a[idx] = t1
                stack.pop()
                dur = t1 - t0
                calls[li] += 1
                self_s[li] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, kwargs, result, dur)
            return result
        return traced

    def _count_wrapper(self, fn, after):
        @wraps(fn)
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result
        return counted

    def _run_case_wrapper(self, fn):
        """run_case: spans carry the case index while it runs."""
        inner = self._span_wrapper(fn, "verify.run_case", after=self._after_case)

        @wraps(fn)
        def run_case(spec, *args, **kwargs):
            prev = self.case
            self.case = len(self.case_ids)
            self.case_ids.append("/".join(str(s) for s in spec))
            try:
                return inner(spec, *args, **kwargs)
            finally:
                self.case = prev
        return run_case

    # -- hooks feeding the derived metrics ----------------------------------

    def _after_case(self, args, kwargs, result, dur):
        self.family_s[args[0][0]] += dur

    def _after_gram(self, args, kwargs, result, dur):
        self.counters["gram.words"] += len(result.words)
        self.counters["gram.independent"] += len(result.independent)

    def _after_gcd_multi(self, args, kwargs, result, dur):
        if not _is_one_multi(result):
            self.counters["gcd_multi.nontrivial"] += 1

    def _after_poly_gcd(self, args, kwargs, result, dur):
        if len(result.c) > 1:
            self.counters["poly_gcd.nontrivial"] += 1

    def _count_heugcd(self, args, kwargs, result):
        depth = args[2] if len(args) > 2 else kwargs.get("depth", 0)
        if depth == 0 and result is not None:
            self.counters["heuristic_hits"] += 1

    def _count_certify(self, args, kwargs, result):
        if not result:
            self.counters["certify_failed"] += 1

    def _count_subresultant(self, args, kwargs, result):
        self.counters["subresultant"] += 1

    def _count_laurent_mul(self, args, kwargs, result):
        self.counters["laurent_mul"] += 1

    # -- patching -----------------------------------------------------------

    def install(self):
        importlib.import_module("fockweyl.cli")  # loads every submodule
        after = {"verma.gram_matrix": self._after_gram,
                 "multirat.poly_gcd_multi": self._after_gcd_multi,
                 "ring.poly_gcd": self._after_poly_gcd}
        for module, attr, layer in SPAN_TARGETS:
            fn = _unwrap(_lookup(module, attr))
            if layer == "verify.run_case":
                self._bind_everywhere(fn, self._run_case_wrapper(fn))
            else:
                self._bind_everywhere(
                    fn, self._span_wrapper(fn, layer, after.get(layer)))
        counts = {"_heugcd": self._count_heugcd,
                  "_certified_coprime": self._count_certify,
                  "_gcd_subresultant": self._count_subresultant,
                  "LaurentQ.__mul__": self._count_laurent_mul}
        for module, attr in COUNT_TARGETS:
            fn = _lookup(module, attr)
            self._bind_everywhere(fn, self._count_wrapper(fn, counts[attr]))
        return self

    def _bind_everywhere(self, original, replacement):
        """Rebind `original` to `replacement` in every fockweyl module and
        class namespace that holds it."""
        self.originals.append(original)
        for owner in _namespaces():
            for name, value in list(vars(owner).items()):
                if _unwrap(value) is original:
                    self._patched.append((owner, name, value))
                    setattr(owner, name, staticmethod(replacement)
                            if isinstance(value, staticmethod) else replacement)

    def uninstall(self):
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    def unwrapped_bindings(self) -> list[str]:
        """Names in fockweyl namespaces still bound to an original function."""
        originals = {id(fn) for fn in self.originals}
        return [f"{owner.__name__}.{name}" for owner in _namespaces()
                for name, value in vars(owner).items()
                if id(_unwrap(value)) in originals]

    # -- results ------------------------------------------------------------

    def layer_metrics(self, kostant_info, mu_info) -> dict:
        """Per-layer metric values, keyed as in per_layer_names()."""
        def calls(layer):
            i = self._layer_index.get(layer)
            return 0 if i is None else self.calls[i]

        def self_s(layer):
            i = self._layer_index.get(layer)
            return 0.0 if i is None else self.self_s[i]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counters
        m = {}
        for layer in REPORTED_LAYERS:
            m[f"{layer}.calls"] = calls(layer)
            m[f"{layer}.self_s"] = self_s(layer)
        m["partitions.self_s"] = self_s("partitions")
        m["linalg.field_det.per_gram"] = ratio(calls("linalg.field_det"),
                                               calls("verma.gram_matrix"))
        m["verma.gram_matrix.independent_ratio"] = ratio(c["gram.independent"],
                                                         c["gram.words"])
        m["verma.kostant_p.hit_ratio"] = ratio(
            kostant_info.hits, kostant_info.hits + kostant_info.misses)
        m["multirat.gcd.heuristic_hits"] = c["heuristic_hits"]
        m["multirat.gcd.certify_failed"] = c["certify_failed"]
        m["multirat.gcd.subresultant"] = c["subresultant"]
        m["multirat.gcd.nontrivial_ratio"] = ratio(
            c["gcd_multi.nontrivial"], calls("multirat.poly_gcd_multi"))
        m["ring.poly_gcd.nontrivial_ratio"] = ratio(c["poly_gcd.nontrivial"],
                                                    calls("ring.poly_gcd"))
        m["ring.LaurentQ.mul.calls"] = c["laurent_mul"]
        m["weyl.mu_singular_vectors.hits"] = mu_info.hits
        m["weyl.mu_singular_vectors.misses"] = mu_info.misses
        m["verify.cases"] = calls("verify.run_case")
        for f in FAMILIES:
            m[f"verify.family.{f}_s"] = self.family_s[f]
        m["trace.spans"] = len(self.span_start)
        return m

    def write_spans(self, stem):
        """Write the spans as <stem>.bin (raw arrays) and <stem>.json (layout)."""
        arrays = (("layer", self.span_layer), ("parent", self.span_parent),
                  ("case", self.span_case), ("start", self.span_start),
                  ("end", self.span_end))
        with open(f"{stem}.bin", "wb") as fh:
            for _, arr in arrays:
                arr.tofile(fh)
        header = {"count": len(self.span_start), "byteorder": sys.byteorder,
                  "arrays": [[name, arr.typecode] for name, arr in arrays],
                  "layers": self.layers, "cases": self.case_ids,
                  "clock": "time.perf_counter seconds; parent/case -1 = none"}
        with open(f"{stem}.json", "w") as fh:
            json.dump(header, fh)


def load_spans(stem) -> dict:
    """Read spans written by Tracer.write_spans into arrays keyed by name."""
    with open(f"{stem}.json") as fh:
        header = json.load(fh)
    out = {}
    with open(f"{stem}.bin", "rb") as fh:
        for name, typecode in header["arrays"]:
            arr = array(typecode)
            arr.fromfile(fh, header["count"])
            if header["byteorder"] != sys.byteorder:
                arr.byteswap()
            out[name] = arr
    return {"header": header, **out}
