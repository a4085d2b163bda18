"""Span tracing of mixdiv's layers, installed from outside the package.

The tracer wraps the public functions of each layer module at every place
they are bound, because mixdiv's modules import names directly
(``from .divergence import mixed_divergence``): patching only the defining
module would miss the calls made through the other modules. It also wraps
``MeasureSpace.__eq__`` and ``Generator.eval_array`` on their classes.
Nothing is recorded inside the package, and ``remove`` restores every
original binding.

A span is ``[name, start, end, parent, op]``: ``parent`` is the index of the
enclosing span (-1 at the top) and ``op`` the benchmark operation it belongs
to. Spans stay in memory until the benchmark writes them out. A span's self
time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("measures", "generators", "divergence", "audit", "geometry", "cli")

# Scalar entry points called once per element (custom generators call
# eval_generator per atom). Wrapping them would multiply their cost; their
# time is charged to the calling span instead.
UNWRAPPED = frozenset({"eval_generator"})

METHODS = (
    ("measures", "MeasureSpace", "__eq__"),
    ("generators", "Generator", "eval_array"),
)

#: the functions whose inputs define the atoms x factors work count
ATOM_FACTOR_FUNCTIONS = frozenset(
    {"weighted_product_integral", "f_divergence", "f_dissimilarity"}
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _file_size(path):
    return os.path.getsize(path) if path and os.path.exists(path) else 0


def _count_integrate(counts, args, kwargs, result):
    counts["measures.integrate.elements"] += len(_arg(args, kwargs, 1, "values"))


def _count_eval_array(counts, args, kwargs, result):
    n = int(result.size)
    counts["generators.eval_array.elements"] += n
    if args[0].kind == "custom":
        counts["generators.custom_elements"] += n


def _count_wpi(counts, args, kwargs, result):
    n = _arg(args, kwargs, 0, "space").n_atoms * len(_arg(args, kwargs, 1, "factors"))
    counts["divergence.wpi.atom_factors"] += n
    counts["divergence.atom_factors"] += n


def _count_f_divergence(counts, args, kwargs, result):
    counts["divergence.atom_factors"] += _arg(args, kwargs, 1, "p").space.n_atoms


def _count_dissimilarity(counts, args, kwargs, result):
    vec = _arg(args, kwargs, 1, "densities")
    counts["divergence.atom_factors"] += len(vec) * vec.space.n_atoms


def _count_audit_suite(counts, args, kwargs, result):
    counts["audit.reports"] += len(result)


def _count_sphere_grid(counts, args, kwargs, result):
    counts["geometry.sphere_grid.nodes"] += result.n_nodes


def _count_run_job(counts, args, kwargs, result):
    spec = _arg(args, kwargs, 0, "spec")
    counts["cli.input_bytes"] += _file_size(spec.input_path)
    counts["cli.report_bytes"] += _file_size(spec.output_path)


COUNTERS = {
    "measures.integrate": _count_integrate,
    "generators.Generator.eval_array": _count_eval_array,
    "divergence.weighted_product_integral": _count_wpi,
    "divergence.f_divergence": _count_f_divergence,
    "divergence.f_dissimilarity": _count_dissimilarity,
    "audit.audit_suite": _count_audit_suite,
    "geometry.sphere_grid": _count_sphere_grid,
    "cli.run_job": _count_run_job,
}


class Tracer:
    """Wraps mixdiv's layer functions while active (use as a context manager).

    ``only`` restricts wrapping to the named functions, which keeps a
    count-only pass cheap.
    """

    def __init__(self, only=None):
        self.only = only
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.remove()

    def _wrap(self, name, fn):
        tracer = self
        count = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        sites = [m for n, m in sorted(sys.modules.items())
                 if m is not None and (n == "mixdiv" or n.startswith("mixdiv."))]
        for layer in LAYERS:
            module = sys.modules[f"mixdiv.{layer}"]
            for fname, fn in list(vars(module).items()):
                if (fname.startswith("_") or fname in UNWRAPPED
                        or not inspect.isfunction(fn) or fn.__module__ != module.__name__
                        or (self.only is not None and fname not in self.only)):
                    continue
                wrapper = self._wrap(f"{layer}.{fname}", fn)
                for site in sites:
                    for attr, value in list(vars(site).items()):
                        if value is fn:
                            self._patch(site, attr, wrapper)
        if self.only is None:
            for layer, cls_name, meth in METHODS:
                cls = getattr(sys.modules[f"mixdiv.{layer}"], cls_name)
                name = f"{layer}.{cls_name}.{meth}"
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))

    def remove(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def by_name(self):
        """Per span name: ``(calls, total seconds, self seconds)``."""
        spans = self.spans
        child = [0.0] * len(spans)
        for sp in spans:
            if sp[3] >= 0:
                child[sp[3]] += sp[2] - sp[1]
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for sp, c in zip(spans, child):
            row = out[sp[0]]
            row[0] += 1
            row[1] += sp[2] - sp[1]
            row[2] += sp[2] - sp[1] - c
        return out


def layer_metrics(tracer):
    """The per-layer metrics named in BENCHMARK.json, from a traced pass."""
    rows = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return rows[name][0] if name in rows else 0

    def self_s(name):
        return rows[name][2] if name in rows else 0.0

    def layer(prefix):
        picked = [row for name, row in rows.items() if name.split(".", 1)[0] == prefix]
        return sum(r[0] for r in picked), sum(r[2] for r in picked)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    layers = {name: layer(name) for name in LAYERS}
    elements = counts["generators.eval_array.elements"]
    wpi_af = counts["divergence.wpi.atom_factors"]
    reports = counts["audit.reports"]
    suite_s = rows["audit.audit_suite"][1] if "audit.audit_suite" in rows else 0.0
    checks = sum(row[0] for name, row in rows.items() if name.startswith("audit.check_"))
    return {
        "measures.calls": (layers["measures"][0], "count"),
        "measures.self_s": (layers["measures"][1], "s"),
        "measures.integrate.elements": (counts["measures.integrate.elements"], "count"),
        "measures.space_eq.calls": (calls("measures.MeasureSpace.__eq__"), "count"),
        "generators.eval_array.calls": (calls("generators.Generator.eval_array"), "count"),
        "generators.eval_array.elements": (elements, "count"),
        "generators.self_s": (layers["generators"][1], "s"),
        "generators.ns_per_element": (
            ratio(self_s("generators.Generator.eval_array"), elements, 1e9), "ns"),
        "generators.custom_share": (
            ratio(counts["generators.custom_elements"], elements, 1.0), "ratio"),
        "divergence.calls": (layers["divergence"][0], "count"),
        "divergence.self_s": (layers["divergence"][1], "s"),
        "divergence.atom_factors": (counts["divergence.atom_factors"], "count"),
        "divergence.wpi.calls": (calls("divergence.weighted_product_integral"), "count"),
        "divergence.wpi.self_s": (self_s("divergence.weighted_product_integral"), "s"),
        "divergence.wpi.atom_factors": (wpi_af, "count"),
        "divergence.wpi.ns_per_atom_factor": (
            ratio(self_s("divergence.weighted_product_integral"), wpi_af, 1e9), "ns"),
        "divergence.dissimilarity.self_s": (self_s("divergence.f_dissimilarity"), "s"),
        "audit.self_s": (layers["audit"][1], "s"),
        "audit.reports": (reports, "count"),
        "audit.us_per_report": (ratio(suite_s, reports, 1e6), "us"),
        "audit.check.calls": (checks, "count"),
        "audit.proportionality.calls": (calls("audit.effectively_proportional"), "count"),
        "audit.report_to_dict.self_s": (self_s("audit.report_to_dict"), "s"),
        "geometry.sphere_grid.self_s": (self_s("geometry.sphere_grid"), "s"),
        "geometry.sphere_grid.nodes": (counts["geometry.sphere_grid.nodes"], "count"),
        "geometry.body_densities.self_s": (self_s("geometry.body_densities"), "s"),
        "geometry.self_s": (layers["geometry"][1], "s"),
        "cli.run_job.calls": (calls("cli.run_job"), "count"),
        "cli.self_s": (layers["cli"][1], "s"),
        "cli.load_document.self_s": (self_s("cli.load_document"), "s"),
        "cli.input_bytes": (counts["cli.input_bytes"], "bytes"),
        "cli.report_bytes": (counts["cli.report_bytes"], "bytes"),
        "trace.spans": (len(tracer.spans), "count"),
    }
