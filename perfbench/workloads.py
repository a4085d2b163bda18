"""The benchmark's four workloads.

Each workload makes its inputs from the workload seed; mixdiv sees only the
generated arrays, documents or job specs. ``op(j)`` is the j-th of the
workload's ``pool`` distinct operations. ``run`` is the timed operation and
calls mixdiv's public API or ``mixdiv.cli.run_job`` through module
attributes, so a traced pass sees the tracer's wrappers. ``collect``,
``check`` and ``work`` run outside every timed region: ``check`` compares the
operation's output with an independent reference and returns the reason for
a failure, or None.
"""

from __future__ import annotations

import functools
import json
import math
import os

import numpy as np

import mixdiv
import reference as ref
from mixdiv import cli
from tracing import ATOM_FACTOR_FUNCTIONS, Tracer

#: catalog generators drawn for the bulk and cli_docs pairs
CATALOG = (
    {"kind": "tv"},
    {"kind": "kl+"},
    *({"kind": "power", "alpha": a} for a in (-0.5, 0.25, 0.5, 0.75, 2.0, 3.0)),
)
REL_TOL = 1e-12


def _draw_specs(rng, n):
    specs = []
    for _ in range(n):
        pick = int(rng.integers(len(CATALOG) + 1))
        if pick == len(CATALOG):
            a, b = rng.uniform(0.1, 2.0, 2)
            specs.append({"kind": "linear", "a": float(a), "b": float(b)})
        else:
            specs.append(dict(CATALOG[pick]))
    return specs


def _draw_space(rng, atoms, pairs):
    """Weights summing to 1 and 2*pairs probability densities on them."""
    mu = rng.uniform(0.5, 2.0, atoms)
    mu /= mu.sum()
    dens = np.exp(rng.uniform(-2.0, 2.0, (2 * pairs, atoms)))
    dens /= (dens * mu).sum(axis=1, keepdims=True)
    return mu, dens


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


class Audit:
    """Repeated ``audit`` jobs with the CLI's family proportions.

    A job audits INSTANCES instances per check family (corollaries and
    equality families get n//6 and n//5, as the CLI gives them), on 2..64
    atoms with the default tolerances, from ``pool`` job seeds derived from
    the workload seed. The atoms x factors of each distinct job come
    from one untimed replay with a count-only tracer, whose report must be
    byte-identical to the timed one. The gate keeps checking after a first
    failed condition and reports every failed condition.
    """

    name = "audit"
    INSTANCES = 30
    pool = 12
    trace_ops = 4

    def __init__(self, seed, workdir):
        state = np.random.SeedSequence(seed).generate_state(self.pool)
        self.job_seeds = [int(s) for s in state]
        self.path = os.path.join(workdir, "audit.json")
        self.replayed = {}

    def facts(self):
        return {"instances_per_job": self.INSTANCES, "atoms": "2..64", "max_pairs": 6,
                "distinct_jobs": self.pool, "reports_per_job": "~660"}

    def op(self, idx):
        return self.job_seeds[idx]

    def _spec(self, job_seed):
        return cli.JobSpec(command="audit", seed=job_seed, instances=self.INSTANCES,
                           output_path=self.path)

    def run(self, job_seed):
        return cli.run_job(self._spec(job_seed))

    def collect(self, job_seed, code):
        return code, _read(self.path)

    def check(self, job_seed, out):
        code, data = out
        reasons = [] if code == 0 else [f"exit code {code}"]
        doc = json.loads(data)
        values = doc["values"]
        reports = values["reports"]
        stray = _nonfinite_outside_spread_sentinel(doc)
        if stray:
            reasons.append(f"non-finite value at {stray}")
        if values["total_reports"] != len(reports):
            reasons.append("total_reports differs from the report count")
        if values["violations"] != 0:
            reasons.append(f"{values['violations']} violations")
        for idx, rep in enumerate(reports):
            reason = _audit_report_error(rep)
            if reason:
                reasons.append(f"report {idx} ({rep['name']}): {reason}")
                break
        if job_seed not in self.replayed:
            with Tracer(only=ATOM_FACTOR_FUNCTIONS) as tracer:
                self.run(job_seed)
            self.replayed[job_seed] = (_read(self.path), len(reports),
                                       tracer.counts["divergence.atom_factors"])
        if self.replayed[job_seed][0] != data:
            reasons.append("report bytes differ between runs of the same job")
        return "; ".join(reasons) or None

    def work(self, job_seed, out):
        return self.replayed[job_seed][1:]


def _nonfinite_outside_spread_sentinel(doc):
    """Path of the first non-finite number other than the spread sentinel.

    ``effectively_proportional`` returns a spread of +inf when no ratio is
    defined (zero patterns differ, ratios change sign or have zero mean),
    and the report is then written with Python's ``Infinity`` token. That
    is the one non-finite value the report format holds: +inf as a
    report's ``detail.proportionality_spread`` when the report predicts no
    equality. Any other NaN or infinity is an error.
    """
    allowed = set()
    for idx, rep in enumerate(doc["values"]["reports"]):
        if not rep["equality_expected"]:
            allowed.add(("values", "reports", idx, "detail", "proportionality_spread"))
    stack = [((), doc)]
    while stack:
        path, node = stack.pop()
        if isinstance(node, dict):
            stack.extend((path + (k,), v) for k, v in node.items())
        elif isinstance(node, list):
            stack.extend((path + (i,), v) for i, v in enumerate(node))
        elif isinstance(node, float) and not math.isfinite(node):
            if not (node == math.inf and path in allowed):
                return "/".join(map(str, path))
    return None


def _audit_report_error(rep):
    """Recompute a report's verdicts from its own sides and tolerances."""
    lhs, rhs, slack = rep["lhs"], rep["rhs"], rep["slack"]
    tol = rep["tolerances"]
    if slack != rhs - lhs:
        return "slack is not rhs - lhs"
    if not rep["holds"] or slack < -tol["eps_ineq"] * max(1.0, abs(rhs)):
        return "inequality violated"
    observed = abs(slack) <= tol["eps_eq"] * max(1.0, abs(lhs), abs(rhs))
    if rep["equality_observed"] != observed:
        return "equality verdict disagrees with the slack"
    if rep["equality_expected"] and not observed:
        return "equality predicted but not observed"
    return None


class Bulk:
    """Library-API analyses of seeded instances, with no file I/O.

    One analysis makes the space, validates 12 densities on ATOMS atoms,
    then runs mixed_divergence, one mixed_divergence_k, f_divergence per
    pair and ith_mixed of the first two pairs at three indices.
    """

    name = "bulk"
    ATOMS = 100_000
    PAIRS = 6
    INDICES = (0.5, 1.0, 1.5)
    pool = 12
    trace_ops = 4

    def __init__(self, seed, workdir):
        self.seed = seed
        self.expected = {}

    def facts(self):
        return {"atoms": self.ATOMS, "pairs": self.PAIRS, "ith_indices": list(self.INDICES),
                "distinct_instances": self.pool}

    def op(self, idx):
        rng = np.random.default_rng([self.seed, idx])
        mu, dens = _draw_space(rng, self.ATOMS, self.PAIRS)
        return {"idx": idx, "mu": mu, "dens": dens, "specs": _draw_specs(rng, self.PAIRS),
                "k": int(rng.integers(self.PAIRS + 1))}

    def run(self, op):
        space = mixdiv.make_space(op["mu"])
        d = [mixdiv.validate_density(space, v, require_prob=True) for v in op["dens"]]
        triples = [
            mixdiv.PairTriple(mixdiv.generator_from_spec(s), d[2 * j], d[2 * j + 1])
            for j, s in enumerate(op["specs"])
        ]
        return {
            "mixed": mixdiv.mixed_divergence(triples),
            "mixed_k": mixdiv.mixed_divergence_k(triples, op["k"]),
            "f_divergence": [mixdiv.f_divergence(t.generator, t.p, t.q) for t in triples],
            "ith_mixed": [
                mixdiv.ith_mixed(mixdiv.IthMixedSpec(triples[0], triples[1], i=i, n=2))
                for i in self.INDICES
            ],
        }

    def collect(self, op, raw):
        return raw

    def _reference(self, op):
        mu, dens, specs = op["mu"], op["dens"], op["specs"]
        ps, qs = dens[0::2], dens[1::2]
        return {
            "mixed": ref.mixed(specs, ps, qs, mu),
            "f_divergence": [ref.integral(mu, ref.integrand(s, p, q))
                             for s, p, q in zip(specs, ps, qs)],
            "ith_mixed": [ref.ith(specs[0], ps[0], qs[0], specs[1], ps[1], qs[1], i, 2, mu)
                          for i in self.INDICES],
        }

    def check(self, op, out):
        if op["idx"] not in self.expected:
            self.expected[op["idx"]] = self._reference(op)
        expected = {**self.expected[op["idx"]], "mixed_k": out["mixed"]}
        for key, want in expected.items():
            got = out[key]
            for g, w in zip(np.atleast_1d(got), np.atleast_1d(want)):
                if not ref.rel_err(g, w) <= REL_TOL:
                    return f"{key}: {float(g)!r} vs reference {float(w)!r}"
        return None

    def work(self, op, out):
        # mixed + mixed_k (PAIRS factors each), one per f_divergence, 2 per ith
        return 1, self.ATOMS * (3 * self.PAIRS + 2 * len(self.INDICES))


class CliDocs:
    """``run_job`` of compute, mixed, ith and dissimilarity in turn over JSON
    documents written during set-up (DOCS documents of ATOMS atoms and PAIRS
    pairs, each pair with an embedded catalog generator)."""

    name = "cli_docs"
    ATOMS = 10_000
    PAIRS = 6
    DOCS = 2
    KINDS = ("compute", "mixed", "ith", "dissimilarity")
    INDICES = (0.5, 1.0, 1.5)
    pool = DOCS * len(KINDS)
    trace_ops = pool

    def __init__(self, seed, workdir):
        self.out_path = os.path.join(workdir, "cli_docs-report.json")
        self.docs = []
        self.expected = {}
        for d in range(self.DOCS):
            rng = np.random.default_rng([seed, d])
            mu, dens = _draw_space(rng, self.ATOMS, self.PAIRS)
            specs = _draw_specs(rng, self.PAIRS)
            doc = {"mu": mu.tolist(), "pairs": [
                {"p": dens[2 * j].tolist(), "q": dens[2 * j + 1].tolist(), "f": specs[j]}
                for j in range(self.PAIRS)
            ]}
            path = os.path.join(workdir, f"doc{d}.json")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(doc))
            self.docs.append((path, doc))

    def facts(self):
        sizes = [os.path.getsize(p) for p, _ in self.docs]
        return {"atoms": self.ATOMS, "pairs": self.PAIRS, "documents": self.DOCS,
                "document_bytes": sizes, "commands": list(self.KINDS)}

    def op(self, idx):
        return idx // len(self.KINDS), self.KINDS[idx % len(self.KINDS)]

    def _spec(self, doc, kind):
        spec = cli.JobSpec(command=kind, input_path=self.docs[doc][0], output_path=self.out_path)
        if kind == "ith":
            spec.i_values, spec.n = list(self.INDICES), 2
        elif kind == "dissimilarity":
            spec.generator_specs = [{"kind": "matusita", "arity": self.PAIRS}]
        return spec

    def run(self, op):
        return cli.run_job(self._spec(*op))

    def collect(self, op, code):
        return code, _read(self.out_path)

    def _library_values(self, doc_idx, kind):
        """The report values computed through the library API on the same floats."""
        doc = self.docs[doc_idx][1]
        space = mixdiv.make_space(doc["mu"])
        triples = [
            mixdiv.PairTriple(mixdiv.generator_from_spec(pr["f"]),
                              mixdiv.validate_density(space, pr["p"]),
                              mixdiv.validate_density(space, pr["q"]))
            for pr in doc["pairs"]
        ]
        labels = [t.generator.label for t in triples]
        if kind == "compute":
            return {"generators": labels,
                    "f_divergence": [mixdiv.f_divergence(t.generator, t.p, t.q)
                                     for t in triples]}
        if kind == "mixed":
            return {"generators": labels,
                    "mixed_divergence": mixdiv.mixed_divergence(triples),
                    "order_change_row": [mixdiv.mixed_divergence_k(triples, k)
                                         for k in range(len(triples) + 1)]}
        if kind == "ith":
            spec = functools.partial(mixdiv.IthMixedSpec, triples[0], triples[1], n=2)
            return {"generators": labels[:2], "n": 2, "i_grid": list(self.INDICES),
                    "ith_mixed": [mixdiv.ith_mixed(spec(i=i)) for i in self.INDICES]}
        vec = mixdiv.make_vector([t.p for t in triples])
        return {"generator": "matusita",
                "dissimilarity": mixdiv.f_dissimilarity(mixdiv.matusita_affinity(self.PAIRS), vec)}

    def check(self, op, out):
        code, data = out
        if code != 0:
            return f"exit code {code}"
        values = ref.strict_json(data)["values"]
        if op not in self.expected:
            self.expected[op] = self._library_values(*op)
        if values != self.expected[op]:
            return f"{op[1]} values differ from the library API"
        return None

    def work(self, op, out):
        factors = {"compute": self.PAIRS, "mixed": (self.PAIRS + 2) * self.PAIRS,
                   "ith": 2 * len(self.INDICES), "dissimilarity": self.PAIRS}
        return 1, self.ATOMS * factors[op[1]]


class Geometry:
    """``run_job`` geometry jobs in dimension 3 at RESOLUTION (2*R^2 nodes).

    One operation is a pair of jobs, since the two kinds differ about 3x in
    cost: ``mixed`` of three copies of a seeded ellipsoid, then ``ith`` of two
    seeded balls on a 7-point i grid. Every job rebuilds the grid.
    """

    name = "geometry"
    RESOLUTION = 256
    I_GRID = (0.0, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0)
    ELLIPSOID_TOL = 1e-6   # tests/test_geometry.py, ellipsoid closed form
    BALL_TOL = 1e-12       # tests/test_geometry.py, ball closed forms
    pool = 12
    trace_ops = 3

    def __init__(self, seed, workdir):
        self.seed = seed
        self.paths = (os.path.join(workdir, "geometry-mixed.json"),
                      os.path.join(workdir, "geometry-ith.json"))

    @property
    def nodes(self):
        return 2 * self.RESOLUTION ** 2

    def facts(self):
        return {"dimension": 3, "resolution": self.RESOLUTION, "nodes": self.nodes,
                "mixed_bodies": 3, "ith_bodies": 2, "i_grid_points": len(self.I_GRID)}

    def op(self, idx):
        rng = np.random.default_rng([self.seed, idx])
        axes = [float(a) for a in rng.uniform(1.0, 3.0, 3)]
        r1, r2 = (float(r) for r in rng.uniform(0.5, 3.0, 2))
        return axes, r1, r2

    def run(self, op):
        axes, r1, r2 = op
        mixed = cli.run_job(cli.JobSpec(
            command="geometry", bodies=[{"semi_axes": axes}] * 3,
            resolution=self.RESOLUTION, output_path=self.paths[0]))
        ith = cli.run_job(cli.JobSpec(
            command="geometry", bodies=[{"semi_axes": [r1] * 3}, {"semi_axes": [r2] * 3}],
            i_values=list(self.I_GRID), resolution=self.RESOLUTION, output_path=self.paths[1]))
        return mixed, ith

    def collect(self, op, codes):
        return tuple((code, _read(path)) for code, path in zip(codes, self.paths))

    def check(self, op, out):
        axes, r1, r2 = op
        (code_m, data_m), (code_i, data_i) = out
        if code_m != 0 or code_i != 0:
            return f"exit codes {code_m}, {code_i}"
        value = ref.strict_json(data_m)["values"]["mixed_affine_surface_area"]
        if not ref.rel_err(value, ref.ellipsoid_area(axes)) <= self.ELLIPSOID_TOL:
            return f"ellipsoid {axes}: {value!r}"
        values = ref.strict_json(data_i)["values"]["ith_mixed_affine_surface_area"]
        if len(values) != len(self.I_GRID):
            return "ith grid length"
        for i, v in zip(self.I_GRID, values):
            if not ref.rel_err(v, ref.ith_balls(r1, r2, i)) <= self.BALL_TOL:
                return f"balls {r1}, {r2} at i={i}: {v!r}"
        return None

    def work(self, op, out):
        return 2, self.nodes * (3 + 2 * len(self.I_GRID))


WORKLOADS = {w.name: w for w in (Audit, Bulk, CliDocs, Geometry)}
