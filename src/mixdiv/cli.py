"""Batch command line interface.

Subcommands: ``compute`` (per-pair classical divergences), ``mixed`` (the
n-pair mixed divergence plus its order-change row), ``ith`` (two-pair index
interpolation on a grid), ``dissimilarity`` (multivariate integrand),
``audit`` (the randomized inequality suite), ``geometry`` (ball/ellipsoid
affine surface areas).

Input documents are JSON ``{"mu": [...], "pairs": [{"p": [...], "q": [...],
"f": {...}}, ...]}`` or CSV with header ``atom,mu,p1,q1,...,pn,qn``. Reports
are single JSON documents echoing the effective inputs; identical job specs
(including seeds) produce byte-identical reports on one machine and numpy
build. Across numpy's SIMD dispatch levels the verdicts agree and every float
stays within 1e-12 * max(1, |a|, |b|) (see the README).

Each subcommand accepts exactly the options of :class:`JobSpec` that name it.
Exit codes: 0 success, 1 usage, I/O or validation error, 2 audit violations
found.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass, field, fields
from typing import Optional, Sequence

import numpy as np

from .audit import (
    AuditConfig,
    Tolerances,
    _family_counts,
    audit_suite,
    check_alexandrov_fenchel,
    report_to_dict,
    tolerances_to_dict,
    violations,
)
from .divergence import (
    PairTriple,
    _ith_mixed_grid,
    f_divergence,
    f_dissimilarity,
    mixed_divergence,
    mixed_divergence_k,
    mixed_renyi,
)
from .errors import MixdivError, NotNormalized, ParseError
from .generators import Generator, generator_from_spec, multivariate_from_spec
from .geometry import (
    EllipsoidBody,
    _ith_mixed_areas,
    mixed_affine_surface_area,
    sphere_grid,
)
from .measures import (
    EPS_NORM,
    Density,
    MeasureSpace,
    _frozen_array,
    integrate,
    make_space,
    make_vector,
    validate_density,
)
from .report import dumps_report


def _json_flag(value: str) -> dict:
    try:
        return json.loads(value)
    except json.JSONDecodeError as exc:
        raise argparse.ArgumentTypeError(f"invalid JSON {value!r}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a literal over 4,300 digits; deep nesting
        raise argparse.ArgumentTypeError(f"invalid JSON: {exc}") from None


def _option(flag: str, commands: str, *, echo: bool = True, default=None, **argument):
    """A :class:`JobSpec` field that the space-separated ``commands`` read from
    ``flag``, with its argparse keywords. An ``append`` option defaults to the
    empty list; ``echo=False`` keeps it out of the report's options echo."""
    meta = {"flag": flag, "commands": commands.split(), "echo": echo, "argument": argument}
    if argument.get("action") == "append":
        return field(default_factory=list, metadata=meta)
    return field(default=default, metadata=meta)


@dataclass
class JobSpec:
    """Everything one invocation needs; built by ``main`` from CLI flags.

    The fields after ``command`` are the one table of job options: each
    declares its flag, the commands that read it, its default and its
    argparse keywords. A subcommand accepts exactly the options that name
    it, and its report echoes, in field order, those of them that echo.
    """

    command: str
    input_path: Optional[str] = _option(
        "--input", "compute mixed ith dissimilarity geometry", echo=False, metavar="INPUT",
        help="JSON or CSV input document (geometry: one with 'bodies')")
    output_path: Optional[str] = _option(
        "--output", "compute mixed ith dissimilarity audit geometry", echo=False,
        metavar="OUTPUT", help="report path (stdout when omitted)")
    generator_specs: list = _option(
        "--f", "compute mixed ith dissimilarity geometry", action="append", type=_json_flag,
        metavar="FSPECS", help='generator spec, e.g. {"kind":"power","alpha":0.5}; repeatable')
    alpha: Optional[float] = _option(
        "--alpha", "mixed ith", type=float, help="mixed: also report the mixed Renyi "
        "divergence of this order; ith: power generators of this exponent when --f is absent")
    i_values: list = _option("--i", "ith geometry", action="append", type=float, metavar="I",
                             help="interpolation index i; repeatable")
    m: Optional[int] = _option("--m", "mixed", type=int,
                               help="also audit the order-m substitution inequality")
    n: Optional[int] = _option("--n", "ith", type=int, help="ambient exponent base")
    seed: int = _option("--seed", "audit", default=0, type=int)
    instances: int = _option("--instances", "audit", default=1000, type=int,
                             help="instances per check family")
    tol_ineq: Optional[float] = _option("--tol-ineq", "mixed audit", echo=False, type=float)
    tol_eq: Optional[float] = _option("--tol-eq", "mixed audit", echo=False, type=float)
    tol_prop: Optional[float] = _option("--tol-prop", "mixed audit", echo=False, type=float)
    epsilon_floor: Optional[float] = _option(
        "--epsilon-floor", "compute mixed ith dissimilarity", type=float,
        help="replace zero densities by this value, then renormalize")
    bodies: list = _option("--body", "geometry", action="append", type=_json_flag, metavar="BODY",
                           help='body spec, e.g. {"semi_axes":[1,2,3]}; repeatable')
    resolution: Optional[int] = _option("--resolution", "geometry", type=int,
                                        help="polar nodes of the sphere grid")


def _parse_document(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    if path.endswith(".csv"):
        return _parse_csv(path, text)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}: invalid JSON: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:  # a literal over 4,300 digits; deep nesting
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{path}: top-level JSON must be an object")
    return doc


def _parse_csv(path: str, text: str) -> dict:
    rows = list(csv.reader(text.splitlines()))
    if not rows:
        raise ParseError(f"{path}: empty CSV")
    header = [h.strip() for h in rows[0]]
    if header[:2] != ["atom", "mu"]:
        raise ParseError(f"{path}:1: header must start with 'atom,mu'")
    pair_cols = header[2:]
    if len(pair_cols) % 2 != 0:
        raise ParseError(f"{path}:1: need alternating p/q columns, got {pair_cols}")
    n_pairs = len(pair_cols) // 2
    mu, atoms = [], []
    columns: list[list[float]] = [[] for _ in pair_cols]
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        if len(row) != len(header):
            raise ParseError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        atoms.append(row[0].strip())
        try:
            mu.append(float(row[1]))
            for col, cell in zip(columns, row[2:]):
                col.append(float(cell))
        except ValueError as exc:
            raise ParseError(f"{path}:{lineno}: {exc}") from exc
    pairs = [
        {"p": columns[2 * j], "q": columns[2 * j + 1]} for j in range(n_pairs)
    ]
    return {"mu": mu, "atom_ids": atoms, "pairs": pairs}


def _floor_values(values: Sequence[float], space: MeasureSpace, floor: float) -> np.ndarray:
    arr = _frozen_array(values)
    if not np.any(arr == 0.0):
        return arr
    arr = np.where(arr == 0.0, floor, arr)
    return arr / integrate(space, arr)


def _certify(space: MeasureSpace, values, label: str, warnings: list) -> Density:
    try:
        return validate_density(space, values, require_prob=True)
    except NotNormalized:
        raw = validate_density(space, values, require_prob=False)
    warnings.append(f"{label} integrates to {raw.integral()!r}; treated as a raw density")
    return raw


def load_document(
    path: str, epsilon_floor: Optional[float] = None
) -> tuple[MeasureSpace, list[tuple[Density, Density]], list, dict]:
    """Full loader: (space, pairs, warnings, echo document)."""
    if epsilon_floor is not None and not 0.0 < epsilon_floor < np.inf:
        raise MixdivError(f"--epsilon-floor {epsilon_floor!r} must be finite and > 0")
    doc = _parse_document(path)
    if "mu" not in doc:
        raise ParseError(f"{path}: mu required")
    if not isinstance(doc.get("atom_ids", []), list):
        raise ParseError(f"{path}: 'atom_ids' must be a list of labels")
    space = make_space(doc["mu"], atom_ids=doc.get("atom_ids"))
    warnings: list[str] = []
    pairs: list[tuple[Density, Density]] = []
    echo_pairs = []
    doc_pairs = doc.get("pairs", [])
    if not isinstance(doc_pairs, list) or not all(isinstance(p, dict) for p in doc_pairs):
        raise ParseError(f"{path}: 'pairs' must be a list of objects")
    for idx, pair in enumerate(doc_pairs):
        if "p" not in pair or "q" not in pair:
            raise ParseError(f"{path}: pair {idx} needs both 'p' and 'q'")
        p_vals, q_vals = pair["p"], pair["q"]
        if epsilon_floor is not None:
            p_vals = _floor_values(p_vals, space, epsilon_floor)
            q_vals = _floor_values(q_vals, space, epsilon_floor)
        p = _certify(space, p_vals, f"pair {idx} p", warnings)
        q = _certify(space, q_vals, f"pair {idx} q", warnings)
        pairs.append((p, q))
        echo_pair = {"p": p.values.tolist(), "q": q.values.tolist()}
        if "f" in pair:
            echo_pair["f"] = pair["f"]
        echo_pairs.append(echo_pair)
    echo = {"mu": space.weights.tolist(), "pairs": echo_pairs}
    if "densities" in doc:
        rows = doc["densities"]
        if not isinstance(rows, list):
            raise ParseError(f"{path}: 'densities' must be a list of rows")
        echo["densities"] = [_frozen_array(row).tolist() for row in rows]
    return space, pairs, warnings, echo


def _generators(specs: list, slots: int, what: str) -> list[Generator]:
    """One generator per slot (a pair or a body): a single spec serves two or
    more slots, as one generator object, otherwise there must be one spec per slot."""
    if len(specs) == 1 and slots > 1:
        return [generator_from_spec(specs[0])] * slots
    if len(specs) != slots:
        raise MixdivError(f"{len(specs)} generator specs for {slots} {what}")
    return [generator_from_spec(s) for s in specs]


def _pair_generators(specs: list, echo: dict, n_pairs: int) -> list[Generator]:
    """Generators for each pair: the given (--f) specs win, embedded specs otherwise."""
    embedded = [p["f"] for p in echo["pairs"] if "f" in p]
    if not specs and len(embedded) != n_pairs:
        raise MixdivError("no generator specs: pass --f or embed one per pair in the document")
    return _generators(specs or embedded, n_pairs, "pairs")


def _tolerances(spec: JobSpec) -> Tolerances:
    given = {f.name: getattr(spec, f"tol_{f.name}") for f in fields(Tolerances)}
    return Tolerances(**{name: v for name, v in given.items() if v is not None})


def _options_echo(spec: JobSpec) -> dict:
    """The echoed options that the job's command reads, in field order."""
    echo = {f.name: getattr(spec, f.name) for f in fields(JobSpec)
            if f.metadata.get("echo") and spec.command in f.metadata["commands"]}
    if "i_values" in echo:
        echo["i_values"] = [float(v) for v in spec.i_values]
    return echo


def run_job(spec: JobSpec) -> int:
    """Execute one job and write its report; returns the process exit code."""
    report = {
        "command": spec.command,
        "inputs": {"document": None, "options": _options_echo(spec)},
        "tolerances": None,
        "warnings": [],
        "values": {},
    }
    try:
        if spec.command not in _COMMANDS:
            raise MixdivError(f"unknown command {spec.command!r}")
        tol = _tolerances(spec)
        report["tolerances"] = {**tolerances_to_dict(tol), "eps_norm": EPS_NORM}
        # overflow surfaces as a non-finite value that the runners turn into
        # typed errors, so numpy's warning would only add noise on stderr
        with np.errstate(over="ignore"):
            exit_code = _COMMANDS[spec.command](spec, tol, report)
        _write_report(report, spec.output_path)
    except MixdivError as exc:
        return _fail(report, exc, spec.output_path)
    return exit_code


def _fail(report: dict, exc: MixdivError, output_path: Optional[str]) -> int:
    """Write ``report`` with ``exc`` as its error block, to stdout where
    ``output_path`` cannot be written, and ``exc`` as one ``error:`` line on
    stderr; returns exit code 1."""
    report["error"] = {"type": type(exc).__name__, "message": str(exc)}
    try:
        _write_report(report, output_path)
    except ParseError:  # the path cannot be written; the first error stands
        _write_report(report, None)
    print(f"error: {exc}", file=sys.stderr)
    return 1


def _read_document(spec: JobSpec, report: dict) -> tuple[MeasureSpace, list, dict]:
    """Load the job's input document and echo it, with its warnings, into the report."""
    if spec.input_path is None:
        raise ParseError(f"{spec.command} needs --input")
    space, pairs, warnings, echo = load_document(spec.input_path, spec.epsilon_floor)
    report["inputs"]["document"] = echo
    report["warnings"] = warnings
    return space, pairs, echo


def _run_compute(spec: JobSpec, tol: Tolerances, report: dict) -> int:
    """classical divergence per pair"""
    _, pairs, echo = _read_document(spec, report)
    gens = _pair_generators(spec.generator_specs, echo, len(pairs))
    values = [f_divergence(g, p, q) for g, (p, q) in zip(gens, pairs)]
    report["values"] = {
        "generators": [g.label for g in gens],
        "f_divergence": values,
    }
    return 0


def _run_mixed(spec: JobSpec, tol: Tolerances, report: dict) -> int:
    """mixed divergence and its order-change row"""
    _, pairs, echo = _read_document(spec, report)
    gens = _pair_generators(spec.generator_specs, echo, len(pairs))
    triples = [PairTriple(g, p, q) for g, (p, q) in zip(gens, pairs)]
    value = mixed_divergence(triples)
    row = [mixed_divergence_k(triples, k) for k in range(len(triples) + 1)]
    report["values"] = {
        "generators": [g.label for g in gens],
        "mixed_divergence": value,
        "order_change_row": row,
    }
    if spec.alpha is not None:
        report["values"]["renyi"] = {
            "alpha": spec.alpha,
            "value": mixed_renyi(pairs, spec.alpha),
        }
    if spec.m is not None:
        check = check_alexandrov_fenchel(triples, spec.m, tol)
        report["values"]["substitution_inequality"] = report_to_dict(check)
        if not check.holds:
            return 2
    return 0


def _run_ith(spec: JobSpec, tol: Tolerances, report: dict) -> int:
    """two-pair interpolated divergence on an i grid"""
    _, pairs, echo = _read_document(spec, report)
    if len(pairs) < 2:
        raise MixdivError("the ith command needs at least two pairs")
    specs = spec.generator_specs
    if spec.alpha is not None and not specs:
        specs = [{"kind": "power", "alpha": spec.alpha}]
    gens = _pair_generators(specs, echo, len(pairs))[:2]
    n = spec.n if spec.n is not None else 2
    grid = [float(v) for v in spec.i_values] or [float(v) for v in range(n + 1)]
    triples = [PairTriple(g, *pair) for g, pair in zip(gens, pairs)]
    values = _ith_mixed_grid(*triples, grid, n)
    report["values"] = {
        "generators": [g.label for g in gens],
        "n": n,
        "i_grid": grid,
        "ith_mixed": values,
    }
    return 0


def _run_dissimilarity(spec: JobSpec, tol: Tolerances, report: dict) -> int:
    """multivariate integrand over densities"""
    space, pairs, echo = _read_document(spec, report)
    if len(spec.generator_specs) != 1:
        raise MixdivError("dissimilarity needs one --f with a multivariate spec")
    g = multivariate_from_spec(spec.generator_specs[0])
    if "densities" in echo:
        dens = [validate_density(space, row) for row in echo["densities"]]
    else:
        dens = [p for (p, _) in pairs]
    value = f_dissimilarity(g, make_vector(dens))
    report["values"] = {"generator": g.label, "dissimilarity": value}
    return 0


def _run_audit(spec: JobSpec, tol: Tolerances, report: dict) -> int:
    """randomized inequality suite"""
    config = AuditConfig(seed=spec.seed, tolerances=tol, **_family_counts(spec.instances))
    reports = audit_suite(config)
    bad = violations(reports)
    report["values"] = {
        "total_reports": len(reports),
        "violations": len(bad),
        "reports": [report_to_dict(r) for r in reports],
    }
    return 2 if bad else 0


def _body_from_spec(spec) -> EllipsoidBody:
    axes = spec.get("semi_axes") if isinstance(spec, dict) else None
    if not isinstance(axes, list):
        raise MixdivError(f'a body spec is {{"semi_axes": [numbers]}}, got {spec!r}')
    return EllipsoidBody(semi_axes=tuple(axes))


def _run_geometry(spec: JobSpec, tol: Tolerances, report: dict) -> int:
    """ball/ellipsoid affine surface areas"""
    body_specs = list(spec.bodies)
    if not body_specs and spec.input_path:
        body_specs = _parse_document(spec.input_path).get("bodies", [])
    if not body_specs:
        raise MixdivError("geometry needs --body specs or a document with 'bodies'")
    if not isinstance(body_specs, list):
        raise MixdivError(f"'bodies' must be a list of body specs, got {body_specs!r}")
    bodies = [_body_from_spec(b) for b in body_specs]
    dim = bodies[0].dimension
    grid = sphere_grid(dim, spec.resolution)
    if spec.i_values and len(bodies) != 2:
        raise MixdivError("the interpolated variant needs exactly two bodies")
    gens = _generators(spec.generator_specs or [{"kind": "power", "alpha": 0.25}],
                       len(bodies), "bodies")
    values = {
        "generators": [g.label for g in gens],
        "dimension": dim,
        "resolution": grid.n_nodes,
    }
    if spec.i_values:
        values["i_grid"] = [float(v) for v in spec.i_values]
        values["ith_mixed_affine_surface_area"] = _ith_mixed_areas(
            bodies[0], bodies[1], gens, spec.i_values, grid
        )
    else:
        values["mixed_affine_surface_area"] = mixed_affine_surface_area(bodies, gens, grid)
    report["values"] = values
    return 0


#: command name -> runner(spec, tolerances, report) -> exit code; its docstring is its help
_COMMANDS = {
    "compute": _run_compute,
    "mixed": _run_mixed,
    "ith": _run_ith,
    "dissimilarity": _run_dissimilarity,
    "audit": _run_audit,
    "geometry": _run_geometry,
}


def _write_report(report: dict, output_path: Optional[str]) -> None:
    """Write ``report`` to ``output_path`` (stdout when None); ParseError where
    the path cannot be written."""
    text = dumps_report(report)
    if not output_path:
        print(text)
        return
    try:
        with open(output_path, "w", encoding="utf-8") as fh:
            print(text, file=fh)
    except OSError as exc:
        raise ParseError(f"{output_path}: cannot write the report: {exc}") from None


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ParseError instead of exiting 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise ParseError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    """One subparser per command, with exactly the options that name it. No flag
    has an argparse default, so an option not given keeps its JobSpec default."""
    parser = _Parser(prog="mixdiv", description="Mixed divergences over finite measure "
                     "spaces, with inequality audits.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, runner in _COMMANDS.items():
        p = sub.add_parser(command, help=runner.__doc__, allow_abbrev=False,
                           argument_default=argparse.SUPPRESS)
        for f in fields(JobSpec):
            if command in f.metadata.get("commands", ()):
                p.add_argument(f.metadata["flag"], dest=f.name, **f.metadata["argument"])
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line; a usage error exits 1 with its error block on stdout."""
    try:
        spec = JobSpec(**vars(_build_parser().parse_args(argv)))
    except ParseError as exc:
        code = _fail({}, exc, None)
    else:
        code = run_job(spec)
    if argv is None:
        sys.exit(code)
    return code


if __name__ == "__main__":
    main()
