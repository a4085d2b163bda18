"""Benchmark of mixdiv: four seeded, closed-loop, single-client workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload audit --seed 1 --seconds 25 --trace 0

``--trace 0`` times operations with tracing off for ``--seconds`` of busy
time, cycling through the workload's distinct operations, and prints the
end-to-end metrics. ``--trace 1`` runs a fixed list of
operations (so per-layer counts repeat exactly for a seed) once untraced and
once traced, checks that both passes give identical outputs, and prints the
per-layer metrics and the tracing overhead. Every operation's output is
checked against an independent reference outside the timed region. The last
line of standard output is one JSON object; the line before it records the
workload's sizes and the environment.

mixdiv is imported from ``src/`` of the current directory; without it the
benchmark exits with status 2 and prints no result.
"""

import os
import sys
import time

T_START = time.perf_counter()
# One BLAS thread, set before numpy is imported: unpinned BLAS threads
# make geometry jobs (leggauss, gemv) vary several-fold between runs.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.getcwd(), "src")
SETUP_CHILDREN = 2
CHILD_TIMEOUT_S = 120


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("audit", "bulk", "cli_docs", "geometry"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used for setup_s samples)")
    return parser.parse_args(argv)


def _environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _set_up(workload, seed, workdir):
    """Build the workload and run one warm-up op; returns the workload."""
    from workloads import WORKLOADS

    wl = WORKLOADS[workload](seed, workdir)
    op = wl.op(0)
    wl.check(op, wl.collect(op, wl.run(op)))
    return wl


def _attempt(wl, op, tracer=None):
    """Run one op; returns (seconds, output or None, failure reason or None)."""
    gc.collect()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = wl.run(op)
            dt = time.perf_counter() - t0
        else:
            with tracer:
                t0 = time.perf_counter()
                raw = wl.run(op)
                dt = time.perf_counter() - t0
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        return time.perf_counter() - t0, None, f"raised {type(exc).__name__}: {exc}"
    try:
        out = wl.collect(op, raw)
        return dt, out, wl.check(op, out)
    except Exception as exc:
        return dt, None, f"check raised {type(exc).__name__}: {exc}"


def _tail(samples):
    """Highest whole percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    pct = max(0, math.floor(100 * (n - 10) / n))
    rank = max(1, math.ceil(pct / 100 * n))
    return ordered[rank - 1], pct, n - rank


def _setup_samples(args, first):
    samples = [first]
    for _ in range(SETUP_CHILDREN):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only"]
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                              check=False)
        if done.returncode != 0:
            raise RuntimeError(f"set-up child failed: {done.stderr.strip()[-500:]}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


def _timed(args, wl, setup_first):
    """Cycle through the workload's distinct ops until the summed op time
    reaches --seconds, ending on a whole cycle so that every op runs equally
    often."""
    samples, failures = [], []
    reports = atom_factors = busy = 0.0
    while sum(samples) < args.seconds or len(samples) % wl.pool:
        op = wl.op(len(samples) % wl.pool)
        dt, out, reason = _attempt(wl, op)
        samples.append(dt)
        if out is not None:  # work done counts whether or not the check passed
            r, af = wl.work(op, out)
            reports += r
            atom_factors += af
            busy += dt
        if reason is not None:
            failures.append(reason)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup = _setup_samples(args, setup_first)
    busy = busy or math.inf
    tail, pct, beyond = _tail(samples)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_s.p50": (statistics.median(samples), "s"),
        "op_s.tail": (tail, "s"),
        "reports_per_s": (reports / busy, "1/s"),
        "atoms_per_s": (atom_factors / busy, "1/s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info = {"setup_samples_s": setup, "distinct_ops": wl.pool,
            "runs_per_op": len(samples) // wl.pool, "tail_percentile": pct,
            "tail_samples_beyond": beyond, "error_rate": len(failures) / len(samples),
            "op_s": samples}
    return len(samples), failures, metrics, info


def _traced(args, wl):
    from tracing import Tracer, layer_metrics

    ops = [wl.op(i) for i in range(wl.trace_ops)]
    failures = {}
    passes = []
    tracer = Tracer()
    for label in ("untraced", "traced"):
        times, outs = [], []
        for i, op in enumerate(ops):
            tracer.op = i
            dt, out, reason = _attempt(wl, op, tracer if label == "traced" else None)
            times.append(dt)
            outs.append(out)
            if reason is not None:
                failures[label, i] = reason
        passes.append((times, outs))
    (plain_t, plain_out), (traced_t, traced_out) = passes
    for i, (a, b) in enumerate(zip(plain_out, traced_out)):
        if a != b:
            failures.setdefault(("traced", i), "output differs from the untraced pass")
    metrics = layer_metrics(tracer)
    overhead = statistics.median(traced_t) - statistics.median(plain_t)
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / statistics.median(plain_t), "ratio")
    span_path = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.json")
    with open(span_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "op"],
                   "spans": tracer.spans}, fh)
    info = {"ops": len(ops), "untraced_op_s": plain_t, "traced_op_s": traced_t,
            "spans_file": os.path.relpath(span_path)}
    return 2 * len(ops), [f"{p} op {i}: {r}" for (p, i), r in failures.items()], metrics, info


def main(argv=None):
    args = _parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "mixdiv", "__init__.py")):
        print(f"error: no mixdiv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import mixdiv

    if not os.path.abspath(mixdiv.__file__).startswith(SRC + os.sep):
        print(f"error: mixdiv imported from {mixdiv.__file__}, not {SRC}", file=sys.stderr)
        return 2
    workdir = os.path.join(HERE, "out", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        wl = _set_up(args.workload, args.seed % 2**64, workdir)
        setup_s = time.perf_counter() - T_START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            attempted, failures, metrics, info = _traced(args, wl)
        else:
            attempted, failures, metrics, info = _timed(args, wl, setup_s)
        info.update(workload=args.workload, seed=args.seed, trace=args.trace,
                    facts=wl.facts(), environment=_environment(), failures=failures[:5])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(info))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
