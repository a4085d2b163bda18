"""Self-test of the benchmark. Run from the repository root:

    python3 perfbench/selftest.py

It exits non-zero unless all of these hold, for every workload:

1. Two traced runs (``run.py --trace 1``) at the same seed report exactly
   equal per-layer counts.
2. An op gives identical outputs untraced and traced, the tracer's
   wrappers are gone afterwards, and the atoms x factors the workload
   credits to the op equal the tracer's count.
3. The op's output perturbed by 1e-9 relative is counted as failed by the
   workload's correctness gate, with a reason the unperturbed output does
   not have. The perturbation exists only here.
"""

import json
import os
import subprocess
import sys
import tempfile

import run  # pins BLAS threads before numpy is imported

SEED = 7
PERTURB = 1.0 + 1e-9


def _traced_counts(workload):
    cmd = [sys.executable, run.__file__, "--workload", workload, "--seed", str(SEED),
           "--seconds", "1", "--trace", "1"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] in ("count", "bytes")}
    return counts, result["failed"]


def _perturb_json(data, edit):
    doc = json.loads(data)
    edit(doc["values"])
    return (json.dumps(doc, indent=2) + "\n").encode()


def _scale(container, key, index=None):
    if index is None:
        container[key] *= PERTURB
    else:
        container[key][index] *= PERTURB


def _perturb_audit(op, out):
    def edit(values):
        _scale(next(r for r in values["reports"] if r["lhs"] != 0.0), "lhs")

    return out[0], _perturb_json(out[1], edit)


def _perturb_bulk(op, out):
    return {**out, "mixed": out["mixed"] * PERTURB}


CLI_VALUES = {"compute": ("f_divergence", 0), "mixed": ("mixed_divergence", None),
              "ith": ("ith_mixed", 0), "dissimilarity": ("dissimilarity", None)}


def _perturb_cli_docs(op, out):
    return out[0], _perturb_json(out[1], lambda v: _scale(v, *CLI_VALUES[op[1]]))


def _perturb_geometry(op, out):
    (code_m, data_m), (code_i, data_i) = out
    edited = _perturb_json(data_i, lambda v: _scale(v, "ith_mixed_affine_surface_area", 3))
    return (code_m, data_m), (code_i, edited)


PERTURBATIONS = {
    "audit": _perturb_audit,
    "bulk": _perturb_bulk,
    "cli_docs": _perturb_cli_docs,
    "geometry": _perturb_geometry,
}


def _in_process(name, workdir):
    import mixdiv
    from tracing import Tracer
    from workloads import WORKLOADS

    originals = (mixdiv.divergence.weighted_product_integral, mixdiv.cli.run_job,
                 mixdiv.audit.mixed_divergence, mixdiv.Generator.eval_array)
    wl = WORKLOADS[name](SEED, workdir)
    op = wl.op(1)
    plain = wl.collect(op, wl.run(op))
    with Tracer() as tracer:
        raw = wl.run(op)
    traced = wl.collect(op, raw)
    problems = []
    if traced != plain:
        problems.append("traced output differs from untraced")
    if originals != (mixdiv.divergence.weighted_product_integral, mixdiv.cli.run_job,
                     mixdiv.audit.mixed_divergence, mixdiv.Generator.eval_array):
        problems.append("tracer left wrappers installed")
    base = wl.check(op, plain)
    credited = wl.work(op, plain)[1]
    if credited != tracer.counts["divergence.atom_factors"]:
        problems.append(f"atoms x factors {credited} vs traced "
                        f"{tracer.counts['divergence.atom_factors']}")
    perturbed = wl.check(op, PERTURBATIONS[name](op, plain))
    if perturbed is None or perturbed == base:
        problems.append(f"perturbed output not caught (gate said {perturbed!r})")
    print(f"{name}: unperturbed gate: {base or 'pass'}")
    print(f"{name}: perturbed gate: {perturbed}")
    return problems


def main():
    sys.path.insert(0, run.SRC)
    out_dir = os.path.join(run.HERE, "out")
    os.makedirs(out_dir, exist_ok=True)
    problems = []
    for name in PERTURBATIONS:
        first, second = _traced_counts(name), _traced_counts(name)
        if first != second:
            diff = {k: (first[0].get(k), second[0].get(k)) for k in first[0]
                    if first[0].get(k) != second[0].get(k)}
            problems.append(f"{name}: traced runs differ: {diff or (first[1], second[1])}")
        with tempfile.TemporaryDirectory(dir=out_dir) as workdir:
            problems += [f"{name}: {p}" for p in _in_process(name, workdir)]
    for p in problems:
        print("FAIL", p)
    print("self-test", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
