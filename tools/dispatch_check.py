"""Check that audit reports do not depend on numpy's SIMD dispatch beyond a band.

numpy picks its ``exp`` and ``log`` kernels by the CPU features it finds at
run time, and kernels of different levels round some values differently.
This tool runs ``mixdiv audit --seed 42 --instances 50`` twice, in child
processes: once as is, and once with ``NPY_DISABLE_CPU_FEATURES`` naming
every feature in the ``simd_extensions.found`` list of
``numpy.show_runtime()``. The two reports must hold the same report names,
the same verdicts (``holds``, ``equality_expected``, ``equality_observed``)
and equal non-float fields, and every pair of floats a, b must agree within
the README's band |a - b| <= 1e-12 * max(1, |a|, |b|). A feature name that
numpy does not know only raises an ``ImportWarning`` in the child.

Run from the repository root::

    python3 tools/dispatch_check.py

It prints the ``simd_extensions`` block and the report digest of both runs
and what moved; it exits 0 when the reports agree within the band, else 1.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BAND = 1e-12
VERDICTS = ("holds", "equality_expected", "equality_observed")
AUDIT = ["audit", "--seed", "42", "--instances", "50"]
SRC = Path(__file__).resolve().parent.parent / "src"

#: prints the ``simd_extensions`` block of ``numpy.show_runtime()``, built
#: from the same module attributes that show_runtime reads
_SIMD_BLOCK = """
import json
try:
    from numpy._core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_baseline__, __cpu_dispatch__, __cpu_features__
print(json.dumps({"baseline": list(__cpu_baseline__),
                  "found": [f for f in __cpu_dispatch__ if __cpu_features__[f]],
                  "not_found": [f for f in __cpu_dispatch__ if not __cpu_features__[f]]}))
"""


def _run(args: list[str], env: dict) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True)


def simd_extensions(env: dict) -> dict:
    """The ``simd_extensions`` block of a Python process started with ``env``."""
    return json.loads(_run(["-c", _SIMD_BLOCK], env).stdout)


def audit_report(env: dict, path: Path) -> bytes:
    """The bytes of the audit report that a process started with ``env`` writes."""
    done = _run(["-m", "mixdiv.cli", *AUDIT, "--output", str(path)], env)
    if done.returncode not in (0, 2):  # 2: the report lists violations
        sys.exit(f"audit exited {done.returncode}:\n{done.stderr}")
    return path.read_bytes()


def differences(a, b, path: tuple, moved: list) -> list[tuple]:
    """The paths at which ``a`` and ``b`` differ beyond the band; the scaled
    move |a - b| / max(1, |a|, |b|) of each finite float that differs is
    appended to ``moved``."""
    if isinstance(a, float) and isinstance(b, float):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return []
        if math.isfinite(a) and math.isfinite(b):
            moved.append(abs(a - b) / max(1.0, abs(a), abs(b)))
            if moved[-1] <= BAND:
                return []
        return [path]
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return [path]
        return [p for k in a for p in differences(a[k], b[k], (*path, k), moved)]
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return [path]
        return [p for i, (x, y) in enumerate(zip(a, b)) for p in differences(x, y, (*path, i), moved)]
    return [] if type(a) is type(b) and a == b else [path]


def main() -> int:
    base = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    found = simd_extensions(base)["found"]
    runs = {"default": base, "disabled": {**base, "NPY_DISABLE_CPU_FEATURES": " ".join(found)}}
    reports = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, env in runs.items():
            raw = audit_report(env, Path(tmp) / f"{name}.json")
            reports[name] = json.loads(raw)
            print(f"{name}: NPY_DISABLE_CPU_FEATURES={env.get('NPY_DISABLE_CPU_FEATURES', '')!r}")
            print(f"  simd_extensions {json.dumps(simd_extensions(env))}")
            print(f"  sha256 {hashlib.sha256(raw).hexdigest()}")
    moved: list[float] = []
    bad = differences(reports["default"], reports["disabled"], (), moved)
    flips = [p for p in bad if p and p[-1] in VERDICTS]
    print(f"{len(reports['default']['values']['reports'])} reports; {len(moved)} floats moved, "
          f"largest scaled move {max(moved, default=0.0):.3g} (band {BAND:g}); "
          f"{len(flips)} verdict flips; {len(bad)} differences beyond the band")
    for p in bad[:20]:
        print("  differs at", "/".join(map(str, p)))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
