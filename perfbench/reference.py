"""Engine-independent references for the benchmark's correctness gates.

Like ``tests/oracles.py``, these work in linear space: each generator is
evaluated directly, products of powers are formed with ``**``, and sums are
exactly rounded with ``math.fsum``. They share no code with mixdiv's
log-space engine. Closed forms for the geometry workload come from the
affine surface area of an ellipsoid in R^3, 4*pi*sqrt(a*b*c).
"""

from __future__ import annotations

import json
import math

import numpy as np


def generator_values(spec: dict, t: np.ndarray) -> np.ndarray:
    """f(t) for a catalog generator spec, evaluated directly."""
    kind = spec["kind"]
    if kind == "tv":
        return np.abs(t - 1.0)
    if kind == "kl+":
        return np.maximum(t * np.log(t), 0.0)
    if kind == "power":
        return t ** spec["alpha"]
    if kind == "linear":
        return spec["a"] * t + spec["b"]
    raise ValueError(f"no reference for generator kind {kind!r}")


def integrand(spec: dict, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Per-atom w = f(p/q) * q."""
    return generator_values(spec, p / q) * q


def integral(mu: np.ndarray, values: np.ndarray) -> float:
    return math.fsum((values * mu).tolist())


def mixed(specs, ps, qs, mu) -> float:
    n = len(specs)
    prod = np.ones_like(mu)
    for spec, p, q in zip(specs, ps, qs):
        prod = prod * integrand(spec, p, q) ** (1.0 / n)
    return integral(mu, prod)


def ith(spec1, p1, q1, spec2, p2, q2, i: float, n: int, mu) -> float:
    w1 = integrand(spec1, p1, q1)
    w2 = integrand(spec2, p2, q2)
    return integral(mu, w1 ** (i / n) * w2 ** ((n - i) / n))


def ellipsoid_area(semi_axes) -> float:
    """Affine surface area of an ellipsoid in R^3 (power 1/4 in each factor)."""
    return 4.0 * math.pi * math.sqrt(math.prod(semi_axes))


def ith_balls(r1: float, r2: float, i: float) -> float:
    """i-th mixed affine surface area of balls r1, r2 in R^3 (n = 3)."""
    return 4.0 * math.pi * r1 ** (i / 2.0) * r2 ** ((3.0 - i) / 2.0)


def rel_err(value: float, ref: float) -> float:
    return abs(value - ref) / abs(ref)


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def strict_json(data: bytes):
    """Parse JSON that must not contain NaN or Infinity."""
    return json.loads(data, parse_constant=_reject_constant)
