"""Generator functions f: (0, inf) -> [0, inf) and the adjoint t*f(1/t).

Each kind is one row of the registry ``_KINDS``, which declares its array
evaluator, its adjoint kind and parameter map, its shape rule, its
parameter names and its spec aliases:

* ``total_variation`` (``tv``)   |t - 1|            convex, self-adjoint
* ``kl_positive_part`` (``kl+``) max(t*ln(t), 0)    convex, adjoint ``kl_adjoint`` = max(-ln(t), 0)
* ``power`` (``sqrt``: alpha=1/2) t**alpha          shape from alpha, adjoint alpha -> 1-alpha
* ``linear``                     a*t + b, a,b >= 0  adjoint swaps a and b
* ``custom``                     a user callable evaluated per element, whose
  declared shape is verified by random midpoint sampling; its adjoint is a closure

Any generator may carry a scale factor lambda > 0 (:func:`scale_generator`):
it evaluates lambda*f, keeps its kind, and its adjoint keeps lambda. Scalar
calls go through the array evaluator, so ``g(t) == g.eval_array([t])[0]``.

Shape metadata drives the inequality audits: ``shape`` is one of ``convex``,
``concave``, ``linear`` (affine functions count as both convex and concave),
``strict`` claims strict convexity/concavity on all of (0, inf), and
``positive`` claims f(t) > 0 for every t > 0. Multivariate generators are
plain data, affinity exponents or the scalar generator of the paired form,
which :func:`~mixdiv.divergence.f_dissimilarity` integrates with the
divergence engine; their spec kinds are the table ``_MULTIVARIATE_SPECS``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Optional

import numpy as np

from .errors import (
    InvalidLinear,
    MixdivError,
    NegativeValue,
    NonpositiveArgument,
    ShapeMismatch,
)
from .measures import _first_invalid

CONVEX = "convex"
CONCAVE = "concave"
LINEAR = "linear"

#: number of random midpoint samples used to vet declared custom shapes
_SHAPE_SAMPLES = 1000
_SHAPE_TOL = 1e-9
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True, eq=False)
class Generator:
    """An immutable scalar generator with shape metadata.

    Instances are callable: ``g(t)`` evaluates f(t) for scalar t > 0, and
    ``g.eval_array(arr)`` evaluates over a positive numpy array. ``scale``
    is the factor lambda of lambda*f.
    """

    kind: str
    shape: str
    strict: bool
    positive: bool
    params: tuple = ()
    fn: Optional[Callable[[float], float]] = None
    base: Optional["Generator"] = None
    scale: float = 1.0

    @property
    def is_convex(self) -> bool:
        return self.shape in (CONVEX, LINEAR)

    @property
    def is_concave(self) -> bool:
        return self.shape in (CONCAVE, LINEAR)

    @property
    def is_linear(self) -> bool:
        return self.shape == LINEAR

    def __call__(self, t: float) -> float:
        return eval_generator(self, t)

    def eval_array(self, t: np.ndarray) -> np.ndarray:
        """Vectorized evaluation over strictly positive values; a value that
        is not finite (an overflow, say) raises MixdivError."""
        t = np.asarray(t, dtype=float)
        if _first_invalid(t) is not None:
            raise NonpositiveArgument("generator arguments must be finite and > 0")
        return self._evaluate(t)

    def _evaluate(self, t: np.ndarray) -> np.ndarray:
        out = _KINDS[self.kind].evaluate(self, t)
        if self.scale != 1.0:
            out = self.scale * out
        idx = _first_invalid(out, positive=False)
        if idx is not None:
            raise MixdivError(f"generator {self.label} is not finite at t={float(t.flat[idx])!r}")
        return out

    @property
    def label(self) -> str:
        text = self.kind
        if self.params:
            text += "(" + ",".join(f"{v:g}" for v in self.params) + ")"
        return text if self.scale == 1.0 else f"{self.scale:g}*{text}"

    def __repr__(self) -> str:
        return f"Generator({self.label}, {self.shape}, strict={self.strict})"


def _eval_custom(g: Generator, t: np.ndarray) -> np.ndarray:
    out = np.array([float(g.fn(x)) for x in t.tolist()])
    if np.any(out < 0.0):
        raise NegativeValue("custom generator returned a negative value")
    return out


def _power_shape(alpha: float) -> tuple[str, bool, bool]:
    if alpha in (0.0, 1.0):
        return LINEAR, False, True
    if 0.0 < alpha < 1.0:
        return CONCAVE, True, True
    return CONVEX, True, True


def _linear_shape(a: float, b: float) -> tuple[str, bool, bool]:
    if a < 0.0 or b < 0.0 or (a == 0.0 and b == 0.0):
        raise InvalidLinear(f"need a >= 0, b >= 0, not both zero; got a={a}, b={b}")
    return LINEAR, False, True


def _convex_nonstrict() -> tuple[str, bool, bool]:
    return CONVEX, False, False


@dataclass(frozen=True)
class _Kind:
    """One registry row. ``shape`` maps the parameters to (shape, strict,
    positive); it is None for ``custom``, whose shape the caller declares."""

    evaluate: Callable[[Generator, np.ndarray], np.ndarray]
    adjoint: str
    shape: Optional[Callable[..., tuple[str, bool, bool]]]
    params: tuple[str, ...] = ()
    adjoint_params: Callable[[tuple], tuple] = lambda p: p
    aliases: dict = field(default_factory=dict)


_KINDS = {
    "total_variation": _Kind(
        lambda g, t: np.abs(t - 1.0), "total_variation", _convex_nonstrict, aliases={"tv": {}}
    ),
    "kl_positive_part": _Kind(
        lambda g, t: np.maximum(t * np.log(t), 0.0), "kl_adjoint", _convex_nonstrict,
        aliases={"kl+": {}},
    ),
    "kl_adjoint": _Kind(
        lambda g, t: np.maximum(-np.log(t), 0.0), "kl_positive_part", _convex_nonstrict
    ),
    "power": _Kind(
        lambda g, t: t ** g.params[0], "power", _power_shape, ("alpha",),
        lambda p: (1.0 - p[0],), aliases={"sqrt": {"alpha": 0.5}},
    ),
    "linear": _Kind(
        lambda g, t: g.params[0] * t + g.params[1], "linear", _linear_shape, ("a", "b"),
        lambda p: (p[1], p[0]),
    ),
    "custom": _Kind(_eval_custom, "custom", None),
}

#: spec name -> (registry kind, preset parameters)
_SPEC_NAMES = {name: (name, {}) for name in _KINDS} | {
    alias: (name, preset) for name, row in _KINDS.items() for alias, preset in row.aliases.items()
}


def _real(what: str, name: str, value) -> float:
    # compared exactly, so an integer beyond float range is rejected, not converted
    real = isinstance(value, numbers.Real) and not isinstance(value, bool)
    if not (real and abs(value) <= _FLOAT_MAX):
        raise MixdivError(f"{what} parameter {name!r} must be a finite number, got {value!r}")
    return float(value)


def _check_names(what: str, given, allowed) -> None:
    if set(given) != set(allowed):
        unknown = sorted(set(given) - set(allowed))
        missing = [n for n in allowed if n not in given]
        raise MixdivError(f"{what} takes {list(allowed)}; unknown {unknown}, missing {missing}")


def make_generator(kind: str, **params) -> Generator:
    """Build a generator of a registry kind or spec alias, e.g.
    ``make_generator("power", alpha=0.5)``; ``custom`` takes ``fn=<callable>,
    shape=..., strict=..., positive=...``.

    Raises
    ------
    MixdivError
        For an unknown kind, or a missing, unknown, non-numeric or
        non-finite parameter of a catalog kind.
    InvalidLinear
        For linear coefficients with a < 0, b < 0, or a = b = 0.
    ShapeMismatch
        When a declared custom shape contradicts midpoint sampling.
    NegativeValue
        When a custom generator produces a negative sample value.
    """
    if not isinstance(kind, str) or kind.lower() not in _SPEC_NAMES:
        raise MixdivError(f"unknown generator kind {kind!r}")
    name, preset = _SPEC_NAMES[kind.lower()]
    row = _KINDS[name]
    if row.shape is None:
        return _make_custom(**params)
    _check_names(kind, params, [n for n in row.params if n not in preset])
    values = {**preset, **params}
    args = tuple(_real(kind, n, values[n]) for n in row.params)
    shape, strict, positive = row.shape(*args)
    return Generator(name, shape, strict=strict, positive=positive, params=args)


def _make_custom(
    fn: Callable[[float], float],
    shape: str,
    strict: bool = False,
    positive: bool = False,
) -> Generator:
    if shape == "both":
        shape = LINEAR
    if shape not in (CONVEX, CONCAVE, LINEAR):
        raise MixdivError(f"unknown shape {shape!r}")
    _verify_custom(fn, shape, positive)
    return Generator(
        "custom", shape, strict=bool(strict), positive=bool(positive), fn=fn
    )


def _verify_custom(fn: Callable[[float], float], shape: str, positive: bool) -> None:
    # Deterministic spot check of the declared shape on log-uniform samples.
    # t = 1 is probed explicitly: f(1) anchors every audited bound.
    if positive and fn(1.0) <= 0.0:
        raise ShapeMismatch(f"declared positive but value {fn(1.0)!r} at t=1")
    rng = np.random.default_rng(20240901)
    pts = np.exp(rng.uniform(math.log(2.0**-10), math.log(2.0**10), (_SHAPE_SAMPLES, 2)))
    for s, t in pts:
        fs, ft = fn(s), fn(t)
        fm = fn((s + t) / 2.0)
        for v, x in ((fs, s), (ft, t), (fm, (s + t) / 2.0)):
            if not math.isfinite(v):
                raise MixdivError(f"custom generator not finite at t={x!r}")
            if v < 0.0:
                raise NegativeValue(f"custom generator is {v!r} < 0 at t={x!r}")
            if positive and v <= 0.0:
                raise ShapeMismatch(f"declared positive but value {v!r} at t={x!r}")
        chord = 0.5 * (fs + ft)
        tol = _SHAPE_TOL * max(1.0, abs(chord), abs(fm))
        if shape in (CONVEX, LINEAR) and fm > chord + tol:
            raise ShapeMismatch(f"declared {shape} but midpoint exceeds chord at ({s!r}, {t!r})")
        if shape in (CONCAVE, LINEAR) and fm < chord - tol:
            raise ShapeMismatch(f"declared {shape} but midpoint is below chord at ({s!r}, {t!r})")


def _star(fn: Callable[[float], float]) -> Callable[[float], float]:
    return lambda t: t * fn(1.0 / t)


def adjoint(g: Generator) -> Generator:
    """Return the adjoint generator t -> t * f(1/t).

    Shape, strictness, positivity and the scale factor are preserved. The
    registry row gives the adjoint kind and parameters (power alpha ->
    power 1-alpha, linear(a,b) -> linear(b,a), total variation to itself,
    the positive-part entropy kinds to each other, custom to a closure).
    Applying ``adjoint`` twice returns the original object, so the
    involution holds exactly.
    """
    if g.base is not None:
        return g.base
    row = _KINDS[g.kind]
    return replace(
        g,
        kind=row.adjoint,
        params=row.adjoint_params(g.params),
        fn=None if g.fn is None else _star(g.fn),
        base=g,
    )


def eval_generator(g: Generator, t: float) -> float:
    """Evaluate f(t) for scalar t > 0 on the array path, so the value equals
    ``g.eval_array([t])[0]``; raises NonpositiveArgument, NegativeValue or,
    for a value that is not finite, MixdivError."""
    t = float(t)
    if not math.isfinite(t) or t <= 0.0:
        raise NonpositiveArgument(f"generator argument {t!r} not in (0, inf)")
    return float(g._evaluate(np.array([t]))[0])


def scale_generator(g: Generator, lam: float) -> Generator:
    """The generator lam * f for lam > 0, of the same kind; shape metadata is unchanged."""
    lam = float(lam)
    if not math.isfinite(lam) or lam <= 0.0:
        raise MixdivError(f"scale factor must be finite and > 0, got {lam!r}")
    return replace(g, scale=g.scale * lam, base=None)


def _split_spec(spec, what: str) -> tuple[str, dict]:
    if not isinstance(spec, dict) or not isinstance(spec.get("kind"), str):
        raise MixdivError(f"{what} spec must be an object with a string 'kind': {spec!r}")
    return spec["kind"].lower(), {k: v for k, v in spec.items() if k != "kind"}


def generator_from_spec(spec: dict) -> Generator:
    """Build a generator from its JSON configuration form.

    Examples: ``{"kind": "power", "alpha": 0.5}``, ``{"kind": "tv"}``,
    ``{"kind": "kl+"}``, ``{"kind": "linear", "a": 1, "b": 0}``. A
    ``custom`` generator needs a Python callable and has no spec form.
    """
    kind, params = _split_spec(spec, "generator")
    if kind == "custom":
        raise MixdivError("custom generators take a Python callable and have no spec form")
    return make_generator(kind, **params)


# --- multivariate generators ---------------------------------------------------

@dataclass(frozen=True, eq=False)
class MultivariateGenerator:
    """A function of l positive arguments, as data: the ``exponents`` a_i of
    the affinity -prod_i x_i**a_i, or the scalar ``generator`` f of the paired
    form (x, y) -> y * f(x / y). Unlike a scalar generator it may be negative;
    :func:`~mixdiv.divergence.f_dissimilarity` integrates it."""

    arity: int
    label: str
    exponents: tuple[float, ...] = ()
    generator: Optional[Generator] = None


def _arity(value) -> int:
    arity = _real("multivariate", "arity", value)
    if arity < 1 or arity != int(arity):
        raise MixdivError(f"arity must be an integer >= 1, got {value!r}")
    return int(arity)


def matusita_affinity(arity: int) -> MultivariateGenerator:
    """-prod_i x_i**(1/l): the negated Matusita affinity integrand."""
    l = _arity(arity)
    return MultivariateGenerator(l, "matusita", exponents=(1.0 / l,) * l)


def toussaint_affinity(exponents) -> MultivariateGenerator:
    """-prod_i x_i**a_i with a_i >= 0 summing to 1."""
    if not isinstance(exponents, (list, tuple, np.ndarray)):
        raise MixdivError(f"toussaint weights must be a list, got {exponents!r}")
    a = tuple(_real("toussaint", "weights", x) for x in exponents)
    if any(x < 0.0 for x in a) or abs(math.fsum(a) - 1.0) > 1e-12:
        raise MixdivError("exponents must be >= 0 and sum to 1")
    return MultivariateGenerator(len(a), "toussaint", exponents=a)


def paired(g: Generator) -> MultivariateGenerator:
    """The two-argument form (x, y) -> y * g(x / y); its dissimilarity is
    the classical divergence of g, bit for bit."""
    return MultivariateGenerator(2, f"paired({g.label})", generator=g)


#: multivariate spec kind -> (its one parameter, constructor taking that value)
_MULTIVARIATE_SPECS = {
    "matusita": ("arity", matusita_affinity),
    "toussaint": ("weights", toussaint_affinity),
    "paired": ("f", lambda f: paired(generator_from_spec(f))),
}


def multivariate_from_spec(spec: dict) -> MultivariateGenerator:
    """Build a multivariate generator from its JSON form, e.g.
    ``{"kind": "matusita", "arity": 3}``, ``{"kind": "toussaint",
    "weights": [0.2, 0.8]}`` or ``{"kind": "paired", "f": {"kind": "tv"}}``."""
    kind, params = _split_spec(spec, "multivariate")
    if kind not in _MULTIVARIATE_SPECS:
        raise MixdivError(f"unknown multivariate kind {kind!r}")
    name, build = _MULTIVARIATE_SPECS[kind]
    _check_names(kind, params, [name])
    return build(params[name])
