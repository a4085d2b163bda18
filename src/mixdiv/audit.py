"""Numerical audits of the divergence inequalities and their equality cases.

Each check computes both sides of one stated inequality, reports the signed
slack (rhs - lhs), a ``holds`` verdict, and an equality verdict:
``equality_expected`` is predicted from the known equality conditions
(proportional integrands, identical densities, linear generators),
``equality_observed`` measures whether the slack actually vanished.
Prediction is one-directional: a detected condition must force equality,
but observed equality without a detected condition is reported, never
raised. A side, or a power inside one, that is beyond the float range
raises a MixdivError that names the check.

One rule judges every inequality lhs <= rhs (:func:`_holds`): it holds when
rhs - lhs >= -eps_ineq * max(1, |rhs|). Chain checks (the concave product
bound) apply it to each link and conjoin the link verdicts into ``holds``;
the individual link slacks are kept in ``detail``. One rule tells close
vectors apart (:func:`_agree`): max |u - v| is at most the tolerance times
the largest |entry| of u and v.

Predictions read each triple's cached log-factors log(q * f(p/q)), never a
linear copy, so no prediction fails because one atom's factor is beyond the
float range. A Holder factor is a weighted sum of log-factors. One rule
decides proportionality (:func:`_mutually_proportional`), for a family of
nonnegative vectors given by their logs: the family is proportional when a
member is null (every log -inf); otherwise each pair, in order, must have
the same zero atoms (log -inf), finite log differences d, and a spread at
most eps_prop, where with r = exp(d - max d) in each direction the spread
is (max r - min r) / mean r. The spread reported is the largest seen up to
the first pair that fails, inf for differing zeros or a log difference
beyond the float range. AF's Holder factors, interpolation's two
log-factors and :func:`effectively_proportional`'s log|u| and log|v| (after
a sign rule; NaN or infinite entries raise a MixdivError) all go through it.

``audit_suite`` runs seeded randomized instances of every check plus the
engine's identity properties and returns the reports in a deterministic
order; violations are report entries, not exceptions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .divergence import (
    IthMixedSpec,
    PairTriple,
    _ith_mixed_grid,
    _unit_pair,
    f_divergence,
    ith_mixed,
    mixed_divergence,
    mixed_divergence_k,
    weighted_product_integral,
)
from .errors import (
    DegenerateIndices,
    IndexOutOfRange,
    LengthMismatch,
    MixdivError,
    NotProbability,
    ShapeMismatch,
)
from .generators import (
    CONCAVE,
    CONVEX,
    Generator,
    adjoint,
    make_generator,
    scale_generator,
)
from .measures import Density, MeasureSpace, integrate, make_space, validate_density
from .report import dumps_report


@dataclass(frozen=True)
class Tolerances:
    """Relative tolerances separating inequality slack, observed equality,
    and proportionality detection noise."""

    ineq: float = 1e-12
    eq: float = 1e-10
    prop: float = 1e-8

    def __post_init__(self) -> None:
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value > 0.0):
                raise MixdivError(f"tolerance {name}={value!r} must be finite and > 0")


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class ProportionalityVerdict:
    """Outcome of an effective-proportionality test.

    ``null_factor_index`` is the index of the first identically zero member
    (for :func:`effectively_proportional`, 0 for u and 1 for v); a null
    member is proportional to anything. ``ratio_spread`` is the largest
    normalized max-min spread of the pointwise ratios seen, symmetrized over
    both ratio directions.
    """

    proportional: bool
    null_factor_index: Optional[int]
    ratio_spread: float


@dataclass(frozen=True)
class AuditReport:
    """One audited inequality: sides, slack, and verdicts.

    ``holds`` is slack >= -ineq * max(1, |rhs|), possibly conjoined with
    extra per-link conditions for chain checks; ``equality_observed`` is
    |slack| <= eq * max(1, |lhs|, |rhs|) and only ever true when ``holds``.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    holds: bool
    equality_expected: bool
    equality_observed: bool
    tolerances: Tolerances
    detail: dict = field(default_factory=dict)


def _report(
    name: str,
    lhs: float,
    rhs: float,
    tol: Tolerances,
    equality_expected: bool,
    detail: dict,
    extra_holds: bool = True,
) -> AuditReport:
    lhs = float(lhs)
    rhs = float(rhs)
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise MixdivError(f"{name}: side beyond the float range (lhs {lhs!r}, rhs {rhs!r})")
    slack = rhs - lhs
    holds = _holds(lhs, rhs, tol) and bool(extra_holds)
    scale = max(1.0, abs(lhs), abs(rhs))
    observed = bool(holds and abs(slack) <= tol.eq * scale)
    return AuditReport(
        name=name,
        lhs=lhs,
        rhs=rhs,
        slack=slack,
        holds=holds,
        equality_expected=bool(equality_expected),
        equality_observed=observed,
        tolerances=tol,
        detail=detail,
    )


def _holds(lhs: float, rhs: float, tol: Tolerances) -> bool:
    """The inequality verdict lhs <= rhs: rhs - lhs >= -ineq * max(1, |rhs|)."""
    return bool(rhs - lhs >= -tol.ineq * max(1.0, abs(rhs)))


def _power(check: str, base: float, exponent: float) -> float:
    """base**exponent for a side of ``check``; MixdivError where it leaves the float range."""
    try:
        return math.pow(base, exponent)
    except (OverflowError, ValueError):  # ValueError: 0 to a negative power
        raise MixdivError(f"{check}: {base!r}**{exponent!r} is beyond the float range") from None


def _tagged(report: AuditReport, **meta) -> AuditReport:
    """A copy of ``report`` whose detail ends with the suite's metadata."""
    return AuditReport(**{**vars(report), "detail": {**report.detail, **meta}})


def _rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _identity_report(
    name: str, value: float, reference: float, tol: Tolerances, detail: dict
) -> AuditReport:
    """Encode an exact identity as a report: lhs is the relative difference,
    rhs is 0, so ``holds`` means agreement within the inequality tolerance."""
    detail = {**detail, "value": float(value), "reference": float(reference)}
    return _report(name, _rel_diff(value, reference), 0.0, tol, True, detail)


def _pair_divergence(t: PairTriple) -> float:
    """The classical divergence of ``t`` from its cached log-factor."""
    return weighted_product_integral(t.space, [t.log_integrand_factor], [1.0])


def _require_prob(triples: Sequence[PairTriple], what: str) -> None:
    for t in triples:
        if not (t.p.prob_certified and t.q.prob_certified):
            raise NotProbability(f"{what} requires probability-certified densities")


def _agree(vectors: Sequence[np.ndarray], tol: float) -> bool:
    """Every vector v is relatively close to the first, u: max |u - v| is at
    most tol times the largest |entry| of u and v (at least 1e-300)."""
    u, top = vectors[0], float(np.max(np.abs(vectors[0])))
    return all(float(np.max(np.abs(u - v))) <= tol * max(top, float(np.max(np.abs(v))), 1e-300)
               for v in vectors[1:])


def _equality_basis(pairs: Sequence[PairTriple], gens: Sequence[Generator], tol: Tolerances,
                    strict_label: str, linear_remark: bool = True) -> tuple[str, bool]:
    """(equality_basis, equality_expected) of a Holder or Jensen bound on
    ``pairs`` whose generator shapes are those of ``gens``: all affine and
    not identically 0 (with ``linear_remark``) predicts equality where the
    mixes (a*p + b*q)/(a + b) agree, otherwise all strict predicts it where
    every density is one common density."""
    if linear_remark and all(g.is_linear and g(1.0) > 0.0 for g in gens):
        # f(p/q)*q / f(1) is (a*p + b*q)/(a + b) for f = a*t + b, at any scale
        mixes = [np.exp(t.log_integrand_factor - math.log(t.generator(1.0))) for t in pairs]
        return "linear-remark", _agree(mixes, tol.prop)
    if all(g.strict for g in gens):
        return strict_label, _agree([d.values for t in pairs for d in (t.p, t.q)], tol.prop)
    return "none", False


# --- effective proportionality ---------------------------------------------------

def effectively_proportional(
    u: Sequence[float], v: Sequence[float], eps_prop: float = DEFAULT_TOLERANCES.prop
) -> ProportionalityVerdict:
    """Decide whether a*u = b*v holds for constants (a, b) != (0, 0).

    The signs of u and v must agree everywhere or differ everywhere (else
    the spread is inf). Then log|u| and log|v| go through the audit's one
    proportionality rule (see the module docstring): a null vector is
    proportional to anything; otherwise the zero patterns must coincide and
    the pointwise ratios |u|/|v| must agree, their spread maximized over
    both ratio directions. So the verdict is symmetric in u and v,
    invariant under positive scaling of either argument, and no ratio
    overflows however far apart u and v lie in the float range.

    Raises LengthMismatch for vectors of different shapes and MixdivError
    for a NaN or infinite entry.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape:
        raise LengthMismatch(f"{u.size} values vs {v.size} values")
    if not (np.isfinite(u).all() and np.isfinite(v).all()):
        raise MixdivError("proportionality needs finite values, not NaN or infinite ones")
    signs = np.sign(u) * np.sign(v)
    if (signs < 0.0).any() and (signs > 0.0).any():
        return ProportionalityVerdict(False, None, math.inf)
    with np.errstate(divide="ignore"):
        return _mutually_proportional([np.log(np.abs(u)), np.log(np.abs(v))], eps_prop)


def _mutually_proportional(logs: Sequence[np.ndarray], eps: float) -> ProportionalityVerdict:
    """Effective proportionality of a family of nonnegative vectors given by
    their logs (-inf for a zero); see the module docstring. A null member
    makes the family proportional. Otherwise each pair, in order, must have
    equal zero patterns, finite log differences and a spread <= eps; the
    spread reported is the largest seen up to the first pair that fails."""
    for idx, lw in enumerate(logs):
        if not (lw > -math.inf).any():
            return ProportionalityVerdict(True, idx, 0.0)
    worst = 0.0
    for a, la in enumerate(logs):
        live = la > -math.inf
        for lb in logs[a + 1:]:
            if not np.array_equal(live, lb > -math.inf):
                return ProportionalityVerdict(False, None, math.inf)
            with np.errstate(over="ignore"):  # a log difference beyond the float range is inf
                d = la[live] - lb[live]
                if not np.isfinite(d).all():
                    return ProportionalityVerdict(False, None, math.inf)
                # the ratios in each direction, scaled so that the largest is 1
                worst = max(worst, *((1.0 - float(r.min())) / float(r.mean())
                                     for r in (np.exp(d - d.max()), np.exp(d.min() - d))))
            if not worst <= eps:
                return ProportionalityVerdict(False, None, worst)
    return ProportionalityVerdict(True, None, worst)


# --- substitution vectors ---------------------------------------------------------

def build_nk(triples: Sequence[PairTriple], m: int, k: int) -> list[PairTriple]:
    """Replace the last m coordinates by the k-th triple (k is 1-based).

    Requires 1 <= m <= n and n - m + 1 <= k <= n; the first n - m triples
    are kept, the remaining m slots all become triple k (generator and both
    densities substituted together).
    """
    n = len(triples)
    if not (1 <= m <= n):
        raise IndexOutOfRange(f"m={m} outside [1, {n}]")
    if not (n - m + 1 <= k <= n):
        raise IndexOutOfRange(f"k={k} outside [{n - m + 1}, {n}]")
    return list(triples[: n - m]) + [triples[k - 1]] * m


def _shape_class(triples: Sequence[PairTriple]) -> str:
    """'convex' or 'concave' for a compatible generator vector (linear fits
    both, preferring 'convex'); mixed strict shapes raise ShapeMismatch."""
    has_convex = any(t.generator.shape == CONVEX for t in triples)
    has_concave = any(t.generator.shape == CONCAVE for t in triples)
    if has_convex and has_concave:
        raise ShapeMismatch("generator vector mixes strictly convex and concave members")
    return CONCAVE if has_concave else CONVEX


# --- the product-substitution inequality -----------------------------------------

def check_alexandrov_fenchel(
    triples: Sequence[PairTriple], m: int, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> AuditReport:
    """Audit [D(triples)]^m <= prod_k D(substituted triples), k = n-m+1..n.

    Requires an all-convex or all-concave generator vector and
    probability-certified densities. Equality is predicted when one of the
    m Holder factors g0^(1/m) * g_j is null or all are mutually effectively
    proportional over the atoms.
    """
    n = len(triples)
    if not (1 <= m <= n):
        raise IndexOutOfRange(f"m={m} outside [1, {n}]")
    shape = _shape_class(triples)
    _require_prob(triples, "the substitution inequality")

    base = mixed_divergence(triples)
    substituted = [
        mixed_divergence(build_nk(triples, m, k)) for k in range(n - m + 1, n + 1)
    ]
    lhs = _power("alexandrov_fenchel", base, m)
    rhs = math.prod(substituted)

    logs = [t.log_integrand_factor for t in triples]
    g0 = sum((lw / n for lw in logs[: n - m]), np.zeros(triples[0].space.n_atoms))
    holder = [g0 / m + logs[n - 1 - j] / n for j in range(m)]
    verdict = _mutually_proportional(holder, tolerances.prop)

    detail = {
        "shape": shape,
        "n": int(n),
        "m": int(m),
        "mixed_value": float(base),
        "substituted_values": [float(v) for v in substituted],
        "pair_divergences": [float(_pair_divergence(t)) for t in triples],
        "proportionality_spread": float(verdict.ratio_spread),
    }
    if verdict.null_factor_index is not None:
        detail["null_factor_index"] = int(verdict.null_factor_index)
    return _report("alexandrov_fenchel", lhs, rhs, tolerances, verdict.proportional, detail)


# --- the concave product chain ----------------------------------------------------

def check_concave_upper(
    triples: Sequence[PairTriple], tolerances: Tolerances = DEFAULT_TOLERANCES
) -> AuditReport:
    """Audit the chain [D]^n <= prod_i D_i <= prod_i f_i(1) for concave
    generator vectors over probability pairs.

    The report's lhs/rhs are the chain ends; ``holds`` requires both links.
    Equality is predicted for all-linear vectors when the convex
    combinations (a_i p_i + b_i q_i)/(a_i + b_i) agree across coordinates,
    and otherwise for all-strict vectors when every density equals one
    common probability density.
    """
    n = len(triples)
    if n == 0:
        raise IndexOutOfRange("need at least one triple")
    for t in triples:
        if not t.generator.is_concave:
            raise ShapeMismatch(f"{t.generator.label} is not concave")
    _require_prob(triples, "the concave product chain")

    base = mixed_divergence(triples)
    lhs = _power("concave_product_chain", base, n)
    pair_divergences = [_pair_divergence(t) for t in triples]
    middle = math.prod(pair_divergences)
    rhs = math.prod(t.generator(1.0) for t in triples)
    links_hold = _holds(lhs, middle, tolerances) and _holds(middle, rhs, tolerances)

    gens = [t.generator for t in triples]
    basis, expected = _equality_basis(triples, gens, tolerances, "strict-concave")
    detail = {
        "n": int(n),
        "mixed_value": float(base),
        "pair_divergences": [float(v) for v in pair_divergences],
        "product_of_divergences": float(middle),
        "link_slacks": [float(middle - lhs), float(rhs - middle)],
        "equality_basis": basis,
    }
    return _report(
        "concave_product_chain", lhs, rhs, tolerances, expected, detail,
        extra_holds=links_hold,
    )


# --- Jensen bounds ----------------------------------------------------------------

def check_jensen_bound(
    g: Generator, p: Density, q: Density, tolerances: Tolerances = DEFAULT_TOLERANCES
) -> AuditReport:
    """Audit the one-pair bound against f(1): convex generators satisfy
    D >= f(1), concave ones D <= f(1), linear ones equality."""
    if not (p.prob_certified and q.prob_certified):
        raise NotProbability("Jensen bounds require probability-certified densities")
    value = f_divergence(g, p, q)
    f_one = g(1.0)
    extra = True
    if g.is_linear:
        lhs, rhs, direction, expected = value, f_one, "equality", True
        extra = abs(rhs - lhs) <= tolerances.ineq * max(1.0, abs(rhs))
    else:
        lhs, rhs, direction = (f_one, value, "lower") if g.is_convex else (value, f_one, "upper")
        expected = g.strict and _agree([p.values, q.values], tolerances.prop)
    detail = {
        "generator": g.label,
        "shape": g.shape,
        "direction": direction,
        "divergence": float(value),
        "f_at_one": float(f_one),
    }
    return _report("jensen_bound", lhs, rhs, tolerances, expected, detail, extra_holds=extra)


# --- index interpolation ----------------------------------------------------------

def check_interpolation(
    pair1: PairTriple,
    pair2: PairTriple,
    n: int,
    i: float,
    j: float,
    k: float,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> AuditReport:
    """Audit D(i) <= D(j)**((k-i)/(k-j)) * D(k)**((i-j)/(k-j)) for i between
    j and k (log-convexity of the index map).

    Both generators must be strictly positive on (0, inf). Equality is
    predicted at the endpoints or when the two integrand vectors are
    effectively proportional (a null integrand counts as proportional).
    """
    if j == k:
        raise DegenerateIndices("interpolation endpoints must differ")
    if not (min(j, k) <= i <= max(j, k)):
        raise IndexOutOfRange(f"i={i} not between j={j} and k={k}")
    for role, g in (("f1", pair1.generator), ("f2", pair2.generator)):
        _require_shape(g, "positive", role)

    d_i, d_j, d_k = _ith_mixed_grid(pair1, pair2, [i, j, k], n)
    lhs = d_i
    rhs = d_j ** ((k - i) / (k - j)) * d_k ** ((i - j) / (k - j))

    if i == j or i == k:
        expected, spread = True, 0.0
    else:
        verdict = _mutually_proportional(
            [pair1.log_integrand_factor, pair2.log_integrand_factor], tolerances.prop
        )
        expected, spread = verdict.proportional, verdict.ratio_spread

    detail = {
        "n": int(n),
        "i": float(i),
        "j": float(j),
        "k": float(k),
        "D_j": float(d_j),
        "D_k": float(d_k),
        "proportionality_spread": float(spread),
    }
    return _report("holder_interpolation", lhs, rhs, tolerances, expected, detail)


# --- endpoint corollaries ---------------------------------------------------------

class _Case(NamedTuple):
    """Every fact about one corollary case (see :func:`check_corollary`)."""

    reference: bool  # base-measure variant: f2 alone, mass-1 space
    pool1: str  # f1 is drawn from this pool and must have its shape
    pool2: str  # the same for f2
    index_rule: str  # a key of _INDEX_RULES
    upper: bool  # [D]^n is bounded from above, else from below
    linear_remark: bool  # linear generators predict equality
    equality_family: str = ""  # the suite's equality construction, if any


_CASE_TABLE = {
    "concave_0_i_n": _Case(
        False, "positive_concave", "positive_concave", "unit", True, True, "corollary_diagonal"
    ),
    "ref_concave": _Case(
        True, "positive_concave", "positive", "unit", True, True, "corollary_reference"
    ),
    "convex_concave_k_ge_n": _Case(
        False, "positive_convex", "positive_concave", "ge_n", False, True
    ),
    "ref_convex": _Case(True, "positive_convex", "positive", "ge_n", False, True),
    "concave_convex_k_le_0": _Case(
        False, "positive_concave", "positive_convex", "le_0", False, False
    ),
    "ref_concave_k_le_0": _Case(True, "positive_concave", "positive", "le_0", False, True),
}
COROLLARY_CASES = tuple(_CASE_TABLE)

#: index rule -> (admissible index range, range the suite draws from) for base n
_INDEX_RULES = {
    "unit": lambda n: ((0.0, n), (0.0, n)),
    "ge_n": lambda n: ((n, math.inf), (n, n + 4.0)),
    "le_0": lambda n: ((-math.inf, 0.0), (-4.0, 0.0)),
}


def _require_shape(g: Generator, pool: str, role: str) -> None:
    """Raise unless ``g`` has the shape that every member of ``pool`` has."""
    if not g.positive:
        raise ShapeMismatch(f"{role} {g.label} is not strictly positive on (0, inf)")
    if pool == "positive_concave" and not g.is_concave:
        raise ShapeMismatch(f"{role} {g.label} must be concave")
    if pool == "positive_convex" and not g.is_convex:
        raise ShapeMismatch(f"{role} {g.label} must be convex")


def check_corollary(
    case: str,
    pair1: PairTriple,
    n: int,
    index: float,
    *,
    pair2: Optional[PairTriple] = None,
    f2: Optional[Generator] = None,
    tolerances: Tolerances = DEFAULT_TOLERANCES,
) -> AuditReport:
    """Audit one endpoint corollary: [D(index)]^n against
    f1(1)**index * f2(1)**(n-index).

    Cases (``ref_*`` take f2 and use the unit pair (f2, 1, 1), the base
    measure, as the second triple, on a mass-1 space; the others need a
    second triple):

    * ``concave_0_i_n``        both concave, 0 <= index <= n, bound from above
    * ``ref_concave``          f1 concave, 0 <= index <= n, bound from above
    * ``convex_concave_k_ge_n`` f1 convex, f2 concave, index >= n, bound from below
    * ``ref_convex``           f1 convex, index >= n, bound from below
    * ``concave_convex_k_le_0`` f1 concave, f2 convex, index <= 0, bound from below
    * ``ref_concave_k_le_0``   f1 concave, index <= 0, bound from below
    """
    if case not in _CASE_TABLE:
        raise MixdivError(f"unknown corollary case {case!r}")
    row = _CASE_TABLE[case]
    f1 = pair1.generator
    _require_shape(f1, row.pool1, "f1")
    (low, high), _ = _INDEX_RULES[row.index_rule](n)
    if not low <= index <= high:
        raise IndexOutOfRange(f"index={index} outside [{low}, {high}] for case {case!r}")

    if row.reference:
        if f2 is None:
            raise MixdivError(f"case {case!r} needs the f2 generator")
        pair2 = _unit_pair(pair1.space, f2)
    elif pair2 is None:
        raise MixdivError(f"case {case!r} needs a second triple")
    f2 = pair2.generator
    _require_shape(f2, row.pool2, "f2")
    pairs = [pair1, pair2]
    _require_prob(pairs, "the corollary audit")
    value = ith_mixed(IthMixedSpec(pair1, pair2, i=index, n=n))
    check = f"corollary_{case}"
    powered = _power(check, value, n)
    bound = _power(check, f2(1.0), n - index) * _power(check, f1(1.0), index)
    lhs, rhs = (powered, bound) if row.upper else (bound, powered)

    # the unit pair's factor is the constant f2(1), whatever f2's shape
    gens = [f1] if row.reference else [f1, f2]
    basis, expected = _equality_basis(pairs, gens, tolerances, "strict", row.linear_remark)
    detail = {
        "case": case,
        "n": int(n),
        "index": float(index),
        "value": float(value),
        "bound": float(bound),
        "equality_basis": basis,
    }
    return _report(check, lhs, rhs, tolerances, expected, detail)


# --- randomized suite --------------------------------------------------------------

#: every random instance has MIN_ATOMS..MAX_ATOMS atoms and 1..MAX_PAIRS pairs
MIN_ATOMS, MAX_ATOMS, MAX_PAIRS = 2, 64, 6


@dataclass(frozen=True)
class AuditConfig:
    """Instance counts and parameters for :func:`audit_suite`.

    All counts default to zero; an all-zero config yields an empty report
    list. ``corollaries`` is the instance count per corollary case.
    """

    seed: int = 0
    identities: int = 0
    af_convex: int = 0
    af_concave: int = 0
    concave_chain: int = 0
    jensen: int = 0
    interpolation: int = 0
    corollaries: int = 0
    equality_families: int = 0
    tolerances: Tolerances = DEFAULT_TOLERANCES


def _rand_space(rng, probability: bool = False) -> MeasureSpace:
    n_atoms = int(rng.integers(MIN_ATOMS, MAX_ATOMS + 1))
    w = rng.uniform(0.25, 2.0, n_atoms)
    if probability:
        w = w / w.sum()
    return make_space(w)


def _rand_prob_density(rng, space: MeasureSpace) -> Density:
    d = np.exp(rng.uniform(-2.0, 2.0, space.n_atoms))
    d = d / integrate(space, d)
    return validate_density(space, d, require_prob=True)


def _pick(rng, options: tuple):
    """A uniform choice among ``options``; a single option consumes no RNG draw."""
    return options[int(rng.integers(len(options)))] if len(options) > 1 else options[0]


def _draw_linear(rng) -> Generator:
    a, b = rng.uniform(0.1, 2.0, 2)
    return make_generator("linear", a=a, b=b)


def _draw_from(*gens: Generator):
    return lambda rng: _pick(rng, gens)


def _draw_power(*alphas: float):
    return _draw_from(*(make_generator("power", alpha=a) for a in alphas))


_ANY_POWER = _draw_power(-1.0, -0.5, 0.25, 0.5, 0.75, 2.0, 3.0)
_CONVEX_POWER = _draw_power(-1.0, -0.5, 2.0, 3.0)
_CONCAVE_POWER = _draw_power(0.25, 0.5, 0.75)
_TV = _draw_from(make_generator("total_variation"))
_KL = _draw_from(make_generator("kl_positive_part"))

#: pool -> equally likely draws, each a function of the RNG
_POOLS = {
    "any": (_TV, _KL, _draw_linear, _ANY_POWER),
    "convex": (_TV, _KL, _draw_linear, _CONVEX_POWER),
    "concave": (_draw_linear, _CONCAVE_POWER, _CONCAVE_POWER),
    "positive": (_draw_linear, _ANY_POWER, _ANY_POWER),
    "positive_convex": (_draw_linear, _CONVEX_POWER, _CONVEX_POWER),
    "positive_concave": (_draw_linear, _CONCAVE_POWER, _CONCAVE_POWER),
    "strict_convex": (_CONVEX_POWER,),
    "strict_concave": (_CONCAVE_POWER,),
}


def _rand_generator(rng, pool: str) -> Generator:
    return _pick(rng, _POOLS[pool])(rng)


def _rand_triple(rng, space: MeasureSpace, pool: str) -> PairTriple:
    return PairTriple(
        _rand_generator(rng, pool),
        _rand_prob_density(rng, space),
        _rand_prob_density(rng, space),
    )


def _rand_triples(rng, pool: str) -> list[PairTriple]:
    space = _rand_space(rng)
    n = int(rng.integers(1, MAX_PAIRS + 1))
    return [_rand_triple(rng, space, pool) for _ in range(n)]


def _identity_instance(rng, config: AuditConfig, idx: int) -> list[AuditReport]:
    triples = _rand_triples(rng, "any")
    n = len(triples)
    space = triples[0].space
    row = [mixed_divergence_k(triples, k) for k in range(n + 1)]
    base = row[n]  # the mixed divergence itself
    perm = [int(x) for x in rng.permutation(n)]
    swapped = mixed_divergence([PairTriple(adjoint(t.generator), t.q, t.p) for t in triples])
    adjointed = [PairTriple(adjoint(t.generator), t.p, t.q) for t in triples]
    reversed_ = [PairTriple(t.generator, t.q, t.p) for t in triples]
    first = triples[0]
    c = float(rng.uniform(0.2, 5.0))
    scaled_space = make_space(space.weights * c)
    rescaled = [
        PairTriple(
            t.generator,
            validate_density(scaled_space, t.p.values / c, require_prob=True),
            validate_density(scaled_space, t.q.values / c, require_prob=True),
        )
        for t in triples
    ]
    meta = {"instance": idx, "n": n, "atoms": space.n_atoms}
    identities = (  # (name, value, reference, detail)
        ("permutation_invariance", mixed_divergence([triples[j] for j in perm]), base, meta),
        ("order_change", max(row, key=lambda v: _rel_diff(v, base)), base,
         {**meta, "row": [float(v) for v in row]}),
        ("adjoint_swap", swapped, base, meta),
        ("symmetry_in_distributions", base + mixed_divergence(adjointed),
         mixed_divergence(reversed_) + swapped, meta),
        ("diagonal_reduction", mixed_divergence([first] * n),
         f_divergence(first.generator, first.p, first.q), meta),
        ("measure_rescaling", mixed_divergence(rescaled), base, {**meta, "scale": c}),
    )
    tol = config.tolerances
    return [_identity_report(name, v, ref, tol, detail) for name, v, ref, detail in identities]


def _af_instance(pool: str, rng, config: AuditConfig, idx: int) -> list[AuditReport]:
    triples = _rand_triples(rng, pool)
    return [
        _tagged(check_alexandrov_fenchel(triples, m, config.tolerances), instance=idx)
        for m in range(1, len(triples) + 1)
    ]


def _concave_chain_instance(rng, config: AuditConfig, idx: int) -> list[AuditReport]:
    triples = _rand_triples(rng, "concave")
    return [_tagged(check_concave_upper(triples, config.tolerances), instance=idx)]


def _jensen_instance(rng, config: AuditConfig, idx: int) -> list[AuditReport]:
    t = _rand_triple(rng, _rand_space(rng), "any")
    return [_tagged(check_jensen_bound(t.generator, t.p, t.q, config.tolerances), instance=idx)]


def _interpolation_instance(rng, config: AuditConfig, idx: int) -> list[AuditReport]:
    tol = config.tolerances
    space = _rand_space(rng)
    n = int(rng.integers(1, MAX_PAIRS + 1))
    pair1 = _rand_triple(rng, space, "positive")
    pair2 = _rand_triple(rng, space, "positive")
    j = float(rng.uniform(-3.0, n - 0.25))
    k = float(rng.uniform(j + 0.5, n + 3.0))
    i = float(rng.uniform(j, k))
    out = [_tagged(check_interpolation(pair1, pair2, n, i, j, k, tol), instance=idx)]
    meta = {"instance": idx, "n": n}
    identities = (  # (name, value, reference, detail)
        ("ith_endpoint_low", ith_mixed(IthMixedSpec(pair1, pair2, i=0.0, n=n)),
         f_divergence(pair2.generator, pair2.p, pair2.q), meta),
        ("ith_endpoint_high", ith_mixed(IthMixedSpec(pair1, pair2, i=float(n), n=n)),
         f_divergence(pair1.generator, pair1.p, pair1.q), meta),
        # the index duality swaps the coordinate roles and reflects i to n - i;
        # the lhs of the interpolation report is D(i)
        ("ith_duality", out[0].lhs, ith_mixed(IthMixedSpec(pair2, pair1, i=n - i, n=n)),
         {**meta, "i": i}),
    )
    out += [_identity_report(name, v, ref, tol, detail) for name, v, ref, detail in identities]
    return out


def _corollary_instance(case: str, rng, config: AuditConfig, idx: int) -> list[AuditReport]:
    row = _CASE_TABLE[case]
    space = _rand_space(rng, probability=row.reference)
    n = int(rng.integers(1, MAX_PAIRS + 1))
    pair1 = _rand_triple(rng, space, row.pool1)
    _, draw_range = _INDEX_RULES[row.index_rule](n)
    index = float(rng.uniform(*draw_range))
    if row.reference:
        second = {"f2": _rand_generator(rng, row.pool2)}
    else:
        second = {"pair2": _rand_triple(rng, space, row.pool2)}
    rep = check_corollary(case, pair1, n, index, tolerances=config.tolerances, **second)
    return [_tagged(rep, instance=idx)]


def _corollary_at_equality(case: str, rng, config: AuditConfig, n: int, p: Density) -> AuditReport:
    """The case at its equality condition: all four densities equal p with
    strict generators, or for the reference variant P1 = Q1 = mu over a
    probability space."""
    row = _CASE_TABLE[case]
    _, draw_range = _INDEX_RULES[row.index_rule](n)
    if row.reference:
        prob_space = _rand_space(rng, probability=True)
        pair1 = _unit_pair(prob_space, _rand_generator(rng, "strict_concave"))
        index = float(rng.uniform(*draw_range))
        second = {"f2": _rand_generator(rng, row.pool2)}
    else:
        pair1 = PairTriple(_rand_generator(rng, "strict_concave"), p, p)
        second = {"pair2": PairTriple(_rand_generator(rng, "strict_concave"), p, p)}
        index = float(rng.uniform(*draw_range))
    return check_corollary(case, pair1, n, index, tolerances=config.tolerances, **second)


def _equality_instance(rng, config: AuditConfig, idx: int) -> list[AuditReport]:
    tol = config.tolerances
    out = []

    def add(family: str, rep: AuditReport) -> None:
        out.append(_tagged(rep, instance=idx, family=family))

    space = _rand_space(rng)
    n = int(rng.integers(1, MAX_PAIRS + 1))
    p = _rand_prob_density(rng, space)
    q = _rand_prob_density(rng, space)

    # identical triples: substitution changes nothing
    g = _rand_generator(rng, "convex")
    identical = [PairTriple(g, p, q)] * n
    m = int(rng.integers(1, n + 1))
    add("identical_triples", check_alexandrov_fenchel(identical, m, tol))

    # scaled family: f_i = lambda_i * f with one shared pair
    f = _rand_generator(rng, "strict_convex")
    lams = rng.uniform(0.5, 3.0, n)
    scaled = [PairTriple(scale_generator(f, float(lam)), p, q) for lam in lams]
    m = int(rng.integers(1, n + 1))
    add("scaled_generators", check_alexandrov_fenchel(scaled, m, tol))

    # concave chain with every density equal to one common p
    gens = [_rand_generator(rng, "strict_concave") for _ in range(n)]
    diagonal = [PairTriple(gg, p, p) for gg in gens]
    add("common_density", check_concave_upper(diagonal, tol))

    # Jensen: linear always, strict with p = q
    a, b = rng.uniform(0.1, 2.0, 2)
    add("jensen_linear", check_jensen_bound(make_generator("linear", a=a, b=b), p, q, tol))
    add("jensen_diagonal", check_jensen_bound(_rand_generator(rng, "strict_convex"), p, p, tol))

    # interpolation: i at an endpoint, and a proportional pair family
    f2 = _rand_generator(rng, "positive")
    pair1 = PairTriple(f2, p, q)
    j = float(rng.uniform(-2.0, n))
    k = float(rng.uniform(j + 0.5, n + 2.0))
    pair2 = PairTriple(_rand_generator(rng, "positive"), p, q)
    add("interpolation_endpoint", check_interpolation(pair1, pair2, n, j, j, k, tol))
    lam = float(rng.uniform(0.5, 3.0))
    add("interpolation_proportional", check_interpolation(
        PairTriple(scale_generator(f2, lam), p, q), pair1, n,
        float(rng.uniform(j, k)), j, k, tol,
    ))

    for case, row in _CASE_TABLE.items():
        if row.equality_family:
            add(row.equality_family, _corollary_at_equality(case, rng, config, n, p))
    return out


#: the check families in suite order: (AuditConfig count field, instance
#: runner ``(rng, config, idx) -> reports``, instance count under
#: ``mixdiv audit --instances n``); each corollary case is a family
_FAMILIES = (
    ("identities", _identity_instance, lambda n: n),
    ("af_convex", partial(_af_instance, "convex"), lambda n: n),
    ("af_concave", partial(_af_instance, "concave"), lambda n: n),
    ("concave_chain", _concave_chain_instance, lambda n: n),
    ("jensen", _jensen_instance, lambda n: n),
    ("interpolation", _interpolation_instance, lambda n: n),
    *(
        ("corollaries", partial(_corollary_instance, case), lambda n: max(1, n // 6))
        for case in _CASE_TABLE
    ),
    ("equality_families", _equality_instance, lambda n: max(1, n // 5)),
)


def _family_counts(instances: int) -> dict[str, int]:
    """AuditConfig count fields for ``mixdiv audit --instances <instances>``."""
    if instances < 1:
        raise IndexOutOfRange(f"--instances {instances} must be at least 1")
    return {count_field: count(instances) for count_field, _, count in _FAMILIES}


def audit_suite(config: AuditConfig) -> list[AuditReport]:
    """Run every configured family of randomized checks.

    Deterministic for a fixed config (one seeded RNG consumed in a fixed
    section order); returns the reports in generation order. Violations are
    reported, not raised; see :func:`violations`. A negative seed raises
    :class:`IndexOutOfRange`.
    """
    if config.seed < 0:
        raise IndexOutOfRange(f"seed {config.seed} must be at least 0")
    rng = np.random.default_rng(config.seed)
    return [
        report
        for count_field, run, _ in _FAMILIES
        for idx in range(getattr(config, count_field))
        for report in run(rng, config, idx)
    ]


def violations(reports: Sequence[AuditReport]) -> list[AuditReport]:
    """The subset of reports whose inequality failed."""
    return [r for r in reports if not r.holds]


def tolerances_to_dict(tol: Tolerances) -> dict:
    """JSON-ready form of tolerances: ``eps_<field>`` for each field."""
    return {f"eps_{name}": value for name, value in vars(tol).items()}


def report_to_dict(report: AuditReport) -> dict:
    """JSON-ready form of a report (field names match the dataclass)."""
    out = dict(vars(report))
    out["tolerances"] = tolerances_to_dict(report.tolerances)
    return out


def reports_to_json(reports: Sequence[AuditReport]) -> str:
    """Serialize reports as a JSON list; floats use shortest round-trip form."""
    return dumps_report([report_to_dict(r) for r in reports])
