"""Divergence functionals for single pairs and vectors of measure pairs.

All functionals integrate per-atom products of the basic building block,
the perspective

    w_i = q_i * f_i(p_i / q_i)        (one value per atom)

raised to various exponents:

* classical divergence          integral of w
* mixed divergence              integral of prod_i w_i**(1/n) over n pairs
* order-k variant               first k factors direct, rest in adjoint form
* i-th mixed divergence         two pairs with exponents i/n and (n-i)/n
* reference variant             the i-th divergence against the base measure:
                                its second pair is (f2, 1, 1), whose factor is
                                the constant f2(1), through the same kernel
                                (f2(1)**(1 - i/n) is never formed on its own)
* affinity dissimilarity        minus integral of prod_i p_i**a_i (densities as factors)
* paired dissimilarity          the classical divergence of f, for paired(f)

Each factor is evaluated as its log, log w = log(q * f(p/q)), by the
generator's log-perspective column (:meth:`Generator.log_perspective`):
for a power, log q + alpha*(log p - log q). No overflow or underflow of p/q
or of w loses a value: mu = (1, 1), P = (1e-300, 1), Q = (0.5, 0.5),
f = (t**3, t**-3) has mixed divergence 1.0, and a factor far below the
smallest float still counts. A log-factor that is +inf or NaN (a log beyond
the float range, from an exponent near 1e308, say) raises a typed error
that names the atom. Each :class:`PairTriple` caches its two log-factors.

One private kernel integrates every functional, in two steps that every
entry calls directly. :func:`_log_terms` sums ``acc += e_i * log(w_i)``
elementwise, one loop over the log-factors in the order given, with
exponent-0 factors skipped (so ``0**0`` = 1). :func:`_exp_integral` then
forms each atom's term exp(acc) * mu, one ``exp`` per atom, and sums the
terms exactly (f_divergence, one factor to the power 1, enters here, and a
paired dissimilarity is f_divergence itself). Where exp(acc) is
not a normal float but the term can be, that is, where it overflows or
where it underflows at an atom of weight above 1, log mu is folded in
before the ``exp``: the term is ((h * mu) * h) * h * h with h = exp(acc/4),
and acc/4 is exact. So mu = (1e-100, 1), P = (1e250, 1), Q = (1e150, 1),
f = t**2 has divergence about 1e250 although w = 1e350 at atom 0.

Every atom's term is the same sequence of IEEE operations on that atom's
own values, bit for bit the same however the atoms are batched or ordered.
A zero factor has log -inf, so ``exp`` gives ``0**e`` = 0 for e > 0 and
``inf`` for e < 0 directly. The one undefined case, an atom with both a
zero-to-positive and a zero-to-negative factor (-inf + inf = NaN),
contributes 0. Exponents must be finite, with absolute values summing to
at most 1e300. A weighted log that overflows to -inf is a term of 0. A
term that is inf or NaN at an atom where no factor is 0 or inf, from a
weighted log that overflows to +inf or an ``exp`` beyond the float range
even with log mu folded in, raises a typed error naming the atom; terms
are nonnegative, so that happens only when the integral itself is beyond
the float range (or a log-factor passed in is NaN).

Each term carries the rounding of the logs it combines, a few units of
2**-53 times their magnitudes: about 1e-15 relative for densities within
e**+-10, and up to a few 1e-13 where logs near +-690 (densities near
1e+-300) meet exponents such as 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    LengthMismatch,
    MixdivError,
    MixedArityZero,
    ReferenceNotProbability,
    RenyiAlphaOne,
)
from .generators import (
    _GATHER_MIN,
    Generator,
    MultivariateGenerator,
    adjoint,
    make_generator,
)
from .measures import (
    Density,
    MeasureSpace,
    MeasureVector,
    _atom_repr,
    _sum_terms,
    same_space,
    validate_density,
)

PairOfDensities = tuple[Density, Density]


@dataclass(frozen=True, eq=False)
class PairTriple:
    """One coordinate (f_i, P_i, Q_i) of a divergence vector.

    Its two log-factor arrays are evaluated on first use and then shared,
    read-only, by every functional that reads the triple, for as long as
    the triple lives."""

    generator: Generator
    p: Density
    q: Density

    def __post_init__(self) -> None:
        same_space(self.p, self.q)

    @property
    def space(self) -> MeasureSpace:
        return self.p.space

    @cached_property
    def log_integrand_factor(self) -> np.ndarray:
        """Per-atom log(f(p/q) * q), read-only; -inf where the factor is 0.

        Raises MixdivError, naming the atom, where the log is +inf or NaN."""
        return _log_factor(self.generator, self.p, self.q)

    @cached_property
    def log_adjoint_factor(self) -> np.ndarray:
        """Per-atom log of the same quantity in adjoint form, log(f*(q/p) * p),
        evaluated separately; read-only, and raises as :attr:`log_integrand_factor`."""
        return _log_factor(adjoint(self.generator), self.q, self.p)


@dataclass(frozen=True, eq=False)
class IthMixedSpec:
    """Inputs of the i-th mixed divergence: two triples, a real index i,
    and the ambient exponent base n (i may lie outside [0, n])."""

    pair1: PairTriple
    pair2: PairTriple
    i: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise IndexOutOfRange(f"ambient exponent base n={self.n} must be >= 1")
        same_space(self.pair1.p, self.pair2.p)

    @property
    def space(self) -> MeasureSpace:
        return self.pair1.space


#: bound on the sum of |exponent| in weighted_product_integral, which keeps
#: the exponents finite; a weighted log that still overflows is handled per atom
_EXPONENT_MASS_LIMIT = 1e300

#: exp(acc) is a normal float for acc in [_LOG_LOW, _LOG_HIGH]; beyond them
#: the kernel folds log mu in before the ``exp``
_LOG_LOW, _LOG_HIGH = -708.0, 709.0


def _log_factor(g: Generator, num: Density, den: Density) -> np.ndarray:
    """Read-only per-atom log(g(num/den) * den); a log that is +inf or NaN raises."""
    out = g.log_perspective(num.values, den.values)
    if not out.max() < math.inf:
        idx = np.flatnonzero(~(out < math.inf))[0]
        raise MixdivError(f"log of the integrand factor of {g.label} is not finite "
                          f"at atom {_atom_repr(num.space, idx)}")
    out.setflags(write=False)
    return out


def weighted_product_integral(
    space: MeasureSpace, log_factors: Sequence[np.ndarray], exponents: Sequence[float]
) -> float:
    """Integrate prod_i w_i**exponents[i] over the space, each factor w_i given
    by its natural log ``log_factors[i]`` (-inf for a zero factor); see the
    module docstring for the order of operations and the zero rules.

    Raises
    ------
    ArityMismatch
        If there are not as many exponents as factors.
    LengthMismatch
        If a factor does not have one value per atom.
    IndexOutOfRange
        If an exponent is not finite or their absolute values sum beyond 1e300.
    MixdivError
        If the integral is beyond the float range, or a log-factor is NaN.
    """
    return _exp_integral(space, *_log_terms(space, log_factors, exponents))


def _log_terms(space: MeasureSpace, log_factors: Sequence, exponents: Sequence) -> tuple:
    """Per-atom acc = sum_i exponents[i] * log_factors[i], and the factors it reads."""
    if len(log_factors) != len(exponents):
        raise ArityMismatch(f"{len(log_factors)} factors vs {len(exponents)} exponents")
    if not sum(map(abs, exponents)) <= _EXPONENT_MASS_LIMIT:
        raise IndexOutOfRange(
            f"exponents {list(exponents)!r} must be finite, with absolute values "
            f"summing to at most {_EXPONENT_MASS_LIMIT:g}"
        )
    rows = []
    for lw, e in zip(log_factors, exponents):
        lw = np.asarray(lw, dtype=float)
        if lw.shape != space.weights.shape:
            raise LengthMismatch(f"factor of {lw.size} values for {space.n_atoms} atoms")
        if e != 0.0:
            rows.append((lw, e))
    # -inf + inf is a zero factor to powers of both signs; an overflow to -inf
    # is a term of 0, and _exp_integral rejects one to +inf
    with np.errstate(over="ignore", invalid="ignore"):
        acc = rows[0][0] * rows[0][1] if rows else np.zeros(space.n_atoms)
        for lw, e in rows[1:]:
            acc += lw * e
    return acc, [lw for lw, _ in rows]


def _exp_integral(space: MeasureSpace, acc: np.ndarray, log_factors: Sequence) -> float:
    """Integral of exp(acc), from the terms exp(acc) * mu; ``acc`` combines the
    ``log_factors``. See the module docstring."""
    mu, top = space.weights, acc.max()
    if top <= _LOG_HIGH - max(0.0, math.log(space.total_mass)) and (
            space.total_mass <= 1.0 or acc.min() >= _LOG_LOW):  # every term finite and near
        if acc.size >= _GATHER_MIN and acc.min() == -math.inf:  # zero terms skip the exp
            live = np.flatnonzero(acc > -math.inf)
            terms = np.zeros(acc.size)
            terms[live] = np.exp(acc[live]) * mu[live]
        else:
            terms = np.exp(acc)
            terms *= mu
        return _sum_terms(terms)
    with np.errstate(over="ignore", invalid="ignore"):
        terms = np.exp(acc)
        terms *= mu
        far = np.isfinite(acc) & ((acc > _LOG_HIGH) | ((acc < _LOG_LOW) & (mu > 1.0)))
        far = np.flatnonzero(far)
        terms[far] = _exp_times(acc[far], mu[far])
    lost = ~(terms < math.inf)  # inf or NaN: by the zero rules only where a factor is 0
    for lw in log_factors:
        lost &= ~np.isinf(lw)
    if lost.any():
        raise MixdivError("integral beyond the float range: term not finite "
                          f"at atom {_atom_repr(space, np.flatnonzero(lost)[0])}")
    terms[np.isnan(terms)] = 0.0  # a zero factor to a positive and a negative power
    return _sum_terms(terms)


def _exp_times(a: np.ndarray, mu: np.ndarray) -> np.ndarray:
    """exp(a) * mu with log mu folded in before the ``exp``: a / 4 is exact, so
    only the four factors exp(a / 4) and the products round (a few units of
    2**-53), and the partial products stay normal wherever the term is."""
    h = np.exp(0.25 * a)
    return ((h * mu) * h) * h * h


def f_divergence(g: Generator, p: Density, q: Density) -> float:
    """Classical divergence: integral of f(p/q) * q.

    Raises MixdivError, naming the atom, when the integral is beyond the float
    range or a log-factor is not finite."""
    space, lw = same_space(p, q), _log_factor(g, p, q)
    return _exp_integral(space, lw, [lw])


def mixed_divergence(triples: Sequence[PairTriple]) -> float:
    """Mixed divergence of n triples: integral of prod_i w_i**(1/n).

    With all triples equal this reduces to the classical divergence; with
    P_i = Q_i = P for a probability P it equals prod_i f_i(1)**(1/n).
    """
    return mixed_divergence_k(triples, len(triples))


def mixed_divergence_k(triples: Sequence[PairTriple], k: int) -> float:
    """Order-change variant: first k factors direct, remaining in adjoint form.

    Equal to :func:`mixed_divergence` for every k in [0, n] because
    f(p/q) * q = f*(q/p) * p pointwise.
    """
    return weighted_product_integral(*_mixed_inputs(triples, k))


def _mixed_inputs(triples: Sequence[PairTriple], k: int) -> tuple:
    """The checked kernel inputs (space, log-factors, exponents) of the order-k value."""
    n = len(triples)
    if n == 0:
        raise MixedArityZero("need at least one (generator, P, Q) triple")
    if not (0 <= k <= n):
        raise IndexOutOfRange(f"k={k} outside [0, {n}]")
    space = same_space(*(t.p for t in triples))
    factors = [
        t.log_integrand_factor if idx < k else t.log_adjoint_factor
        for idx, t in enumerate(triples)
    ]
    return space, factors, [1.0 / n] * n


def ith_mixed(spec: IthMixedSpec) -> float:
    """i-th mixed divergence: integral of w1**(i/n) * w2**((n-i)/n).

    Endpoints reduce to the classical divergences of the single pairs
    (i = 0 gives pair2, i = n gives pair1), and the index satisfies the
    duality D((f1,f2), (P1,P2), (Q1,Q2); i) = D((f2,f1), (P2,Q2), (P1,Q1); n-i).
    """
    return weighted_product_integral(*_ith_inputs(spec, spec.i))


def _ith_mixed_grid(
    pair1: PairTriple, pair2: PairTriple, indices: Sequence[float], n: int
) -> list[float]:
    """:func:`ith_mixed` at each index, with n and the space checked once."""
    spec = IthMixedSpec(pair1, pair2, math.nan, n)
    return [weighted_product_integral(*_ith_inputs(spec, i)) for i in indices]


def _ith_inputs(spec: IthMixedSpec, i: float) -> tuple:
    """The kernel inputs of ``spec``'s i-th value at index i (spec.i is not read)."""
    factors = [spec.pair1.log_integrand_factor, spec.pair2.log_integrand_factor]
    return spec.space, factors, [i / spec.n, 1.0 - i / spec.n]


def _unit_pair(space: MeasureSpace, f2: Generator) -> PairTriple:
    """The base measure as the pair (f2, 1, 1) on a probability space: its
    log-factor is log f2(1) at every atom."""
    if not space.is_probability:
        raise ReferenceNotProbability(
            f"base measure has mass {space.total_mass!r}; the reference variant needs mass 1"
        )
    one = validate_density(space, np.ones(space.n_atoms), require_prob=True)
    return PairTriple(f2, one, one)


def ith_mixed_reference(pair1: PairTriple, i: float, n: int, f2: Generator) -> float:
    """i-th mixed divergence against the base measure: :func:`ith_mixed` with
    the second pair (f2, 1, 1), whose factor is the constant f2(1), so the
    value is f2(1)**(1 - i/n) * integral of w1**(i/n), formed by the same
    kernel (f2(1)**(1 - i/n) is never formed on its own).

    Requires the underlying space to be a probability space.
    """
    return _ith_mixed_grid(pair1, _unit_pair(pair1.space, f2), [i], n)[0]


def f_dissimilarity(g: MultivariateGenerator, densities: MeasureVector) -> float:
    """Integral of g(p_1, ..., p_l) over the atoms: for an affinity, minus the
    integral of prod_i p_i**a_i, by the kernel of :func:`weighted_product_integral`;
    for g = paired(f) on (p, q), f_divergence(f, p, q) bit for bit, errors included.
    """
    if len(densities) != g.arity:
        raise ArityMismatch(f"generator arity {g.arity} vs {len(densities)} densities")
    space, dens = densities.space, densities.densities
    if g.generator is not None:
        return f_divergence(g.generator, *dens)
    return -_exp_integral(space, *_log_terms(space, [np.log(d.values) for d in dens], g.exponents))


# --- named wrappers -------------------------------------------------------------

def _triples(pairs: Sequence[PairOfDensities], gens: Sequence[Generator]) -> list[PairTriple]:
    if len(pairs) != len(gens):
        raise ArityMismatch(f"{len(pairs)} pairs vs {len(gens)} generators")
    return [PairTriple(g, p, q) for g, (p, q) in zip(gens, pairs)]


def mixed_total_variation(pairs: Sequence[PairOfDensities]) -> float:
    """Mixed divergence with f(t) = |t - 1| in every coordinate."""
    tv = make_generator("total_variation")
    return mixed_divergence(_triples(pairs, [tv] * len(pairs)))


def mixed_kl(pairs: Sequence[PairOfDensities]) -> float:
    """Mixed divergence with the positive-part entropy generator max(t ln t, 0)."""
    kl = make_generator("kl_positive_part")
    return mixed_divergence(_triples(pairs, [kl] * len(pairs)))


def mixed_hellinger(pairs: Sequence[PairOfDensities], alphas: Sequence[float]) -> float:
    """Mixed divergence with per-pair power generators t**alpha_i."""
    gens = [make_generator("power", alpha=a) for a in alphas]
    return mixed_divergence(_triples(pairs, gens))


def mixed_bhattacharyya(pairs: Sequence[PairOfDensities]) -> float:
    """Mixed Hellinger with every exponent 1/2."""
    return mixed_hellinger(pairs, [0.5] * len(pairs))


def _renyi(alpha: float, hellinger: Callable[[], tuple]) -> float:
    """(1/(alpha-1)) * ln H, H the integral of the kernel inputs ``hellinger()``;
    where H is 0 or subnormal, ln H = M + ln(integral of exp(acc - M)), M = max acc.
    MixdivError where every term is 0 (M = -inf) or H is not finite."""
    if alpha == 1.0:
        raise RenyiAlphaOne("Renyi order must differ from 1")
    space, log_factors, exponents = hellinger()
    acc, live = _log_terms(space, log_factors, exponents)
    value, shift = _exp_integral(space, acc, live), 0.0
    if value < 2.0**-1022:  # 0 or subnormal
        shift = float(acc.max())
        value = _exp_integral(space, acc - shift, live) if shift > -math.inf else 0.0
    if not 0.0 < value < math.inf:
        raise MixdivError(f"Renyi order {alpha!r}: Hellinger integral {value!r} has no finite log")
    return (shift + math.log(value)) / (alpha - 1.0)


def mixed_renyi(pairs: Sequence[PairOfDensities], alpha: float) -> float:
    """(1/(alpha-1)) * ln of the order-alpha mixed Hellinger integral."""
    power = make_generator("power", alpha=alpha)
    return _renyi(alpha, lambda: _mixed_inputs(_triples(pairs, [power] * len(pairs)), len(pairs)))


def _ith_spec(pair1: PairOfDensities, pair2: PairOfDensities,
              g1: Generator, g2: Generator, i: float, n: int) -> IthMixedSpec:
    return IthMixedSpec(PairTriple(g1, *pair1), PairTriple(g2, *pair2), i=i, n=n)


def ith_total_variation(pair1: PairOfDensities, pair2: PairOfDensities,
                        i: float, n: int) -> float:
    """i-th mixed divergence with f(t) = |t - 1| for both pairs."""
    tv = make_generator("total_variation")
    return ith_mixed(_ith_spec(pair1, pair2, tv, tv, i, n))


def ith_kl(pair1: PairOfDensities, pair2: PairOfDensities, i: float, n: int) -> float:
    """i-th mixed divergence with the positive-part entropy generator max(t ln t, 0)."""
    kl = make_generator("kl_positive_part")
    return ith_mixed(_ith_spec(pair1, pair2, kl, kl, i, n))


def ith_hellinger(pair1: PairOfDensities, pair2: PairOfDensities,
                  alpha1: float, alpha2: float, i: float, n: int) -> float:
    """i-th mixed divergence with the power generators t**alpha1 and t**alpha2."""
    g1 = make_generator("power", alpha=alpha1)
    g2 = make_generator("power", alpha=alpha2)
    return ith_mixed(_ith_spec(pair1, pair2, g1, g2, i, n))


def ith_bhattacharyya(pair1: PairOfDensities, pair2: PairOfDensities,
                      i: float, n: int) -> float:
    """i-th Hellinger with both exponents 1/2."""
    return ith_hellinger(pair1, pair2, 0.5, 0.5, i, n)


def ith_renyi(pair1: PairOfDensities, pair2: PairOfDensities,
              alpha: float, i: float, n: int) -> float:
    """(1/(alpha-1)) * ln of the order-alpha i-th Hellinger integral."""
    power = make_generator("power", alpha=alpha)
    return _renyi(alpha, lambda: _ith_inputs(_ith_spec(pair1, pair2, power, power, i, n), i))
