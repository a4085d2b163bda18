"""Divergence functionals for single pairs and vectors of measure pairs.

All functionals integrate per-atom products of the basic building block

    w_i = f_i(p_i / q_i) * q_i        (one value per atom)

raised to various exponents:

* classical divergence          integral of w
* mixed divergence              integral of prod_i w_i**(1/n) over n pairs
* order-k variant               first k factors direct, rest in adjoint form
* i-th mixed divergence         two pairs with exponents i/n and (n-i)/n
* reference variant             second pair replaced by the base measure

Products of powers are combined in log space (one ``exp`` of a weighted sum
of logs per atom), so large exponents do not overflow the product. Each
factor w_i is still formed in linear space before its log is taken: a
generator value that overflows raises (mu = (1, 1), P = (1e-300, 1),
Q = (0.5, 0.5), f = (t**3, t**-3) has value 1.0, but t**-3 overflows), and
a factor that underflows to 0 drops its atom's share of the integral.
The weighted sum is one BLAS matrix-vector product, whose rounding depends
on the batch shape and on an atom's position, so per-atom terms, and hence
mixed and interpolated values, can move in the last bit when atoms are
batched or reordered. Zero factors are handled explicitly: ``0**e``
contributes 0 for e > 0, 1 for e = 0, and ``inf`` for e < 0; an atom
carrying both a zero-to-positive and a zero-to-negative factor contributes
0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ArityMismatch,
    IndexOutOfRange,
    MixedArityZero,
    ReferenceNotProbability,
    RenyiAlphaOne,
)
from .generators import Generator, MultivariateGenerator, adjoint, make_generator
from .measures import (
    Density,
    MeasureSpace,
    MeasureVector,
    integrate,
    same_space,
)

PairOfDensities = tuple[Density, Density]


@dataclass(frozen=True, eq=False)
class PairTriple:
    """One coordinate (f_i, P_i, Q_i) of a divergence vector."""

    generator: Generator
    p: Density
    q: Density

    def __post_init__(self) -> None:
        same_space(self.p, self.q)

    @property
    def space(self) -> MeasureSpace:
        return self.p.space


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


def integrand_factor(triple: PairTriple) -> np.ndarray:
    """Per-atom values of f(p/q) * q for one triple."""
    ratio = triple.p.values / triple.q.values
    return triple.generator.eval_array(ratio) * triple.q.values


def adjoint_factor(triple: PairTriple) -> np.ndarray:
    """Per-atom values of the identical quantity in adjoint form f*(q/p) * p."""
    ratio = triple.q.values / triple.p.values
    return adjoint(triple.generator).eval_array(ratio) * triple.p.values


def weighted_product_integral(
    space: MeasureSpace, factors: Sequence[np.ndarray], exponents: Sequence[float]
) -> float:
    """Integrate prod_i factors[i]**exponents[i] over the space, in log space."""
    if len(factors) != len(exponents):
        raise ArityMismatch(f"{len(factors)} factors vs {len(exponents)} exponents")
    exp_arr = np.asarray(exponents, dtype=float)
    active = exp_arr != 0.0
    if not np.any(active):
        terms = np.ones(space.n_atoms)
    else:
        w = np.stack([np.asarray(f, dtype=float) for f in factors])[active]
        e = exp_arr[active]
        zero = w == 0.0
        with np.errstate(divide="ignore"):
            logs = np.where(zero, 0.0, np.log(np.where(zero, 1.0, w)))
        terms = np.exp(e @ logs)
        zero_pos = np.any(zero & (e > 0.0)[:, None], axis=0)
        zero_neg = np.any(zero & (e < 0.0)[:, None], axis=0)
        terms = np.where(zero_neg, np.inf, terms)
        terms = np.where(zero_pos, 0.0, terms)
    return integrate(space, terms)


def f_divergence(g: Generator, p: Density, q: Density) -> float:
    """Classical divergence: integral of f(p/q) * q."""
    space = same_space(p, q)
    return integrate(space, g.eval_array(p.values / q.values) * q.values)


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
    n = len(triples)
    if n == 0:
        raise MixedArityZero("need at least one (generator, P, Q) triple")
    if not (0 <= k <= n):
        raise IndexOutOfRange(f"k={k} outside [0, {n}]")
    space = same_space(*(t.p for t in triples))
    factors = [
        integrand_factor(t) if idx < k else adjoint_factor(t)
        for idx, t in enumerate(triples)
    ]
    return weighted_product_integral(space, factors, [1.0 / n] * n)


def ith_mixed(spec: IthMixedSpec) -> float:
    """i-th mixed divergence: integral of w1**(i/n) * w2**((n-i)/n).

    Endpoints reduce to the classical divergences of the single pairs
    (i = 0 gives pair2, i = n gives pair1), and the index satisfies the
    duality D((f1,f2), (P1,P2), (Q1,Q2); i) = D((f2,f1), (P2,Q2), (P1,Q1); n-i).
    """
    w1 = integrand_factor(spec.pair1)
    w2 = integrand_factor(spec.pair2)
    e1 = spec.i / spec.n
    return weighted_product_integral(spec.space, [w1, w2], [e1, 1.0 - e1])


def ith_mixed_reference(pair1: PairTriple, i: float, n: int, f2: Generator) -> float:
    """i-th mixed divergence against the base measure:
    f2(1)**(1 - i/n) * integral of w1**(i/n).

    Requires the underlying space to be a probability space.
    """
    if n < 1:
        raise IndexOutOfRange(f"ambient exponent base n={n} must be >= 1")
    space = pair1.space
    if not space.is_probability:
        raise ReferenceNotProbability(
            f"base measure has mass {space.total_mass!r}; the reference variant needs mass 1"
        )
    w1 = integrand_factor(pair1)
    e1 = i / n
    body = weighted_product_integral(space, [w1], [e1])
    return f2(1.0) ** (1.0 - e1) * body


def f_dissimilarity(g: MultivariateGenerator, densities: MeasureVector) -> float:
    """Integral of g(p_1, ..., p_l) over the atoms.

    Generalizes the classical divergence: with g = paired(f) on the vector
    (p, q) it coincides with f_divergence(f, p, q).
    """
    if len(densities) != g.arity:
        raise ArityMismatch(f"generator arity {g.arity} vs {len(densities)} densities")
    vals = g.eval_block(np.stack([d.values for d in densities.densities]))
    return integrate(densities.space, vals)


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


def mixed_renyi(pairs: Sequence[PairOfDensities], alpha: float) -> float:
    """(1/(alpha-1)) * ln of the order-alpha mixed Hellinger integral."""
    if alpha == 1.0:
        raise RenyiAlphaOne("Renyi order must differ from 1")
    return math.log(mixed_hellinger(pairs, [alpha] * len(pairs))) / (alpha - 1.0)


def _ith(pair1: PairOfDensities, pair2: PairOfDensities,
         g1: Generator, g2: Generator, i: float, n: int) -> float:
    return ith_mixed(
        IthMixedSpec(PairTriple(g1, *pair1), PairTriple(g2, *pair2), i=i, n=n)
    )


def ith_total_variation(pair1: PairOfDensities, pair2: PairOfDensities,
                        i: float, n: int) -> float:
    tv = make_generator("total_variation")
    return _ith(pair1, pair2, tv, tv, i, n)


def ith_kl(pair1: PairOfDensities, pair2: PairOfDensities, i: float, n: int) -> float:
    kl = make_generator("kl_positive_part")
    return _ith(pair1, pair2, kl, kl, i, n)


def ith_hellinger(pair1: PairOfDensities, pair2: PairOfDensities,
                  alpha1: float, alpha2: float, i: float, n: int) -> float:
    g1 = make_generator("power", alpha=alpha1)
    g2 = make_generator("power", alpha=alpha2)
    return _ith(pair1, pair2, g1, g2, i, n)


def ith_bhattacharyya(pair1: PairOfDensities, pair2: PairOfDensities,
                      i: float, n: int) -> float:
    return ith_hellinger(pair1, pair2, 0.5, 0.5, i, n)


def ith_renyi(pair1: PairOfDensities, pair2: PairOfDensities,
              alpha: float, i: float, n: int) -> float:
    if alpha == 1.0:
        raise RenyiAlphaOne("Renyi order must differ from 1")
    return math.log(ith_hellinger(pair1, pair2, alpha, alpha, i, n)) / (alpha - 1.0)
