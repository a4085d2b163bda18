"""Divergence functionals for single pairs and vectors of measure pairs.

All functionals integrate per-atom products of the basic building block

    w_i = f_i(p_i / q_i) * q_i        (one value per atom)

raised to various exponents:

* classical divergence          integral of w
* mixed divergence              integral of prod_i w_i**(1/n) over n pairs
* order-k variant               first k factors direct, rest in adjoint form
* i-th mixed divergence         two pairs with exponents i/n and (n-i)/n
* reference variant             second pair replaced by the base measure
* affinity dissimilarity        minus integral of prod_i p_i**a_i (densities as factors)
* paired dissimilarity          the classical divergence of f, for paired(f)

Each factor w_i is formed in linear space, and one that is not finite
raises a typed error: a generator value that overflows names its argument
(mu = (1, 1), P = (1e-300, 1), Q = (0.5, 0.5), f = (t**3, t**-3) has value
1.0, but t**-3 overflows), and a finite generator value whose product with
q overflows names the atom (mu = (1e-100, 1), P = (1e250, 1),
Q = (1e150, 1), f = t**2). A factor that underflows to 0 drops its atom's
share of the integral.

Products of powers are combined in log space, one ``exp`` per atom, so
large exponents do not overflow the product. The combination is one loop
over the factors in the order given, with exponent-0 factors skipped (so
``0**0`` = 1): ``acc += e_i * log(w_i)``, elementwise. Every atom's term is
therefore the same sequence of IEEE operations on that atom's own values,
bit for bit the same however the atoms are batched or ordered. A zero factor
has log -inf, so IEEE ``exp`` gives ``0**e`` = 0 for e > 0 and ``inf`` for
e < 0 directly. The one undefined case, an atom with both a zero-to-positive
and a zero-to-negative factor (-inf + inf = NaN), contributes 0. Exponents
must be finite, with absolute values summing to at most 1e300: the log of a
finite nonzero factor is below 745 in magnitude, so the weighted sum of such
logs stays finite, and with nonnegative finite factors, which every
functional here passes, no other NaN can arise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
from .generators import Generator, MultivariateGenerator, adjoint, make_generator
from .measures import (
    Density,
    MeasureSpace,
    MeasureVector,
    _first_invalid,
    integrate,
    same_space,
)

PairOfDensities = tuple[Density, Density]


@dataclass(frozen=True, eq=False)
class PairTriple:
    """One coordinate (f_i, P_i, Q_i) of a divergence vector.

    Its two factor arrays are evaluated on first use and then shared,
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
    def integrand_factor(self) -> np.ndarray:
        """Per-atom values of f(p/q) * q, read-only.

        Raises MixdivError, naming the atom, when a value is not finite."""
        return _factor(self.generator, self.p, self.q)

    @cached_property
    def adjoint_factor(self) -> np.ndarray:
        """Per-atom values of the same quantity in adjoint form, f*(q/p) * p,
        evaluated separately; read-only, and raises as :attr:`integrand_factor`."""
        return _factor(adjoint(self.generator), self.q, self.p)


@dataclass(frozen=True, eq=False)
class IthMixedSpec:
    """Inputs of the i-th mixed divergence: two triples, a real index i,
    and the ambient exponent base n (i may lie outside [0, n])."""

    pair1: PairTriple
    pair2: PairTriple
    i: float
    n: int

    def __post_init__(self) -> None:
        _check_base(self.n)
        same_space(self.pair1.p, self.pair2.p)

    @property
    def space(self) -> MeasureSpace:
        return self.pair1.space


#: bound on the sum of |exponent| in weighted_product_integral; with every
#: |log w| < 745 for finite w > 0, the weighted sum of logs stays finite
_EXPONENT_MASS_LIMIT = 1e300


def _check_base(n: int) -> None:
    if n < 1:
        raise IndexOutOfRange(f"ambient exponent base n={n} must be >= 1")


def _factor(g: Generator, num: Density, den: Density) -> np.ndarray:
    """Read-only per-atom values of g(num/den) * den; a value that is not
    finite raises."""
    out = g.eval_array(num.values / den.values)
    out *= den.values
    idx = _first_invalid(out, positive=False)
    if idx is not None:
        atom = num.space.atom_ids[idx]
        raise MixdivError(f"integrand factor of {g.label} is not finite at atom {atom!r}")
    out.setflags(write=False)
    return out


def weighted_product_integral(
    space: MeasureSpace, factors: Sequence[np.ndarray], exponents: Sequence[float]
) -> float:
    """Integrate prod_i factors[i]**exponents[i] over the space, in log space.

    The factors must be nonnegative and finite; see the module docstring for
    the order of operations and the zero rules.

    Raises
    ------
    ArityMismatch
        If there are not as many exponents as factors.
    LengthMismatch
        If a factor does not have one value per atom.
    IndexOutOfRange
        If an exponent is not finite or their absolute values sum beyond 1e300.
    """
    return integrate(space, _product_terms(space, factors, exponents))


def _product_terms(space: MeasureSpace, factors: Sequence, exponents: Sequence) -> np.ndarray:
    """Validate and form the per-atom terms of :func:`weighted_product_integral`."""
    if len(factors) != len(exponents):
        raise ArityMismatch(f"{len(factors)} factors vs {len(exponents)} exponents")
    if not sum(abs(e) for e in exponents) <= _EXPONENT_MASS_LIMIT:
        raise IndexOutOfRange(
            f"exponents {list(exponents)!r} must be finite, with absolute values "
            f"summing to at most {_EXPONENT_MASS_LIMIT:g}"
        )
    acc = scratch = None
    with np.errstate(divide="ignore", invalid="ignore"):  # log 0 = -inf; -inf + inf
        for w, e in zip(factors, exponents):
            w = np.asarray(w, dtype=float)
            if w.shape != space.weights.shape:
                raise LengthMismatch(f"factor of {w.size} values for {space.n_atoms} atoms")
            if e == 0.0:
                continue
            t = np.log(w, out=scratch)
            t *= e
            if acc is None:
                acc = t
            else:
                acc += t
                scratch = t
    if acc is None:
        return np.ones(space.n_atoms)
    terms = np.exp(acc, out=acc)
    terms[np.isnan(terms)] = 0.0
    return terms


def f_divergence(g: Generator, p: Density, q: Density) -> float:
    """Classical divergence: integral of f(p/q) * q.

    Raises MixdivError, naming the atom, when f(p/q) * q is not finite."""
    return integrate(same_space(p, q), _factor(g, p, q))


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
        t.integrand_factor if idx < k else t.adjoint_factor for idx, t in enumerate(triples)
    ]
    return weighted_product_integral(space, factors, [1.0 / n] * n)


def ith_mixed(spec: IthMixedSpec) -> float:
    """i-th mixed divergence: integral of w1**(i/n) * w2**((n-i)/n).

    Endpoints reduce to the classical divergences of the single pairs
    (i = 0 gives pair2, i = n gives pair1), and the index satisfies the
    duality D((f1,f2), (P1,P2), (Q1,Q2); i) = D((f2,f1), (P2,Q2), (P1,Q1); n-i).
    """
    return _ith_integrals(spec.space, spec.pair1, spec.pair2, [spec.i], spec.n)[0]


def _ith_mixed_grid(
    pair1: PairTriple, pair2: PairTriple, indices: Sequence[float], n: int
) -> list[float]:
    """:func:`ith_mixed` at each index, with n and the space checked once."""
    _check_base(n)
    return _ith_integrals(same_space(pair1.p, pair2.p), pair1, pair2, indices, n)


def _ith_integrals(space: MeasureSpace, pair1: PairTriple, pair2: PairTriple,
                   indices: Sequence[float], n: int) -> list[float]:
    w1, w2 = pair1.integrand_factor, pair2.integrand_factor
    return [weighted_product_integral(space, [w1, w2], [i / n, 1.0 - i / n]) for i in indices]


def ith_mixed_reference(pair1: PairTriple, i: float, n: int, f2: Generator) -> float:
    """i-th mixed divergence against the base measure:
    f2(1)**(1 - i/n) * integral of w1**(i/n).

    Requires the underlying space to be a probability space.
    """
    _check_base(n)
    space = pair1.space
    if not space.is_probability:
        raise ReferenceNotProbability(
            f"base measure has mass {space.total_mass!r}; the reference variant needs mass 1"
        )
    e1 = i / n
    body = weighted_product_integral(space, [pair1.integrand_factor], [e1])
    return f2(1.0) ** (1.0 - e1) * body


def f_dissimilarity(g: MultivariateGenerator, densities: MeasureVector) -> float:
    """Integral of g(p_1, ..., p_l) over the atoms: for an affinity, minus the
    integral of the :func:`weighted_product_integral` terms of the densities;
    for g = paired(f) on (p, q), f_divergence(f, p, q) bit for bit, errors included.
    """
    if len(densities) != g.arity:
        raise ArityMismatch(f"generator arity {g.arity} vs {len(densities)} densities")
    space, dens = densities.space, densities.densities
    if g.generator is not None:
        return integrate(space, _factor(g.generator, *dens))
    return -integrate(space, _product_terms(space, [d.values for d in dens], g.exponents))


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
