"""Finite atomic measure spaces, positive densities, and exact integration.

The computational substrate is a finite list of atoms with strictly positive
weights. Densities are per-atom values relative to those weights and are
required to be strictly positive everywhere, which keeps every downstream
ratio p/q well defined and finite.

Integrals are exactly rounded: every sum returns the bits of
``math.fsum(values.tolist())``, so results are bit-for-bit reproducible
however callers order the atoms. Arrays of at least ``_EXTRACT_CUTOVER``
elements are summed without boxing each element into a Python float, by
error-free extraction (Rump, Ogita & Oishi, *Accurate floating-point
summation I*, SIAM J. Sci. Comput. 31(1), 2008): each pass splits the
remainder r into q = (sigma + r) - sigma and r - q, both exact for a power
of two sigma large enough that each block of q's sums exactly in any
order, until the remainder is zero; ``math.fsum`` then rounds the block
sums once. Shorter arrays, and arrays holding NaN, an infinity or values
too large for sigma, are summed by ``math.fsum`` itself. Finite terms whose
sum overflows raise a typed error (``NonpositiveWeight`` for a total mass);
an infinite term gives an infinite integral.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EmptySpace,
    LengthMismatch,
    MixdivError,
    NonpositiveDensity,
    NonpositiveWeight,
    NotNormalized,
    SpaceMismatch,
)

#: absolute tolerance on |integral - 1| for probability certification
EPS_NORM = 1e-9

#: arrays shorter than this are summed by ``math.fsum`` on a list, which is
#: faster there; both paths give the same bits. The two cost the same near
#: 900 elements (2-vCPU Xeon, numpy 2.4).
_EXTRACT_CUTOVER = 1024

#: extraction sums q in blocks this long, so each pass takes
#: 53 - bitlen(_SUM_BLOCK + 2) = 42 bits off the remainder, and works on
#: chunks of _SUM_CHUNK elements (512 KiB), which stay in cache across passes
_SUM_BLOCK = 1024
_SUM_CHUNK = 64 * _SUM_BLOCK


def _frozen_array(values: Sequence[float]) -> np.ndarray:
    try:
        arr = np.array(values, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:  # overflow: int beyond float range
        raise MixdivError(f"per-atom data must be numbers: {exc}") from None
    if arr.ndim != 1:
        raise MixdivError("per-atom data must be one-dimensional")
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        # numpy reads numeric strings and booleans as numbers; one check per
        # element type, so float arrays, the bulk input, pay nothing
        wrong = {kind for kind in set(map(type, values))
                 if issubclass(kind, (bool, np.bool_)) or not issubclass(kind, numbers.Real)}
        if wrong:
            bad = next(v for v in values if type(v) in wrong)
            raise MixdivError(f"per-atom data must be numbers: got {bad!r}")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """A finite measure space: labelled atoms with positive weights.

    Attributes
    ----------
    atom_ids : tuple
        Opaque atom labels; defaults to 0..n-1.
    weights : numpy.ndarray
        Strictly positive atom masses, read-only.
    total_mass : float
        Exactly rounded sum of the weights.
    """

    atom_ids: tuple
    weights: np.ndarray
    total_mass: float

    @property
    def n_atoms(self) -> int:
        return len(self.atom_ids)

    @property
    def is_probability(self) -> bool:
        """True when the total mass is 1 up to ``EPS_NORM``."""
        return abs(self.total_mass - 1.0) <= EPS_NORM

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return self.atom_ids == other.atom_ids and np.array_equal(
            self.weights, other.weights
        )

    def __repr__(self) -> str:
        return f"MeasureSpace(n_atoms={self.n_atoms}, total_mass={self.total_mass})"


@dataclass(frozen=True, eq=False)
class Density:
    """Per-atom density values with respect to a :class:`MeasureSpace`.

    ``prob_certified`` records that the integral was checked to be 1 at
    construction; operations needing probability inputs test this flag
    rather than re-integrating.
    """

    space: MeasureSpace
    values: np.ndarray
    prob_certified: bool

    def integral(self) -> float:
        return integrate(self.space, self.values)

    def __repr__(self) -> str:
        tag = "prob" if self.prob_certified else "raw"
        return f"Density({tag}, n_atoms={self.space.n_atoms})"


@dataclass(frozen=True, eq=False)
class MeasureVector:
    """An ordered vector of densities sharing one measure space."""

    densities: tuple[Density, ...]

    @property
    def space(self) -> MeasureSpace:
        return self.densities[0].space

    def __len__(self) -> int:
        return len(self.densities)


def make_space(
    weights: Sequence[float], atom_ids: Optional[Sequence] = None
) -> MeasureSpace:
    """Build a validated measure space from positive atom weights.

    Raises
    ------
    EmptySpace
        If ``weights`` is empty.
    NonpositiveWeight
        If any weight is <= 0 or not finite (the message reports the index),
        or if the weights sum beyond the float range.
    """
    arr = _frozen_array(weights)
    if arr.size == 0:
        raise EmptySpace("a measure space needs at least one atom")
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0.0)))
    if bad.size:
        idx = int(bad[0])
        raise NonpositiveWeight(f"weight at index {idx} is {arr[idx]!r}; must be finite and > 0")
    if atom_ids is None:
        ids = tuple(range(arr.size))
    else:
        ids = tuple(atom_ids)
        if len(ids) != arr.size:
            raise LengthMismatch(f"{len(ids)} atom ids for {arr.size} weights")
    try:
        total = _exact_sum(arr)
    except OverflowError:
        raise NonpositiveWeight("total mass is not finite") from None
    return MeasureSpace(atom_ids=ids, weights=arr, total_mass=total)


def validate_density(
    space: MeasureSpace, values: Sequence[float], require_prob: bool = False
) -> Density:
    """Validate per-atom density values against a space.

    Every value must be strictly positive and finite. With
    ``require_prob=True`` the integral must equal 1 within ``EPS_NORM`` and
    the returned density carries ``prob_certified=True``.

    Raises
    ------
    LengthMismatch, NonpositiveDensity, NotNormalized
    """
    arr = _frozen_array(values)
    if arr.size != space.n_atoms:
        raise LengthMismatch(f"{arr.size} density values for {space.n_atoms} atoms")
    bad = np.flatnonzero(~(np.isfinite(arr) & (arr > 0.0)))
    if bad.size:
        idx = int(bad[0])
        raise NonpositiveDensity(
            f"density at atom {space.atom_ids[idx]!r} is {arr[idx]!r}; must be finite and > 0"
        )
    if require_prob:
        total = integrate(space, arr)
        if abs(total - 1.0) > EPS_NORM:
            raise NotNormalized(f"density integrates to {total!r}, not 1")
    return Density(space=space, values=arr, prob_certified=bool(require_prob))


def integrate(space: MeasureSpace, values: Sequence[float]) -> float:
    """Return the integral sum_j values[j] * mu[j], exactly rounded.

    Raises
    ------
    LengthMismatch
    MixdivError
        If finite terms sum beyond the float range.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape != space.weights.shape:
        raise LengthMismatch(f"{arr.size} values for {space.n_atoms} atoms")
    try:
        return _exact_sum(arr * space.weights)
    except OverflowError:
        raise MixdivError("the integral's finite terms sum beyond the float range") from None


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())``, bit for bit, without boxing the elements.

    Error-free extraction, chunk by chunk so the passes stay in cache: with
    sigma a power of two at least 2**b * max|r|, where 2**b > _SUM_BLOCK + 2,
    each q = (sigma + r) - sigma is exact, a multiple of 2**-53 * sigma and
    about 2**-b * sigma at most, so the sum of each block of ``_SUM_BLOCK``
    q's is exact in any order, and so is the remainder r - q, which is at
    most 2**-53 * sigma. Passes repeat on the remainder until it is zero;
    the exact sum is then the sum of the block sums, which ``math.fsum``
    rounds once. Short arrays, NaN, infinities and inputs whose sigma would
    overflow go to ``math.fsum`` itself, as does a zero total, whose sign
    ``math.fsum`` decides.
    """
    n = x.size
    if n < _EXTRACT_CUTOVER:
        return math.fsum(x.tolist())
    b = (_SUM_BLOCK + 2).bit_length()
    r_buf = np.empty(min(n, _SUM_CHUNK))
    q_buf = np.empty_like(r_buf)
    sums = []
    for start in range(0, n, _SUM_CHUNK):
        chunk = x[start : start + _SUM_CHUNK]
        r, q = r_buf[: chunk.size], q_buf[: chunk.size]
        r[...] = chunk
        whole = chunk.size - chunk.size % _SUM_BLOCK
        m = max(float(r.max()), -float(r.min()))
        if not m < 2.0 ** (1023 - b):
            return math.fsum(x.tolist())
        while m > 0.0:
            sigma = math.ldexp(1.0, math.frexp(m)[1] + b)
            np.add(r, sigma, out=q)
            q -= sigma
            sums += q[:whole].reshape(-1, _SUM_BLOCK).sum(axis=1).tolist()
            sums.append(float(q[whole:].sum()))
            r -= q
            m = max(float(r.max()), -float(r.min()))
    total = math.fsum(sums)
    return total if total != 0.0 else math.fsum(x.tolist())


def same_space(*densities: Density) -> MeasureSpace:
    """Return the shared space of the given densities or raise SpaceMismatch."""
    space = densities[0].space
    for d in densities[1:]:
        if d.space is not space and d.space != space:
            raise SpaceMismatch("densities live on different measure spaces")
    return space


def make_vector(densities: Sequence[Density]) -> MeasureVector:
    """Bundle densities into a vector after checking they share one space."""
    if not densities:
        raise EmptySpace("a measure vector needs at least one density")
    same_space(*densities)
    return MeasureVector(densities=tuple(densities))
