"""Finite atomic measure spaces, positive densities, and exact integration.

The computational substrate is a finite list of atoms with strictly positive
weights. Densities are per-atom values relative to those weights and are
required to be strictly positive everywhere, which keeps every downstream
ratio p/q well defined and finite.

Integrals are exactly rounded: every sum returns the bits of
``math.fsum(values.tolist())``, so results are bit-for-bit reproducible
however callers order the atoms. Arrays of at least ``_EXTRACT_CUTOVER``
elements are summed without boxing each element into a Python float, by one
certified pass of error-free extraction (Rump, Ogita & Oishi, *Accurate
floating-point summation I*, SIAM J. Sci. Comput. 31(1), 2008), or by passes
to a zero remainder where the certificate fails (see ``_exact_sum``).
Shorter arrays, arrays holding NaN, an infinity or values too large for
sigma, and zero totals go to ``math.fsum`` itself. Finite terms whose sum
overflows raise a typed error (``NonpositiveWeight`` for a total mass); an
infinite term gives an infinite integral. A density is certified normalized
from one float dot product where its error bound allows.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

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


def _first_invalid(x: np.ndarray, positive: bool = True) -> Optional[int]:
    """Index of the first value of ``x`` that is not finite and > 0, or None.
    Without ``positive`` only finiteness counts, and ``x`` must hold no -inf
    (values >= 0 or NaN). The scan runs only when the max (or min) test fails."""
    if x.size == 0 or (x.max() < math.inf and (not positive or x.min() > 0.0)):
        return None
    valid = np.isfinite(x) & (x > 0.0) if positive else np.isfinite(x)
    return int(np.flatnonzero(~valid)[0])


def _atom_repr(space: "MeasureSpace", idx: int) -> str:
    """The repr of atom ``idx``'s label, without building the default labels."""
    idx = int(idx)
    return repr(idx if space.labels is None else space.labels[idx])


class _ReadOnlyArrays:
    """Base of the classes that hold read-only arrays: ``pickle`` brings an
    array back writeable, so loading freezes every array attribute again."""

    def __setstate__(self, state: dict) -> None:
        for value in state.values():
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
        self.__dict__.update(state)


@dataclass(frozen=True, eq=False)
class MeasureSpace(_ReadOnlyArrays):
    """A finite measure space: labelled atoms with positive weights.

    Attributes
    ----------
    weights : numpy.ndarray
        Strictly positive atom masses, read-only.
    total_mass : float
        Exactly rounded sum of the weights.
    labels : tuple or None
        Explicit atom labels, or None for the default labels 0..n-1.
    """

    weights: np.ndarray
    total_mass: float
    labels: Optional[tuple] = None

    @functools.cached_property
    def atom_ids(self) -> tuple:
        """Opaque atom labels, read-only; the default 0..n-1 is built on first read."""
        return tuple(range(self.n_atoms)) if self.labels is None else self.labels

    @property
    def n_atoms(self) -> int:
        return self.weights.size

    @property
    def is_probability(self) -> bool:
        """True when the total mass is 1 up to ``EPS_NORM``."""
        return abs(self.total_mass - 1.0) <= EPS_NORM

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MeasureSpace):
            return NotImplemented
        return np.array_equal(self.weights, other.weights) and (
            (self.labels is None and other.labels is None) or self.atom_ids == other.atom_ids
        )

    def __repr__(self) -> str:
        return f"MeasureSpace(n_atoms={self.n_atoms}, total_mass={self.total_mass})"


@dataclass(frozen=True, eq=False)
class Density(_ReadOnlyArrays):
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
    LengthMismatch
        If there is not one atom id per weight.
    MixdivError
        If ``atom_ids`` cannot be iterated.
    """
    arr = _frozen_array(weights)
    if arr.size == 0:
        raise EmptySpace("a measure space needs at least one atom")
    idx = _first_invalid(arr)
    if idx is not None:
        raise NonpositiveWeight(
            f"weight at index {idx} is {float(arr[idx])!r}; must be finite and > 0"
        )
    if not isinstance(atom_ids, (Iterable, type(None))):
        raise MixdivError(f"atom ids must be a sequence of labels, got {atom_ids!r}")
    ids = None if atom_ids is None else tuple(atom_ids)
    if ids is not None and len(ids) != arr.size:
        raise LengthMismatch(f"{len(ids)} atom ids for {arr.size} weights")
    try:
        total = _exact_sum(arr)
    except OverflowError:
        raise NonpositiveWeight("total mass is not finite") from None
    return MeasureSpace(weights=arr, total_mass=total, labels=ids)


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
    idx = _first_invalid(arr)
    if idx is not None:
        raise NonpositiveDensity(
            f"density at atom {_atom_repr(space, idx)} is {float(arr[idx])!r}; "
            "must be finite and > 0"
        )
    if require_prob and not _certainly_normalized(space, arr):
        total = integrate(space, arr)
        if abs(total - 1.0) > EPS_NORM:
            raise NotNormalized(f"density integrates to {total!r}, not 1")
    return Density(space=space, values=arr, prob_certified=bool(require_prob))


def _certainly_normalized(space: MeasureSpace, arr: np.ndarray) -> bool:
    """Whether one float dot product s of the values and weights proves the exact
    integral within ``EPS_NORM`` of 1: in any order, fused or not, its n positive
    terms err by under 2*n*2**-53*s (Higham, *Accuracy and Stability*, 3.1, 4.2)."""
    with np.errstate(over="ignore"):
        s = float(np.dot(arr, space.weights))
    return abs(s - 1.0) + 2.0 * arr.size * 2.0**-53 * s < EPS_NORM


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
    return _sum_terms(arr * space.weights)


def _sum_terms(terms: np.ndarray) -> float:
    """The exactly rounded sum of an integral's per-atom terms; finite terms
    whose sum overflows raise MixdivError."""
    try:
        return _exact_sum(terms)
    except OverflowError:
        raise MixdivError("the integral's finite terms sum beyond the float range") from None


def _exact_sum(x: np.ndarray) -> float:
    """``math.fsum(x.tolist())``, bit for bit, without boxing the elements.

    One extraction pass per chunk gives parts whose sum is within ``bound`` of
    the exact sum. R = fsum(parts) is the exact sum's rounding where
    |fsum(parts - R)| * (1 + 4u) + bound is under half the smaller float gap
    beside R, (1 + 4u) covering the rounding of fsum(parts - R). Otherwise the
    passes run to a zero remainder, whose parts sum exactly.
    """
    if x.size >= _EXTRACT_CUTOVER:
        for passes in (1, math.inf):
            parts, bound = _extract(x, passes)
            total = math.fsum(parts) if parts else 0.0  # parts None: sigma would overflow
            if total == 0.0:
                break
            gap = math.ulp(math.nextafter(total, 0.0))  # the smaller gap beside R
            if passes == math.inf or (abs(math.fsum(parts + [-total])) * (1.0 + 2.0**-51)
                                      + bound < 0.5 * gap):
                return total
    return math.fsum(x.tolist())


def _extract(x: np.ndarray, passes: float) -> tuple[Optional[list], float]:
    """Exact block sums of ``x`` after at most ``passes`` passes per chunk
    (``math.inf``: until the remainder is zero), each chunk's remainder summed
    in floats, and a bound on those sums' error; no parts where sigma would
    overflow. With sigma a power of two at least 2**b * max|r|, where
    2**b > _SUM_BLOCK + 2, each q = (sigma + r) - sigma is exact, a multiple of
    2**-53 * sigma and about 2**-b * sigma at most, so each block of q's sums
    exactly in any order, and so is r - q, at most u * sigma (u = 2**-53); a
    float sum of k such remainders errs by under 2*k*u * (k*u*sigma) in any
    order (Higham, *Accuracy and Stability*, 4.2)."""
    b = (_SUM_BLOCK + 2).bit_length()
    r_buf = np.empty(min(x.size, _SUM_CHUNK))
    q_buf = np.empty_like(r_buf)
    parts, bound = [], 0.0
    for start in range(0, x.size, _SUM_CHUNK):
        r = x[start : start + _SUM_CHUNK]
        k = r.size
        q, whole, done = q_buf[:k], k - k % _SUM_BLOCK, 0
        m = max(float(r.max()), -float(r.min()))
        if not m < 2.0 ** (1023 - b):
            return None, 0.0
        while m > 0.0:
            sigma = math.ldexp(1.0, math.frexp(m)[1] + b)
            np.add(r, sigma, out=q)
            q -= sigma
            parts += q[:whole].reshape(-1, _SUM_BLOCK).sum(axis=1).tolist()
            parts.append(float(q[whole:].sum()))
            r = np.subtract(r, q, out=r_buf[:k])
            done += 1
            if done == passes:
                parts.append(float(r.sum()))
                bound += 2.0 * k * 2.0**-53 * (k * 2.0**-53 * sigma)
                break
            m = max(float(r.max()), -float(r.min()))
    return parts, bound


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
