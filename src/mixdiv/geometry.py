"""Sphere quadrature and cone-measure densities of balls and ellipsoids.

An ellipsoid with semi-axes a_1..a_n has closed-form boundary data as a
function of the outer unit normal u:

    support function    h(u) = sqrt(sum_i a_i**2 * u_i**2)
    curvature function  f(u) = (prod_i a_i)**2 / h(u)**(n+1)

The two cone measures are realized as densities over a quadrature grid of
the unit sphere (the grid doubles as a finite measure space):

    p = h**(-n)          q = f * h

Their mixed divergences are the general mixed affine surface areas; the
argument seen by each generator is p/q = 1 / (f * h**(n+1)).

Grids: dimension 2 uses equal-angle trapezoidal nodes (spectrally accurate
for smooth integrands on the circle); dimension 3 uses a Gauss-Legendre
rule in the polar cosine crossed with a uniform azimuth of twice the
resolution, so ``resolution=64`` yields the default 64 x 128 grid.

The n-point Gauss-Legendre rule is found in O(n**2) time, the classical way
surveyed by Hale & Townsend (SIAM J. Sci. Comput. 35, 2013): Tricomi's
approximations start Newton's method on the nonnegative roots of P_n, which
the three-term recurrence evaluates with P_n'; the weights are
2 / ((1 - x**2) * P_n'(x)**2), the rule is mirrored, and its weights are
scaled to sum to 2, as numpy's ``leggauss`` scales them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import PairTriple, _ith_mixed_grid, mixed_divergence
from .errors import DimensionMismatch, MixdivError, UnsupportedDimension
from .generators import Generator, _real
from .measures import Density, MeasureSpace, _ReadOnlyArrays, make_space, validate_density

#: default polar resolution per dimension
DEFAULT_RESOLUTION = {2: 256, 3: 64}

#: the most nodes a grid may have: 32 MiB for each float64 value per node
MAX_NODES = 2**22

#: bound on |log| of a body's boundary data: normal floats, with headroom
_LOG_RANGE = 1021 * math.log(2.0)

#: cap on the Newton steps of the Gauss-Legendre rule; from Tricomi's start,
#: max |dx| reaches 1e-15 in at most 4 steps at every resolution MAX_NODES allows
_NEWTON_STEPS = 10


@dataclass(frozen=True, eq=False)
class SphereGrid(_ReadOnlyArrays):
    """Quadrature nodes and weights for the unit sphere S^(dim-1) in R^dim.

    The weights sum to the sphere's surface measure (2*pi for dimension 2,
    4*pi for dimension 3), and the grid exposes itself as a
    :class:`MeasureSpace` so densities and divergences apply directly.
    """

    dimension: int
    nodes: np.ndarray
    space: MeasureSpace

    @property
    def weights(self) -> np.ndarray:
        """The quadrature weights: the space's own read-only array."""
        return self.space.weights

    @property
    def n_nodes(self) -> int:
        return self.nodes.shape[0]

    def __repr__(self) -> str:
        return f"SphereGrid(dim={self.dimension}, nodes={self.n_nodes})"


@dataclass(frozen=True)
class EllipsoidBody:
    """An origin-centered ellipsoid given by its semi-axes (a ball when all
    axes coincide)."""

    semi_axes: tuple[float, ...]

    def __post_init__(self) -> None:
        axes = tuple(_real("ellipsoid", "semi_axes", a) for a in self.semi_axes)
        if not axes:
            raise MixdivError("an ellipsoid needs at least one semi-axis")
        if any(a <= 0.0 for a in axes):
            raise MixdivError(f"semi-axes must be finite and > 0: {axes!r}")
        # h lies in [min a, max a] on unit normals, so these extremes bound the logs
        # of a**2, h**(n+1), h**-n, (prod a)**2, f = (prod a)**2 / h**(n+1) and f*h
        logs = [math.log(a) for a in axes]
        n, vol, ends = len(axes), 2.0 * math.fsum(logs), (min(logs), max(logs))
        bounds = [c - k * x for c in (0.0, vol) for k in (0, n, n + 1) for x in ends]
        if max(map(abs, bounds)) > _LOG_RANGE:
            raise MixdivError(f"semi-axes {axes!r} give boundary data beyond float range")
        object.__setattr__(self, "semi_axes", axes)

    @property
    def dimension(self) -> int:
        return len(self.semi_axes)


def ball(radius: float, dimension: int) -> EllipsoidBody:
    """The ball of the given radius as an ellipsoid with equal axes."""
    return EllipsoidBody(semi_axes=(float(radius),) * dimension)


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1]: ascending nodes and their
    weights, exactly mirror-symmetric (see the module docstring)."""
    # Tricomi's cos(pi (4k - 1) / (4n + 2)) for k = 1..ceil(n/2), as a sine,
    # which is exactly 0 at the middle root of odd n, where P_n(0) is exactly 0
    x = (1.0 - (n - 1) / (8.0 * n**3)) * np.sin(math.pi * np.arange(n - 1, -1, -2) / (2 * n + 1))
    recurrence = [((2 * j - 1) / j, (j - 1) / j) for j in range(2, n + 1)]
    for _ in range(_NEWTON_STEPS):
        p_prev, p = np.ones_like(x), x  # P_0, P_1
        for a, b in recurrence:
            p_prev, p = p, a * x * p - b * p_prev
        dp = n * (x * p - p_prev) / (x * x - 1.0)  # P_n'
        dx = p / dp
        x = x - dx
        if np.max(np.abs(dx)) <= 1e-15:
            break
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    nodes = np.concatenate([-x[:n // 2], x[::-1]])
    weights = np.concatenate([w[:n // 2], w[::-1]])
    return nodes, weights * (2.0 / weights.sum())


def sphere_grid(dimension: int, resolution: int | None = None) -> SphereGrid:
    """Build a quadrature grid for S^(dim-1), dimension 2 or 3.

    ``resolution`` is the number of polar nodes (dimension 3 also uses
    2 * resolution azimuthal nodes). Defaults per dimension are chosen so
    smooth closed-form test integrands converge well below 1e-6 relative.
    A grid of more than :data:`MAX_NODES` nodes raises before it allocates.

    The polar rule of dimension 3 is Gauss-Legendre in cos(polar), found in
    O(resolution**2) time: Tricomi's start, Newton on the three-term
    recurrence, and weights renormalized to sum to 2 (module docstring).
    """
    if dimension not in (2, 3):
        raise UnsupportedDimension(f"dimension {dimension} not supported (2 or 3 only)")
    if resolution is None:
        resolution = DEFAULT_RESOLUTION[dimension]
    resolution = int(resolution)
    if resolution < 4:
        raise MixdivError(f"resolution {resolution} too small; need >= 4")
    n_nodes = resolution if dimension == 2 else 2 * resolution**2
    if n_nodes > MAX_NODES:
        raise MixdivError(f"resolution {resolution} gives {n_nodes} nodes; at most {MAX_NODES}")
    if dimension == 2:
        theta = 2.0 * math.pi * np.arange(resolution) / resolution
        columns = [np.cos(theta), np.sin(theta)]
        weights = np.full(resolution, 2.0 * math.pi / resolution)
    else:
        x, w = _gauss_legendre(resolution)  # x = cos(polar)
        m_az = 2 * resolution
        phi = 2.0 * math.pi * np.arange(m_az) / m_az
        sin_polar = np.sqrt(1.0 - x**2)
        columns = [np.outer(sin_polar, np.cos(phi)).ravel(),
                   np.outer(sin_polar, np.sin(phi)).ravel(), np.repeat(x, m_az)]
        weights = np.outer(w, np.full(m_az, 2.0 * math.pi / m_az)).ravel()
    # row norms from the contiguous columns, summed left to right as
    # (x*x + y*y) + z*z, the bits of np.linalg.norm; each column is divided
    # straight into the node array
    norm = np.sqrt(sum(column * column for column in columns))
    nodes = np.empty((n_nodes, dimension))
    for j, column in enumerate(columns):
        np.divide(column, norm, out=nodes[:, j])
    nodes.setflags(write=False)
    return SphereGrid(dimension=dimension, nodes=nodes, space=make_space(weights))


def support_values(body: EllipsoidBody, grid: SphereGrid) -> np.ndarray:
    """h(u) = sqrt(sum a_i^2 u_i^2) at every grid node."""
    if body.dimension != grid.dimension:
        raise DimensionMismatch(
            f"body dimension {body.dimension} vs grid dimension {grid.dimension}"
        )
    a2 = np.asarray(body.semi_axes) ** 2
    return np.sqrt(grid.nodes**2 @ a2)


def curvature_values(body: EllipsoidBody, grid: SphereGrid) -> np.ndarray:
    """f(u) = (prod a_i)^2 / h(u)^(n+1) at every grid node."""
    return _curvature(body, support_values(body, grid))


def _curvature(body: EllipsoidBody, h: np.ndarray) -> np.ndarray:
    vol_factor = math.prod(body.semi_axes) ** 2
    return vol_factor / h ** (body.dimension + 1)


def body_densities(body: EllipsoidBody, grid: SphereGrid) -> tuple[Density, Density]:
    """The cone-measure densities (p, q) = (h^(-n), f*h) over the grid.

    These are not probability densities; they are validated as raw positive
    densities on the grid's measure space.
    """
    h = support_values(body, grid)
    f = _curvature(body, h)
    n = grid.dimension
    p = validate_density(grid.space, h ** (-n), require_prob=False)
    q = validate_density(grid.space, f * h, require_prob=False)
    return p, q


def mixed_affine_surface_area(
    bodies: Sequence[EllipsoidBody],
    generators: Sequence[Generator],
    grid: SphereGrid,
) -> float:
    """Mixed divergence of the n bodies' cone measures over the grid.

    The number of bodies must equal the grid dimension (the ambient
    exponent base), and each body must match the grid dimension.
    """
    if len(bodies) != grid.dimension:
        raise DimensionMismatch(
            f"{len(bodies)} bodies for dimension {grid.dimension}; need one per dimension"
        )
    if len(generators) != len(bodies):
        raise DimensionMismatch(f"{len(generators)} generators for {len(bodies)} bodies")
    return mixed_divergence(_triples(generators, bodies, grid))


def ith_mixed_affine_surface_area(
    body1: EllipsoidBody,
    body2: EllipsoidBody,
    generators: Sequence[Generator],
    i: float,
    grid: SphereGrid,
) -> float:
    """Two-body interpolated variant with exponents i/n and (n-i)/n,
    n being the grid dimension. Endpoints i=0 and i=n reduce to the
    single-body values of body2 and body1."""
    return _ith_mixed_areas(body1, body2, generators, [i], grid)[0]


def _ith_mixed_areas(
    body1: EllipsoidBody,
    body2: EllipsoidBody,
    generators: Sequence[Generator],
    i_values: Sequence[float],
    grid: SphereGrid,
) -> list[float]:
    """:func:`ith_mixed_affine_surface_area` at each index, with each body's
    triple built once."""
    if len(generators) != 2:
        raise DimensionMismatch(f"need exactly 2 generators, got {len(generators)}")
    pair1, pair2 = _triples(generators, [body1, body2], grid)
    return _ith_mixed_grid(pair1, pair2, [float(i) for i in i_values], grid.dimension)


def _triples(generators: Sequence[Generator], bodies: Sequence[EllipsoidBody],
             grid: SphereGrid) -> list[PairTriple]:
    """One triple per slot, built once per distinct (generator object, body):
    equal slots share its densities and cached log-factors. (A generator
    hashes by identity, a body by its semi-axes.)"""
    triple = functools.cache(lambda g, b: PairTriple(g, *body_densities(b, grid)))
    return [triple(g, b) for g, b in zip(generators, bodies)]
