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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .divergence import PairTriple, _ith_mixed_grid, mixed_divergence
from .errors import DimensionMismatch, MixdivError, UnsupportedDimension
from .generators import Generator, _real
from .measures import Density, MeasureSpace, make_space, validate_density

#: default polar resolution per dimension
DEFAULT_RESOLUTION = {2: 256, 3: 64}

#: the most nodes a grid may have: 32 MiB for each float64 value per node
MAX_NODES = 2**22

#: bound on |log| of a body's boundary data: normal floats, with headroom
_LOG_RANGE = 1021 * math.log(2.0)


@dataclass(frozen=True, eq=False)
class SphereGrid:
    """Quadrature nodes and weights for the unit sphere S^(dim-1) in R^dim.

    The weights sum to the sphere's surface measure (2*pi for dimension 2,
    4*pi for dimension 3), and the grid exposes itself as a
    :class:`MeasureSpace` so densities and divergences apply directly.
    """

    dimension: int
    nodes: np.ndarray
    weights: np.ndarray
    space: MeasureSpace

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


def sphere_grid(dimension: int, resolution: int | None = None) -> SphereGrid:
    """Build a quadrature grid for S^(dim-1), dimension 2 or 3.

    ``resolution`` is the number of polar nodes (dimension 3 also uses
    2 * resolution azimuthal nodes). Defaults per dimension are chosen so
    smooth closed-form test integrands converge well below 1e-6 relative.
    A grid of more than :data:`MAX_NODES` nodes raises before it allocates.
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
        nodes = np.column_stack([np.cos(theta), np.sin(theta)])
        weights = np.full(resolution, 2.0 * math.pi / resolution)
    else:
        x, w = np.polynomial.legendre.leggauss(resolution)  # x = cos(polar)
        m_az = 2 * resolution
        phi = 2.0 * math.pi * np.arange(m_az) / m_az
        sin_polar = np.sqrt(1.0 - x**2)
        nodes = np.empty((resolution * m_az, 3))
        nodes[:, 0] = np.outer(sin_polar, np.cos(phi)).ravel()
        nodes[:, 1] = np.outer(sin_polar, np.sin(phi)).ravel()
        nodes[:, 2] = np.repeat(x, m_az)
        weights = np.outer(w, np.full(m_az, 2.0 * math.pi / m_az)).ravel()
    nodes = nodes / np.linalg.norm(nodes, axis=1, keepdims=True)
    nodes.setflags(write=False)
    return SphereGrid(
        dimension=dimension,
        nodes=nodes,
        weights=weights,
        space=make_space(weights),
    )


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
    triples = [
        PairTriple(g, *body_densities(b, grid)) for g, b in zip(generators, bodies)
    ]
    return mixed_divergence(triples)


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
    densities built once."""
    if len(generators) != 2:
        raise DimensionMismatch(f"need exactly 2 generators, got {len(generators)}")
    pair1 = PairTriple(generators[0], *body_densities(body1, grid))
    pair2 = PairTriple(generators[1], *body_densities(body2, grid))
    return _ith_mixed_grid(pair1, pair2, [float(i) for i in i_values], grid.dimension)
