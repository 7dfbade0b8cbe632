"""Exact facet counting for spherical convex hulls, via two independent routes.

A d-subset of points on S^d spans a facet of the spherical hull exactly
when the linear hyperplane through it leaves all remaining points strictly
on one side.  facets_ambient applies this definition to every d-subset in
the ambient space; facets_projected maps the cloud through the gnomonic
projection at the wedge center, where spherical facets correspond one to
one with Euclidean hull facets, and reads them off a planar or spatial
hull.  The two implementations share no geometry code and serve as mutual
oracles.

Facet identity is the sorted tuple of input indices; orientation is
discarded.  Configurations with ambiguous signs (probability zero for the
continuous models) are excluded from the facet set and flagged.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DegenerateInput, DomainError, ResourceLimit
from .geometry import WedgeModel, gnomonic_project, orthonormal_complement
from .sampling import SampleCloud

SIGN_TOL = 1e-10
_AMBIENT_CAP_HIGH_D = 120
_SUBSET_CHUNK = 1 << 14
_QHULL_FALLBACK_CAP = 60
# Counterclockwise angular order, which _prune_interior relies on.
_OCTAGON = np.array(
    [[1, 0], [1, 1], [0, 1], [-1, 1], [-1, 0], [-1, -1], [0, -1], [1, -1]], float
)


@dataclass(frozen=True)
class FacetSet:
    """Facets as sorted index tuples, plus the hull vertex count."""

    facets: frozenset
    vertex_count: int
    degenerate_flag: bool = False

    @property
    def facet_count(self) -> int:
        return len(self.facets)

    def vertex_indices(self) -> tuple:
        return tuple(sorted({i for facet in self.facets for i in facet}))


def _cloud_points(cloud) -> np.ndarray:
    points = cloud.points if isinstance(cloud, SampleCloud) else np.asarray(cloud, float)
    if points.ndim != 2 or points.shape[1] < 3:
        raise DomainError("expected an (n, d+1) point array with d >= 2")
    return points


def _subset_batches(n: int, d: int):
    combos = itertools.combinations(range(n), d)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, _SUBSET_CHUNK)),
            dtype=np.int64,
        )
        if flat.size == 0:
            return
        yield flat.reshape(-1, d)


def _generalized_cross(stack: np.ndarray) -> np.ndarray:
    # Row i of the result is the cofactor (-1)^i det(stack minus column i),
    # the unique direction orthogonal to all d rows (up to sign and scale).
    m, d, amb = stack.shape
    normals = np.empty((m, amb))
    for i in range(amb):
        minor = np.delete(stack, i, axis=2)
        normals[:, i] = (-1.0) ** i * np.linalg.det(minor)
    return normals


def facets_ambient(cloud) -> FacetSet:
    """Exhaustive facet scan over all d-subsets in ambient coordinates.

    O(C(n, d) * n); dimension-generic.  Subsets whose hyperplane leaves
    some other point within tolerance of zero are excluded and flagged.
    """
    points = _cloud_points(cloud)
    n, amb = points.shape
    d = amb - 1
    if n < d:
        raise DomainError(f"need at least d={d} points, got {n}")
    if d >= 4 and n > _AMBIENT_CAP_HIGH_D:
        raise ResourceLimit(f"exhaustive scan capped at n={_AMBIENT_CAP_HIGH_D} for d>=4")
    facets = set()
    degenerate = False
    for subsets in _subset_batches(n, d):
        stack = points[subsets]
        normals = _generalized_cross(stack)
        z_norms = np.linalg.norm(normals, axis=1)
        dots = normals @ points.T
        scale = np.maximum(np.abs(dots).max(axis=1), z_norms)
        thr = SIGN_TOL * np.maximum(scale, 1e-300)
        pos = (dots > thr[:, None]).sum(axis=1)
        neg = (dots < -thr[:, None]).sum(axis=1)
        own = np.take_along_axis(dots, subsets, axis=1)
        own_clean = (np.abs(own) <= thr[:, None]).all(axis=1)
        ambiguous = (n - d) - pos - neg
        clean = own_clean & (z_norms > 1e-12) & (ambiguous == 0)
        is_facet = clean & ((pos == 0) | (neg == 0))
        if not bool(np.all(clean)):
            degenerate = True
        for row in subsets[is_facet]:
            facets.add(tuple(int(i) for i in row))
    vertex_count = len({i for facet in facets for i in facet})
    return FacetSet(facets=frozenset(facets), vertex_count=vertex_count, degenerate_flag=degenerate)


def _orient(p: np.ndarray, q: np.ndarray, r: np.ndarray) -> int:
    """Sign of the turn p -> q -> r: +1 left, -1 right, 0 collinear.

    Uses the float cross product when its magnitude is safely above the
    rounding error, otherwise re-evaluates in exact rational arithmetic.
    """
    t1 = (q[0] - p[0]) * (r[1] - p[1])
    t2 = (q[1] - p[1]) * (r[0] - p[0])
    det = t1 - t2
    if abs(det) > 1e-12 * (abs(t1) + abs(t2)):
        return 1 if det > 0 else -1
    a = (Fraction(q[0]) - Fraction(p[0])) * (Fraction(r[1]) - Fraction(p[1]))
    b = (Fraction(q[1]) - Fraction(p[1])) * (Fraction(r[0]) - Fraction(p[0]))
    exact = a - b
    return (exact > 0) - (exact < 0)


def _prune_interior(coords: np.ndarray) -> np.ndarray:
    """Indices that survive a conservative extreme-octagon interior filter.

    The argmax points of the eight directions, taken in the directions'
    counterclockwise order with cyclic repeats dropped, form a convex
    polygon in counterclockwise order; a point left of every edge by a
    margin lies strictly inside it and cannot be a hull vertex.
    """
    n = coords.shape[0]
    picks = [int(np.argmax(coords @ direction)) for direction in _OCTAGON]
    extremes = [i for k, i in enumerate(picks) if i != picks[k - 1]]
    if len(set(extremes)) < 3:
        return np.arange(n)
    x, y = coords[:, 0], coords[:, 1]
    margin = 1e-9 * (float(np.abs(coords).max()) or 1.0)
    inside = np.ones(n, dtype=bool)
    for a, b in zip(extremes, extremes[1:] + extremes[:1]):
        ex, ey = coords[b] - coords[a]
        cross = ex * (y - coords[a, 1]) - ey * (x - coords[a, 0])
        inside &= cross > margin * math.hypot(ex, ey)
    inside[extremes] = False
    return np.flatnonzero(~inside)


def _hull2d(coords: np.ndarray):
    """Monotone chain on the filter's survivors; returns (edges, ccw vertex ids, flag)."""
    if coords.shape[0] == 2:
        return [(0, 1)], [0, 1], False
    candidates = _prune_interior(coords)
    sub = coords[candidates]
    order = candidates[np.lexsort((sub[:, 1], sub[:, 0]))]
    degenerate = False

    def build(sequence):
        nonlocal degenerate
        chain: list[int] = []
        for idx in sequence:
            while len(chain) >= 2:
                turn = _orient(coords[chain[-2]], coords[chain[-1]], coords[idx])
                if turn == 0:
                    degenerate = True
                if turn > 0:
                    break
                chain.pop()
            chain.append(int(idx))
        return chain

    lower = build(order)
    upper = build(order[::-1])
    vertices = lower[:-1] + upper[:-1]
    if len(vertices) < 3:
        # all candidate points collinear (or coincident)
        vertices = sorted(set(lower))
        return [tuple(sorted((vertices[0], vertices[-1])))], vertices, True
    edges = [
        tuple(sorted((vertices[k], vertices[(k + 1) % len(vertices)])))
        for k in range(len(vertices))
    ]
    return edges, vertices, degenerate


def facets_projected(cloud) -> FacetSet:
    """Facets via gnomonic projection and a Euclidean convex hull.

    Monotone chain with exact-sign fallback for d=2, Qhull for d=3 (with an
    ambient re-check on small degenerate inputs), ambient scan for d >= 4.
    """
    points = _cloud_points(cloud)
    if not isinstance(cloud, SampleCloud):
        raise DomainError("facets_projected needs a SampleCloud (the projection center)")
    model: WedgeModel = cloud.model
    n, amb = points.shape
    d = amb - 1
    if n < d:
        raise DomainError(f"need at least d={d} points, got {n}")
    if d >= 4:
        return facets_ambient(cloud)
    basis = orthonormal_complement(model.center)
    tangent = gnomonic_project(model.center, points)
    # column by column: matrix-vector products, no small-matrix BLAS call
    coords = np.column_stack([tangent @ column for column in basis.T])
    if d == 2:
        edges, vertices, degenerate = _hull2d(coords)
        return FacetSet(
            facets=frozenset(edges), vertex_count=len(vertices), degenerate_flag=degenerate
        )
    if n <= d + 1:
        return facets_ambient(cloud)
    try:
        hull = ConvexHull(coords)
    except QhullError as exc:
        if n <= _QHULL_FALLBACK_CAP:
            return facets_ambient(cloud)
        raise DegenerateInput(f"hull construction failed for n={n}, d={d}") from exc
    facets = frozenset(tuple(sorted(int(i) for i in simplex)) for simplex in hull.simplices)
    vertex_count = len(hull.vertices)
    degenerate = len(hull.coplanar) > 0 or len(facets) != 2 * vertex_count - 4
    return FacetSet(facets=facets, vertex_count=vertex_count, degenerate_flag=degenerate)
