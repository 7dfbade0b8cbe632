"""Exact facet counting for spherical convex hulls, via two independent routes.

A d-subset of points on S^d spans a facet of the spherical hull exactly
when the linear hyperplane through it leaves all remaining points strictly
on one side.  facets_ambient applies this definition to every d-subset in
the ambient space; facets_projected maps the cloud through the gnomonic
projection at the wedge center, where spherical facets correspond one to
one with Euclidean hull facets, and reads them off a planar chain (d=2)
or Qhull (d >= 3).  The two routes share no facet code and serve as
mutual oracles.

Facet identity is the sorted tuple of input indices; orientation is
discarded.  Configurations with ambiguous signs (probability zero for the
continuous models) are excluded from the facet set and flagged.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import DegenerateInput, DomainError, ResourceLimit
from .geometry import BLOCK_ROWS, WedgeModel, determinant, gnomonic_project, row_blocks, row_norms
from .sampling import SampleCloud

SIGN_TOL = 1e-10
_AMBIENT_CAP_HIGH_D = 120
_QHULL_FALLBACK_CAP = 60
# Shewchuk's orient2d error bound (3 + 16 eps) eps, with eps = 2^-53
_ORIENT_BOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_ORIENT_UNDERFLOW = 2.0 ** -1070


@dataclass(frozen=True)
class FacetSet:
    """Facets as sorted index tuples, plus the hull vertex count."""

    facets: frozenset
    vertex_count: int
    degenerate_flag: bool = False

    @property
    def facet_count(self) -> int:
        return len(self.facets)


def _cloud_points(cloud) -> np.ndarray:
    points = cloud.points if isinstance(cloud, SampleCloud) else np.asarray(cloud, float)
    if points.ndim != 2 or points.shape[1] < 3:
        raise DomainError("expected an (n, d+1) point array with d >= 2")
    return points


def _subset_batches(n: int, d: int):
    combos = itertools.combinations(range(n), d)
    while True:
        flat = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(combos, BLOCK_ROWS)),
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
        normals[:, i] = (-1.0) ** i * determinant(minor)
    return normals


def euler_relation_holds(facets, vertex_count: int, d: int) -> bool:
    """Whether simplicial facets on vertex_count vertices count like a (d-1)-sphere.

    The k-faces are the (k+1)-subsets of the facets (sorted index tuples),
    and their counts f_k must satisfy f_0 = vertex_count and the
    Euler-Poincare relation f_0 - f_1 + ... + (-1)^(d-1) f_(d-1) = 1 - (-1)^d
    of a simplicial d-polytope's boundary (Ziegler, Lectures on Polytopes,
    1995, ch. 8).
    """
    total = 0
    for k in range(1, d + 1):
        faces = {face for facet in facets for face in itertools.combinations(facet, k)}
        if k == 1 and len(faces) != vertex_count:
            return False
        total += (-1) ** (k - 1) * len(faces)
    return total == 1 - (-1) ** d


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
        z_norms = row_norms(normals)
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


def _orient(p, q, r) -> int:
    """Sign of the turn p -> q -> r: +1 left, -1 right, 0 collinear.

    Uses the float cross product when its magnitude exceeds Shewchuk's static
    error bound for this expression (DCG 1997: orient2d's errboundA), which
    also covers the rounding of the coordinate differences; otherwise it
    re-evaluates in exact rational arithmetic.  The tiny absolute term covers
    products that underflow, where the relative bound does not hold.
    """
    t1 = (q[0] - p[0]) * (r[1] - p[1])
    t2 = (q[1] - p[1]) * (r[0] - p[0])
    det = t1 - t2
    if abs(det) > _ORIENT_BOUND * (abs(t1) + abs(t2)) + _ORIENT_UNDERFLOW:
        return 1 if det > 0 else -1
    a = (Fraction(q[0]) - Fraction(p[0])) * (Fraction(r[1]) - Fraction(p[1]))
    b = (Fraction(q[1]) - Fraction(p[1])) * (Fraction(r[0]) - Fraction(p[0]))
    exact = a - b
    return (exact > 0) - (exact < 0)


def _extreme_picks(x: np.ndarray, y: np.ndarray) -> list:
    """First indices of the maxima of x, x + y, y, y - x, then of their minima.

    Read block by block; a later block's extreme replaces an earlier one only
    when strictly better, so ties keep the first index, as argmax does.
    """
    best = None
    for rows in row_blocks(x.size):
        bx, by = x[rows], y[rows]
        rays = (bx, bx + by, by, by - bx)
        highs = [int(r.argmax()) for r in rays]
        lows = [int(r.argmin()) for r in rays]
        found = [(float(r[i]), rows.start + i) for r, i in zip(rays, highs)]
        found += [(-float(r[i]), rows.start + i) for r, i in zip(rays, lows)]
        if best is None:
            best = found
        else:
            best = [new if new[0] > old[0] else old for old, new in zip(best, found)]
    return [i for _, i in best]


def _prune_interior(coords: np.ndarray) -> np.ndarray:
    """Ascending indices of the points that may lie on the hull boundary.

    Stage one is the extreme-octagon filter (Akl & Toussaint, IPL 1978).
    The argmax points of the directions (1,0), (1,1), (0,1), (-1,1) and
    their negatives, taken in that counterclockwise order with cyclic
    repeats dropped, form a convex polygon in counterclockwise order; a
    point left of every edge by the margin lies strictly inside it.  Two
    distinct extremes (a heavy-tailed strip) give the segment between them,
    taken both ways: stage one then drops nothing, and stage two starts
    from those two edges.

    Stage two runs quickhull passes (Eddy, ACM TOMS 1977; Barber, Dobkin &
    Huhdanpaa, ACM TOMS 1996) on the survivors, all edges in one array pass
    per round.  Each survivor clearly outside an edge joins the first such
    edge; each edge takes its farthest point f, whose triangle (a, f, b) is
    then tested, and the points clearly outside (a, f) or (f, b) go on to
    the next round.

    A point is dropped only when it lies left of every edge of the octagon
    polygon, or of a triangle (a, f, b), by the margin.  Those vertices are
    input points, so a dropped point is strictly inside the hull: hull
    vertices and points on hull edges always survive, and points within the
    margin of any edge stay candidates for the exact chain to decide.
    """
    n = coords.shape[0]
    # no copy when coords is the transpose of contiguous x/y rows
    x, y = np.ascontiguousarray(coords.T, dtype=float)
    picks = _extreme_picks(x, y)
    extremes = [i for k, i in enumerate(picks) if i != picks[k - 1]]
    if len(set(extremes)) < 2:
        return np.arange(n)
    # the largest |coordinate|, read off the extremes of x and y
    scale = max(x[picks[0]], -x[picks[4]], y[picks[2]], -y[picks[6]])
    margin = 1e-9 * (float(scale) or 1.0)
    # Stage one, every edge at once, block by block into reused scratch:
    # left = ex*y - ey*x - (ex*ay - ey*ax); only the survivors' columns stay.
    start = np.array(extremes)
    end = np.array(extremes[1:] + extremes[:1])
    ex, ey = x[end] - x[start], y[end] - y[start]
    offset = ex * y[start] - ey * x[start]
    slack = margin * np.hypot(ex, ey)
    bound = (offset + slack)[:, None]
    blocks = row_blocks(n)
    scratch = np.empty((2, ex.size, max(rows.stop - rows.start for rows in blocks)))
    kept_ids, kept_left = [], []
    for rows in blocks:
        bx, by = x[rows], y[rows]
        block, cross = scratch[:, :, : bx.size]
        np.multiply.outer(ex, by, out=block)
        block -= np.multiply.outer(ey, bx, out=cross)
        near = (~(block > bound).all(axis=0)).nonzero()[0]
        kept_ids.append(near + rows.start)
        kept_left.append(block[:, near])
    survivors = np.concatenate(kept_ids)
    left = np.concatenate(kept_left, axis=1) - offset[:, None]
    outside = left < -slack[:, None]
    keep = ~outside.any(axis=0)
    live = (~keep).nonzero()[0]
    if not live.size:
        return survivors
    # Stage two on survivor-local ids; each live point carries its edge (a, b).
    owner = outside[:, live].argmax(axis=0)
    depth = left[owner, live]
    a = survivors.searchsorted(start)[owner]
    b = survivors.searchsorted(end)[owner]
    z = x[survivors] + 1j * y[survivors]
    while True:
        # group by edge, farthest (most negative depth) first
        order = np.lexsort((depth, b, a))
        live, a, b = live[order], a[order], b[order]
        head = np.empty(live.size, dtype=bool)
        head[0] = True
        head[1:] = (a[1:] != a[:-1]) | (b[1:] != b[:-1])
        far = live[head]
        keep[far] = True
        f = far[head.cumsum() - 1]
        rest = ~head
        if not rest.any():
            return survivors[keep]
        live, a, b, f = live[rest], a[rest], b[rest], f[rest]
        # the triangle (a, f, b) is counterclockwise; f becomes a vertex
        p, za, zf = z[live], z[a], z[f]
        d1, d2 = zf - za, z[b] - zf
        s1 = (d1.conj() * (p - za)).imag
        s2 = (d2.conj() * (p - zf)).imag
        t1, t2 = margin * abs(d1), margin * abs(d2)
        out1 = s1 < -t1
        onward = out1 | (s2 < -t2)
        keep[live[~onward & ~((s1 > t1) & (s2 > t2))]] = True
        if not onward.any():
            return survivors[keep]
        live = live[onward]
        out1 = out1[onward]
        a = np.where(out1, a[onward], f[onward])
        b = np.where(out1, f[onward], b[onward])
        depth = np.where(out1, s1[onward], s2[onward])


def _hull2d(coords: np.ndarray):
    """Monotone chain on the filter's survivors; returns (edges, ccw vertex ids, flag)."""
    if coords.shape[0] == 2:
        return [(0, 1)], [0, 1], False
    candidates = _prune_interior(coords)
    sub = coords[candidates]
    order = np.lexsort((sub[:, 1], sub[:, 0]))
    ids = candidates[order].tolist()
    # Python floats: scalar arithmetic on them is far cheaper than on numpy scalars
    xy = sub[order].tolist()
    degenerate = False

    def build(sequence):
        nonlocal degenerate
        chain: list[int] = []
        for k in sequence:
            while len(chain) >= 2:
                turn = _orient(xy[chain[-2]], xy[chain[-1]], xy[k])
                if turn == 0:
                    degenerate = True
                if turn > 0:
                    break
                chain.pop()
            chain.append(k)
        return [ids[k] for k in chain]

    lower = build(range(len(ids)))
    upper = build(range(len(ids) - 1, -1, -1))
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

    The monotone chain with exact-sign fallback at d=2, Qhull at every
    d >= 3.  When Qhull rejects a small input (at most _QHULL_FALLBACK_CAP
    points, such as d points spanning no full-dimensional hull), the
    ambient scan answers instead.  Qhull's hull is flagged when it reports
    coplanar points or its facets fail euler_relation_holds.
    """
    points = _cloud_points(cloud)
    if not isinstance(cloud, SampleCloud):
        raise DomainError("facets_projected needs a SampleCloud (the projection center)")
    model: WedgeModel = cloud.model
    n, amb = points.shape
    d = amb - 1
    if n < d:
        raise DomainError(f"need at least d={d} points, got {n}")
    # Contiguous coordinate columns, written block by block; coords is their
    # (n, d) transpose, so _prune_interior reads them without a copy.  One
    # matrix-vector product per basis vector: no small-matrix BLAS call.
    columns = np.empty((d, n))
    for rows in row_blocks(n):
        tangent = gnomonic_project(model.center, points[rows])
        for axis, out in zip(model.basis.T, columns[:, rows]):
            np.matmul(tangent, axis, out=out)
    coords = columns.T
    if d == 2:
        edges, vertices, degenerate = _hull2d(coords)
        return FacetSet(
            facets=frozenset(edges), vertex_count=len(vertices), degenerate_flag=degenerate
        )
    # imported here so that a d = 2 process never loads scipy
    from scipy.spatial import ConvexHull, QhullError

    try:
        hull = ConvexHull(coords)
    except QhullError as exc:
        if n <= _QHULL_FALLBACK_CAP:
            return facets_ambient(cloud)
        raise DegenerateInput(f"hull construction failed for n={n}, d={d}") from exc
    facets = frozenset(tuple(sorted(int(i) for i in simplex)) for simplex in hull.simplices)
    vertex_count = len(hull.vertices)
    degenerate = len(hull.coplanar) > 0 or not euler_relation_holds(facets, vertex_count, d)
    return FacetSet(facets=facets, vertex_count=vertex_count, degenerate_flag=degenerate)
