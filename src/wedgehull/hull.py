"""Exact facet counting for spherical convex hulls, via two independent routes.

A d-subset of points on S^d spans a facet of the spherical hull exactly
when the linear hyperplane through it leaves all remaining points strictly
on one side.  facets_ambient applies this definition to every d-subset in
the ambient space; facets_projected maps the cloud through the gnomonic
projection at the wedge center, where spherical facets correspond one to
one with Euclidean hull facets, and reads them off a planar chain (d=2)
or Qhull (d >= 3).  At d = 2 planar_facets reads the points block by
block, so a sampler's blocks can stream into it without a cloud being
built.  The routes are mutual oracles and share no facet
code, except that facets_projected returns the ambient scan's answer when
Qhull rejects a d >= 3 cloud of at most _QHULL_FALLBACK_CAP points.

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
from .geometry import (
    BLOCK_ROWS,
    WedgeModel,
    cofactor_normals,
    gnomonic_project,
    row_blocks,
    row_norms,
)
from .sampling import SampleCloud

SIGN_TOL = 1e-10
_AMBIENT_CAP_HIGH_D = 120
_QHULL_FALLBACK_CAP = 60
# Shewchuk's orient2d error bound (3 + 16 eps) eps, with eps = 2^-53
_ORIENT_BOUND = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53
_ORIENT_UNDERFLOW = 2.0 ** -1070
# Most points that the octagon tests against every edge in one (edges, m)
# array; small clouds then pay a few numpy calls instead of five per edge.
_OUTER_ROWS = 256


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
    if not isinstance(cloud, SampleCloud):
        raise DomainError(f"expected a SampleCloud, got {type(cloud).__name__}")
    return cloud.points


def _subset_batches(n: int, d: int):
    """The d-subsets of range(n) in lexicographic order, BLOCK_ROWS rows at a time.

    The same blocks as itertools.combinations cut by islice(BLOCK_ROWS),
    built in numpy.  The table of prefixes grows one position k at a time:
    a prefix whose entry k-1 is p goes on with each of p+1, ..., n-d+k, so
    np.repeat copies its row that many times, and column k numbers the
    copies from the run ends that cumsum gives.  The last position is
    expanded the same way, but one block at a time from the runs the block
    overlaps, so memory stays at the table of (d-1)-prefixes plus a block.
    """
    table = np.full((1, d), -1, dtype=np.int64)
    for k in range(d):
        # at k = 0, column k - 1 is the last column, still at its fill value -1
        counts = n - d + k - table[:, k - 1]
        ends = counts.cumsum()
        table[:, k] = n - d + k + 1 - ends
        if k == d - 1:
            break
        table = np.repeat(table, counts, axis=0)
        table[:, k] += np.arange(len(table))
    total = int(ends[-1])
    for start in range(0, total, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, total)
        first, final = ends.searchsorted((start, stop - 1), side="right")
        # the rows of each overlapped run inside [start, stop)
        runs = counts[first : final + 1].copy()
        runs[0] -= start - (ends[first] - counts[first])
        runs[-1] -= ends[final] - stop
        block = np.repeat(table[first : final + 1], runs, axis=0)
        block[:, -1] += np.arange(start, stop)
        yield block


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


def facets_ambient(cloud: SampleCloud) -> FacetSet:
    """Exhaustive facet scan over all d-subsets in ambient coordinates.

    O(C(n, d) * n); dimension-generic.  Subsets whose hyperplane leaves
    some other point within tolerance of zero are excluded and flagged.

    Subsets are scanned in blocks of m, one column per subset: the block's
    normals are a C-ordered (d+1, m) array, the dots of every point with
    every normal an (n, m) array, and each per-subset reduction runs down
    axis 0: the largest |dot|, the count of dots within the threshold, the
    subset's own dots, and the max and min that decide one-sidedness.
    numpy reduces down axis 0 a whole row at a time, while a reduction
    along rows of only n entries pays its setup once per row.  Once the max
    and min are read, the absolute dots overwrite the dots in place, so a
    block allocates no second (n, m) float array.
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
        m = subsets.shape[0]
        # np.take gathers far faster than indexing with a 2-D index array
        normals = cofactor_normals(np.take(points, subsets, axis=0))
        z_norms = row_norms(normals)
        dots = points @ normals.T
        high, low = dots.max(axis=0), dots.min(axis=0)
        scale = np.maximum(np.maximum(high, -low), z_norms)
        thr = SIGN_TOL * np.maximum(scale, 1e-300)
        near = np.abs(dots, out=dots) <= thr
        # near[subsets[s, r], s] for each of the d points r of subset s
        own_clean = np.take(near, subsets.T * m + np.arange(m)).all(axis=0)
        # with its own d points near, a subset is unambiguous when no other
        # point is; an int32 count runs about 3x faster than the default intp
        unambiguous = near.sum(axis=0, dtype=np.int32) == d
        clean = own_clean & (z_norms > 1e-12) & unambiguous
        is_facet = clean & ((high <= thr) | (low >= -thr))
        if not bool(np.all(clean)):
            degenerate = True
        facets.update(map(tuple, subsets[is_facet].tolist()))
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


class _Octagon:
    """The polygon of the eight directional extremes, its edges counterclockwise.

    best[k] is (score, index, x, y) of the extreme of direction k: the
    maxima of x, x + y, y, y - x, then their minima (scored negated).  The
    corners are taken in that counterclockwise order with cyclic repeats
    dropped.  Point p is left of edge k by the margin when its cross product
    ex*py - ey*px exceeds offset + slack.  With fewer than two distinct
    corners the octagon is not proper and leaves every point near; two (a
    heavy-tailed strip) give the segment between them, taken both ways,
    which also leaves every point near.
    """

    def __init__(self, best: list):
        corners = [c for k, c in enumerate(best) if c[1] != best[k - 1][1]]
        self.proper = len({c[1] for c in corners}) >= 2
        if not self.proper:
            return
        ends = corners[1:] + corners[:1]
        self.start = np.array([a[1] for a in corners])
        self.end = np.array([b[1] for b in ends])
        self.ex = np.array([b[2] - a[2] for a, b in zip(corners, ends)])
        self.ey = np.array([b[3] - a[3] for a, b in zip(corners, ends)])
        self.offset = self.ex * [a[3] for a in corners] - self.ey * [a[2] for a in corners]
        # the largest |coordinate|, read off the extremes of x and y
        scale = max(best[0][2], -best[4][2], best[2][3], -best[6][3])
        self.margin = 1e-9 * (scale or 1.0)
        self.slack = self.margin * np.hypot(self.ex, self.ey)
        self.bound = self.offset + self.slack

    def near(self, xy: np.ndarray) -> np.ndarray:
        """Indices of the points of a (2, m) xy not left of every edge by the margin.

        One edge at a time, into (m,) buffers, unless an (edges, m) array is
        small: one of a sampler's block is above malloc's mmap threshold, and
        mapping it afresh for every replicate costs thousands of page faults
        a sweep.  Both ways compute the same products and differences, so a
        point gets the same answer whatever block it comes in.
        """
        x, y = xy
        if x.size <= _OUTER_ROWS:
            cross = np.multiply.outer(self.ex, y) - np.multiply.outer(self.ey, x)
            return (~(cross > self.bound[:, None]).all(axis=0)).nonzero()[0]
        cross, term = np.empty((2, x.size))
        inside, test = np.ones((2, x.size), dtype=bool)
        for ex, ey, bound in zip(self.ex.tolist(), self.ey.tolist(), self.bound.tolist()):
            np.multiply(y, ex, out=cross)
            cross -= np.multiply(x, ey, out=term)
            inside &= np.greater(cross, bound, out=test)
        return np.logical_not(inside, out=inside).nonzero()[0]

    def left(self, xy: np.ndarray) -> np.ndarray:
        """(edges, m) array of how far left of each edge each point lies, times the edge length."""
        x, y = xy
        return np.multiply.outer(self.ex, y) - np.multiply.outer(self.ey, x) - self.offset[:, None]


def _merge_extremes(best: list, ids: np.ndarray, xy: np.ndarray) -> bool:
    """Merge the extremes of the points (ids, xy) into best; whether a corner changed.

    xy is the points' (2, m) coordinates and ids their ascending indices.
    A point replaces a corner when it scores higher, or the same with a
    lower index, so the corners are the first indices of the extremes, as
    argmax gives them, in whatever order the blocks arrive.
    """
    x, y = xy
    rays = (x, x + y, y, y - x)
    picks = [int(ray.argmax()) for ray in rays] + [int(ray.argmin()) for ray in rays]
    scores = [float(rays[k % 4][i]) for k, i in enumerate(picks)]
    changed = False
    for k, i in enumerate(picks):
        score = scores[k] if k < 4 else -scores[k]
        old = best[k]
        if old is None or score >= old[0]:
            index = int(ids[i])
            if old is None or score > old[0] or index < old[1]:
                best[k] = (score, index, float(x[i]), float(y[i]))
                changed = True
    return changed


def _prune(blocks):
    """Candidates for the hull boundary among (start, xy) blocks: (ids, xy), ids ascending.

    xy is a (2, m) array of the block's x and y coordinates.

    Stage one is the extreme-octagon filter (Akl & Toussaint, IPL 1978),
    run as the blocks stream in.  Each block's points that lie left of every
    edge of the octagon of the extremes of the blocks before it (of its own,
    for the first block), by the margin, are dropped at once; the others
    may move the extremes and are kept.  A point strictly inside can never
    be an extreme, so the last octagon is the one of the whole cloud.
    After the last block the kept points that passed an earlier octagon
    are tested against it.

    Stage two runs quickhull passes (Eddy, ACM TOMS 1977; Barber, Dobkin &
    Huhdanpaa, ACM TOMS 1996) on the survivors, all edges in one array pass
    per round.  Each survivor clearly outside an edge joins the first such
    edge; each edge takes its farthest point f, whose triangle (a, f, b) is
    then tested, and the points clearly outside (a, f) or (f, b) go on to
    the next round.

    A point is dropped only when it lies left of every edge of an octagon,
    or of a triangle (a, f, b), by the margin.  Those corners are input
    points, so a dropped point is strictly inside the hull, whichever
    octagon dropped it: hull vertices and points on hull edges always
    survive, and points within the margin of any edge stay candidates for
    the exact chain to decide.
    """
    best = [None] * 8
    octagon = None
    kept = []  # (ids, xy, the octagon they passed)
    for start, block in blocks:
        if octagon is None or not octagon.proper:
            # no octagon yet: the block's own extremes make one, which
            # prunes the block itself
            ids = np.arange(start, start + block.shape[1])
            if ids.size and _merge_extremes(best, ids, block):
                octagon = _Octagon(best)
            if octagon is None or not octagon.proper:
                kept.append((ids, block.copy(), None))
            else:
                near = octagon.near(block)
                kept.append((ids[near], block[:, near], octagon))
            continue
        tested = octagon
        near = octagon.near(block)
        ids, xy = near + start, block[:, near]
        if ids.size and _merge_extremes(best, ids, xy):
            octagon = _Octagon(best)
        kept.append((ids, xy, tested))
    if not kept:
        return np.empty(0, dtype=np.intp), np.empty((2, 0))
    if octagon.proper:
        # points that passed an earlier octagon meet the final one
        for k, (ids, xy, tested) in enumerate(kept):
            if tested is not octagon:
                near = octagon.near(xy)
                kept[k] = (ids[near], xy[:, near], octagon)
    survivors, xy, _ = kept[0]
    if len(kept) > 1:
        survivors = np.concatenate([ids for ids, _, _ in kept])
        xy = np.concatenate([xy for _, xy, _ in kept], axis=1)
    if np.any(survivors[1:] < survivors[:-1]):  # a block held for a redrawn row came last
        order = survivors.argsort()
        survivors, xy = survivors[order], xy[:, order]
    if not octagon.proper:
        return survivors, xy
    left = octagon.left(xy)
    outside = left < -octagon.slack[:, None]
    keep = ~outside.any(axis=0)
    live = (~keep).nonzero()[0]
    if not live.size:
        return survivors, xy
    # Stage two on survivor-local ids; each live point carries its edge (a, b).
    owner = outside[:, live].argmax(axis=0)
    depth = left[owner, live]
    a = survivors.searchsorted(octagon.start)[owner]
    b = survivors.searchsorted(octagon.end)[owner]
    z = xy[0] + 1j * xy[1]
    margin = octagon.margin
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
            break
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
            break
        live = live[onward]
        out1 = out1[onward]
        a = np.where(out1, a[onward], f[onward])
        b = np.where(out1, f[onward], b[onward])
        depth = np.where(out1, s1[onward], s2[onward])
    return survivors[keep], xy[:, keep]


def _chain(ids: np.ndarray, xy: np.ndarray):
    """Monotone chain on the prune's candidates; returns (edges, ccw vertex ids, flag)."""
    if ids.size < 2:
        raise DomainError(f"need at least 2 points, got {ids.size}")
    if ids.size == 2:
        # the prune keeps every point of a segment, so this is a two-point cloud
        return [tuple(ids.tolist())], ids.tolist(), False
    order = np.lexsort(xy[::-1])
    ids = ids[order].tolist()
    # Python floats: scalar arithmetic on them is far cheaper than on numpy scalars
    xy = list(zip(*xy[:, order].tolist()))
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


def _coord_blocks(coords: np.ndarray):
    # (start, xy) blocks of an (n, 2) array of planar points
    xy = np.ascontiguousarray(coords.T, dtype=float)
    for rows in row_blocks(xy.shape[1]):
        yield rows.start, xy[:, rows]


def _hull2d(coords: np.ndarray):
    """The planar hull of an (n, 2) array: (edges, ccw vertex ids, flag)."""
    return _chain(*_prune(_coord_blocks(coords)))


def _chart_blocks(model: WedgeModel, blocks):
    # (start, xy) chart coordinates of (start, points) blocks, in reused
    # rows: one matrix-vector product per basis vector on C-ordered rows, no
    # small-matrix BLAS call, so a row's coordinates do not depend on its
    # block and equal those of a whole-array product.
    columns = np.empty((2, 0))
    for start, block in blocks:
        if len(block) > columns.shape[1]:
            columns = np.empty((2, len(block)))
        tangent = gnomonic_project(model.center, block)
        xy = columns[:, : len(block)]
        for axis, out in zip(model.basis.T, xy):
            np.matmul(tangent, axis, out=out)
        yield start, xy


def planar_facets(model: WedgeModel, blocks) -> FacetSet:
    """Facets of a d = 2 cloud that arrives as (start, points) blocks, in one pass.

    Each block is projected and pruned before the next is read, so no
    array grows with the cloud beyond the prune's survivors; the chain
    then decides the hull among them.  blocks are as
    sampling.uniform_wedge_blocks yields them: together they hold points
    0, ..., n - 1 once each, and a block may be overwritten once the next
    is asked for.
    """
    if model.d != 2:
        raise DomainError(f"planar_facets needs d = 2, got d={model.d}")
    edges, vertices, degenerate = _chain(*_prune(_chart_blocks(model, blocks)))
    return FacetSet(
        facets=frozenset(edges), vertex_count=len(vertices), degenerate_flag=degenerate
    )


def facets_projected(cloud: SampleCloud) -> FacetSet:
    """Facets via gnomonic projection and a Euclidean convex hull.

    The monotone chain with exact-sign fallback at d=2, Qhull at every
    d >= 3.  When Qhull rejects a small input (at most _QHULL_FALLBACK_CAP
    points, such as d points spanning no full-dimensional hull), the
    ambient scan answers instead.  Qhull's hull is flagged when it reports
    coplanar points or its facets fail euler_relation_holds.
    """
    points = _cloud_points(cloud)
    model: WedgeModel = cloud.model
    n, amb = points.shape
    d = amb - 1
    if n < d:
        raise DomainError(f"need at least d={d} points, got {n}")
    if d == 2:
        return planar_facets(model, ((rows.start, points[rows]) for rows in row_blocks(n)))
    # Contiguous coordinate columns, written block by block, and their (n, d)
    # transpose.  One matrix-vector product per basis vector: no small-matrix
    # BLAS call.
    columns = np.empty((d, n))
    for rows in row_blocks(n):
        tangent = gnomonic_project(model.center, points[rows])
        for axis, out in zip(model.basis.T, columns[:, rows]):
            np.matmul(tangent, axis, out=out)
    coords = columns.T
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
