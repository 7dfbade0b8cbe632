import dataclasses
import itertools
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.spatial
from hypothesis import example, given, settings
from hypothesis import strategies as st

import wedgehull.hull as hull
import wedgehull.suites as suites

from wedgehull import (
    DomainError,
    ResourceLimit,
    SampleCloud,
    SeedSpec,
    WedgeModel,
    facets_ambient,
    facets_projected,
    gnomonic_project,
    orthonormal_complement,
    sample_uniform_wedge,
)
from wedgehull.geometry import BLOCK_ROWS, cofactor_normals, row_blocks
from wedgehull.hull import FacetSet, _hull2d, _orient

from .conftest import make_seed


def _prune_interior(coords):
    """Ascending indices of the points of an (n, 2) array that the prune keeps."""
    return hull._prune(hull._coord_blocks(coords))[0]


def cloud_of(model, seed_parts, n):
    return sample_uniform_wedge(model, make_seed(*seed_parts), n)


def manual_cloud(model, points):
    return SampleCloud(model=model, points=points)


def planar_coords(cloud):
    basis = orthonormal_complement(cloud.model.center)
    return gnomonic_project(cloud.model.center, cloud.points) @ basis


def qhull_vertices(coords):
    return set(scipy.spatial.ConvexHull(coords).vertices.tolist())


def exact_cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def exact_ring(coords):
    """Hull corners, counterclockwise, from an unfiltered monotone chain in Fractions."""
    points = sorted({(Fraction(x), Fraction(y)) for x, y in coords.tolist()})
    if len(points) < 3:
        return points

    def half(sequence):
        chain = []
        for p in sequence:
            while len(chain) >= 2 and exact_cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        return chain

    return half(points)[:-1] + half(points[::-1])[:-1]


def strictly_inside(ring, point):
    p = (Fraction(point[0]), Fraction(point[1]))
    return len(ring) >= 3 and all(
        exact_cross(ring[k - 1], ring[k], p) > 0 for k in range(len(ring))
    )


def octagon_extremes(coords):
    x, y = coords[:, 0], coords[:, 1]
    rays = (x, x + y, y, y - x)
    picks = [int(r.argmax()) for r in rays] + [int(r.argmin()) for r in rays]
    return [i for k, i in enumerate(picks) if i != picks[k - 1]]


def assert_prune_sound(coords):
    """Every dropped point is strictly inside the exact hull; the corners match."""
    ring = exact_ring(coords)
    kept = set(_prune_interior(coords).tolist())
    for i in set(range(len(coords))) - kept:
        assert strictly_inside(ring, coords[i]), f"point {i} dropped but not interior"
    corners = {(Fraction(x), Fraction(y)) for x, y in coords[_hull2d(coords)[1]].tolist()}
    assert corners == set(ring)
    return kept


# Integer corners near radius 1000 at multiples of 22.5 degrees.
SIXTEEN_GON = np.array(
    [(1000, 0), (924, 383), (707, 707), (383, 924), (0, 1000), (-383, 924), (-707, 707),
     (-924, 383), (-1000, 0), (-924, -383), (-707, -707), (-383, -924), (0, -1000),
     (383, -924), (707, -707), (924, -383)],
    dtype=float,
)


@st.composite
def lattice_clouds(draw):
    """Lattice-snapped clouds with duplicated points and a collinear run."""
    side = draw(st.sampled_from([2, 6, 40, 2**20]))
    coord = st.integers(-side, side)
    points = draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=80))
    points += draw(st.lists(st.sampled_from(points), max_size=10))
    ox, oy, dx, dy = (draw(coord) for _ in range(4))
    points += [(ox + t * dx, oy + t * dy) for t in range(draw(st.integers(0, 8)))]
    if len(points) < 3:
        points += [points[0]] * (3 - len(points))
    order = draw(st.permutations(range(len(points))))
    scale = 2.0 ** draw(st.integers(-40, 40))  # exact: ties stay ties
    return np.array([points[i] for i in order], dtype=float) * scale


class TestDualRouteEquivalence:
    @pytest.mark.parametrize("n", [5, 12, 60, 200])
    def test_dim2(self, wedge2, n):
        for rep in range(5):
            cloud = cloud_of(wedge2, ("dual2", n, rep), n)
            a = facets_ambient(cloud)
            p = facets_projected(cloud)
            assert not a.degenerate_flag and not p.degenerate_flag
            assert a.facets == p.facets
            assert a.vertex_count == p.vertex_count

    @pytest.mark.parametrize("n", [6, 15, 40])
    def test_dim3(self, wedge3, n):
        for rep in range(4):
            cloud = cloud_of(wedge3, ("dual3", n, rep), n)
            a = facets_ambient(cloud)
            p = facets_projected(cloud)
            assert not a.degenerate_flag and not p.degenerate_flag
            assert a.facets == p.facets

    def test_dim4(self):
        # On a 2-vCPU host the ambient scan at d = 4 takes about 0.2 s at
        # n = 60, 1 s at n = 90 and 5 s at its cap n = 120, so the sizes
        # stop at 90.
        model = WedgeModel.right_angle(4)
        for rep, n in enumerate((5, 6, 7, 9, 12, 16, 20, 25, 30, 40, 60, 90)):
            cloud = cloud_of(model, ("dual4", rep), n)
            a = facets_ambient(cloud)
            p = facets_projected(cloud)
            assert not a.degenerate_flag and not p.degenerate_flag
            assert a.facets == p.facets
            assert a.vertex_count == p.vertex_count
            assert len(a.facets) > 0

    @pytest.mark.parametrize("d", [3, 4, 5])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_smallest_clouds_match_ambient(self, d, extra):
        # n = d+1 and d+2 reach Qhull, or the ambient scan when Qhull rejects them
        model = WedgeModel.right_angle(d)
        for rep in range(10):
            cloud = cloud_of(model, ("smallest", d, extra, rep), d + 1 + extra)
            assert facets_projected(cloud) == facets_ambient(cloud)

    def test_dim4_large_cloud_is_unflagged(self):
        model = WedgeModel.right_angle(4)
        cloud = cloud_of(model, ("large4",), 131072)
        with pytest.raises(ResourceLimit):
            facets_ambient(cloud)
        fs = facets_projected(cloud)
        assert not fs.degenerate_flag
        assert hull.euler_relation_holds(fs.facets, fs.vertex_count, 4)


class TestSmallClouds:
    def test_exactly_d_points_form_one_vacuous_facet(self, wedge2):
        cloud = cloud_of(wedge2, ("tiny", 0), 2)
        fs = facets_ambient(cloud)
        assert fs.facet_count == 1 and fs.facets == frozenset({(0, 1)})
        assert facets_projected(cloud).facets == fs.facets

    def test_simplex_has_d_plus_1_facets(self, wedge2, wedge3):
        for model, d in ((wedge2, 2), (wedge3, 3)):
            cloud = cloud_of(model, ("simplex", d), d + 1)
            for fs in (facets_ambient(cloud), facets_projected(cloud)):
                assert fs.facet_count == d + 1
                assert fs.vertex_count == d + 1

    def test_too_few_points(self, wedge2):
        cloud = cloud_of(wedge2, ("few",), 1)
        with pytest.raises(DomainError):
            facets_ambient(cloud)
        with pytest.raises(DomainError):
            facets_projected(cloud)


class TestLargePlanarHull:
    def test_edge_cycle_and_external_oracle(self, wedge2):
        # n large enough to exercise the interior pruning filter.
        n = 10**4
        cloud = cloud_of(wedge2, ("big2",), n)
        fs = facets_projected(cloud)
        assert not fs.degenerate_flag
        assert fs.facet_count == fs.vertex_count  # hull edges form one cycle
        degree = {}
        for a, b in fs.facets:
            degree[a] = degree.get(a, 0) + 1
            degree[b] = degree.get(b, 0) + 1
        assert set(degree.values()) == {2}
        basis = orthonormal_complement(cloud.model.center)
        coords = gnomonic_project(cloud.model.center, cloud.points) @ basis
        oracle = scipy.spatial.ConvexHull(coords)
        assert fs.vertex_count == len(oracle.vertices)
        assert fs.facets == frozenset(
            tuple(sorted(int(i) for i in simplex)) for simplex in oracle.simplices
        )


class TestPruneAtEverySize:
    @pytest.mark.parametrize("n", [3, 4, 5, 8, 16, 30, 512, 513])
    def test_routes_match_qhull(self, wedge2, n):
        cloud = cloud_of(wedge2, ("every_n", n), n)
        a = facets_ambient(cloud)
        p = facets_projected(cloud)
        oracle = scipy.spatial.ConvexHull(planar_coords(cloud))
        assert not a.degenerate_flag and not p.degenerate_flag
        assert a.facets == p.facets
        assert p.facets == frozenset(
            tuple(sorted(int(i) for i in simplex)) for simplex in oracle.simplices
        )
        assert a.vertex_count == p.vertex_count == len(oracle.vertices)

    @pytest.mark.parametrize("n, side", [(20, 2), (700, 5)])
    def test_lattice_ties_keep_hull_vertices(self, n, side):
        # Snapped coordinates make several points tie for each argmax.
        rng = np.random.default_rng(n)
        coords = np.round(rng.uniform(-side, side, (n, 2)))
        kept = set(_prune_interior(coords).tolist())
        assert qhull_vertices(coords) <= kept
        # duplicated corners: compare the chain's corners by position
        corners = {tuple(coords[i]) for i in _hull2d(coords)[1]}
        assert corners == {tuple(coords[i]) for i in qhull_vertices(coords)}

    @pytest.mark.parametrize("n", [3, 5, 600])
    def test_coincident_points_give_flagged_segment(self, n):
        coords = np.tile([[0.3, -0.2]], (n, 1))
        assert _prune_interior(coords).tolist() == list(range(n))
        assert _hull2d(coords) == ([(0, n - 1)], [0, n - 1], True)

    @pytest.mark.parametrize("n", [4, 600])
    def test_collinear_points_keep_both_ends(self, n):
        t = np.linspace(-1.0, 1.0, n)
        coords = np.column_stack([t, 2.0 * t])
        assert {0, n - 1} <= set(_prune_interior(coords).tolist())
        edges, _, flag = _hull2d(coords)
        assert flag and edges == [(0, n - 1)]

    @pytest.mark.parametrize("n", [12, 700])
    @pytest.mark.parametrize("far", [(10.0, 10.0), (10.0, -10.0)])
    def test_point_winning_several_directions(self, n, far):
        # (10, -10) wins the first and the last direction of the octagon, so
        # its repeats wrap around the cyclic order.
        rng = np.random.default_rng(n)
        coords = np.vstack([rng.uniform(0.0, 1.0, (n, 2)), [far]])
        kept = _prune_interior(coords)
        reference = qhull_vertices(coords)
        assert reference <= set(kept.tolist())
        assert len(kept) < len(coords)
        assert set(_hull2d(coords)[1]) == reference

    @pytest.mark.parametrize("n", [13, 600])
    def test_interior_duplicate_gives_same_facets(self, wedge2, n):
        base = cloud_of(wedge2, ("interior_dup", n), n - 1).points
        coords = planar_coords(manual_cloud(wedge2, base))
        inner = int(np.argmin(np.linalg.norm(coords - coords.mean(axis=0), axis=1)))
        assert inner not in qhull_vertices(coords)
        cloud = manual_cloud(wedge2, np.vstack([base, base[inner]]))
        a = facets_ambient(cloud)
        p = facets_projected(cloud)
        assert a.degenerate_flag
        assert a.facets == p.facets
        # the projected route sees the duplicate only if it survives the prune
        assert p.degenerate_flag == (inner in _prune_interior(planar_coords(cloud)))

    @pytest.mark.parametrize("radius", [6, 40])
    def test_lattice_disc_keeps_every_boundary_point(self, radius):
        # Many hull vertices lie beyond the octagon, and lattice points on
        # hull edges tie for the farthest point of the quickhull pass.
        span = np.arange(-radius, radius + 1)
        grid = np.array([(a, b) for a in span for b in span if a * a + b * b <= radius**2])
        rng = np.random.default_rng(radius)
        coords = rng.permutation(np.vstack([grid, grid[rng.integers(len(grid), size=20)]]))
        coords = coords.astype(float)
        kept = assert_prune_sound(coords)
        ring = exact_ring(coords)
        boundary = {
            i for i, p in enumerate(coords.tolist()) if not strictly_inside(ring, p)
        }
        assert boundary <= kept
        assert len(kept) < 2 * len(boundary)
        assert len(set(ring)) > len(octagon_extremes(coords))
        # points on hull edges and duplicated corners reach the chain
        assert _hull2d(coords)[2] == (len(boundary) > len(ring))

    def test_duplicate_on_hull_edge_found_by_quickhull(self):
        # (815.5, 545) lies on the hull edge from (924, 383) to (707, 707),
        # which only the quickhull pass finds: no octagon direction picks
        # the 16-gon's odd corners.
        rng = np.random.default_rng(3)
        clutter = rng.uniform(-600.0, 600.0, (200, 2))
        midpoint = (815.5, 545.0)
        coords = np.vstack([SIXTEEN_GON, clutter, [midpoint, midpoint]])
        assert sorted(set(octagon_extremes(coords))) == list(range(0, 16, 2))
        kept = assert_prune_sound(coords)
        assert kept == set(range(16)) | {len(coords) - 2, len(coords) - 1}
        assert _hull2d(coords)[2]

    def test_point_on_octagon_edge_stays_candidate(self):
        # (853.5, 353.5) lies on the octagon's edge from (1000, 0) to
        # (707, 707), but strictly inside the hull: (924, 383) lies beyond it.
        coords = np.vstack([SIXTEEN_GON, [(853.5, 353.5), (1.0, 1.0)]])
        kept = assert_prune_sound(coords)
        assert kept == set(range(17))
        assert not _hull2d(coords)[2]

    def test_quickhull_engaged_on_large_cloud(self, wedge2):
        # the octagon alone leaves 957 candidates for 19 hull vertices
        cloud = sample_uniform_wedge(wedge2, SeedSpec(3, 131072), 131072)
        coords = planar_coords(cloud)
        vertices = _hull2d(coords)[1]
        assert len(vertices) == 19
        assert len(_prune_interior(coords)) <= 2 * len(vertices)

    def test_two_extremes_start_the_quickhull_passes(self):
        # On the rotated j = 2 wedge the projected cloud is a heavy-tailed
        # strip, and two far points win all eight octagon directions.  The
        # segment between them, taken both ways, starts the quickhull passes.
        s = 1.0 / math.sqrt(2.0)
        model = WedgeModel.from_normals(2, [(s, s, 0.0), (0.0, 0.0, 1.0)])
        coords = planar_coords(sample_uniform_wedge(model, SeedSpec(0, 4097), 4097))
        assert len(set(octagon_extremes(coords))) == 2
        ring = exact_ring(coords)
        assert len(_prune_interior(coords)) <= 2 * len(ring) < 40
        corners = [(Fraction(x), Fraction(y)) for x, y in coords[_hull2d(coords)[1]].tolist()]
        assert set(corners) == set(ring) and len(corners) == len(ring)

    @settings(max_examples=300, deadline=None)
    @given(lattice_clouds())
    def test_dropped_points_are_strictly_inside(self, coords):
        assert_prune_sound(coords)


class TestOrient:
    Q, R = (12.0, 12.0), (24.0, 24.0)

    @pytest.mark.parametrize(
        "px, py, ratio_range, float_sign_right, float_path",
        [
            # the float determinant has the wrong sign, inside the bound
            ("0x1.00000000000f7p-1", "0x1.00000000000efp-1", (0.3, 0.33), False, False),
            # right sign, but just inside the bound: not trusted
            ("0x1.00000000000ffp-1", "0x1.0000000000097p-1", (0.9, 1.0), True, False),
            # just outside the bound: trusted without Fractions
            ("0x1.0000000000000p-1", "0x1.0000000000089p-1", (1.0, 1.3), True, True),
        ],
    )
    def test_static_error_bound(
        self, monkeypatch, px, py, ratio_range, float_sign_right, float_path
    ):
        p = (float.fromhex(px), float.fromhex(py))
        q, r = self.Q, self.R
        t1 = (q[0] - p[0]) * (r[1] - p[1])
        t2 = (q[1] - p[1]) * (r[0] - p[0])
        ratio = abs(t1 - t2) / (hull._ORIENT_BOUND * (abs(t1) + abs(t2)))
        assert ratio_range[0] < ratio <= ratio_range[1]
        exact = exact_cross(*[(Fraction(a), Fraction(b)) for a, b in (p, q, r)])
        sign = (exact > 0) - (exact < 0)
        assert (sign != 0) and ((t1 > t2) - (t1 < t2) == sign) == float_sign_right
        calls = []

        def spy(value):
            calls.append(value)
            return Fraction(value)

        monkeypatch.setattr(hull, "Fraction", spy)
        assert _orient(p, q, r) == sign
        assert bool(calls) != float_path


def duplicate_point_cloud(model):
    """A sampled cloud with its point 3 repeated at the end."""
    base = cloud_of(model, ("dup",), 12).points
    return manual_cloud(model, np.vstack([base, base[3]]))


def collinear_triple_cloud(model):
    """A sampled cloud plus the midpoint of the great arc between its first two points."""
    base = cloud_of(model, ("coll",), 8).points
    c = base[0] + base[1]
    c /= np.linalg.norm(c)
    return manual_cloud(model, np.vstack([base, c]))


class TestDegenerateDetection:
    def test_duplicate_point_flags_both_routes(self, wedge2):
        cloud = duplicate_point_cloud(wedge2)
        assert facets_ambient(cloud).degenerate_flag
        assert facets_projected(cloud).degenerate_flag

    def test_hull2d_collinear_coordinates(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        edges, vertices, flag = _hull2d(coords)
        assert flag
        assert edges == [(0, 3)]

    def test_ambient_flags_spherically_collinear_triple(self, wedge3):
        assert facets_ambient(collinear_triple_cloud(wedge3)).degenerate_flag


def _unit_rows(rows):
    points = np.array(rows, dtype=float)
    return points / np.linalg.norm(points, axis=1)[:, None]


@st.composite
def rim_clouds(draw):
    """Wedge clouds at d = 2, 3 or 4 with the ties that a sampled cloud never has.

    Points on a lattice of gnomonic coordinates about the wedge center, with
    step 1/side; the last coordinate spans the wedge's strip [-1, 1], whose
    ends lie on the bounding great circles up to rounding.  Points with one
    normal's coordinate exactly 0, on that bounding great circle.  Repeats
    of earlier points.
    """
    d = draw(st.sampled_from([2, 3, 4]))
    model = WedgeModel.right_angle(d)
    basis = orthonormal_complement(model.center)
    side = draw(st.sampled_from([1, 2, 4, 8]))
    free, strip = st.integers(-3 * side, 3 * side), st.integers(-side, side)
    tick = st.tuples(*[free] * (d - 1), strip)
    ticks = draw(st.lists(tick, min_size=d + 1, max_size=28 - 5 * d))
    rows = [model.center + basis @ (np.array(t, dtype=float) / side) for t in ticks]
    for axis in draw(st.lists(st.sampled_from([d - 1, d]), max_size=5)):
        point = np.array(draw(st.tuples(*[st.integers(-4, 4)] * (d + 1))), dtype=float)
        point[axis] = 0.0
        point[2 * d - 1 - axis] = abs(point[2 * d - 1 - axis]) + 1.0  # inside the other half
        rows.append(point)
    rows += [rows[i] for i in draw(st.lists(st.integers(0, len(rows) - 1), max_size=4))]
    order = draw(st.permutations(range(len(rows))))
    return manual_cloud(model, _unit_rows([rows[i] for i in order]))


# Three points on the bounding great circle x_1 = 0: the ambient scan sees
# the exact zero and flags, while the projected chain turns on rounding.
RIM_TRIPLE = manual_cloud(
    WedgeModel.right_angle(2), _unit_rows([(0, 1, 1), (0, 0, 1), (1, 0, 1), (2, 0, 3)])
)
# A repeated hull vertex: Qhull keeps one copy and reports no coplanar point.
REPEATED_VERTEX = manual_cloud(
    WedgeModel.right_angle(3),
    _unit_rows([(0, 0, 1, 1), (math.sqrt(2), 0, 1, 1), (0, 0, 0, 1), (0, 1, 0, 1), (0, 0, 1, 1)]),
)


class TestDualRouteOnRimClouds:
    @settings(max_examples=300, deadline=None)
    @given(rim_clouds())
    def test_no_silent_disagreement(self, cloud):
        a = facets_ambient(cloud)
        p = facets_projected(cloud)
        assert a.facets == p.facets or a.degenerate_flag or p.degenerate_flag

    @pytest.mark.xfail(
        raises=AssertionError,
        strict=True,
        reason="the projected route can miss a tie that the ambient scan flags "
        "(FOUND in CHANGES.md)",
    )
    @settings(max_examples=150, deadline=None)
    @example(RIM_TRIPLE)
    @example(REPEATED_VERTEX)
    @given(rim_clouds())
    def test_routes_agree_or_both_flag(self, cloud):
        a = facets_ambient(cloud)
        p = facets_projected(cloud)
        assert a.facets == p.facets or (a.degenerate_flag and p.degenerate_flag)


def reference_facets(cloud):
    """facets_ambient's answer, one subset at a time, from the module docstring.

    A d-subset spans a facet when the hyperplane through it leaves every
    other point strictly on one side.  The subset is excluded and the scan
    flagged when its normal vanishes, one of its own points is off the
    hyperplane, or another point is on it, each within SIGN_TOL of the
    largest of |normal| and the |dots|.
    """
    points = cloud.points
    n, amb = points.shape
    facets, flagged = set(), False
    for subset in itertools.combinations(range(n), amb - 1):
        normal = cofactor_normals(points[None, list(subset)])[0]
        dots = (points @ normal).tolist()
        size = math.hypot(*normal)
        thr = hull.SIGN_TOL * max(max(abs(v) for v in dots), size, 1e-300)
        own = [dots[i] for i in subset]
        others = [v for i, v in enumerate(dots) if i not in subset]
        if size <= 1e-12 or any(abs(v) > thr for v in own) or any(abs(v) <= thr for v in others):
            flagged = True
        elif all(v > thr for v in others) or all(v < -thr for v in others):
            facets.add(subset)
    vertex_count = len({i for facet in facets for i in facet})
    return FacetSet(facets=frozenset(facets), vertex_count=vertex_count, degenerate_flag=flagged)


class TestAmbientScanAgainstReference:
    """The blocked, column-major scan against reference_facets."""

    @pytest.mark.parametrize("d, n", [(2, 25), (3, 16), (4, 11)])
    def test_generic_clouds(self, d, n):
        model = WedgeModel.right_angle(d)
        for rep in range(3):
            cloud = cloud_of(model, ("reference", d, rep), n)
            assert facets_ambient(cloud) == reference_facets(cloud)

    def test_subsets_spanning_two_blocks(self, wedge2):
        # C(100, 2) = 4950 subsets: one block of BLOCK_ROWS and one of 854
        assert [len(b) for b in hull._subset_batches(100, 2)] == [BLOCK_ROWS, 4950 - BLOCK_ROWS]
        cloud = cloud_of(wedge2, ("reference", "blocks"), 100)
        assert facets_ambient(cloud) == reference_facets(cloud)

    @pytest.mark.parametrize("which", ["rim_triple", "repeated_vertex", "duplicate", "collinear"])
    def test_adversarial_clouds(self, which):
        cloud = {
            "rim_triple": lambda: RIM_TRIPLE,
            "repeated_vertex": lambda: REPEATED_VERTEX,
            "duplicate": lambda: duplicate_point_cloud(WedgeModel.right_angle(2)),
            "collinear": lambda: collinear_triple_cloud(WedgeModel.right_angle(3)),
        }[which]()
        reference = reference_facets(cloud)
        assert reference.degenerate_flag
        assert facets_ambient(cloud) == reference

    @settings(max_examples=100, deadline=None)
    @given(rim_clouds())
    def test_rim_clouds(self, cloud):
        assert facets_ambient(cloud) == reference_facets(cloud)


def _boundary(vertices, facet_size):
    return frozenset(itertools.combinations(range(vertices), facet_size))


# one vertex from each antipodal pair (2i, 2i+1) of +-e_1, +-e_2, +-e_3
OCTAHEDRON = frozenset(itertools.product((0, 1), (2, 3), (4, 5)))


class TestEulerRelation:
    @pytest.mark.parametrize(
        "facets, vertex_count, d",
        [
            (_boundary(4, 3), 4, 3),  # tetrahedron
            (OCTAHEDRON, 6, 3),
            (_boundary(5, 4), 5, 4),  # 4-simplex
            (_boundary(6, 5), 6, 5),  # 5-simplex
            (frozenset({(0, 1), (1, 2), (0, 2)}), 3, 2),  # triangle
        ],
    )
    def test_sphere_boundaries_pass(self, facets, vertex_count, d):
        assert hull.euler_relation_holds(facets, vertex_count, d)

    def test_tetrahedron_missing_a_facet_fails(self):
        facets = _boundary(4, 3) - {(1, 2, 3)}
        assert not hull.euler_relation_holds(facets, 4, 3)

    @pytest.mark.parametrize("vertex_count", [3, 5])
    def test_vertex_count_must_match_the_facets(self, vertex_count):
        assert not hull.euler_relation_holds(_boundary(4, 3), vertex_count, 3)
        assert not hull.euler_relation_holds(_boundary(5, 4), vertex_count + 1, 4)


class TestHullSuite:
    def test_default_check_names(self):
        checks = suites.suite_hull()
        assert [(c.name, c.passed) for c in checks] == [
            ("dual_route_equivalence_d2", True),
            ("dual_route_equivalence_d3", True),
            ("euler_relation_d3", True),
        ]

    def test_euler_check_reads_the_ambient_route(self, monkeypatch):
        scan = suites.facets_ambient

        def lose_a_facet(cloud):
            fs = scan(cloud)
            return dataclasses.replace(fs, facets=fs.facets - {min(fs.facets)})

        monkeypatch.setattr(suites, "facets_ambient", lose_a_facet)
        checks = {c.name: c for c in suites.suite_hull(dims=(3, 4), seeds=3, max_points=12)}
        for d in (3, 4):
            euler = checks[f"euler_relation_d{d}"]
            assert not euler.passed and euler.detail.startswith("3 ambient hulls")


class TestInvariances:
    def test_rotation_fixing_wedge_axes(self, wedge3):
        cloud = cloud_of(wedge3, ("rot",), 40)
        theta = 0.7
        rot = np.eye(4)
        rot[0, 0] = rot[1, 1] = math.cos(theta)
        rot[0, 1] = -math.sin(theta)
        rot[1, 0] = math.sin(theta)
        rotated = manual_cloud(wedge3, cloud.points @ rot.T)
        assert facets_ambient(cloud).facets == facets_ambient(rotated).facets
        assert facets_projected(cloud).facets == facets_projected(rotated).facets

    def test_facets_survive_point_insertion(self, wedge2):
        # A facet of the larger cloud that avoids the new point must already
        # have been a facet of the smaller cloud.
        for rep in range(10):
            cloud = cloud_of(wedge2, ("mono", rep), 31)
            small = manual_cloud(wedge2, cloud.points[:30])
            big_facets = facets_ambient(cloud).facets
            small_facets = facets_ambient(small).facets
            surviving = {f for f in big_facets if 30 not in f}
            assert surviving <= small_facets

    def test_euler_relation_dim3(self, wedge3):
        for n in (20, 40):
            fs = facets_ambient(cloud_of(wedge3, ("euler", n), n))
            assert not fs.degenerate_flag
            assert fs.facet_count == 2 * fs.vertex_count - 4
            assert hull.euler_relation_holds(fs.facets, fs.vertex_count, 3)

    def test_vertex_count_matches_index_union(self, wedge2):
        fs = facets_ambient(cloud_of(wedge2, ("vc",), 25))
        assert fs.vertex_count == len({i for facet in fs.facets for i in facet})


class TestResourceAndInputGuards:
    def test_high_dim_cap(self):
        model = WedgeModel.right_angle(4)
        cloud = cloud_of(model, ("cap",), 121)
        with pytest.raises(ResourceLimit):
            facets_ambient(cloud)

    def test_projected_requires_cloud(self, rng):
        pts = rng.normal(size=(10, 3))
        pts /= np.linalg.norm(pts, axis=1, keepdims=True)
        with pytest.raises(DomainError):
            facets_projected(pts)

    def test_ambient_requires_cloud(self, wedge2):
        cloud = cloud_of(wedge2, ("raw",), 8)
        with pytest.raises(DomainError):
            facets_ambient(cloud.points)

    def test_rejects_low_ambient_dimension(self):
        with pytest.raises(DomainError):
            facets_ambient(np.zeros((5, 2)))

    def test_dim3_tiny_cloud_uses_exhaustive_scan(self, wedge3, monkeypatch):
        # three points span no 3-D hull: Qhull rejects them and the scan answers
        cloud = cloud_of(wedge3, ("tiny3",), 3)
        calls = []
        scan = hull.facets_ambient
        monkeypatch.setattr(hull, "facets_ambient", lambda c: calls.append(c) or scan(c))
        fs = facets_projected(cloud)
        assert calls == [cloud]
        assert fs.facets == frozenset({(0, 1, 2)}) and fs.vertex_count == 3


class TestGeneralizedCross:
    def test_planar_normals_are_the_cross_product(self, rng):
        stack = rng.normal(size=(1000, 2, 3))
        got = cofactor_normals(stack)
        expected = np.cross(stack[:, 0], stack[:, 1])
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    def test_dim1_normals_are_the_rotated_row(self, rng):
        stack = rng.normal(size=(1000, 1, 2))
        got = cofactor_normals(stack)
        expected = np.stack([stack[:, 0, 1], -stack[:, 0, 0]], axis=1)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))

    @pytest.mark.parametrize("d", [3, 4, 5, 6, 7])
    def test_normals_are_orthogonal_to_every_row(self, rng, d):
        stack = rng.normal(size=(1000, d, d + 1))
        normals = cofactor_normals(stack)
        dots = np.einsum("mda,ma->md", stack, normals)
        scale = np.linalg.norm(stack, axis=2) * np.linalg.norm(normals, axis=1)[:, None]
        assert np.all(np.abs(dots) <= 1e-13 * scale)
        assert np.all(np.linalg.norm(normals, axis=1) > 0.0)

    @pytest.mark.parametrize("dependent", [False, True])
    def test_dim3_cofactors_match_one_minor_at_a_time(self, rng, dependent):
        stack = rng.normal(size=(1000, 3, 4))
        if dependent:
            # the second row is the first plus 1e-16 noise
            stack[:, 1] = stack[:, 0] + 1e-16 * rng.normal(size=(1000, 4))
        rows = stack.transpose(1, 2, 0)
        r0, r1, r2 = rows
        got = cofactor_normals(stack).view(np.uint64)
        for i in range(4):
            cols = [c for c in range(4) if c != i]
            a, b, c = cols
            written = (
                r0[a] * (r1[b] * r2[c] - r1[c] * r2[b])
                - r0[b] * (r1[a] * r2[c] - r1[c] * r2[a])
                + r0[c] * (r1[a] * r2[b] - r1[b] * r2[a])
            )
            assert np.array_equal(got[:, i], (written * (-1.0) ** i).view(np.uint64))


def combination_blocks(n, d):
    """The d-subsets of range(n) from itertools.combinations, cut by islice(BLOCK_ROWS)."""
    combos = itertools.combinations(range(n), d)
    blocks = []
    while block := list(itertools.islice(combos, BLOCK_ROWS)):
        blocks.append(np.array(block, dtype=np.int64))
    return blocks


class TestSubsetBatches:
    """The numpy subset builder against itertools, block for block."""

    @pytest.mark.parametrize(
        "n, d",
        [(5, 1), (4, 4), (4096, 1), (4097, 1), (92, 2), (30, 3), (60, 4), (9, 6), (7, 7)],
    )
    def test_blocks_match_itertools(self, n, d):
        got = list(hull._subset_batches(n, d))
        expected = combination_blocks(n, d)
        assert [b.shape for b in got] == [b.shape for b in expected]
        for block, reference in zip(got, expected):
            assert block.dtype == np.int64 and block.flags.c_contiguous
            assert np.array_equal(block, reference)

    @pytest.mark.parametrize(
        "n, d, sizes",
        [
            (4096, 1, [BLOCK_ROWS]),
            # a lone last row stays its own block, unlike geometry.row_blocks
            (4097, 1, [BLOCK_ROWS, 1]),
            (92, 2, [BLOCK_ROWS, 90]),
            (3, 3, [1]),
        ],
    )
    def test_block_sizes(self, n, d, sizes):
        assert [len(b) for b in hull._subset_batches(n, d)] == sizes

    def test_first_block_of_the_largest_scan_is_small(self):
        # all C(120, 4) = 8.2 M subsets at once would take 262 MB
        tracemalloc.start()
        try:
            first = next(hull._subset_batches(120, 4))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        head = itertools.islice(itertools.combinations(range(120), 4), BLOCK_ROWS)
        assert np.array_equal(first, np.array(list(head)))
        assert peak < 64 * 2**20


B = BLOCK_ROWS


def _one_block(n):
    return [slice(0, n)]


def _block_picks(x, y, order):
    """The octagon's corner indices, merged block by block in the given order."""
    best = [None] * 8
    for rows in row_blocks(x.size)[::order]:
        hull._merge_extremes(best, np.arange(rows.start, rows.stop), np.stack((x[rows], y[rows])))
    return [corner[1] for corner in best]


class TestBlockBoundaries:
    """Block-by-block projection and prune against one whole-array block."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("n", [B - 1, B, B + 1, 2 * B + 1])
    @pytest.mark.parametrize("which", ["right_angle", "half_sphere", "rotated"])
    def test_facets_match_one_block(self, monkeypatch, n, which, seed):
        s = 1.0 / math.sqrt(2.0)
        model = {
            "right_angle": WedgeModel.right_angle(2),
            "half_sphere": WedgeModel.half_sphere(2),
            "rotated": WedgeModel.from_normals(2, ((s, s, 0.0), (0.0, 0.0, 1.0))),
        }[which]
        cloud = cloud_of(model, ("blocks", which, n, seed), n)
        seen = []
        chart, chain = hull._chart_blocks, hull._chain

        def spy_chart(model, blocks):
            coords = np.full((2, n), np.nan)
            for start, xy in chart(model, blocks):
                coords[:, start : start + xy.shape[1]] = xy
                yield start, xy
            seen.append(coords)

        def spy_chain(ids, xy):
            seen.append(ids.copy())
            return chain(ids, xy)

        monkeypatch.setattr(hull, "_chart_blocks", spy_chart)
        monkeypatch.setattr(hull, "_chain", spy_chain)
        blocked = facets_projected(cloud)
        monkeypatch.setattr(hull, "row_blocks", _one_block)
        whole = facets_projected(cloud)
        coords, kept, coords_ref, kept_ref = seen
        assert np.array_equal(coords.view(np.uint64), coords_ref.view(np.uint64))
        assert blocked == whole
        # The running octagon of the blocks drops points that the octagon of
        # the whole cloud may keep, but only points strictly inside the hull;
        # it never keeps one that the whole-cloud run drops, and never drops
        # a hull vertex.
        kept, kept_ref = set(kept.tolist()), set(kept_ref.tolist())
        assert kept <= kept_ref
        assert {i for facet in whole.facets for i in facet} <= kept
        ring = exact_ring(coords_ref.T[sorted(kept_ref)])
        for i in kept_ref - kept:
            assert strictly_inside(ring, coords[:, i])

    def test_vertex_only_in_last_partial_block_is_kept(self):
        rng = np.random.default_rng(8)
        inner = 2 * B + 2
        radius = 0.9 * np.sqrt(rng.random(inner))
        angle = rng.uniform(0.0, 2.0 * np.pi, inner)
        ring = 0.1 + np.arange(16) * (2.0 * np.pi / 16)
        coords = np.concatenate(
            [
                np.column_stack([radius * np.cos(angle), radius * np.sin(angle)]),
                np.column_stack([np.cos(ring), np.sin(ring)]),
            ]
        )
        corners = set(range(inner, inner + 16))
        assert corners == qhull_vertices(coords)
        assert corners <= set(_prune_interior(coords).tolist())
        edges, vertices, degenerate = _hull2d(coords)
        assert set(vertices) == corners and len(edges) == 16 and not degenerate

    def test_extreme_ties_across_blocks_keep_first_index(self):
        n = 3 * B + 2
        x, y = np.zeros(n), np.zeros(n)
        x[[B - 1, B, 2 * B + 1]] = 5.0  # max x tied across blocks 0, 1 and 2
        y[[B, 2 * B, n - 1]] = -7.0  # min y tied across blocks 1 and 2
        for order in (1, -1):
            picks = _block_picks(x, y, order)
            assert picks[0] == B - 1 and picks[6] == B
        rng = np.random.default_rng(9)
        for side in (1, 3):
            x, y = np.round(rng.uniform(-side, side, (2, n)))
            rays = (x, x + y, y, y - x)
            whole = [int(r.argmax()) for r in rays] + [int(r.argmin()) for r in rays]
            # blocks in order, and a last block that comes first
            assert _block_picks(x, y, 1) == _block_picks(x, y, -1) == whole

    def test_projection_allocates_only_the_columns(self, wedge2):
        # Peak traced allocation of the planar route on 2^17 points: the
        # 2 MiB of x/y columns plus block-sized scratch (17.0 MiB with the
        # whole-array projection and k x n edge test).
        cloud = cloud_of(wedge2, ("peak",), 1 << 17)
        tracemalloc.start()
        try:
            facets_projected(cloud)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 << 20
