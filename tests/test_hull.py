import math

import numpy as np
import pytest
import scipy.spatial

from wedgehull import (
    DomainError,
    ResourceLimit,
    SampleCloud,
    WedgeModel,
    facets_ambient,
    facets_projected,
    gnomonic_project,
    orthonormal_complement,
    sample_uniform_wedge,
)
from wedgehull.hull import _hull2d, _prune_interior

from .conftest import make_seed


def cloud_of(model, seed_parts, n):
    return sample_uniform_wedge(model, make_seed(*seed_parts), n)


def manual_cloud(model, points):
    return SampleCloud(model=model, points=points)


def planar_coords(cloud):
    basis = orthonormal_complement(cloud.model.center)
    return gnomonic_project(cloud.model.center, cloud.points) @ basis


def qhull_vertices(coords):
    return set(scipy.spatial.ConvexHull(coords).vertices.tolist())


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
        model = WedgeModel.right_angle(4)
        for rep in range(20):
            n = 8 + rep
            cloud = cloud_of(model, ("dual4", rep), n)
            a = facets_ambient(cloud)
            p = facets_projected(cloud)  # same scan for d >= 4, still must agree
            assert a.facets == p.facets
            assert len(a.facets) > 0


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


class TestDegenerateDetection:
    def test_duplicate_point_flags_both_routes(self, wedge2):
        base = cloud_of(wedge2, ("dup",), 12).points
        pts = np.vstack([base, base[3]])
        cloud = manual_cloud(wedge2, pts)
        assert facets_ambient(cloud).degenerate_flag
        assert facets_projected(cloud).degenerate_flag

    def test_hull2d_collinear_coordinates(self):
        coords = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])
        edges, vertices, flag = _hull2d(coords)
        assert flag
        assert edges == [(0, 3)]

    def test_ambient_flags_spherically_collinear_triple(self, wedge3):
        base = cloud_of(wedge3, ("coll",), 8).points
        a, b = base[0], base[1]
        c = a + b
        c /= np.linalg.norm(c)
        cloud = manual_cloud(wedge3, np.vstack([base, c]))
        assert facets_ambient(cloud).degenerate_flag


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

    def test_vertex_count_matches_index_union(self, wedge2):
        fs = facets_ambient(cloud_of(wedge2, ("vc",), 25))
        assert fs.vertex_count == len(fs.vertex_indices())


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

    def test_ambient_accepts_raw_arrays(self, wedge2):
        cloud = cloud_of(wedge2, ("raw",), 8)
        assert facets_ambient(cloud.points).facets == facets_ambient(cloud).facets

    def test_rejects_low_ambient_dimension(self):
        with pytest.raises(DomainError):
            facets_ambient(np.zeros((5, 2)))

    def test_dim3_tiny_cloud_uses_exhaustive_scan(self, wedge3):
        cloud = cloud_of(wedge3, ("tiny3",), 4)
        fs = facets_projected(cloud)
        assert fs.facet_count == 4
