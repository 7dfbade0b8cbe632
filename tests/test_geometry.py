import math
import pickle

import numpy as np
import pytest

from wedgehull import (
    DomainError,
    HalfSphereViolation,
    SampleCloud,
    SeedSpec,
    WedgeCoords,
    WedgeModel,
    angles_from_normal,
    gnomonic_inverse,
    gnomonic_project,
    napier_jacobian,
    napier_reflect,
    normal_from_angles,
    opening_angle,
    omega,
    orthonormal_complement,
    sample_uniform_sphere,
    wedge_contains,
    wedge_measure,
)

from wedgehull.geometry import determinant

from .conftest import make_seed


def test_sphere_surface_measure_known_values():
    assert omega(1) == pytest.approx(2.0, abs=1e-14)
    assert omega(2) == pytest.approx(2 * math.pi, abs=1e-14)
    assert omega(3) == pytest.approx(4 * math.pi, abs=1e-13)
    assert omega(4) == pytest.approx(2 * math.pi**2, abs=1e-13)
    with pytest.raises(DomainError):
        omega(0)


class TestWedgeModel:
    def test_right_angle_fields(self, wedge2):
        assert wedge2.d == 2 and wedge2.j == 2
        expect = np.array([0.0, 1.0, 1.0]) / math.sqrt(2)
        assert np.allclose(wedge2.center, expect, atol=1e-15)
        assert wedge_measure(wedge2.d, wedge2.j) == pytest.approx(math.pi, abs=1e-14)

    def test_half_sphere_measure(self):
        m = WedgeModel.half_sphere(3)
        assert m.j == 1
        assert wedge_measure(m.d, m.j) == pytest.approx(omega(4) / 2, abs=1e-12)

    def test_from_normals_rejects_non_unit(self):
        with pytest.raises(DomainError):
            WedgeModel.from_normals(2, np.array([[0.0, 0.0, 2.0]]))

    def test_from_normals_rejects_dependent_pair(self):
        n = np.array([0.0, 0.0, 1.0])
        with pytest.raises(DomainError):
            WedgeModel.from_normals(2, np.stack([n, n]))

    def test_two_normals_must_be_orthogonal(self):
        tilted = np.array(
            [[0.0, 0.0, 1.0], [0.0, math.sin(1.0), math.cos(1.0)]]
        )
        with pytest.raises(DomainError):
            WedgeModel.from_normals(2, tilted)

    def test_non_orthogonal_triple_is_rejected(self):
        # wedge_measure and the sampler's fold hold for orthogonal normals only
        t = 0.8
        normals = np.array(
            [
                [0.0, 0.0, 1.0, 0.0],
                [0.0, 0.0, 0.0, 1.0],
                [math.sin(t), 0.0, math.cos(t), 0.0],
            ]
        )
        with pytest.raises(DomainError, match="mutually orthogonal"):
            WedgeModel.from_normals(3, normals)

    def test_basis_is_the_center_complement_and_survives_pickle(self):
        model = WedgeModel.from_normals(3, np.eye(4)[1:])
        expect = orthonormal_complement(model.center)
        assert np.array_equal(model.basis, expect)
        # pool workers receive the model pickled, without re-running __post_init__
        assert np.array_equal(pickle.loads(pickle.dumps(model)).basis, expect)

    def test_equality_is_identity_and_returns_a_bool(self):
        # field-wise equality on array fields would raise "truth value ... ambiguous"
        model = WedgeModel.right_angle(2)
        u = np.array([0.6, 0.8])
        pairs = [
            (model, WedgeModel.right_angle(2)),
            (WedgeCoords(0.5, 0.4, u), WedgeCoords(0.5, 0.4, u)),
            (SampleCloud(model, model.center), SampleCloud(model, model.center)),
        ]
        for a, b in pairs:
            assert (a == a) is True
            assert (a == b) is False
            assert (a != b) is True
        copy = pickle.loads(pickle.dumps(model))
        assert (copy == model) is False
        assert np.array_equal(copy.basis, model.basis)

    def test_center_inside(self, wedge2):
        assert wedge_contains(wedge2, wedge2.center)
        assert not wedge_contains(wedge2, -wedge2.center)

    def test_uniform_quarter_fraction(self, wedge2):
        pts = sample_uniform_sphere(2, make_seed("quarter"), 10**6)
        frac = wedge_contains(wedge2, pts).mean()
        se = math.sqrt(0.25 * 0.75 / 10**6)
        assert abs(frac - 0.25) <= 3 * se


class TestGnomonic:
    def test_round_trip_both_ways(self, wedge2, rng):
        raw = rng.normal(size=(500, 3))
        raw[:, 1:] = np.abs(raw[:, 1:])
        pts = raw / np.linalg.norm(raw, axis=1, keepdims=True)
        tangent = gnomonic_project(wedge2.center, pts)
        assert np.abs(tangent @ wedge2.center).max() < 1e-12
        back = gnomonic_inverse(wedge2.center, tangent)
        assert np.abs(back - pts).max() < 1e-12
        again = gnomonic_project(wedge2.center, back)
        assert np.abs(again - tangent).max() < 1e-10 * (1 + np.abs(tangent).max())

    def test_rejects_far_hemisphere(self, wedge2):
        with pytest.raises(HalfSphereViolation):
            gnomonic_project(wedge2.center, -wedge2.center)

    def test_inverse_requires_tangent_input(self, wedge2):
        with pytest.raises(DomainError):
            gnomonic_inverse(wedge2.center, wedge2.center)


class TestChart:
    def test_psi_zero_is_south_pole(self):
        z = normal_from_angles(1.1, 0.0, np.array([1.0]))
        assert np.allclose(z, [0.0, 0.0, -1.0], atol=1e-15)

    def test_right_angles_give_u(self):
        u = np.array([1.0, 0.0])
        z = normal_from_angles(math.pi / 2, math.pi / 2, u)
        assert np.allclose(z, [1.0, 0.0, 0.0, 0.0], atol=1e-15)

    def test_unit_norm_on_random_inputs(self, rng):
        for _ in range(1000):
            u = rng.normal(size=2)
            u /= np.linalg.norm(u)
            z = normal_from_angles(rng.uniform(0, math.pi), rng.uniform(0, math.pi / 2), u)
            assert abs(np.linalg.norm(z) - 1.0) < 1e-14

    def test_round_trip_random(self, rng):
        for _ in range(1000):
            phi = rng.uniform(0.05, math.pi - 0.05)
            psi = rng.uniform(0.05, math.pi / 2 - 0.05)
            u = rng.normal(size=3)
            u /= np.linalg.norm(u)
            z = normal_from_angles(phi, psi, u)
            assert z[4] < 0
            coords = angles_from_normal(z)
            assert not coords.chart_degenerate
            rebuilt = normal_from_angles(coords.phi, coords.psi, coords.u)
            assert np.abs(rebuilt - z).max() < 1e-10

    def test_pole_is_canonicalized(self):
        coords = angles_from_normal(np.array([0.0, 0.0, -1.0]))
        assert coords.chart_degenerate
        assert coords.phi == 0.0 and coords.psi == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(coords.u, [1.0])

    def test_equatorial_direction_maps_to_right_angles(self):
        coords = angles_from_normal(np.array([1.0, 0.0, 0.0, 0.0]))
        assert coords.phi == pytest.approx(math.pi / 2, abs=1e-12)
        assert coords.psi == pytest.approx(math.pi / 2, abs=1e-12)
        assert np.allclose(coords.u, [1.0, 0.0])

    def test_wrong_branch_rejected(self):
        with pytest.raises(DomainError):
            angles_from_normal(np.array([0.0, 0.0, 1.0]))

    def test_coords_validate_ranges(self):
        with pytest.raises(DomainError):
            WedgeCoords(-0.5, 0.4, np.array([1.0]))
        with pytest.raises(DomainError):
            WedgeCoords(0.5, 2.0, np.array([1.0]))
        with pytest.raises(DomainError):
            WedgeCoords(0.5, 0.4, np.array([2.0]))


class TestOpeningAngle:
    def test_psi_zero_identity(self, rng):
        phi = rng.uniform(0, math.pi, 50)
        assert np.abs(opening_angle(phi, 0.0) - phi).max() < 1e-12

    def test_phi_right_angle(self, rng):
        psi = rng.uniform(0, math.pi / 2, 50)
        beta = opening_angle(math.pi / 2, psi)
        assert np.abs(beta - math.pi / 2).max() < 1e-12

    def test_small_angle_value_and_bound(self):
        beta = float(opening_angle(0.1, 0.1))
        assert beta == pytest.approx(math.atan(math.tan(0.1) / math.cos(0.1)), abs=1e-14)
        # tan(beta) is squeezed between phi and (1 + 4 eps) phi at eps = 0.1
        assert 0.1 <= math.tan(beta) <= (1 + 4 * 0.1) * 0.1

    def test_monotone_in_phi(self):
        phi = np.linspace(0.0, math.pi / 2, 200)
        beta = opening_angle(phi, 0.7)
        assert np.all(np.diff(beta) > 0)

    def test_tangent_identity_interior(self, rng):
        phi = rng.uniform(0.05, math.pi / 2 - 0.05, 200)
        psi = rng.uniform(0.05, math.pi / 2 - 0.05, 200)
        beta = opening_angle(phi, psi)
        assert np.abs(np.tan(beta) * np.cos(psi) - np.tan(phi)).max() < 1e-12


class TestNapier:
    def test_involution(self, rng):
        for _ in range(1000):
            phi = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            psi = rng.uniform(1e-3, math.pi / 2 - 1e-3)
            p2, q2 = napier_reflect(phi, psi)
            assert 0 < p2 < math.pi / 2 and 0 < q2 < math.pi / 2
            p3, q3 = napier_reflect(p2, q2)
            assert abs(p3 - phi) < 1e-10 and abs(q3 - psi) < 1e-10

    def test_defining_relations(self, rng):
        for _ in range(200):
            phi = rng.uniform(0.05, math.pi / 2 - 0.05)
            psi = rng.uniform(0.05, math.pi / 2 - 0.05)
            p2, q2 = napier_reflect(phi, psi)
            assert math.tan(p2) == pytest.approx(math.tan(psi) * math.sin(phi), rel=1e-12)
            assert math.tan(phi) == pytest.approx(math.tan(q2) * math.sin(p2), rel=1e-12)

    def test_small_psi_gives_small_image(self):
        p2, _ = napier_reflect(0.7, 1e-6)
        assert p2 < 1e-5

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            napier_reflect(0.0, 0.3)
        with pytest.raises(DomainError):
            napier_reflect(0.3, math.pi / 2)

    def test_measure_identity_both_orientations(self, rng):
        # the reflected density times the Jacobian reproduces the original
        # density; by the involution the same holds with roles swapped
        for d in (2, 3):
            for _ in range(5000):
                phi = rng.uniform(0.02, math.pi / 2 - 0.02)
                psi = rng.uniform(0.02, math.pi / 2 - 0.02)
                p2, q2 = napier_reflect(phi, psi)
                forward = (
                    math.sin(p2) ** (d - 2)
                    * math.sin(q2) ** (d - 1)
                    * napier_jacobian(phi, psi)
                )
                original = math.sin(phi) ** (d - 2) * math.sin(psi) ** (d - 1)
                assert forward == pytest.approx(original, rel=1e-10)
                swapped = (
                    math.sin(phi) ** (d - 2)
                    * math.sin(psi) ** (d - 1)
                    * napier_jacobian(p2, q2)
                )
                image = math.sin(p2) ** (d - 2) * math.sin(q2) ** (d - 1)
                assert swapped == pytest.approx(image, rel=1e-10)

    def test_jacobian_against_finite_differences(self, rng):
        h = 1e-6
        for _ in range(100):
            phi = rng.uniform(0.1, math.pi / 2 - 0.1)
            psi = rng.uniform(0.1, math.pi / 2 - 0.1)
            pa, qa = napier_reflect(phi + h, psi)
            pb, qb = napier_reflect(phi - h, psi)
            pc, qc = napier_reflect(phi, psi + h)
            pd, qd = napier_reflect(phi, psi - h)
            det = ((pa - pb) * (qc - qd) - (pc - pd) * (qa - qb)) / (4 * h * h)
            assert abs(det) == pytest.approx(napier_jacobian(phi, psi), abs=1e-6, rel=1e-5)


class TestOrthonormalComplement:
    def test_basis_properties(self, rng):
        for dim in (3, 4, 5):
            z = rng.normal(size=dim)
            z /= np.linalg.norm(z)
            basis = orthonormal_complement(z)
            assert basis.shape == (dim, dim - 1)
            gram = basis.T @ basis
            assert np.abs(gram - np.eye(dim - 1)).max() < 1e-12
            assert np.abs(basis.T @ z).max() < 1e-12

    def test_deterministic(self):
        z = np.array([0.6, 0.0, 0.8])
        assert np.array_equal(orthonormal_complement(z), orthonormal_complement(z))


class TestSeedSpecBasics:
    def test_same_seed_same_stream(self):
        a = SeedSpec(5, 7).generator().random(16)
        b = SeedSpec(5, 7).generator().random(16)
        assert np.array_equal(a, b)

    def test_different_stream_differs(self):
        a = SeedSpec(5, 7).generator().random(16)
        b = SeedSpec(5, 8).generator().random(16)
        assert not np.array_equal(a, b)


class TestDeterminant:
    # 6 and 7 sit on either side of the cut where LU takes over
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7])
    def test_matches_linalg_det(self, rng, k):
        mats = rng.normal(size=(500, k, k))
        got = determinant(mats)
        expected = np.linalg.det(mats)
        assert got.shape == (500,) and not np.shares_memory(got, mats)
        assert np.array_equal(np.sign(got), np.sign(expected))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)
