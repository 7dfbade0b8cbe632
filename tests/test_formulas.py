import ast
import math
import re

import numpy as np
import pytest

import wedgehull.formulas as formulas
import wedgehull.suites as suites
from wedgehull import (
    DomainError,
    EstimatorReport,
    SeedSpec,
    appendix_f,
    derive_stream,
    estimate_A_d,
    girard_area,
    i2_bounds,
    i2_closed,
    i2_complement,
    model_constants,
    omega,
    parallelotope_volume,
    wedge_measure,
)

from .conftest import make_seed


def test_omega_known_values():
    assert omega(1) == pytest.approx(2.0, abs=1e-15)
    assert omega(2) == pytest.approx(2 * math.pi, abs=1e-14)
    assert omega(3) == pytest.approx(4 * math.pi, abs=1e-13)
    assert omega(4) == pytest.approx(2 * math.pi**2, abs=1e-13)
    assert omega(5) == pytest.approx(8 * math.pi**2 / 3, abs=1e-13)
    with pytest.raises(DomainError):
        omega(0)


def test_wedge_measure_values():
    assert wedge_measure(2) == pytest.approx(math.pi, abs=1e-14)
    assert wedge_measure(3) == pytest.approx(math.pi**2 / 2, abs=1e-13)
    assert wedge_measure(2, j=1) == pytest.approx(2 * math.pi, abs=1e-13)


class TestCapMeasure:
    def test_phi_zero_is_empty(self):
        psi = np.linspace(0.0, math.pi / 2, 20)
        assert np.abs(i2_closed(2, 0.0, psi)).max() <= 1e-15

    def test_octant_value(self):
        assert i2_closed(2, math.pi / 2, math.pi / 2) == pytest.approx(math.pi / 2, abs=1e-14)

    def test_dim3_spot_value(self):
        phi, psi = 1.0, 0.8
        expect = (
            2 * math.pi**2 / (4 * math.pi) * (psi - math.asin(math.cos(phi) * math.sin(psi)))
        )
        assert i2_closed(3, phi, psi) == pytest.approx(expect, rel=1e-14)

    def test_phi_pi_caps_half_the_band(self):
        psi = np.linspace(0.0, math.pi / 2, 15)
        for d in (2, 3):
            expect = omega(d + 1) * psi / (2 * math.pi)
            assert np.allclose(i2_closed(d, math.pi, psi), expect, rtol=1e-13, atol=1e-15)

    def test_complement_identity(self, rng):
        for d in (2, 3, 4):
            phi = rng.uniform(0.0, math.pi, 300)
            psi = rng.uniform(0.0, math.pi / 2, 300)
            total = i2_closed(d, phi, psi) + i2_complement(d, phi, psi)
            assert np.abs(total - wedge_measure(d)).max() < 1e-12

    def test_monotone_in_each_angle(self):
        phi = np.linspace(0.0, math.pi, 400)
        vals = i2_closed(2, phi, 0.9)
        assert np.all(np.diff(vals) >= -1e-15)
        psi = np.linspace(0.0, math.pi / 2, 400)
        vals = i2_closed(2, 1.1, psi)
        assert np.all(np.diff(vals) >= -1e-15)

    def test_lower_bound_holds_on_grid(self):
        phi = np.linspace(1e-3, math.pi / 2, 80)
        psi = np.linspace(1e-3, math.pi / 2, 80)
        pg, qg = np.meshgrid(phi, psi, indexing="ij")
        for d in (2, 3, 4):
            lower, _ = i2_bounds(d, pg, qg)
            assert np.all(i2_closed(d, pg, qg) >= lower - 1e-15)

    def test_small_angle_asymptotic(self):
        for d in (2, 3, 4):
            _, asym = i2_bounds(d, 1e-2, 1e-2)
            ratio = i2_closed(d, 1e-2, 1e-2) / asym
            assert 0.95 <= ratio <= 1.05

    def test_girard_triangle_reproduces_dim2_cap(self, rng):
        # For d=2 the cap is a spherical triangle with angles pi/2, psi,
        # and pi/2 - arcsin(cos phi sin psi); Girard gives the same area.
        for _ in range(200):
            phi = rng.uniform(0.05, math.pi / 2)
            psi = rng.uniform(0.05, math.pi / 2)
            c = math.pi / 2 - math.asin(math.cos(phi) * math.sin(psi))
            assert girard_area(math.pi / 2, psi, c) == pytest.approx(
                float(i2_closed(2, phi, psi)), abs=1e-12
            )


def test_girard_octant_and_degenerate():
    assert girard_area(math.pi / 2, math.pi / 2, math.pi / 2) == pytest.approx(
        math.pi / 2, abs=1e-15
    )
    assert girard_area(0.3, 0.5, math.pi - 0.8) == pytest.approx(0.0, abs=1e-15)


def svd_volume(mats):
    """Reference route: product of singular values."""
    return np.prod(np.linalg.svd(mats, compute_uv=False), axis=-1)


def nearly_dependent(rng, k, count):
    """Stacks whose second row is the first plus a 1e-16 perturbation."""
    mats = rng.uniform(-0.5, 0.5, size=(count, k, k))
    mats[:, 1] = mats[:, 0] + 1e-16 * rng.normal(size=(count, k))
    return mats


class TestParallelotopeVolume:
    def test_square_matrices_match_determinant(self, rng):
        for k in (2, 3, 4):
            mats = rng.normal(size=(50, k, k))
            vols = parallelotope_volume(mats)
            assert np.allclose(vols, np.abs(np.linalg.det(mats)), rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("lead", [(), (7,), (3, 5)])
    def test_square_stacks_match_svd_route(self, rng, k, lead):
        mats = rng.normal(size=lead + (k, k))
        vols = parallelotope_volume(mats)
        assert np.shape(vols) == lead
        np.testing.assert_allclose(vols, svd_volume(mats), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_nearly_dependent_rows_are_exactly_zero(self, rng, k):
        mats = nearly_dependent(rng, k, 40)
        # |det| alone would report these tiny volumes; the SVD fallback snaps them
        assert np.any(np.linalg.det(mats) != 0.0)
        assert np.all(parallelotope_volume(mats) == 0.0)

    def test_fallback_only_touches_unsure_stacks(self, rng):
        mats = rng.normal(size=(20, 3, 3))
        mats[::2] = nearly_dependent(rng, 3, 10)
        vols = parallelotope_volume(mats)
        assert np.all(vols[::2] == 0.0)
        np.testing.assert_allclose(vols[1::2], svd_volume(mats[1::2]), rtol=1e-12)

    def test_dim2_rows_give_the_exact_difference(self, rng):
        # estimate_A_d's d=2 rows are (u_i, 1): the closed form is |u_1 - u_2| rounded once
        u = rng.uniform(-1.0, 1.0, size=(10**4, 2))
        rows = np.stack([u, np.ones_like(u)], axis=-1)
        np.testing.assert_array_equal(parallelotope_volume(rows), np.abs(u[:, 0] - u[:, 1]))

    def test_just_above_threshold_matches_svd(self, rng, monkeypatch):
        # |det| = 5e-13 against a threshold of 1e-13 ||A||_F^3 = 2.8e-13, so the
        # cofactor expansion answers (the SVD must not be called).  Both routes
        # are off by a few u ||A||_F^3 ~ 2e-15 absolute, under 1e-2 of |det|.
        q1 = np.linalg.qr(rng.normal(size=(500, 3, 3)))[0]
        q2 = np.linalg.qr(rng.normal(size=(500, 3, 3)))[0]
        mats = q1 @ (np.array([1.0, 1.0, 5e-13])[:, None] * q2)
        reference = svd_volume(mats)

        def no_svd(stacks):
            raise AssertionError(f"{len(stacks)} stacks sent to the SVD")

        monkeypatch.setattr(formulas, "_svd_volume", no_svd)
        np.testing.assert_allclose(parallelotope_volume(mats), reference, rtol=1e-2)

    @pytest.mark.parametrize("k", [2, 3])
    def test_nan_and_overflow_take_the_svd_path(self, k, monkeypatch):
        sent = []
        real = formulas._svd_volume

        def spy(stacks):
            sent.append(len(stacks))
            return real(stacks)

        monkeypatch.setattr(formulas, "_svd_volume", spy)
        nan_entry = np.eye(k)
        nan_entry[0, 0] = np.nan
        inf_entry = np.eye(k)
        inf_entry[0, 1] = np.inf
        huge_scale = np.diag([1e160] + [1e-160] * (k - 1))  # |det| is finite, ||A||_F^k is not
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(DomainError, match="finite"):
                parallelotope_volume(nan_entry)
            assert parallelotope_volume(1e200 * np.eye(k)) == np.inf
            with pytest.raises(DomainError, match="finite"):
                parallelotope_volume(inf_entry)
            assert parallelotope_volume(huge_scale) == 0.0
        assert sent == [1, 1, 1, 1]

    @pytest.mark.parametrize("k", [2, 3])
    def test_million_stacks_agree_with_det(self, rng, k):
        # Relative to |det| itself the LU route is off by up to ~1e-9 on
        # near-singular stacks, so both are compared on the threshold's scale.
        mats = rng.normal(size=(10**6, k, k))
        vols = parallelotope_volume(mats)
        scale = np.einsum("ijk,ijk->i", mats, mats) ** (k / 2.0)
        above = vols > 1e-13 * scale
        assert above.mean() > 0.999
        error = np.abs(vols - np.abs(np.linalg.det(mats)))[above]
        assert np.all(error <= 1e-14 * scale[above])

    def test_axis_aligned(self):
        assert parallelotope_volume(np.diag([2.0, 3.0])) == pytest.approx(6.0, rel=1e-14)

    def test_repeated_rows_are_exactly_zero(self):
        row = np.array([0.3, -1.2, 0.7])
        assert parallelotope_volume(np.stack([row, row])) == 0.0

    def test_rectangular_matches_gram(self, rng):
        vecs = rng.normal(size=(2, 4))
        gram = vecs @ vecs.T
        assert parallelotope_volume(vecs) == pytest.approx(
            math.sqrt(np.linalg.det(gram)), rel=1e-12
        )

    def test_too_many_vectors(self):
        with pytest.raises(DomainError):
            parallelotope_volume(np.zeros((3, 2)))


class TestEstimateAd:
    def test_dim2_matches_exact_value(self):
        report = estimate_A_d(2, 10**6, make_seed("A", 2))
        assert abs(report.value - 2.0 / 3.0) <= 3 * report.std_error
        assert report.std_error > 0

    def test_reproducible(self):
        a = estimate_A_d(2, 20000, make_seed("A", "rep"))
        b = estimate_A_d(2, 20000, make_seed("A", "rep"))
        assert a.value == b.value and a.std_error == b.std_error

    def test_std_error_scales_like_root_n(self):
        ses = [
            estimate_A_d(2, n, make_seed("A", "scale", n)).std_error
            for n in (10**4, 10**5, 10**6)
        ]
        for lo, hi in zip(ses[1:], ses[:-1]):
            ratio = hi / lo
            assert math.sqrt(10) / 1.2 <= ratio <= math.sqrt(10) * 1.2

    @pytest.mark.parametrize(
        "d, value", [(2, 0.6666223403010235), (3, 0.8726578233942353)]
    )
    def test_summary_constants_are_pinned(self, d, value):
        seed = SeedSpec(20260815, derive_stream("constants", d))
        assert estimate_A_d(d, 10**6, seed).value == value

    @pytest.mark.parametrize("d", [2, 3])
    def test_blocks_match_one_concatenated_chunk(self, d):
        # 70001 samples: one chunk, two whole blocks and a partial one
        count = 70001
        seed = make_seed("A", "blocks", d)
        rng = seed.substream("A_d", 0).generator()
        u = rng.uniform(-1.0, 1.0, (count, d, 1))
        z = formulas._beta_prime(rng, d - 2, (d + 1) / 2.0, count * d)
        rows = np.concatenate([u, z.reshape(count, d, d - 2), np.ones((count, d, 1))], axis=2)
        volumes = parallelotope_volume(rows)
        report = estimate_A_d(d, count, seed)
        assert report.value == float(volumes.sum()) / count

    def test_guards(self):
        with pytest.raises(DomainError):
            estimate_A_d(1, 10**4, make_seed("A", "bad"))
        with pytest.raises(DomainError):
            estimate_A_d(2, 999, make_seed("A", "bad"))


class TestModelConstants:
    def test_dim2_exact(self):
        consts = model_constants(2, 2.0 / 3.0)
        assert consts.c_d2 == pytest.approx(4.0 / 3.0, rel=1e-15)
        assert consts.b_d == pytest.approx(0.5, rel=1e-14)
        assert consts.B_d == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_ratio_identity_across_dims(self):
        for d in range(2, 7):
            consts = model_constants(d, 0.8)
            assert consts.B_d / consts.b_d**d == pytest.approx(
                2.0 ** (d - 1) * consts.A_d, rel=1e-12
            )

    def test_accepts_estimator_report(self):
        report = estimate_A_d(2, 10**4, make_seed("A", "wrap"))
        consts = model_constants(2, report)
        assert consts.A_d == report.value

    def test_guards(self):
        with pytest.raises(DomainError):
            model_constants(1, 0.5)
        with pytest.raises(DomainError):
            model_constants(2, 0.0)


class TestAppendixF:
    def test_x_right_angle_row(self):
        y = np.linspace(0.2, math.pi, 40)
        assert np.allclose(appendix_f(math.pi / 2, y), 2.0 / (math.pi * y), rtol=1e-12)

    def test_x_zero_limit(self):
        y = np.array([0.5, 1.0, 2.0])
        assert np.allclose(appendix_f(0.0, y), (1.0 - np.cos(y)) / y**2, rtol=1e-13)

    def test_origin_limit(self):
        assert appendix_f(0.01, 0.01) == pytest.approx(0.5, abs=1e-3)
        assert appendix_f(1e-8, 1e-8) == pytest.approx(0.5, abs=1e-10)

    def test_corner_value(self):
        assert appendix_f(math.pi / 2, math.pi) == pytest.approx(2.0 / math.pi**2, rel=1e-13)

    def test_series_matches_direct_at_the_cutoff(self):
        for x in (0.0, 4e-4, 9.9e-4):
            below = appendix_f(x, 9.99e-4)
            above = appendix_f(x, 1.001e-3)
            assert abs(below - above) < 1e-5

    def test_domain_guard(self):
        with pytest.raises(DomainError):
            appendix_f(0.1, 0.0)
        with pytest.raises(DomainError):
            appendix_f(-0.1, 0.5)

    def test_broadcasting(self):
        x = np.linspace(0.1, 1.0, 4)[:, None]
        y = np.linspace(0.1, 2.0, 5)[None, :]
        assert appendix_f(x, y).shape == (4, 5)


class TestAppendixInequalities:
    """The inequalities on the quotient f, as suites.suite_appendix checks them."""

    NAMES = (
        "f_minimum",
        "angle_average",
        "arcsin_sqrt",
        "cosine_quadratic",
        "norm_exercise",
        "f_origin_value",
        "f_edge_formula",
    )

    def test_default_grid_passes(self):
        results = suites.suite_appendix()
        assert tuple(r.name for r in results) == self.NAMES
        assert all(r.passed and r.suite == "appendix" for r in results)
        for result in results[:5]:  # the grid checks
            slack, witness = re.fullmatch(r"min slack (\S+) at (\(.*\))", result.detail).groups()
            assert float(slack) > 0
            witness = ast.literal_eval(witness)
            assert len(witness) in (1, 2)
            assert all(math.isfinite(w) for w in witness)

    def test_finer_grid_passes(self):
        assert all(r.passed for r in suites.suite_appendix(grid_resolution=400))

    def test_a_broken_inequality_fails_under_its_own_name(self, monkeypatch):
        real = suites.appendix_f
        # f is broken near y = pi only: the grid minimum fails, the pinned values do not
        monkeypatch.setattr(
            suites, "appendix_f", lambda x, y: np.where(np.asarray(y) > 3.0, 0.0, real(x, y))
        )
        results = suites.suite_appendix()
        assert tuple(r.name for r in results) == self.NAMES
        assert [r.name for r in results if not r.passed] == ["f_minimum"]

    def test_resolution_guard(self):
        with pytest.raises(DomainError):
            suites.suite_appendix(grid_resolution=99)


def test_estimator_report_guards():
    with pytest.raises(DomainError):
        EstimatorReport(value=1.0, std_error=-1e-3, sample_count=10, seed=make_seed("r"))
    with pytest.raises(DomainError):
        EstimatorReport(value=1.0, std_error=0.1, sample_count=0, seed=make_seed("r"))
