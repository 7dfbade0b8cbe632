import hashlib
import json
import math

import mpmath
import numpy as np
import pytest
import scipy.integrate
import scipy.special
import scipy.stats

import wedgehull.oracles as oracles
import wedgehull.suites as suites
from wedgehull import (
    DomainError,
    EstimatorReport,
    LimitLemmaReport,
    QuadratureError,
    SeedSpec,
    WedgeModel,
    i2_closed,
    mc_binomial_limit_lemma,
    mc_cap_measure,
    mc_I1,
    normal_from_angles,
    omega,
    opening_angle,
    orthonormal_complement,
    parallelotope_volume,
    quadrature_I1_dim2,
    sample_uniform_sphere,
    wedge_contains,
    wedge_measure,
)
from wedgehull.oracles import (
    _BATCH,
    binomial_limit_integrand_value,
    cross_section_measure,
    i1_upper_bound,
    subsphere_wedge_points,
)
from wedgehull.sampling import _unit_sphere

from .conftest import make_seed


def top_axis(model):
    """e_{d+1}: its cap x . z >= 0 holds the whole wedge of a right-angle or half-sphere model."""
    z = np.zeros(model.d + 1)
    z[-1] = 1.0
    return z


class TestWedgeMeasureOracle:
    def test_quarter_sphere_values(self, wedge2, wedge3):
        for model, target in ((wedge2, math.pi), (wedge3, math.pi**2 / 2)):
            (est,) = mc_cap_measure(model, [top_axis(model)], 2 * 10**5, make_seed("wm", model.d))
            assert abs(est.value - target) <= 3 * est.std_error

    def test_half_sphere(self):
        model = WedgeModel.half_sphere(2)
        (est,) = mc_cap_measure(model, [top_axis(model)], 2 * 10**5, make_seed("wm", "half"))
        assert abs(est.value - 2 * math.pi) <= 3 * est.std_error

    def test_std_error_scaling(self, wedge2):
        z = top_axis(wedge2)
        se4 = mc_cap_measure(wedge2, [z], 10**4, make_seed("wm", "s", 4))[0].std_error
        se6 = mc_cap_measure(wedge2, [z], 10**6, make_seed("wm", "s", 6))[0].std_error
        assert 10.0 / 1.2 <= se4 / se6 <= 10.0 * 1.2

    def test_minimum_sample_guard(self, wedge2):
        with pytest.raises(DomainError):
            mc_cap_measure(wedge2, [top_axis(wedge2)], 9999, make_seed("wm", "g"))


class TestCapMeasureOracle:
    def test_normal_direction_recovers_full_wedge(self, wedge2):
        z = np.array([0.0, 0.0, 1.0])
        (est,) = mc_cap_measure(wedge2, [z], 2 * 10**5, make_seed("cap", 0))
        assert abs(est.value - math.pi) <= 3 * est.std_error

    def test_opposite_normal_is_empty(self, wedge2):
        z = np.array([0.0, 0.0, -1.0])
        (est,) = mc_cap_measure(wedge2, [z], 10**5, make_seed("cap", 1))
        assert est.value == 0.0

    def test_matches_closed_form_dim3(self, wedge3):
        phi, psi = 1.0, 0.8
        u = np.array([1.0, 0.0])
        z = normal_from_angles(phi, psi, u)
        (est,) = mc_cap_measure(wedge3, [z], 2 * 10**5, make_seed("cap", 2))
        assert abs(est.value - float(i2_closed(3, phi, psi))) <= 3 * est.std_error

    def test_complement_sums_to_wedge(self, wedge2):
        z = normal_from_angles(0.7, 0.5, np.array([1.0]))
        (a,) = mc_cap_measure(wedge2, [z], 2 * 10**5, make_seed("cap", 3))
        (b,) = mc_cap_measure(wedge2, [-z], 2 * 10**5, make_seed("cap", 4))
        combined_se = math.hypot(a.std_error, b.std_error)
        assert abs(a.value + b.value - wedge_measure(2)) <= 3 * combined_se

    def test_direction_guards(self, wedge2):
        with pytest.raises(DomainError):
            mc_cap_measure(wedge2, [np.array([0.0, 0.0, 2.0])], 10**4, make_seed("cap", 5))
        with pytest.raises(DomainError):
            mc_cap_measure(wedge2, [np.array([0.0, 1.0, 0.0, 0.0])], 10**4, make_seed("cap", 6))
        with pytest.raises(DomainError):
            mc_cap_measure(wedge2, [np.array([0.0, 0.0, 1.0])], 100, make_seed("cap", 7))

    def test_stack_matches_one_row_calls(self, wedge2):
        # every row is tested on the same chunks, across a chunk boundary
        count = _BATCH + 7
        z = normal_from_angles(0.7, 0.5, np.array([1.0]))
        directions = np.stack([z, -z, top_axis(wedge2)])
        stacked = mc_cap_measure(wedge2, directions, count, make_seed("cap", 8))
        singles = tuple(
            mc_cap_measure(wedge2, [row], count, make_seed("cap", 8))[0] for row in directions
        )
        assert stacked == singles and len(stacked) == 3

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("k", [1, 20])
    @pytest.mark.parametrize("seed", range(3))
    def test_hits_match_the_uncompacted_count(self, d, k, seed):
        # counting over the in-wedge rows only gives the hits of a test on
        # every sphere point masked by wedge membership, over a full and a
        # partial chunk
        model = WedgeModel.right_angle(d)
        count = _BATCH + 999
        spec = make_seed("cap", "compact", d, k, seed)
        directions = sample_uniform_sphere(d, make_seed("cap", "dirs", d, k, seed), k)
        hits = [0] * k
        for chunk, done in enumerate(range(0, count, _BATCH)):
            chunk_seed = spec.substream("cap_measure", chunk)
            points = sample_uniform_sphere(d, chunk_seed, min(_BATCH, count - done))
            inside = wedge_contains(model, points)
            for row, z in enumerate(directions):
                hits[row] += int(np.count_nonzero(inside & (points @ z >= 0.0)))
        reports = mc_cap_measure(model, directions, count, spec)
        assert [r.value for r in reports] == [omega(d + 1) * (h / count) for h in hits]

    @pytest.mark.parametrize(
        "directions",
        [
            np.array([0.0, 0.0, 1.0]),  # one vector, not a stack
            np.array([[0.0, 0.0, 1.0], [0.0, 0.6, 0.6]]),  # second row not unit
            np.array([[0.0, 0.0, 1.0], [0.0, np.nan, 1.0]]),
            np.empty((0, 3)),
        ],
    )
    def test_stack_guards(self, wedge2, directions):
        with pytest.raises(DomainError):
            mc_cap_measure(wedge2, directions, 10**4, make_seed("cap", 9))


def _slice_normal(d, phi, psi):
    u = np.zeros(d - 1)
    u[0] = 1.0
    return normal_from_angles(phi, psi, u)


def _rejection_slice_points(d, phi, psi, count, seed):
    """Reference sampler: isotropic points on the slice, rejected to the wedge."""
    model = WedgeModel.right_angle(d)
    basis = orthonormal_complement(_slice_normal(d, phi, psi))
    rng = seed.generator()
    kept = []
    have = 0
    while have < count:
        pts = _unit_sphere(rng, d - 1, 10**5) @ basis.T
        pts = pts[wedge_contains(model, pts)]
        kept.append(pts)
        have += len(pts)
    return np.concatenate(kept)[:count]


class TestCrossSection:
    def test_dim2_reduces_to_opening_angle(self):
        for phi, psi in ((0.9, 0.5), (0.3, 1.2), (1.4, 0.1)):
            beta = float(opening_angle(phi, psi))
            assert cross_section_measure(2, phi, psi) == pytest.approx(beta, rel=1e-14)

    def test_psi_zero_slice(self):
        # d=3 slices live on a 2-sphere; a lune of angle beta has measure 2 beta.
        assert cross_section_measure(3, 0.8, 0.0) == pytest.approx(2 * 0.8, rel=1e-13)

    def test_hit_fraction_agreement(self, rng):
        # The rejection acceptance on the sliced subsphere is beta/(2 pi).
        for d, phi, psi in ((2, 0.9, 0.5), (3, 1.1, 0.7)):
            model = WedgeModel.right_angle(d)
            basis = orthonormal_complement(_slice_normal(d, phi, psi))
            n = 2 * 10**5
            pts = _unit_sphere(make_seed("xsec", d).generator(), d - 1, n) @ basis.T
            frac = wedge_contains(model, pts).mean()
            target = float(opening_angle(phi, psi)) / (2 * math.pi)
            se = math.sqrt(target * (1 - target) / n)
            assert abs(frac - target) <= 3 * se

    def test_subsphere_points_live_on_slice_and_wedge(self, wedge3):
        z = normal_from_angles(0.8, 0.6, np.array([1.0, 0.0]))
        pts = subsphere_wedge_points(3, 0.8, 0.6, 500, make_seed("sub"))
        assert pts.shape == (500, 4)
        assert np.abs(pts @ z).max() < 1e-12
        assert np.all(pts @ wedge3.normals.T >= -1e-12)


class TestLuneSampler:
    def test_arc_matches_opening_angle(self):
        for d in (2, 3, 4):
            for phi in np.linspace(0.0, math.pi - 1e-6, 13):
                for psi in (1e-6, 1e-3, 0.3, 0.9, 1.4, math.pi / 2 - 1e-6):
                    _, plane, _, width = oracles._lune_frame(d, phi, psi)
                    assert width == pytest.approx(float(opening_angle(phi, psi)), abs=1e-9)
                    assert np.abs(plane @ plane.T - np.eye(2)).max() < 1e-14

    def test_psi_zero_is_rejected(self):
        # z = -e_(d+1) is parallel to a wedge normal: the slice is a half
        # subsphere, not the lune of angle phi that the closed form uses.
        for d in (2, 3):
            with pytest.raises(DomainError):
                subsphere_wedge_points(d, 0.8, 0.0, 10, make_seed("psi0", d))
        with pytest.raises(DomainError):
            mc_I1(2, 0.8, 0.0, 10**4, make_seed("psi0"))

    def test_thin_slice_returns_count(self):
        for d in (2, 3):
            model = WedgeModel.right_angle(d)
            z = _slice_normal(d, 1e-4, 0.3)
            pts = subsphere_wedge_points(d, 1e-4, 0.3, 20000, make_seed("thin", d))
            assert pts.shape == (20000, d + 1)
            assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-14
            assert np.abs(pts @ z).max() < 1e-12
            assert wedge_contains(model, pts).all()

    def test_agrees_with_rejection_dim3(self):
        d, phi, psi, count = 3, 1.1, 0.7, 30000
        model = WedgeModel.right_angle(d)
        direct = subsphere_wedge_points(d, phi, psi, count, make_seed("lune", "direct"))
        reference = _rejection_slice_points(d, phi, psi, count, make_seed("lune", "reject"))
        for normal in model.normals:
            assert scipy.stats.ks_2samp(direct @ normal, reference @ normal).pvalue > 1e-3
        vols_a = parallelotope_volume(direct.reshape(-1, d, d + 1))
        vols_b = parallelotope_volume(reference.reshape(-1, d, d + 1))
        se = math.hypot(
            vols_a.std(ddof=1) / math.sqrt(vols_a.size),
            vols_b.std(ddof=1) / math.sqrt(vols_b.size),
        )
        assert abs(vols_a.mean() - vols_b.mean()) <= 4 * se

    def test_inplane_angle_uniform_dim2(self):
        # Angle from the arc's end on the first bounding circle is uniform on [0, beta].
        for phi, psi in ((0.9, 0.5), (2.5, 1.2), (0.05, 0.05)):
            model = WedgeModel.right_angle(2)
            basis = orthonormal_complement(_slice_normal(2, phi, psi))
            first, second = model.normals @ basis
            end = np.array([-first[1], first[0]])
            end *= np.sign(end @ second) / np.linalg.norm(end)
            pts = subsphere_wedge_points(2, phi, psi, 5000, make_seed("angle", phi))
            angle = np.arccos(np.clip((pts @ basis) @ end, -1.0, 1.0))
            beta = float(opening_angle(phi, psi))
            assert scipy.stats.kstest(angle, "uniform", args=(0.0, beta)).pvalue > 1e-3


class TestI1Oracle:
    def test_matches_quadrature_dim2(self):
        phi, psi = 0.9, 0.6
        est = mc_I1(2, phi, psi, 2 * 10**4, make_seed("i1", 0))
        assert abs(est.value - quadrature_I1_dim2(phi, psi)) <= 3 * est.std_error

    def test_upper_bound(self):
        assert i1_upper_bound(2) == pytest.approx(math.pi**2, rel=1e-14)
        assert i1_upper_bound(3) == pytest.approx((2 * math.pi) ** 3, rel=1e-13)
        est = mc_I1(3, 1.2, 0.9, 10**4, make_seed("i1", 1))
        assert est.value < i1_upper_bound(3)

    def test_small_angle_ratio(self):
        phi, psi = 0.05, 0.05
        est = mc_I1(2, phi, psi, 10**4, make_seed("i1", 2))
        ratio = est.value / quadrature_I1_dim2(phi, psi)
        assert 0.9 <= ratio <= 1.1

    def test_reproducible(self):
        a = mc_I1(2, 0.7, 0.4, 10**4, make_seed("i1", 3))
        b = mc_I1(2, 0.7, 0.4, 10**4, make_seed("i1", 3))
        assert a.value == b.value

    def test_sample_guard(self):
        with pytest.raises(DomainError):
            mc_I1(2, 0.7, 0.4, 100, make_seed("i1", 4))


class TestQuadratureI1:
    def test_closed_identity(self):
        # The double integral collapses to 2 beta - 2 sin beta exactly.
        for phi in (0.05, 0.3, 0.9, 1.4):
            for psi in (0.05, 0.5, 1.2):
                beta = float(opening_angle(phi, psi))
                expect = 2 * beta - 2 * math.sin(beta)
                assert quadrature_I1_dim2(phi, psi) == pytest.approx(expect, abs=1e-10)

    def test_vanishes_with_the_slice(self):
        assert quadrature_I1_dim2(1e-8, 0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("beta", [1e-8, 1e-4, 0.05, 1.0, 3.0])
    def test_full_relative_accuracy(self, beta):
        # psi = 0 makes the opening angle phi itself; the series branch and the
        # direct one each against 50-digit arithmetic
        assert float(opening_angle(beta, 0.0)) == beta
        with mpmath.workdps(50):
            b = mpmath.mpf(beta)
            expect = float(2 * (b - mpmath.sin(b)))
        assert quadrature_I1_dim2(beta, 0.0) == pytest.approx(expect, rel=1e-13, abs=0.0)


class TestLimitLemma:
    def test_frozen_reference_values(self):
        # Pinned outputs of the deterministic quadrature at n = 10^6.
        r2 = mc_binomial_limit_lemma(2, 1.0, [10**6], 0.3)
        assert r2.ratios[-1] == pytest.approx(0.882252310479965, rel=1e-9)
        r3 = mc_binomial_limit_lemma(3, 1.0, [10**6], 0.3)
        assert r3.ratios[-1] == pytest.approx(1.6921255200420342, rel=1e-9)

    def test_scaled_sequence_increases(self):
        report = mc_binomial_limit_lemma(2, 1.0, [10**3, 10**4, 10**5, 10**6], 0.3)
        assert all(b > a for a, b in zip(report.ratios, report.ratios[1:]))
        assert report.target == 1.0
        assert report.final_relative_gap == pytest.approx(
            abs(report.ratios[-1] - 1.0), rel=1e-12
        )

    def test_against_direct_double_quadrature(self):
        # Small n admits a brute-force 2-D quadrature of the raw integrand.
        d, alpha, n, eps = 2, 1.0, 50, 0.3
        direct, abserr = scipy.integrate.dblquad(
            lambda t, s: (s * t) ** (d - 1) * (1.0 - s * t / n) ** (n - d),
            0.0,
            n * alpha,
            0.0,
            eps,
            epsabs=1e-12,
            epsrel=1e-11,
        )
        value = binomial_limit_integrand_value(d, alpha, n, eps)
        assert value == pytest.approx(direct, rel=1e-8)

    def test_dim3_direct_quadrature(self):
        d, alpha, n, eps = 3, 1.5, 40, 0.25
        direct, _ = scipy.integrate.dblquad(
            lambda t, s: (s * t) ** (d - 1) * (1.0 - s * t / n) ** (n - d),
            0.0,
            n * alpha,
            0.0,
            eps,
            epsabs=1e-12,
            epsrel=1e-11,
        )
        value = binomial_limit_integrand_value(d, alpha, n, eps)
        assert value == pytest.approx(direct, rel=1e-7)

    @pytest.mark.parametrize("d", sorted(suites.LIMITS_BUDGETS))
    def test_rule_within_its_estimate_of_a_finer_rule(self, d):
        eps, alpha_a, alpha_b, _ = suites.LIMITS_BUDGETS[d]
        width = oracles._LIMIT_PANEL_WIDTH
        for alpha in (alpha_a, alpha_b):
            for n in (10**3, 10**4, 10**5, 10**6):  # suite_limits' grid
                value, abserr = oracles._limit_integral(d, alpha, n, eps, width)
                finer, _ = oracles._limit_integral(d, alpha, n, eps, width / 4.0)
                assert abs(value - finer) <= abserr, (alpha, n)

    def test_saturated_tail(self):
        # alpha * eps > 1: above y = log(n/eps) the incomplete beta is exactly 1,
        # and at small n it reaches 1 only there, with a kink
        d, alpha, n, eps = 2, 10.0, 3, 0.3
        a, b = d, n - d + 1
        y_hi = math.log(n * alpha)
        direct, _ = scipy.integrate.quad(
            lambda y: scipy.special.betainc(a, b, min(eps * math.exp(y) / n, 1.0)),
            math.log(1e-6),
            y_hi,
            points=[math.log(d / eps), math.log(n / eps)],
            epsabs=0.0,
            epsrel=1e-12,
            limit=200,
        )
        scale = n**d * math.exp(scipy.special.betaln(a, b))
        value = binomial_limit_integrand_value(d, alpha, n, eps)
        assert value == pytest.approx(scale * direct, rel=1e-10)

    def test_coarse_rule_raises(self, monkeypatch):
        # one and two panels a side disagree far beyond 10 * _QUAD_RTOL
        monkeypatch.setattr(oracles, "_LIMIT_PANEL_WIDTH", 40.0)
        with pytest.raises(QuadratureError, match="limit-lemma quadrature error"):
            binomial_limit_integrand_value(2, 1.0, 10**6, 0.3)

    def test_parameter_guards(self):
        with pytest.raises(DomainError):
            binomial_limit_integrand_value(2, 1.0, 100, 0.5)
        with pytest.raises(DomainError):
            binomial_limit_integrand_value(2, 1.0, 100, 0.0)
        with pytest.raises(DomainError):
            binomial_limit_integrand_value(2, -1.0, 100, 0.3)
        with pytest.raises(DomainError):
            binomial_limit_integrand_value(2, 1.0, 2, 0.3)
        with pytest.raises(DomainError):
            mc_binomial_limit_lemma(2, 1.0, [100, 100], 0.3)
        with pytest.raises(DomainError):
            mc_binomial_limit_lemma(2, 1.0, [], 0.3)

    def test_report_is_frozen_dataclass(self):
        report = mc_binomial_limit_lemma(2, 1.0, [10**3], 0.3)
        assert isinstance(report, LimitLemmaReport)
        with pytest.raises(AttributeError):
            report.target = 2.0


class TestSuiteZScores:
    def test_zero_hit_pair_fails_the_cap_check(self, monkeypatch):
        # a hit fraction of 0 has standard error 0; the check must fail, not divide by it
        def no_hits(model, directions, sample_count, seed):
            return tuple(EstimatorReport(value=0.0, std_error=0.0) for _ in directions)

        monkeypatch.setattr(oracles, "mc_cap_measure", no_hits)
        checks = suites.suite_i2(dims=(2,), pairs=3, sample_count=10**4)
        cap = next(c for c in checks if c.name == "cap_measure_vs_closed_d2")
        assert not cap.passed and "max |z-score| inf" in cap.detail

    def test_thin_cap_at_small_budget_draws_no_hits(self):
        # phi = psi = 0.1, the corner that _interior_angles allows, at 10^4 samples
        z = normal_from_angles(0.1, 0.1, np.array([1.0]))
        (est,) = mc_cap_measure(WedgeModel.right_angle(2), [z], 10**4, SeedSpec(0, 0))
        assert (est.value, est.std_error) == (0.0, 0.0)
        assert suites._z_score(est, float(i2_closed(2, 0.1, 0.1))) == math.inf
        assert suites._z_score(est, 0.0) == 0.0


class TestPinnedBits:
    """Oracle outputs pinned bit for bit, so a change in how they draw shows."""

    def test_cap_measure_and_subsphere_draws(self):
        z = np.array([0.6, 0.0, 0.0, 0.8])
        # 3 * 10^5 samples: three chunks, each on its own substream
        (est,) = mc_cap_measure(WedgeModel.right_angle(3), [z], 3 * 10**5, SeedSpec(7, 11))
        assert (est.value, est.std_error) == (3.9061920298631465, 0.014358134039016422)
        points = subsphere_wedge_points(3, 0.7, 0.4, 1000, SeedSpec(7, 12))
        digest = hashlib.blake2b(points.tobytes(), digest_size=16).hexdigest()
        assert digest == "bc5abe58a89e394f519d939f6eb87950"

    def test_verify_all_budget_checks(self):
        # suite_i2 and suite_i1 at the sample counts of the verify_all benchmark
        checks = suites.suite_i2(sample_count=10**5) + suites.suite_i1(
            dims=(2,), sample_count=10**4
        )
        text = json.dumps([c.to_dict() for c in checks])
        digest = hashlib.blake2b(text.encode(), digest_size=16).hexdigest()
        assert digest == "491fefc1a61bdd7fc429d1194028ec57"
