import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats

import wedgehull.sampling as sampling
from wedgehull import (
    DomainError,
    InternalError,
    ResourceLimit,
    SampleCloud,
    SeedSpec,
    WedgeModel,
    derive_stream,
    sample_beta_prime,
    sample_poisson_wedge,
    sample_uniform_sphere,
    sample_uniform_wedge,
    wedge_contains,
)
from wedgehull.geometry import BLOCK_ROWS, row_blocks, row_norms

from .conftest import make_seed


class TestSeedSpec:
    def test_generator_reproducible(self):
        a = SeedSpec(11, 22).generator().random(32)
        b = SeedSpec(11, 22).generator().random(32)
        assert np.array_equal(a, b)

    def test_substream_depends_on_parts(self):
        base = SeedSpec(11, 22)
        assert base.substream("x") == base.substream("x")
        assert base.substream("x") != base.substream("y")
        assert base.substream("x").master_seed == 11

    def test_bounds_enforced(self):
        with pytest.raises(DomainError):
            SeedSpec(-1, 0)
        with pytest.raises(DomainError):
            SeedSpec(0, 1 << 64)


class TestDeriveStream:
    def test_frozen_value(self):
        # Pinned so accidental changes to the token encoding are caught.
        assert derive_stream("unit", 2, 0.5) == 4525830519326416271

    def test_type_sensitive(self):
        assert derive_stream(1) != derive_stream(1.0)
        assert derive_stream(1) != derive_stream("1")
        assert derive_stream(1.0) != derive_stream("1.0")

    def test_rejects_bools_and_objects(self):
        with pytest.raises(DomainError):
            derive_stream(True)
        with pytest.raises(DomainError):
            derive_stream(None)
        with pytest.raises(DomainError):
            derive_stream((1, 2))

    def test_order_sensitive(self):
        assert derive_stream("a", "b") != derive_stream("b", "a")


class TestUniformSphere:
    def test_empty_draw(self):
        pts = sample_uniform_sphere(2, make_seed("empty"), 0)
        assert pts.shape == (0, 3)

    def test_unit_norms(self):
        pts = sample_uniform_sphere(3, make_seed("norms"), 10**4)
        assert np.abs(np.linalg.norm(pts, axis=1) - 1.0).max() < 1e-12

    def test_mean_vanishes(self):
        n = 10**6
        pts = sample_uniform_sphere(2, make_seed("mean"), n)
        assert np.linalg.norm(pts.mean(axis=0)) < 4.0 / math.sqrt(n)

    def test_coordinate_second_moment(self):
        # E[z_i^2] = 1/(d+1); Var(z_i^2) = 3/((d+1)(d+3)) - 1/(d+1)^2.
        n = 10**6
        for d in (2, 3):
            pts = sample_uniform_sphere(d, make_seed("m2", d), n)
            m2 = (pts**2).mean(axis=0)
            var = 3.0 / ((d + 1) * (d + 3)) - 1.0 / (d + 1) ** 2
            se = math.sqrt(var / n)
            assert np.abs(m2 - 1.0 / (d + 1)).max() <= 3 * se

    def test_rejects_bad_arguments(self):
        with pytest.raises(DomainError):
            sample_uniform_sphere(0, make_seed("bad"), 10)
        with pytest.raises(DomainError):
            sample_uniform_sphere(2, make_seed("bad"), -1)


# Mutually orthogonal normals at d = 3, each a wedge of the fold
FOLD_WEDGES = {
    "wedge3": np.eye(4)[2:],
    "axis_j3": np.eye(4)[1:],  # each reflection is abs() of a column
    "tilted_j3": np.eye(4)[:3] - 0.5,  # rows of I - J/2: each is reflect-and-subtract
}


class TestUniformWedge:
    def test_validation_is_hard(self, wedge2):
        cloud = sample_uniform_wedge(wedge2, make_seed("w", 0), 5000)
        assert len(cloud) == 5000
        assert np.all(cloud.points[:, 1] >= -1e-12)
        assert np.all(cloud.points[:, 2] >= -1e-12)
        assert np.abs(np.linalg.norm(cloud.points, axis=1) - 1.0).max() < 1e-12

    def test_zero_count(self, wedge2):
        cloud = sample_uniform_wedge(wedge2, make_seed("w", 1), 0)
        assert len(cloud) == 0 and cloud.points.shape == (0, 3)

    def test_last_coordinate_mean(self, wedge2):
        # Conditioned on the quarter sphere, z_3 is uniform on (0, 1).
        n = 10**6
        cloud = sample_uniform_wedge(wedge2, make_seed("w", 2), n)
        se = math.sqrt(1.0 / 12.0 / n)
        assert abs(cloud.points[:, 2].mean() - 0.5) <= 3 * se

    @pytest.mark.parametrize("name", sorted(FOLD_WEDGES))
    def test_fold_matches_rejection(self, name):
        # the reference keeps the uniform sphere points that land in the wedge
        model = WedgeModel.from_normals(3, FOLD_WEDGES[name])
        n = 10**5
        fold = sample_uniform_wedge(model, make_seed("fold", name), n).points
        sphere = sample_uniform_sphere(3, make_seed("reject", name), n << model.j)
        reject = sphere[wedge_contains(model, sphere)]
        m = len(reject)
        columns = [(f"z_{c + 1}", fold[:, c], reject[:, c]) for c in range(4)]
        for label, f, r in columns + [
            ("product", fold[:, 2] * fold[:, 3], reject[:, 2] * reject[:, 3]),
        ]:
            diff = abs(f.mean() - r.mean())
            se = math.sqrt(f.var(ddof=1) / n + r.var(ddof=1) / m)
            assert diff <= 4 * se, label
            stat = scipy.stats.ks_2samp(f, r).statistic
            crit = 1.628 * math.sqrt((n + m) / (n * m))
            assert stat <= crit, label

    @pytest.mark.parametrize("d", [2, 3])
    def test_axis_fold_is_bit_identical_to_reflection(self, d):
        model = WedgeModel.right_angle(d)
        points = sample_uniform_sphere(d, make_seed("axis_fold", d), 4096)
        reference = points.copy()
        for normal in model.normals:
            dots = reference @ normal
            neg = dots < 0.0
            reference[neg] -= 2.0 * np.outer(dots[neg], normal)
        folded = sampling._fold_to_wedge(model, points)
        assert np.array_equal(folded.view(np.uint64), reference.view(np.uint64))

    def test_resource_limit(self, wedge2):
        # raised before the draw: MAX_POINTS + 1 points would take gigabytes
        with pytest.raises(ResourceLimit):
            sample_uniform_wedge(wedge2, make_seed("w", 3), sampling.MAX_POINTS + 1)


class TestPoissonWedge:
    def test_gamma_zero(self, wedge2):
        cloud = sample_poisson_wedge(wedge2, 0.0, make_seed("p", 0))
        assert len(cloud) == 0

    def test_count_moments(self, wedge2):
        # Counts are Poisson(gamma * sigma) with sigma = pi for this wedge.
        draws = 30000
        counts = np.array(
            [
                len(sample_poisson_wedge(wedge2, 10.0, make_seed("p", 1, rep)))
                for rep in range(draws)
            ],
            dtype=float,
        )
        mean = counts.mean()
        target = 10.0 * math.pi
        se = math.sqrt(target / draws)
        assert abs(mean - target) <= 3 * se
        ratio = counts.var(ddof=1) / mean
        assert 0.97 <= ratio <= 1.03

    def test_points_land_in_wedge(self, wedge3):
        cloud = sample_poisson_wedge(wedge3, 50.0, make_seed("p", 2))
        assert len(cloud) > 0
        assert np.all(cloud.points @ wedge3.normals.T >= -1e-12)

    def test_resource_limit(self, wedge2):
        with pytest.raises(ResourceLimit):
            sample_poisson_wedge(wedge2, 1e9, make_seed("p", 3))

    def test_negative_gamma(self, wedge2):
        with pytest.raises(DomainError):
            sample_poisson_wedge(wedge2, -1.0, make_seed("p", 4))


class TestBetaPrime:
    def test_zero_dimensional(self):
        out = sample_beta_prime(0, 3.0, make_seed("b", 0), 7)
        assert out.shape == (7, 0)

    def test_parameter_guard(self):
        with pytest.raises(DomainError):
            sample_beta_prime(2, 1.0, make_seed("b", 1), 10)
        with pytest.raises(DomainError):
            sample_beta_prime(-1, 3.0, make_seed("b", 1), 10)

    def test_second_moment_scalar_case(self):
        # k=1, beta=2: E[Z^2] = (k/2) / (beta - k/2 - 1) = 1.  The fourth
        # moment diverges, so the tolerance is wide rather than a 3 SE band.
        z = sample_beta_prime(1, 2.0, make_seed("b", 2), 10**6)
        assert abs((z**2).mean() - 1.0) < 0.05

    def test_radial_law(self):
        # r^2/(1+r^2) is Beta(k/2, beta - k/2); one-sample KS at the 1% level.
        n = 10**5
        crit = 1.628 / math.sqrt(n)
        for case, (k, beta) in enumerate([(1, 2.0), (2, 2.5), (3, 3.0)]):
            x = sample_beta_prime(k, beta, make_seed("b", 3, case), n)
            b = (x**2).sum(axis=1)
            b = b / (1.0 + b)
            stat = scipy.stats.kstest(b, "beta", args=(k / 2.0, beta - k / 2.0)).statistic
            assert stat <= crit, (k, beta)

    def test_projection_closes_the_family(self):
        # Dropping one coordinate of a (k=3, beta=3) draw gives (k=2, beta=5/2).
        n = 10**5
        x = sample_beta_prime(3, 3.0, make_seed("b", 4), n)[:, :2]
        b = (x**2).sum(axis=1)
        b = b / (1.0 + b)
        stat = scipy.stats.kstest(b, "beta", args=(1.0, 1.5)).statistic
        assert stat <= 1.628 / math.sqrt(n)

    def test_direction_law(self):
        n = 10**5
        # k = 1: the sign is a fair coin; 4 binomial SE
        z = sample_beta_prime(1, 2.0, make_seed("b", 6), n)
        assert abs(int((z > 0).sum()) - n / 2) <= 4 * math.sqrt(n) / 2
        # k = 2: the polar angle is uniform; one-sample KS at the 1% level
        x = sample_beta_prime(2, 2.5, make_seed("b", 7), n)
        angle = np.arctan2(x[:, 1], x[:, 0])
        stat = scipy.stats.kstest(angle, "uniform", args=(-math.pi, 2 * math.pi)).statistic
        assert stat <= 1.628 / math.sqrt(n)

    def test_extreme_beta_stays_finite(self):
        # shape beta - k/2 = 0.005: standard_gamma underflows to 0 on ~2% of draws
        x = sample_beta_prime(1, 0.505, make_seed("b", 8), 10**6)
        assert np.isfinite(x).all()

    def test_allocates_only_the_output_and_one_column(self):
        # Peak traced allocation of 3 * 2^20 scalar draws: the 24 MiB output
        # plus one 24 MiB column of scales, computed in place (96 MiB with
        # whole-array temporaries).
        tracemalloc.start()
        try:
            x = sample_beta_prime(1, 2.0, make_seed("b", 9), 3 << 20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert x.nbytes == 24 << 20
        assert peak <= 52 << 20

    def test_reproducible(self):
        a = sample_beta_prime(2, 3.0, make_seed("b", 5), 100)
        b = sample_beta_prime(2, 3.0, make_seed("b", 5), 100)
        assert np.array_equal(a, b)


B = BLOCK_ROWS


class _ScriptedNormals:
    """Stands in for a Generator: standard_normal returns scripted arrays in turn."""

    def __init__(self, draws):
        self.draws = list(draws)
        self.shapes = []

    def standard_normal(self, shape):
        self.shapes.append(shape)
        draw = self.draws.pop(0)
        assert draw.shape == shape
        return draw.copy()


def _whole_array_unit_sphere(rng, d, count):
    # The unblocked pass: normalise the whole draw, redrawing tiny rows first.
    x = rng.standard_normal((count, d + 1))
    norms = np.linalg.norm(x, axis=1)
    while np.any(norms < 1e-300):
        bad = norms < 1e-300
        x[bad] = rng.standard_normal((int(bad.sum()), d + 1))
        norms = np.linalg.norm(x, axis=1)
    return x / norms[:, None]


class TestBlockedPasses:
    """Block-by-block passes give the bits of one whole-array pass."""

    @pytest.mark.parametrize("n", [1, 2, B - 1, B, B + 1, B + 2, 2 * B + 1, 3 * B + 7])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_unit_sphere_is_one_normalised_draw(self, n, d):
        got = sampling._unit_sphere(make_seed("blocks", n, d).generator(), d, n)
        x = make_seed("blocks", n, d).generator().standard_normal((n, d + 1))
        want = x / np.linalg.norm(x, axis=1)[:, None]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_tiny_rows_are_redrawn_in_index_order(self):
        d, n = 2, 2 * B + 3
        rng = np.random.default_rng(11)
        first = rng.standard_normal((n, d + 1))
        first[[5, B + 1, 2 * B + 2]] = 0.0
        second = rng.standard_normal((3, d + 1))
        second[1] = 1e-310  # still tiny: drawn again on its own
        third = rng.standard_normal((1, d + 1))
        draws = (first, second, third)
        blocked = _ScriptedNormals(draws)
        reference = _ScriptedNormals(draws)
        got = sampling._unit_sphere(blocked, d, n)
        want = _whole_array_unit_sphere(reference, d, n)
        assert blocked.shapes == reference.shapes == [(n, d + 1), (3, d + 1), (1, d + 1)]
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_general_normal_fold_is_one_whole_array_pass(self):
        s = 1.0 / math.sqrt(2.0)
        model = WedgeModel.from_normals(2, ((s, s, 0.0), (0.0, 0.0, 1.0)))
        for n in (B + 1, 2 * B + 1, 2 * B + 2):
            points = sample_uniform_sphere(2, make_seed("general_fold", n), n)
            reference = points.copy()
            for normal in model.normals:
                dots = reference @ normal
                neg = dots < 0.0
                reference[neg] -= 2.0 * np.outer(dots[neg], normal)
            folded = sampling._fold_to_wedge(model, points)
            assert np.array_equal(folded.view(np.uint64), reference.view(np.uint64))

    def test_row_blocks_never_end_on_a_lone_row(self):
        for n in (0, 1, 2, B - 1, B, B + 1, 2 * B, 2 * B + 1, 5 * B + 1):
            blocks = row_blocks(n)
            assert [i for rows in blocks for i in range(rows.start, rows.stop)] == list(range(n))
            assert all(rows.stop - rows.start > 1 for rows in blocks) or n == 1
            assert all(rows.stop - rows.start <= B + 1 for rows in blocks)

    @pytest.mark.parametrize("n", [B + 1, 2 * B + 1, 2 * B + 5])
    def test_validate_sees_the_last_block(self, wedge2, n):
        points = sample_uniform_wedge(wedge2, make_seed("last_block", n), n).points
        off_sphere = points.copy()
        off_sphere[-1] *= 1.0 + 1e-9
        with pytest.raises(InternalError, match="non-unit"):
            SampleCloud(wedge2, off_sphere)
        outside = points.copy()
        outside[-1, 2] = -outside[-1, 2] - 1e-6
        outside[-1] /= np.linalg.norm(outside[-1])
        with pytest.raises(InternalError, match="outside the wedge"):
            SampleCloud(wedge2, outside)

    def test_flat_batch_of_the_wrong_width_is_not_reshaped(self):
        # a (2, 6) array holds 12 numbers, as four points on S^2 would
        model = WedgeModel.half_sphere(2)
        points = np.tile(model.center, (2, 2))
        with pytest.raises(DomainError, match=r"\(3,\) or \(n, 3\).*got \(2, 6\)"):
            SampleCloud(model, points)

    def test_wider_points_are_a_domain_error(self, wedge2, wedge3):
        # points of S^3 on a d = 2 model, not a cloud of non-unit points
        points = sample_uniform_wedge(wedge3, make_seed("wide"), 3).points
        with pytest.raises(DomainError, match=r"\(3,\) or \(n, 3\).*got \(3, 4\)"):
            SampleCloud(wedge2, points)

    def test_one_point_and_a_batch_are_accepted(self, wedge2):
        assert len(SampleCloud(wedge2, wedge2.center)) == 1
        assert SampleCloud(wedge2, np.empty((0, 3))).points.shape == (0, 3)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_point_is_named_non_unit(self, wedge2, bad):
        points = sample_uniform_wedge(wedge2, make_seed("non_finite"), 50).points
        points[17, 0] = bad
        with pytest.raises(InternalError, match="non-unit"):
            SampleCloud(wedge2, points)

    def test_sampling_allocates_only_the_points(self, wedge2):
        # Peak traced allocation of one 2^17-point draw: the 3 MiB of points
        # plus block-sized scratch (8.0 MiB with whole-array temporaries).
        n = 1 << 17
        tracemalloc.start()
        try:
            cloud = sample_uniform_wedge(wedge2, make_seed("peak"), n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cloud.points.nbytes == 3 << 20
        assert peak <= 4 << 20


class TestRowNorms:
    @pytest.mark.parametrize("rows", [1, 4097])
    def test_bit_equal_to_linalg_norm(self, rows):
        rng = np.random.default_rng(rows)
        # 129 and 200 columns take numpy's split above 128 terms
        for cols in list(range(1, 21)) + [129, 200]:
            scale = rng.choice([1e-150, 1.0, 1e150], size=(rows, cols))
            block = rng.standard_normal((rows, cols)) * scale
            expected = np.linalg.norm(block, axis=1)
            got = row_norms(block)
            assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist(), cols
