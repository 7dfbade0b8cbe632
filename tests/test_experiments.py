import json
import math
import os
import sys

import numpy as np
import pytest

import wedgehull.experiments as experiments
import wedgehull.geometry as geometry
from wedgehull import (
    DegenerateInput,
    DomainError,
    ExperimentConfig,
    FitError,
    RunRecord,
    SeedSpec,
    WedgeModel,
    config_hash,
    derive_stream,
    facets_projected,
    fit_slope,
    run_experiment,
    sample_uniform_wedge,
    summarize,
)
from wedgehull.experiments import (
    CSV_HEADER,
    aggregate,
    fit_window,
    read_csv,
    write_csv,
    write_summary,
)

SEED = 20260815
_S = 1.0 / math.sqrt(2.0)
# The probe's wedge at d = 3: three axis normals, j = 3
_AXIS3 = ((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0))


def strip_wall(records):
    return [
        (r.model, r.d, r.j, r.size_param, r.rep_index,
         r.facet_count, r.vertex_count, r.stream_id, r.flag)
        for r in records
    ]


def binomial_cfg(**overrides):
    base = dict(model="binomial", d=2, grid=(8, 16, 32), reps=4, master_seed=SEED)
    base.update(overrides)
    return ExperimentConfig(**base)


def synthetic_records(sizes, counts, reps=2):
    records = []
    for size, count in zip(sizes, counts):
        for rep in range(reps):
            records.append(
                RunRecord(
                    model="binomial",
                    d=2,
                    j=2,
                    size_param=size,
                    rep_index=rep,
                    facet_count=count,
                    vertex_count=count,
                    wall_time_ms=1.0,
                    stream_id=rep,
                )
            )
    return records


class TestConfig:
    def test_model_guard(self):
        with pytest.raises(DomainError):
            binomial_cfg(model="mystery")

    def test_grid_guards(self):
        with pytest.raises(DomainError):
            binomial_cfg(grid=())
        with pytest.raises(DomainError):
            binomial_cfg(grid=(16, 8))
        with pytest.raises(DomainError):
            binomial_cfg(grid=(8, 8))

    @pytest.mark.parametrize(
        "extra",
        [
            dict(model="binomial"),
            dict(model="halfsphere"),
            dict(model="polygon_baseline", ell=4),
            dict(model="conjecture_probe", d=3, normals=_AXIS3),
        ],
    )
    def test_fixed_size_grids_must_be_whole(self, extra):
        with pytest.raises(DomainError):
            binomial_cfg(grid=(100.5, 200), **extra)
        assert binomial_cfg(grid=(100.0, 200), **extra).grid == (100.0, 200)

    @pytest.mark.parametrize(
        "extra",
        [
            dict(grid=(10**9, 2 * 10**9, 4 * 10**9)),
            dict(model="polygon_baseline", grid=(10**3, 10**6, 10**12)),
            dict(
                model="conjecture_probe",
                d=3,
                normals=_AXIS3,
                grid=(8, 16, geometry.MAX_POINTS + 1),
            ),
        ],
    )
    def test_point_counts_are_capped(self, extra):
        # the largest cloud runs first, so an oversize grid must fail before any draw
        with pytest.raises(DomainError, match="at most"):
            binomial_cfg(**extra)
        assert binomial_cfg(grid=(8, 16, geometry.MAX_POINTS)).grid[-1] == geometry.MAX_POINTS

    def test_poisson_expected_clouds_are_capped(self):
        # the same rule as sample_poisson_wedge: gamma * wedge_measure(d, j) <= MAX_POINTS
        with pytest.raises(DomainError, match="expected cloud size"):
            binomial_cfg(model="poisson", grid=(1e8, 2e8, 4e8))
        top = geometry.MAX_POINTS / geometry.wedge_measure(3, 2)
        with pytest.raises(DomainError, match="expected cloud size"):
            binomial_cfg(model="poisson", d=3, grid=(1.0, 2.0, top * 1.001))
        assert binomial_cfg(model="poisson", d=3, grid=(1.0, 2.0, top)).grid[-1] == top

    def test_fixed_size_fit_window_must_be_whole(self):
        with pytest.raises(DomainError, match="fit_window values are point counts"):
            binomial_cfg(grid=(8, 16, 32), fit_window=(8, 16.5, 32))

    def test_poisson_grid_may_be_fractional(self):
        assert binomial_cfg(model="poisson", grid=(10.5, 20.25)).grid == (10.5, 20.25)

    def test_scalar_guards(self):
        with pytest.raises(DomainError):
            binomial_cfg(d=1)
        with pytest.raises(DomainError):
            binomial_cfg(reps=0)
        with pytest.raises(DomainError):
            binomial_cfg(master_seed=-1)

    def test_fit_window_must_be_subset(self):
        with pytest.raises(DomainError):
            binomial_cfg(fit_window=(8, 64))
        cfg = binomial_cfg(fit_window=(8, 16))
        assert cfg.fit_window == (8, 16)

    @pytest.mark.parametrize(
        "extra, j",
        [
            (dict(model="binomial"), 2),
            (dict(model="poisson"), 2),
            (dict(model="halfsphere"), 1),
            (dict(model="polygon_baseline"), 3),  # a triangle unless ell says otherwise
            (dict(model="polygon_baseline", ell=5), 5),
            (dict(model="halfsphere", normals=((0.0, _S, _S),)), 1),
            (dict(model="binomial", normals=((_S, _S, 0.0), (0.0, 0.0, 1.0))), 2),
            (dict(model="conjecture_probe", d=3, normals=_AXIS3), 3),
        ],
    )
    def test_j_follows_from_the_model(self, extra, j):
        cfg = binomial_cfg(**extra)
        assert cfg.j == j
        # a config that states the same j is the same sweep
        assert binomial_cfg(j=j, **extra) == cfg
        assert config_hash(binomial_cfg(j=j, **extra)) == config_hash(cfg)
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize(
        "extra",
        [
            dict(model="binomial", j=7),
            dict(model="poisson", j=1),
            dict(model="halfsphere", j=2),
            dict(model="polygon_baseline", j=7),  # ell defaults to 3
            dict(model="polygon_baseline", ell=4, j=5),
            dict(model="conjecture_probe", d=3, j=2, normals=_AXIS3),
        ],
    )
    def test_conflicting_j_is_refused(self, extra):
        with pytest.raises(DomainError, match="has j = "):
            binomial_cfg(**extra)

    @pytest.mark.parametrize("j", [None, 1, 2, 3])
    def test_probe_needs_normals(self, j):
        # without them it would be the binomial or half-sphere under another name
        with pytest.raises(DomainError, match="needs normals"):
            binomial_cfg(model="conjecture_probe", j=j)

    def test_polygon_guards(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                model="polygon_baseline", d=3, grid=(8, 16), reps=2, master_seed=SEED
            )
        with pytest.raises(DomainError):
            ExperimentConfig(
                model="polygon_baseline", d=2, grid=(8, 16), reps=2, master_seed=SEED, ell=2
            )

    @pytest.mark.parametrize("model", ["binomial", "poisson", "halfsphere", "conjecture_probe"])
    @pytest.mark.parametrize("ell", [7, -3])
    def test_only_the_polygon_takes_ell(self, model, ell):
        # a stray ell would change the config hash of an otherwise identical sweep
        with pytest.raises(DomainError, match="only the polygon baseline takes ell"):
            binomial_cfg(model=model, ell=ell)

    def test_probe_j_range(self):
        normals = ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0))
        with pytest.raises(DomainError, match="3 <= j <= d"):
            binomial_cfg(model="conjecture_probe", normals=normals)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("d", "2"),
            ("d", 2.0),
            ("reps", 3.5),
            ("reps", True),
            ("master_seed", "1"),
            ("j", 2.0),
            ("ell", True),
            ("grid", ("8", "16")),
            ("grid", (8, True)),
            ("grid", "8,16"),
            ("fit_window", (16, "32")),
            ("fit_window", (8, math.inf)),
            ("output_path", 5),
            ("normals", ((1.0, 0.0),)),
            ("normals", ((1.0, 0.0, 0.0), (0.0, 1.0))),
            ("normals", ((1.0, 0.0, 0.0), ("x", 1.0, 0.0))),
        ],
    )
    def test_rejects_mistyped_fields(self, field, value):
        with pytest.raises(DomainError, match=field):
            binomial_cfg(**{field: value})

    def test_poisson_grid_must_be_finite(self):
        with pytest.raises(DomainError, match="finite"):
            binomial_cfg(model="poisson", grid=(10.0, 20.0, math.nan))

    def test_normals_are_checked_by_the_model(self):
        with pytest.raises(DomainError, match="orthogonal"):
            binomial_cfg(normals=((1.0, 0.0, 0.0), (_S, _S, 0.0)))
        with pytest.raises(DomainError, match="no normals"):
            binomial_cfg(model="polygon_baseline", normals=((0.0, 0.0, 1.0),) * 3)
        cfg = binomial_cfg(normals=[[_S, _S, 0], [0, 0, 1]])
        assert cfg.normals == ((_S, _S, 0.0), (0.0, 0.0, 1.0))

    def test_round_trip_through_dict(self):
        cfg = binomial_cfg(fit_window=(16, 32), output_path="out.csv")
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(DomainError):
            ExperimentConfig.from_dict({**binomial_cfg().to_dict(), "extra": 1})


class TestConfigHash:
    def test_ignores_output_path(self):
        a = config_hash(binomial_cfg(output_path=None))
        b = config_hash(binomial_cfg(output_path="elsewhere.csv"))
        assert a == b

    def test_sensitive_to_semantics(self):
        base = config_hash(binomial_cfg())
        assert config_hash(binomial_cfg(grid=(8, 16, 64))) != base
        assert config_hash(binomial_cfg(master_seed=SEED + 1)) != base
        assert config_hash(binomial_cfg(reps=5)) != base

    def test_whole_float_point_counts_are_the_int_sweep(self):
        ints = binomial_cfg(grid=(8, 16, 32), fit_window=(8, 16, 32), reps=2)
        floats = binomial_cfg(grid=(8.0, 16.0, 32.0), fit_window=(8.0, 16.0, 32.0), reps=2)
        assert [type(g) for g in floats.grid + floats.fit_window] == [int] * 6
        assert config_hash(floats) == config_hash(ints)
        assert strip_wall(run_experiment(floats)) == strip_wall(run_experiment(ints))

    def test_int_spelled_intensities_are_the_float_sweep(self):
        window = dict(fit_window=(10, 20, 40), reps=2)
        ints = binomial_cfg(model="poisson", grid=(10, 20, 40), **window)
        floats = binomial_cfg(
            model="poisson", grid=(10.0, 20.0, 40.0), fit_window=(10.0, 20.0, 40.0), reps=2
        )
        assert [type(g) for g in ints.grid + ints.fit_window] == [float] * 6
        assert config_hash(ints) == config_hash(floats)
        assert strip_wall(run_experiment(ints)) == strip_wall(run_experiment(floats))


class TestRunners:
    def test_triangle_cloud(self):
        cfg = ExperimentConfig(model="binomial", d=2, grid=(3,), reps=6, master_seed=SEED)
        records = run_experiment(cfg)
        assert len(records) == 6
        for r in records:
            assert r.facet_count == 3 and r.vertex_count == 3
            assert r.model == "binomial" and r.flag == 0

    def test_binomial_grid_floor(self):
        with pytest.raises(DomainError):
            ExperimentConfig(model="binomial", d=2, grid=(2, 8), reps=1, master_seed=SEED)
        with pytest.raises(DomainError):
            ExperimentConfig(model="polygon_baseline", d=2, grid=(2, 8), reps=1, master_seed=SEED)
        # every fixed-size model: a cloud of fewer than d+1 points spans no facet
        probe = dict(model="conjecture_probe", d=3, normals=_AXIS3)
        for extra in (dict(model="halfsphere", d=2), probe):
            with pytest.raises(DomainError, match="at least d\\+1"):
                ExperimentConfig(grid=(2, 8), reps=1, master_seed=SEED, **extra)

    def test_tiny_poisson_clouds_record_zero_facets(self):
        cfg = ExperimentConfig(
            model="poisson", d=2, grid=(1e-06, 2e-06), reps=5, master_seed=SEED
        )
        records = run_experiment(cfg)
        assert len(records) == 10
        for r in records:
            assert r.facet_count == 0
            assert r.vertex_count <= 2

    def test_deterministic_across_calls_and_workers(self):
        cfg = binomial_cfg()
        one = run_experiment(cfg)
        two = run_experiment(cfg)
        assert strip_wall(one) == strip_wall(two)
        parallel = run_experiment(cfg, workers=3)
        assert strip_wall(one) == strip_wall(parallel)

    def test_tasks_run_largest_first_and_records_come_back_in_grid_order(self, monkeypatch):
        real = experiments._execute_task
        sizes = []

        def spy(payload):
            sizes.append(payload["size"])
            return real(payload)

        monkeypatch.setattr(experiments, "_execute_task", spy)
        cfg = binomial_cfg(grid=(8, 16, 32), reps=3)
        records = run_experiment(cfg)
        assert sizes == [32] * 3 + [16] * 3 + [8] * 3
        assert [(r.size_param, r.rep_index) for r in records] == [
            (size, rep) for size in cfg.grid for rep in range(cfg.reps)
        ]

    def test_one_projection_basis_per_sweep(self, monkeypatch):
        real = geometry.orthonormal_complement
        calls = []

        def counted(z):
            calls.append(z)
            return real(z)

        # every wedgehull module that holds the function, wherever a sweep calls it
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("wedgehull") and (
                getattr(module, "orthonormal_complement", None) is real
            ):
                monkeypatch.setattr(module, "orthonormal_complement", counted)
        records = run_experiment(binomial_cfg(grid=(8, 16, 32), reps=3))
        assert len(records) == 9
        assert len(calls) == 1
        # a Poisson summary's fit window reads the wedge measure, not a second wedge
        calls.clear()
        poisson = binomial_cfg(model="poisson", grid=(50.0, 100.0, 200.0), reps=3)
        summarize(poisson, run_experiment(poisson))
        assert len(calls) == 1

    @pytest.mark.parametrize("workers", [0, -3, 2.0, True])
    def test_workers_must_be_a_positive_integer(self, workers):
        with pytest.raises(DomainError, match="workers"):
            run_experiment(binomial_cfg(), workers=workers)

    def test_pool_has_no_more_workers_than_tasks(self, monkeypatch):
        sizes = []

        class RecordingPool:
            """Stands in for the process pool: records its size, runs in process."""

            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, func, iterable, chunksize=1):
                return map(func, iterable)

        monkeypatch.setattr(experiments, "ProcessPoolExecutor", RecordingPool)
        cfg = binomial_cfg(grid=(8, 16, 32), reps=2)
        serial = strip_wall(run_experiment(cfg))
        assert strip_wall(run_experiment(cfg, workers=500)) == serial
        assert strip_wall(run_experiment(cfg, workers=4)) == serial
        run_experiment(binomial_cfg(grid=(8,), reps=1), workers=2)  # one task runs in process
        assert sizes == [6, 4]

    def test_records_recomputable_from_stream_id(self):
        cfg = binomial_cfg(grid=(24, 48))
        record = run_experiment(cfg)[5]
        assert record.flag == 0
        model = WedgeModel.right_angle(cfg.d)
        cloud = sample_uniform_wedge(
            model, SeedSpec(cfg.master_seed, record.stream_id), int(record.size_param)
        )
        redo = facets_projected(cloud)
        assert redo.facet_count == record.facet_count
        assert redo.vertex_count == record.vertex_count


class TestProbeDelegation:
    """A probe samples the uniform wedge of its j >= 3 normals; its records carry its name."""

    @pytest.mark.parametrize(
        "model, normals",
        [("halfsphere", ((0.0, _S, _S),)), ("binomial", ((_S, _S, 0.0), (0.0, 0.0, 1.0)))],
        ids=["halfsphere", "binomial"],
    )
    def test_j1_and_j2_are_refused(self, model, normals):
        # with the same normals the halfsphere and the binomial draw the same streams
        cfg = dict(d=2, grid=(8, 16), reps=3, master_seed=SEED, normals=normals)
        assert ExperimentConfig(model=model, **cfg).j == len(normals)
        with pytest.raises(DomainError, match="conjecture_probe needs 3 <= j <= d"):
            ExperimentConfig(model="conjecture_probe", **cfg)

    def test_j3_needs_normals(self):
        with pytest.raises(DomainError):
            ExperimentConfig(
                model="conjecture_probe", d=3, grid=(8, 16), reps=2, master_seed=SEED, j=3
            )

    def test_j3_with_explicit_normals(self):
        normals = (
            (0.0, 1.0, 0.0, 0.0),
            (0.0, 0.0, 1.0, 0.0),
            (0.0, 0.0, 0.0, 1.0),
        )
        cfg = ExperimentConfig(
            model="conjecture_probe",
            d=3,
            grid=(16, 32, 64),
            reps=8,
            master_seed=SEED,
            normals=normals,
        )
        records = run_experiment(cfg)
        assert all(r.model == "conjecture_probe" and r.j == 3 for r in records)
        summary = summarize(cfg, records, constants_samples=10**4)
        assert summary["fit_log_power"]["power"] == 2
        assert math.isfinite(summary["fit_log_power"]["slope"])


class TestRetries:
    def test_transient_degeneracy_sets_flag(self, monkeypatch):
        calls = {"n": 0}
        real = experiments.planar_facets

        def flaky(model, blocks):
            calls["n"] += 1
            if calls["n"] == 1:
                raise DegenerateInput("synthetic")
            return real(model, blocks)

        monkeypatch.setattr(experiments, "planar_facets", flaky)
        cfg = ExperimentConfig(model="binomial", d=2, grid=(12,), reps=1, master_seed=SEED)
        record = run_experiment(cfg)[0]
        assert record.flag == 1
        clean = ExperimentConfig(model="binomial", d=2, grid=(12,), reps=1, master_seed=SEED)
        monkeypatch.setattr(experiments, "planar_facets", real)
        baseline = run_experiment(clean)[0]
        assert record.stream_id != baseline.stream_id  # retry salts the stream

    def test_persistent_degeneracy_raises(self, monkeypatch):
        def always_bad(model, blocks):
            raise DegenerateInput("synthetic")

        monkeypatch.setattr(experiments, "planar_facets", always_bad)
        cfg = ExperimentConfig(model="binomial", d=2, grid=(12,), reps=1, master_seed=SEED)
        with pytest.raises(DegenerateInput):
            run_experiment(cfg)


class TestPolygonBaseline:
    def test_side_count_recorded_and_default(self):
        cfg = ExperimentConfig(
            model="polygon_baseline", d=2, grid=(32, 64), reps=3, master_seed=SEED
        )
        records = run_experiment(cfg)
        assert all(r.j == 3 for r in records)  # default is a triangle
        # the config's j is its ell, so a pentagon is a new config, not an edited dict
        pentagon = ExperimentConfig(
            model="polygon_baseline", d=2, grid=(32, 64), reps=3, master_seed=SEED, ell=5
        )
        records5 = run_experiment(pentagon)
        assert all(r.j == 5 for r in records5)

    def test_means_grow_with_size(self):
        cfg = ExperimentConfig(
            model="polygon_baseline",
            d=2,
            grid=(32, 256, 2048),
            reps=20,
            master_seed=SEED,
            ell=4,
        )
        _, means, _, _, _ = aggregate(run_experiment(cfg))
        assert means[0] < means[1] < means[2]

    def test_summary_echoes_sides_and_has_no_wedge_constants(self):
        cfg = ExperimentConfig(
            model="polygon_baseline", d=2, grid=(16, 32, 64), reps=3, master_seed=SEED
        )
        summary = summarize(cfg, run_experiment(cfg))
        assert (summary["config"]["ell"], summary["config"]["j"]) == (3, 3)
        assert "constants" not in summary


class TestAggregateAndFit:
    def test_aggregate_matches_manual_moments(self):
        records = synthetic_records([4, 8], [10, 20], reps=1)
        records += synthetic_records([4, 8], [12, 26], reps=1)
        sizes, means, ses, variances, reps = aggregate(records)
        assert sizes == [4, 8]
        assert means == [11.0, 23.0]
        assert variances[0] == pytest.approx(2.0)
        assert variances[1] == pytest.approx(18.0)
        assert ses[1] == pytest.approx(math.sqrt(18.0 / 2))
        assert reps == [2, 2]

    def test_exact_line_recovered(self):
        sizes = [2, 4, 8, 16]
        counts = [8, 11, 14, 17]  # 3 per doubling
        fit = fit_slope(synthetic_records(sizes, counts))
        assert fit.slope == pytest.approx(3.0 / math.log(2.0), rel=1e-12)
        assert fit.intercept == pytest.approx(8.0 - 3.0, rel=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.grid_points_used == (2, 4, 8, 16)

    def test_constant_data_gives_zero_slope(self):
        fit = fit_slope(synthetic_records([4, 8, 16], [7, 7, 7]))
        assert fit.slope == pytest.approx(0.0, abs=1e-9)

    def test_window_restricts_points(self):
        records = synthetic_records([2, 4, 8, 16, 32], [1, 11, 14, 17, 20])
        fit = fit_slope(records, window=(4, 8, 16, 32))
        assert fit.grid_points_used == (4, 8, 16, 32)
        assert fit.slope == pytest.approx(3.0 / math.log(2.0), rel=1e-10)

    def test_fit_guards(self):
        with pytest.raises(FitError):
            fit_slope(synthetic_records([4, 8], [1, 2]))
        with pytest.raises(FitError):
            fit_slope(synthetic_records([4, 8, 16], [1, 2, 3]), log_power=0.0)
        with pytest.raises(FitError):
            fit_slope(synthetic_records([1, 8, 16], [1, 2, 3]))

    def test_zero_variance_grid_values_keep_r2_in_range(self):
        # Two of the three grid values have replicates that all agree, so
        # their weights sit on the 1e-12 variance floor.
        cfg = ExperimentConfig(
            model="halfsphere", d=2, grid=(16, 64, 256), reps=3, master_seed=0
        )
        records = run_experiment(cfg)
        assert aggregate(records)[3].count(0.0) >= 1
        fit = fit_slope(records)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_linear_means_with_unequal_variances(self):
        sizes = [4, 16, 64, 256, 1024]
        spreads = [0.0, 0.5, 1.0, 2.0, 4.0]  # the first weight is reps / 1e-12
        records = []
        for size, spread in zip(sizes, spreads):
            mean = 2.0 + 3.0 * math.log(size)
            for sign in (1.0, -1.0):
                records += synthetic_records([size], [mean + sign * spread], reps=1)
        fit = fit_slope(records)
        assert fit.slope == pytest.approx(3.0, rel=1e-12)
        assert fit.intercept == pytest.approx(2.0, rel=1e-10)
        assert 0.0 <= fit.r_squared <= 1.0

    def test_slope_error_matches_bootstrap(self):
        cfg = ExperimentConfig(
            model="binomial",
            d=2,
            grid=(64, 128, 256, 512, 1024),
            reps=40,
            master_seed=SEED,
        )
        records = run_experiment(cfg, workers=2)
        fit = fit_slope(records)
        rng = np.random.default_rng(7)
        by_size = {}
        for r in records:
            by_size.setdefault(r.size_param, []).append(r)
        slopes = []
        for _ in range(200):
            resampled = []
            for group in by_size.values():
                picks = rng.integers(0, len(group), len(group))
                resampled.extend(group[i] for i in picks)
            slopes.append(fit_slope(resampled).slope)
        boot = float(np.std(slopes, ddof=1))
        assert boot / 1.5 <= fit.slope_std_error <= boot * 1.5

    def test_dim3_slope_self_consistency(self):
        from wedgehull import estimate_A_d, omega

        cfg = ExperimentConfig(
            model="binomial",
            d=3,
            grid=tuple(2**k for k in range(7, 15)),
            reps=200,
            master_seed=SEED,
        )
        fit = fit_slope(run_experiment(cfg), fit_window(cfg))
        a3 = estimate_A_d(3, 10**6, SeedSpec(SEED, 0)).value
        target = 4.0 * omega(2) * a3 / 3.0
        assert abs(fit.slope - target) <= 0.25 * target

    def test_held_out_prediction(self):
        cfg = ExperimentConfig(
            model="binomial",
            d=2,
            grid=(512, 1024, 2048, 4096),
            reps=60,
            master_seed=SEED,
        )
        records = run_experiment(cfg, workers=2)
        fit = fit_slope(records, window=(512, 1024, 2048))
        sizes, means, ses, _, _ = aggregate(records)
        predicted = fit.intercept + fit.slope * math.log(4096)
        assert abs(predicted - means[-1]) <= 3 * ses[-1]


class TestDefaultWindow:
    def test_binomial_threshold(self):
        cfg = binomial_cfg(grid=(128, 256, 512, 1024, 2048))
        assert fit_window(cfg) == (512, 1024, 2048)

    def test_poisson_uses_expected_size(self):
        cfg = ExperimentConfig(
            model="poisson", d=2, grid=(200.0, 400.0, 800.0), reps=1, master_seed=SEED
        )
        assert fit_window(cfg) == (200.0, 400.0, 800.0)
        near = ExperimentConfig(
            model="poisson", d=2, grid=(100.0, 200.0, 400.0), reps=1, master_seed=SEED
        )
        # 100 pi < 512 would leave two points, so the full grid comes back
        assert fit_window(near) == (100.0, 200.0, 400.0)

    def test_small_grid_falls_back(self):
        cfg = binomial_cfg(grid=(4, 8, 16))
        assert fit_window(cfg) == (4, 8, 16)

    def test_explicit_window_is_kept(self):
        cfg = binomial_cfg(grid=(128, 256, 512, 1024), fit_window=(128, 256, 512))
        assert fit_window(cfg) == (128, 256, 512)

    @pytest.mark.parametrize(
        "cfg, message",
        [
            (dict(grid=(4096, 8192)), "at least 3"),
            (dict(grid=(8, 16, 32), fit_window=(16, 32)), "at least 3"),
            (dict(model="poisson", grid=(0.25, 0.5, 1.0)), "exceed 1"),
        ],
    )
    def test_unfittable_window_raises(self, cfg, message):
        with pytest.raises(FitError, match=message):
            fit_window(binomial_cfg(**cfg))


class TestPersistence:
    def test_csv_round_trip(self, tmp_path):
        cfg = binomial_cfg()
        records = run_experiment(cfg)
        path = tmp_path / "records.csv"
        write_csv(path, records)
        text = path.read_text()
        assert text.splitlines()[0] == CSV_HEADER
        redo = read_csv(path)
        assert strip_wall(redo) == strip_wall(records)
        assert [r.wall_time_ms for r in redo] == [r.wall_time_ms for r in records]

    def test_csv_float_sizes_survive(self, tmp_path):
        cfg = ExperimentConfig(
            model="poisson", d=2, grid=(2.5, 5.0), reps=2, master_seed=SEED
        )
        records = run_experiment(cfg)
        path = tmp_path / "poisson.csv"
        write_csv(path, records)
        redo = read_csv(path)
        assert [r.size_param for r in redo] == [r.size_param for r in records]

    @pytest.mark.parametrize(
        "model, grid",
        [("poisson", (10.0, 20.0, 40.0)), ("binomial", (8, 16, 32))],
    )
    def test_read_back_sizes_keep_the_sweep_type(self, tmp_path, model, grid):
        # `==` cannot see a type change (10 == 10.0), but the stream id can
        cfg = ExperimentConfig(model=model, d=2, grid=grid, reps=2, master_seed=SEED)
        path = tmp_path / "records.csv"
        write_csv(path, run_experiment(cfg))
        redo = read_csv(path)
        kind = experiments.MODEL_SPECS[model].kind
        assert [type(r.size_param) for r in redo] == [type(grid[0])] * len(redo)
        assert [r.stream_id for r in redo] == [
            derive_stream(kind, 2, 2, "default", r.size_param, r.rep_index, r.flag)
            for r in redo
        ]

    def test_read_rejects_foreign_model(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER + "\nnonesuch,2,2,8,0,3,3,1,0.5,0\n")
        with pytest.raises(DomainError, match="nonesuch"):
            read_csv(path)

    def test_read_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("model,d,extra\n")
        with pytest.raises(DomainError):
            read_csv(path)

    def test_summary_schema_and_stability(self, tmp_path):
        cfg = binomial_cfg(grid=(8, 16, 32), reps=6)
        records = run_experiment(cfg)
        summary = summarize(cfg, records, constants_samples=10**4)
        assert set(summary) == {"config", "grid", "means", "std_errors", "fit", "constants"}
        assert set(summary["fit"]) == {"slope", "slope_se", "intercept", "r2", "window"}
        assert set(summary["constants"]) == {"A_d", "A_d_se", "c_d2_theory"}
        assert summary["config"]["hash"] == config_hash(cfg)
        assert summary["constants"]["c_d2_theory"] > 0
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        write_summary(a, summary)
        write_summary(b, summarize(cfg, records, constants_samples=10**4))
        assert a.read_bytes() == b.read_bytes()
        parsed = json.loads(a.read_text())
        assert parsed["grid"] == [8, 16, 32]


POOL_CONFIGS = {
    "binomial": dict(model="binomial", d=2, grid=(16, 64, 256), reps=3),
    "binomial_d3": dict(model="binomial", d=3, grid=(16, 64, 256), reps=3),
    "poisson": dict(model="poisson", d=2, grid=(10.0, 40.0, 160.0), reps=3),
    "binomial_rotated": dict(
        model="binomial",
        d=2,
        grid=(16, 64, 256),
        reps=3,
        normals=((_S, _S, 0.0), (0.0, 0.0, 1.0)),
    ),
    "probe": dict(model="conjecture_probe", d=3, grid=(16, 64, 256), reps=3, normals=_AXIS3),
}


def _log_estimates(monkeypatch, log):
    """Patch experiments.estimate_A_d to append the calling pid to `log`.

    A file, not a list, so that calls in forked pool workers are seen too.
    """
    real = experiments.estimate_A_d

    def logging(*args):
        with open(log, "a") as out:
            out.write(f"{os.getpid()}\n")
        return real(*args)

    monkeypatch.setattr(experiments, "estimate_A_d", logging)
    return lambda: log.read_text().split() if log.exists() else []


class TestConstantsOnThePool:
    """The constants block of pool runs: the pool runs replicates only, and
    `summarize` reads A_d from EXACT_A_D or estimates it in the parent."""

    @pytest.mark.parametrize("name", sorted(POOL_CONFIGS))
    def test_summary_bytes_match_at_any_worker_count(self, name):
        cfg = ExperimentConfig(master_seed=SEED, **POOL_CONFIGS[name])
        serial = json.dumps(summarize(cfg, run_experiment(cfg)))
        pooled = json.dumps(summarize(cfg, run_experiment(cfg, workers=2)))
        assert pooled == serial

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", ["binomial", "poisson", "binomial_rotated"])
    def test_planar_constants_are_exact(self, monkeypatch, tmp_path, name, workers):
        calls = _log_estimates(monkeypatch, tmp_path / "calls")
        cfg = ExperimentConfig(master_seed=SEED, **POOL_CONFIGS[name])
        summary = summarize(cfg, run_experiment(cfg, workers=workers))
        assert summary["constants"] == {"A_d": 2 / 3, "A_d_se": 0.0, "c_d2_theory": 4 / 3}
        assert calls() == []

    @pytest.mark.parametrize("workers", [1, 2])
    def test_d3_estimates_once_in_the_parent(self, monkeypatch, tmp_path, workers):
        calls = _log_estimates(monkeypatch, tmp_path / "calls")
        cfg = ExperimentConfig(master_seed=SEED, **POOL_CONFIGS["binomial_d3"])
        summary = summarize(cfg, run_experiment(cfg, workers=workers), constants_samples=10**4)
        assert calls() == [str(os.getpid())]
        assert summary["constants"]["A_d_se"] > 0.0

    def test_pool_run_returns_a_plain_list(self):
        assert type(run_experiment(binomial_cfg(), workers=2)) is list
