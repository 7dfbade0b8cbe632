"""End-to-end acceptance checks.

Each test prints one `ACCEPTANCE <k>: <PASS|FAIL>` line (bypassing capture)
so a full run yields a twelve-line scoreboard.  The heavy sweeps are
module-scoped fixtures shared across criteria.
"""

import io
import json
import math
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest

from wedgehull import (
    ExperimentConfig,
    appendix_f,
    fit_slope,
    model_constants,
    run_experiment,
)
from wedgehull.cli import main
from wedgehull.experiments import aggregate, fit_window
from wedgehull.suites import (
    DEFAULT_MASTER_SEED,
    suite_appendix,
    suite_hull,
    suite_i1,
    suite_i2,
    suite_limits,
)

BAND_LO, BAND_HI = 4.0 / 3.0 * 0.85, 4.0 / 3.0 * 1.15


@pytest.fixture
def report(capsys):
    def emit(number: int, passed: bool, detail: str) -> None:
        status = "PASS" if passed else "FAIL"
        with capsys.disabled():
            print(f"ACCEPTANCE {number}: {status} - {detail}", flush=True)

    return emit


def run_cli_json(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    return code, json.loads(out.getvalue()) if out.getvalue() else None


def sweep(model, grid, reps, **extra):
    cfg = ExperimentConfig(
        model=model, d=2, grid=grid, reps=reps, master_seed=DEFAULT_MASTER_SEED, **extra
    )
    # records do not depend on the worker count (criterion 12 checks it)
    records = run_experiment(cfg, workers=2)
    return cfg, records, fit_slope(records, fit_window(cfg))


@pytest.fixture(scope="module")
def constants_result():
    start = time.perf_counter()
    code, payload = run_cli_json(
        ["constants", "--dim", "2", "--samples", "1000000", "--seed", str(DEFAULT_MASTER_SEED)]
    )
    elapsed = time.perf_counter() - start
    return code, payload, elapsed


@pytest.fixture(scope="module")
def binomial_fit():
    return sweep("binomial", tuple(2**k for k in range(9, 18)), 400)


@pytest.fixture(scope="module")
def poisson_fit():
    grid = tuple(2**k / math.pi for k in range(9, 18))
    return sweep("poisson", grid, 400)


def test_criterion_1_planar_constant(report, constants_result):
    code, payload, elapsed = constants_result
    gap = abs(payload["A_d"] - 2.0 / 3.0)
    ok = code == 0 and gap <= 3 * payload["A_d_se"] and elapsed < 10.0
    report(
        1,
        ok,
        f"A_2 = {payload['A_d']:.6f} +/- {payload['A_d_se']:.6f} "
        f"(target 2/3, gap {gap:.2e}), {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_constant_pipeline(report, constants_result):
    _, payload, _ = constants_result
    c_gap = abs(payload["c_d2"] - 4.0 / 3.0)
    c_se = 2.0 * payload["A_d_se"]  # c_{2,2} = 2 A_2 exactly
    identity_ok = True
    worst = 0.0
    for d in range(2, 7):
        consts = model_constants(d, 0.75)
        lhs = consts.omega_d_minus_1 * consts.B_d / (d * consts.b_d**d)
        rel = abs(lhs - consts.c_d2) / consts.c_d2
        worst = max(worst, rel)
        identity_ok &= rel <= 1e-12
    ok = c_gap <= 3 * c_se and identity_ok
    report(
        2,
        ok,
        f"c_2,2 = {payload['c_d2']:.6f} (gap {c_gap:.2e} vs 3 SE {3*c_se:.2e}), "
        f"identity worst rel err {worst:.2e} for d in 2..6",
    )
    assert ok


def test_criterion_3_binomial_slope(report, binomial_fit):
    _, _, fit = binomial_fit
    ok = BAND_LO <= fit.slope <= BAND_HI
    report(
        3,
        ok,
        f"binomial d=2 slope {fit.slope:.4f} +/- {fit.slope_std_error:.4f} "
        f"in [{BAND_LO:.4f}, {BAND_HI:.4f}], r2 {fit.r_squared:.4f}",
    )
    assert ok


def test_criterion_4_poisson_slope_and_agreement(report, binomial_fit, poisson_fit):
    _, _, bfit = binomial_fit
    _, _, pfit = poisson_fit
    in_band = BAND_LO <= pfit.slope <= BAND_HI
    diff = abs(pfit.slope - bfit.slope)
    combined = math.hypot(pfit.slope_std_error, bfit.slope_std_error)
    agree = diff <= 2 * combined
    ok = in_band and agree
    report(
        4,
        ok,
        f"poisson slope {pfit.slope:.4f} +/- {pfit.slope_std_error:.4f}; "
        f"|poisson - binomial| = {diff:.4f} vs 2 combined SE {2*combined:.4f}",
    )
    assert ok


def test_criterion_5_halfsphere_control(report):
    cfg, records, fit = sweep("halfsphere", tuple(2**k for k in range(7, 18)), 200)
    _, means, _, _, _ = aggregate(records)
    tail = means[-3:]
    plateau = max(tail) / min(tail) - 1.0
    ok = abs(fit.slope) <= 0.1 and plateau <= 0.10
    report(
        5,
        ok,
        f"halfsphere slope {fit.slope:.4f} +/- {fit.slope_std_error:.4f} (band +/-0.1), "
        f"last three means {[f'{m:.2f}' for m in tail]} spread {plateau:.3%}",
    )
    assert ok


def test_criterion_6_polygon_baseline(report):
    grid = tuple(2**k for k in range(7, 16))
    _, _, fit3 = sweep("polygon_baseline", grid, 200, ell=3)
    _, _, fit4 = sweep("polygon_baseline", grid, 200, ell=4)
    ok3 = 2.0 * 0.85 <= fit3.slope <= 2.0 * 1.15
    ok4 = 8.0 / 3.0 * 0.85 <= fit4.slope <= 8.0 / 3.0 * 1.15
    below = 4.0 / 3.0 < fit3.slope and 4.0 / 3.0 < fit4.slope
    ok = ok3 and ok4 and below
    report(
        6,
        ok,
        f"triangle slope {fit3.slope:.4f} (target 2), square slope {fit4.slope:.4f} "
        f"(target 8/3); wedge constant 4/3 sits below both",
    )
    assert ok


def test_criterion_7_cap_measure_agreement(report):
    results = suite_i2(dims=(2, 3), pairs=20, sample_count=10**6)
    cap_checks = [r for r in results if r.name.startswith("cap_measure_vs_closed")]
    ok = all(r.passed for r in results) and len(cap_checks) == 2
    detail = "; ".join(f"{r.name}: {r.detail}" for r in cap_checks)
    report(7, ok, detail)
    assert ok


def test_criterion_8_cross_section_integral(report):
    results = suite_i1(dims=(2, 3))
    ok = all(r.passed for r in results)
    ratios = [r for r in results if "small_angle" in r.name]
    detail = "; ".join(f"{r.name}: {r.detail}" for r in ratios) or "all checks passed"
    report(8, ok, detail)
    assert ok


def test_criterion_9_appendix_inequalities(report):
    results = suite_appendix(grid_resolution=200)
    point = float(appendix_f(0.01, 0.01))
    point_ok = abs(point - 0.5) <= 1e-3
    ok = all(r.passed for r in results) and point_ok
    report(
        9,
        ok,
        f"{sum(r.passed for r in results)}/{len(results)} grid checks passed; "
        f"f(0.01, 0.01) = {point:.6f}",
    )
    assert ok


def test_criterion_10_limit_lemma(report):
    results = suite_limits(dims=(2, 3))
    ok = all(r.passed for r in results)
    bands = [r for r in results if "band" in r.name]
    detail = "; ".join(f"{r.name}: {r.detail}" for r in bands) or "all checks passed"
    report(10, ok, detail)
    assert ok


def test_criterion_11_hull_equivalence(report):
    results = suite_hull(dims=(2, 3), seeds=100, max_points=30)
    ok = all(r.passed for r in results)
    detail = "; ".join(f"{r.name}: {r.detail}" for r in results)
    report(11, ok, detail)
    assert ok


def test_criterion_12_determinism(report):
    def stripped(records):
        return [
            (r.config_hash, r.model, r.d, r.j, r.size_param, r.rep_index,
             r.facet_count, r.vertex_count, r.stream_id, r.flag)
            for r in records
        ]

    bin_cfg = ExperimentConfig(
        model="binomial", d=2, grid=(64, 128, 256), reps=10, master_seed=DEFAULT_MASTER_SEED
    )
    first = stripped(run_experiment(bin_cfg, workers=1))
    again = stripped(run_experiment(bin_cfg, workers=1))
    parallel = stripped(run_experiment(bin_cfg, workers=3))
    poi_cfg = ExperimentConfig(
        model="poisson", d=2, grid=(20.0, 40.0), reps=6, master_seed=DEFAULT_MASTER_SEED
    )
    poi_one = stripped(run_experiment(poi_cfg, workers=1))
    poi_two = stripped(run_experiment(poi_cfg, workers=2))
    ok = first == again == parallel and poi_one == poi_two
    report(
        12,
        ok,
        f"binomial records identical across reruns and workers 1/3 "
        f"({len(first)} records); poisson identical across workers 1/2",
    )
    assert ok
