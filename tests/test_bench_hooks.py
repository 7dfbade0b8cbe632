"""The benchmark's hooks into the package must name things that exist.

`perfbench/spans.py` wraps every `(module, attribute)` in its `TARGETS`, and
`perfbench/child.py` patches attributes of `wedgehull.cli` and replaces
`suites.suite_<name>` with a copy that applies the keyword budgets of
`perfbench/workloads.json`.  A rename in the package, or a suite table that
binds the suite functions at import time, would break the benchmark (or run
it at full budget) without failing any other test.  The gate of the
`verify_all` workload also counts its checks, so a suite that gains or loses
a check must move `expected_checks` with it.
Both files are only read here: `spans.py` is executed from its source (no
bytecode cache is written) and `child.py` is parsed, never run.
"""

import ast
import importlib
import inspect
import json
import runpy
from pathlib import Path

import pytest

import wedgehull.cli as cli
import wedgehull.suites as suites

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
TARGETS = runpy.run_path(str(PERFBENCH / "spans.py"))["TARGETS"]


@pytest.mark.parametrize("module_name, attr", [(m, a) for m, a, _ in TARGETS])
def test_span_target_resolves(module_name, attr):
    module = importlib.import_module(f"wedgehull.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert isinstance(vars(getattr(module, cls_name))[method], classmethod)
    else:
        assert callable(getattr(module, attr))


def test_child_patches_existing_cli_names():
    tree = ast.parse((PERFBENCH / "child.py").read_text(encoding="utf-8"))
    names = {
        node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "cli"
    }
    assert {"run_experiment", "run_suites"} <= names
    for name in names:
        assert callable(getattr(cli, name)), name


def test_run_suites_finds_suite_functions_at_call_time(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(suites, "suite_appendix", lambda: [sentinel])
    assert cli.run_suites(("appendix",)) == [sentinel]


def test_suite_budgets_name_suite_parameters():
    workloads = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
    budgets = {
        name: budget
        for workload in workloads["workloads"].values()
        for name, budget in workload["inputs"].get("suite_budgets", {}).items()
    }
    assert budgets
    for name, budget in budgets.items():
        parameters = inspect.signature(getattr(suites, f"suite_{name}")).parameters
        assert set(budget) <= set(parameters), name


def _with_budget(func, budget):
    return lambda *args, **kwargs: func(*args, **{**kwargs, **budget})


def test_verify_workload_reports_its_expected_checks(monkeypatch):
    # The gate of `verify_all` wants exactly `expected_checks` distinct passed
    # checks; a suite that gains, loses or merges a check must change both.
    workloads = json.loads((PERFBENCH / "workloads.json").read_text(encoding="utf-8"))
    inputs = workloads["workloads"]["verify_all"]["inputs"]
    for name, budget in inputs["suite_budgets"].items():
        attr = f"suite_{name}"
        monkeypatch.setattr(suites, attr, _with_budget(getattr(suites, attr), budget))
    checks = suites.run_suites(inputs["suites"], dims=tuple(inputs["dims"]))
    names = [f"{c.suite}.{c.name}" for c in checks]
    assert len(names) == workloads["workloads"]["verify_all"]["expected_checks"]
    assert len(set(names)) == len(names)
    assert [n for n, c in zip(names, checks) if not c.passed] == []


def test_blocked_passes_call_the_wrapped_public_names(monkeypatch):
    # The tracer times projection and membership by rebinding
    # `hull.gnomonic_project` and `sampling.wedge_contains`.  The blocked
    # passes must still send every row through those names, or
    # `geometry.project_s` and `geometry.contains_s` would read 0.
    import wedgehull.hull as hull
    import wedgehull.sampling as sampling
    from wedgehull.geometry import BLOCK_ROWS, WedgeModel

    rows = {"project": 0, "contains": 0}

    def counting(key, func):
        def call(model_or_center, points):
            rows[key] += len(points)
            return func(model_or_center, points)

        return call

    monkeypatch.setattr(hull, "gnomonic_project", counting("project", hull.gnomonic_project))
    monkeypatch.setattr(sampling, "wedge_contains", counting("contains", sampling.wedge_contains))
    n = 2 * BLOCK_ROWS + 5
    cloud = sampling.sample_uniform_wedge(
        WedgeModel.right_angle(2), sampling.SeedSpec(1, 2), n
    )
    assert rows["contains"] == n
    hull.facets_projected(cloud)
    assert rows["project"] == n


def test_oracles_draw_through_the_wrapped_sphere_sampler(monkeypatch):
    # The tracer counts sphere points by rebinding `sample_uniform_sphere`,
    # so the oracles must draw every row through that name, or their draws
    # would show as oracle self time and not under `sampling.points`.
    import numpy as np

    import wedgehull.oracles as oracles
    from wedgehull import SeedSpec, WedgeModel
    from wedgehull.oracles import _BATCH

    rows = []

    def counting(d, seed, count):
        rows.append(count)
        return sampler(d, seed, count)

    sampler = oracles.sample_uniform_sphere
    monkeypatch.setattr(oracles, "sample_uniform_sphere", counting)
    count = _BATCH + 7  # two chunks
    z = np.array([0.0, 0.0, 1.0])
    oracles.mc_cap_measure(WedgeModel.right_angle(2), [z], count, SeedSpec(1, 2))
    assert sum(rows) == count and len(rows) == 2
    rows.clear()
    points = oracles.subsphere_wedge_points(3, 0.7, 0.4, 500, SeedSpec(1, 3))
    assert rows == [500] and points.shape == (500, 4)


def test_suite_i2_draws_one_sample_per_dimension(monkeypatch):
    # All pairs of one dimension are tested on the same sphere sample, so
    # the suite draws sample_count points per dimension, not per pair.
    import wedgehull.oracles as oracles
    import wedgehull.suites as suites

    rows = []

    def counting(d, seed, count):
        rows.append((d, count))
        return sampler(d, seed, count)

    sampler = oracles.sample_uniform_sphere
    monkeypatch.setattr(oracles, "sample_uniform_sphere", counting)
    suites.suite_i2(dims=(2, 3), pairs=5, sample_count=10**4)
    assert rows == [(2, 10**4), (3, 10**4)]
