"""Named verification suites: each check returns a pass/fail with a witness.

The suites bundle the oracle cross-checks (closed forms vs Monte Carlo vs
quadrature), the geometric identities, the appendix inequalities on
interior grids, and the dual hull equivalence into reusable units.  The
command-line `verify` dispatches them and the acceptance tests call them
with the same default budgets, so a green CLI run and a green test run
mean the same thing.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracles
from .errors import DomainError
from .formulas import (
    EXACT_A_D,
    appendix_f,
    estimate_A_d,
    girard_area,
    i2_bounds,
    i2_closed,
    i2_complement,
    model_constants,
)
from .geometry import (
    WedgeModel,
    angles_from_normal,
    gnomonic_inverse,
    gnomonic_project,
    napier_jacobian,
    napier_reflect,
    normal_from_angles,
    omega,
    opening_angle,
    wedge_contains,
    wedge_measure,
)
from .hull import euler_relation_holds, facets_ambient, facets_projected
from .sampling import SeedSpec, derive_stream, sample_uniform_wedge

DEFAULT_MASTER_SEED = 20260815
SUITE_NAMES = ("geometry", "i2", "i1", "appendix", "limits", "hull")
# suite_limits budgets per d: (eps, alpha_a, alpha_b, band)
LIMITS_BUDGETS = {2: (0.45, 1.0, 1.5, 0.10), 3: (0.49, 1.5, 2.0, 0.15)}


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str

    def __post_init__(self) -> None:
        # checks compare numpy scalars; a numpy bool is not JSON serializable
        object.__setattr__(self, "passed", bool(self.passed))

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


def _seed(*parts) -> SeedSpec:
    return SeedSpec(DEFAULT_MASTER_SEED, derive_stream("suite", *parts))


def _interior_angles(rng, count: int):
    phi = rng.uniform(0.1, math.pi - 0.1, count)
    psi = rng.uniform(0.1, math.pi / 2 - 0.05, count)
    return phi, psi


def suite_geometry(dims=(2, 3), draws: int = 200) -> list:
    """Chart, projection, and reflection identities on random interior draws."""
    results = []
    for d in dims:
        rng = _seed("geometry", d).generator()
        phi, psi = _interior_angles(rng, draws)
        errs = []
        for p, q in zip(phi, psi):
            u = rng.normal(size=d - 1)
            u /= np.linalg.norm(u)
            z = normal_from_angles(p, q, u)
            back = angles_from_normal(z)
            errs.append(max(abs(back.phi - p), abs(back.psi - q)))
        worst = max(errs)
        results.append(
            CheckResult(
                "geometry", f"chart_round_trip_d{d}", worst < 1e-12, f"max angle error {worst:.2e}"
            )
        )
        model = WedgeModel.right_angle(d)
        cloud = sample_uniform_wedge(model, _seed("geometry_cloud", d), 2000)
        tangent = gnomonic_project(model.center, cloud.points)
        restored = gnomonic_inverse(model.center, tangent)
        round_err = float(np.abs(restored - cloud.points).max())
        results.append(
            CheckResult(
                "geometry",
                f"gnomonic_round_trip_d{d}",
                round_err < 1e-10,
                f"max coordinate error {round_err:.2e}",
            )
        )
        inside = wedge_contains(model, cloud.points)
        results.append(
            CheckResult(
                "geometry",
                f"fold_membership_d{d}",
                bool(inside.all()),
                f"{int(inside.sum())}/{cloud.points.shape[0]} inside",
            )
        )
        beta = opening_angle(phi, psi)
        ident = float(np.abs(np.tan(beta) * np.cos(psi) - np.tan(phi)).max())
        results.append(
            CheckResult(
                "geometry",
                f"opening_angle_identity_d{d}",
                ident < 1e-9,
                f"max residual {ident:.2e}",
            )
        )
        inv_err = 0.0
        meas_err = 0.0
        jac_err = 0.0
        nap_phi = rng.uniform(0.05, math.pi / 2 - 0.05, 50)
        nap_psi = rng.uniform(0.05, math.pi / 2 - 0.05, 50)
        for p, q in zip(nap_phi, nap_psi):
            p2, q2 = napier_reflect(p, q)
            p3, q3 = napier_reflect(p2, q2)
            inv_err = max(inv_err, abs(p3 - p), abs(q3 - q))
            lhs = math.sin(p2) ** (d - 2) * math.sin(q2) ** (d - 1) * napier_jacobian(p, q)
            rhs = math.sin(p) ** (d - 2) * math.sin(q) ** (d - 1)
            meas_err = max(meas_err, abs(lhs - rhs) / rhs)
            h = 1e-6
            pa, qa = napier_reflect(p + h, q)
            pb, qb = napier_reflect(p - h, q)
            pc, qc = napier_reflect(p, q + h)
            pd_, qd = napier_reflect(p, q - h)
            fd = abs(
                ((pa - pb) / (2 * h)) * ((qc - qd) / (2 * h))
                - ((pc - pd_) / (2 * h)) * ((qa - qb) / (2 * h))
            )
            jac_err = max(jac_err, abs(fd - napier_jacobian(p, q)))
        results.append(
            CheckResult(
                "geometry",
                f"napier_involution_d{d}",
                inv_err < 1e-12,
                f"max fixed-point error {inv_err:.2e}",
            )
        )
        results.append(
            CheckResult(
                "geometry",
                f"napier_measure_identity_d{d}",
                meas_err < 1e-10,
                f"max relative error {meas_err:.2e}",
            )
        )
        results.append(
            CheckResult(
                "geometry",
                f"napier_jacobian_fd_d{d}",
                jac_err < 1e-4,
                f"max |analytic - finite difference| {jac_err:.2e}",
            )
        )
    return results


def suite_i2(dims=(2, 3), pairs: int = 20, sample_count: int = 10**6) -> list:
    """Cap-measure Monte Carlo against the closed form and its bounds."""
    results = []
    for d in dims:
        rng = _seed("i2_pairs", d).generator()
        phi, psi = _interior_angles(rng, pairs)
        model = WedgeModel.right_angle(d)
        worst_z = 0.0
        for index, (p, q) in enumerate(zip(phi, psi)):
            u = rng.normal(size=d - 1)
            u /= np.linalg.norm(u)
            z = normal_from_angles(p, q, u)
            est = oracles.mc_cap_measure(model, z, sample_count, _seed("i2_mc", d, index))
            closed = float(i2_closed(d, p, q))
            worst_z = max(worst_z, abs(est.value - closed) / est.std_error)
        results.append(
            CheckResult(
                "i2",
                f"cap_measure_vs_closed_d{d}",
                worst_z < 3.0,
                f"max |z-score| {worst_z:.2f} over {pairs} pairs at {sample_count} samples",
            )
        )
        grid_phi = np.linspace(1e-3, math.pi - 1e-3, 200)
        grid_psi = np.linspace(1e-3, math.pi / 2 - 1e-3, 200)
        pp, qq = np.meshgrid(grid_phi, grid_psi, indexing="ij")
        lower, asym = i2_bounds(d, pp, qq)
        closed_grid = i2_closed(d, pp, qq)
        min_slack = float((closed_grid - lower).min())
        results.append(
            CheckResult(
                "i2",
                f"lower_bound_grid_d{d}",
                min_slack >= 0.0,
                f"min closed-form minus bound {min_slack:.3e} on 200x200 grid",
            )
        )
        ratio = float(i2_closed(d, 1e-2, 1e-2) / i2_bounds(d, 1e-2, 1e-2)[1])
        results.append(
            CheckResult(
                "i2",
                f"asymptotic_ratio_d{d}",
                0.95 <= ratio <= 1.05,
                f"closed/asymptotic {ratio:.6f} at phi=psi=1e-2",
            )
        )
        total = wedge_measure(d)
        comp = float(i2_closed(d, 0.4, 0.7) + i2_complement(d, 0.4, 0.7))
        results.append(
            CheckResult(
                "i2",
                f"complement_identity_d{d}",
                abs(comp - total) < 1e-12,
                f"split sum {comp:.12f} vs wedge measure {total:.12f}",
            )
        )
        girard = girard_area(math.pi / 2, 0.7, math.acos(math.cos(0.4) * math.sin(0.7)))
        factored = float(i2_closed(d, 0.4, 0.7)) / (omega(d + 1) / (4 * math.pi))
        results.append(
            CheckResult(
                "i2",
                f"girard_factorization_d{d}",
                abs(girard - factored) < 1e-12,
                f"triangle area {girard:.12f} vs scaled closed form {factored:.12f}",
            )
        )
    return results


def suite_i1(dims=(2, 3), sample_count: int = 4 * 10**4) -> list:
    """Cross-section integral: bound, small-angle law, quadrature agreement."""
    results = []
    for d in dims:
        if d in EXACT_A_D:
            a_d = EXACT_A_D[d]
        else:
            a_d = estimate_A_d(d, 10**6, _seed("i1_ad", d)).value
        upper = oracles.i1_upper_bound(d)
        worst = 0.0
        for index, (p, q) in enumerate([(0.3, 0.4), (0.7, 0.5), (1.2, 1.0)]):
            est = oracles.mc_I1(d, p, q, sample_count, _seed("i1_mod", d, index))
            worst = max(worst, est.value / upper)
        results.append(
            CheckResult(
                "i1",
                f"upper_bound_d{d}",
                worst < 1.0,
                f"max estimate/bound {worst:.3e} (bound {upper:.4f})",
            )
        )
        small = oracles.mc_I1(d, 1e-2, 1e-2, sample_count, _seed("i1_small", d))
        b_d = model_constants(d, a_d).B_d
        ratio = small.value / (b_d * 1e-2 ** (d + 1))
        results.append(
            CheckResult(
                "i1",
                f"small_angle_ratio_d{d}",
                0.9 <= ratio <= 1.1,
                f"estimate/(B_d phi^(d+1)) = {ratio:.4f} at phi=psi=1e-2",
            )
        )
        if d == 2:
            worst_z = 0.0
            for index, (p, q) in enumerate([(0.05, 0.05), (0.7, 0.5), (1.2, 1.0)]):
                est = oracles.mc_I1(2, p, q, sample_count, _seed("i1_quad", index))
                quad = oracles.quadrature_I1_dim2(p, q)
                worst_z = max(worst_z, abs(est.value - quad) / est.std_error)
            results.append(
                CheckResult(
                    "i1",
                    "quadrature_cross_check_d2",
                    worst_z < 3.0,
                    f"max |z-score| {worst_z:.2f} against 1-D quadrature",
                )
            )
    return results


def _interior_grid(lo: float, hi: float, resolution: int) -> np.ndarray:
    # Half-step offsets keep the grid strictly inside the open interval.
    step = (hi - lo) / resolution
    return lo + (np.arange(resolution) + 0.5) * step


def suite_appendix(grid_resolution: int = 200) -> list:
    """The appendix inequalities on interior grids, then pinned values of f.

    One check per inequality, passed when its least slack on the grid is
    positive; the detail gives that slack and the grid point attaining it.
    f_minimum:        f(x, y) >= 2/pi^2 on (0, pi/2] x (0, pi];
    angle_average:    pi - x + arcsin(sin x cos y) >= ((pi/2 - x) + (pi - y))/3
                      on (0, pi/2) x (0, pi);
    arcsin_sqrt:      pi/2 - arcsin z >= sqrt(1 - z) on [-1, 1];
    cosine_quadratic: cos z <= 1 - z^2/5 on [0, pi];
    norm_exercise:    x + sqrt(5(x^2 + y^2) - x^2 y^2)/5 >= (x + y)/3 on the
                      same rectangle as angle_average.
    """
    if grid_resolution < 100:
        raise DomainError("grid_resolution must be at least 100")
    xs = _interior_grid(0.0, math.pi / 2, grid_resolution)
    ys = _interior_grid(0.0, math.pi, grid_resolution)
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    z1 = _interior_grid(-1.0, 1.0, grid_resolution)
    z2 = _interior_grid(0.0, math.pi, grid_resolution)
    lhs = math.pi - xg + np.arcsin(np.sin(xg) * np.cos(yg))
    slacks = (
        ("f_minimum", appendix_f(xg, yg) - 2.0 / math.pi ** 2, (xg, yg)),
        ("angle_average", lhs - ((math.pi / 2 - xg) + (math.pi - yg)) / 3.0, (xg, yg)),
        ("arcsin_sqrt", math.pi / 2 - np.arcsin(z1) - np.sqrt(1.0 - z1), (z1,)),
        ("cosine_quadratic", 1.0 - z2 ** 2 / 5.0 - np.cos(z2), (z2,)),
        (
            "norm_exercise",
            xg + np.sqrt(5.0 * (xg ** 2 + yg ** 2) - xg ** 2 * yg ** 2) / 5.0 - (xg + yg) / 3.0,
            (xg, yg),
        ),
    )
    results = []
    for name, slack, coords in slacks:
        flat = int(np.argmin(slack))
        least = float(slack.ravel()[flat])
        witness = tuple(float(c.ravel()[flat]) for c in coords)
        results.append(
            CheckResult("appendix", name, least > 0.0, f"min slack {least:.6e} at {witness}")
        )
    val = float(appendix_f(0.01, 0.01))
    results.append(
        CheckResult(
            "appendix",
            "f_origin_value",
            abs(val - 0.5) <= 1e-3,
            f"f(0.01, 0.01) = {val:.8f}",
        )
    )
    edge = float(appendix_f(math.pi / 2, 1.3))
    results.append(
        CheckResult(
            "appendix",
            "f_edge_formula",
            abs(edge - 2.0 / (math.pi * 1.3)) < 1e-12,
            f"f(pi/2, 1.3) = {edge:.12f} vs 2/(pi y)",
        )
    )
    return results


def suite_limits(dims=(2, 3)) -> list:
    """Scaled limit integral: band at n=1e6, scale independence, trend."""
    results = []
    for d in dims:
        eps, alpha_a, alpha_b, band = LIMITS_BUDGETS[d]
        target = math.factorial(d - 1)
        grid = [10**3, 10**4, 10**5, 10**6]
        rep = oracles.mc_binomial_limit_lemma(d, alpha_a, grid, eps)
        gap = rep.final_relative_gap
        results.append(
            CheckResult(
                "limits",
                f"ratio_band_d{d}",
                gap <= band,
                f"H/log n = {rep.ratios[-1]:.6f} vs {target} (gap {gap:.2%}, band {band:.0%})",
            )
        )
        trend_ok = all(b > a for a, b in zip(rep.ratios, rep.ratios[1:]))
        results.append(
            CheckResult(
                "limits",
                f"monotone_trend_d{d}",
                trend_ok,
                "ratios " + ", ".join(f"{r:.4f}" for r in rep.ratios),
            )
        )
        other = oracles.mc_binomial_limit_lemma(d, alpha_b, [10**6], eps)
        shift = abs(other.ratios[-1] / rep.ratios[-1] - 1.0)
        results.append(
            CheckResult(
                "limits",
                f"scale_independence_d{d}",
                shift <= 0.05,
                f"ratio change {shift:.2%} between alpha={alpha_a} and alpha={alpha_b}",
            )
        )
    return results


def suite_hull(dims=(2, 3), seeds: int = 100, max_points: int = 30) -> list:
    """Dual facet-count equivalence, and the Euler relation of the ambient facets at d >= 3."""
    results = []
    for d in dims:
        model = WedgeModel.right_angle(d)
        rng = _seed("hull_sizes", d).generator()
        sizes = rng.integers(d + 1, max_points + 1, size=seeds)
        mismatches = 0
        euler_bad = 0
        degenerate = 0
        for index, n in enumerate(sizes):
            cloud = sample_uniform_wedge(model, _seed("hull_cloud", d, index), int(n))
            ambient = facets_ambient(cloud)
            projected = facets_projected(cloud)
            if ambient.degenerate_flag or projected.degenerate_flag:
                degenerate += 1
                continue
            if ambient.facets != projected.facets:
                mismatches += 1
            if d >= 3 and not euler_relation_holds(ambient.facets, ambient.vertex_count, d):
                euler_bad += 1
        results.append(
            CheckResult(
                "hull",
                f"dual_route_equivalence_d{d}",
                mismatches == 0,
                f"{mismatches} mismatches over {seeds} clouds ({degenerate} degenerate skipped)",
            )
        )
        if d >= 3:
            results.append(
                CheckResult(
                    "hull",
                    f"euler_relation_d{d}",
                    euler_bad == 0,
                    f"{euler_bad} ambient hulls off the Euler relation of a {d - 1}-sphere",
                )
            )
    return results


def check_dims(names, dims) -> None:
    """Raise DomainError unless every selected suite can run at every d in dims."""
    for d in dims:
        if d < 2:
            raise DomainError(f"dimension must be at least 2, got {d}")
        if "limits" in names and d not in LIMITS_BUDGETS:
            raise DomainError(
                f"the limits suite has budgets for d in {sorted(LIMITS_BUDGETS)} only, got {d}"
            )


def run_suites(names=None, dims=(2, 3)) -> list:
    """Run the selected suites (all by default) and return every check.

    Each suite_<name> is looked up when it runs, so a replaced module
    attribute is the one called.
    """
    selected = SUITE_NAMES if names is None else tuple(names)
    for name in selected:
        if name not in SUITE_NAMES:
            raise ValueError(f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    check_dims(selected, dims)
    results = []
    for name in selected:
        suite = globals()[f"suite_{name}"]
        results.extend(suite() if name == "appendix" else suite(dims=dims))
    return results
