"""Independent Monte Carlo and quadrature oracles for the closed forms.

Every closed-form quantity in the formulas module gets at least one
estimator here that shares no code path with it: cap measures and the
wedge measure by hit fractions on the full sphere, the cross-section
integral by direct sampling on a great subsphere, and the binomial limit
integral by deterministic quadrature.  Agreement within stated Monte
Carlo error is the evidence that the implemented formulas mean what they
claim.  The two quadratures import scipy in their own bodies, so importing
this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .formulas import EstimatorReport, parallelotope_volume
from .geometry import (
    CHART_TOL,
    WedgeModel,
    normal_from_angles,
    omega,
    opening_angle,
    orthonormal_complement,
    wedge_contains,
)
from .sampling import _BATCH, SeedSpec, sample_uniform_sphere

_MIN_SAMPLES = 10**4
_QUAD_RTOL = 1e-8


def mc_cap_measure(
    model: WedgeModel, z: np.ndarray, sample_count: int, seed: SeedSpec
) -> EstimatorReport:
    """Hit-fraction estimate of the measure of wedge ∩ {x·z >= 0}."""
    z = np.asarray(z, dtype=float)
    if z.shape != (model.d + 1,):
        raise DomainError("direction z must be an ambient vector")
    if abs(np.linalg.norm(z) - 1.0) > 1e-9:
        raise DomainError("direction z must be a unit vector")
    if sample_count < _MIN_SAMPLES:
        raise DomainError(f"sample_count must be at least {_MIN_SAMPLES}")
    total = omega(model.d + 1)
    hits = 0
    for chunk_index, done in enumerate(range(0, sample_count, _BATCH)):
        chunk_seed = seed.substream("cap_measure", chunk_index)
        points = sample_uniform_sphere(model.d, chunk_seed, min(_BATCH, sample_count - done))
        hits += int((wedge_contains(model, points) & (points @ z >= 0.0)).sum())
    p = hits / sample_count
    std_error = total * math.sqrt(max(p * (1.0 - p), 0.0) / sample_count)
    return EstimatorReport(
        value=total * p, std_error=std_error, sample_count=sample_count, seed=seed
    )


def cross_section_measure(d: int, phi: float, psi: float) -> float:
    """Measure of the sliced wedge: opening angle as a fraction of the lune.

    Slicing the right-angle wedge with the hyperplane of the chart normal
    leaves a wedge of opening angle beta inside a copy of the (d-1)-sphere,
    hence the fraction beta/(2*pi) of its total measure.
    """
    beta = float(opening_angle(phi, psi))
    return beta * omega(d) / (2.0 * math.pi)


def _lune_frame(d: int, phi: float, psi: float):
    """Basis of the sliced great subsphere and the wedge's arc inside it.

    Returns (basis, plane, start, width).  basis is the (d+1, d) orthonormal
    complement of the chart normal; plane holds an orthonormal pair (a, b),
    in basis coordinates, spanning the two projected wedge normals with a
    along the first.  The wedge is the set of slice points whose polar angle
    in that plane lies in [start, start + width] = [gamma - pi/2, pi/2], where
    gamma is the angle of the second projected normal, so width is the
    opening angle.  Raises DomainError when a projected normal is shorter
    than CHART_TOL (psi = 0): the chart normal is then parallel to that
    wedge normal, and the slice is not the lune of angle opening_angle.
    """
    u = np.zeros(d - 1)
    u[0] = 1.0
    basis = orthonormal_complement(normal_from_angles(phi, psi, u))
    normals = (WedgeModel.right_angle(d).normals @ basis).T
    lengths = np.linalg.norm(normals, axis=0)
    if lengths.min() < CHART_TOL:
        raise DomainError(
            f"a wedge normal is parallel to the chart normal at phi={phi}, psi={psi}: "
            f"projected lengths {lengths[0]:.3e}, {lengths[1]:.3e}"
        )
    # Householder QR keeps (a, b) orthonormal even when the projected normals
    # are (nearly) parallel, where b may be any direction orthogonal to a.
    q, r = np.linalg.qr(normals)
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    gamma = math.atan2(abs(r[1, 1]), signs[0] * r[0, 1])
    return basis, (q * signs).T, gamma - math.pi / 2.0, math.pi - gamma


def subsphere_wedge_points(
    d: int, phi: float, psi: float, count: int, seed: SeedSpec
) -> np.ndarray:
    """Uniform wedge points on the great subsphere orthogonal to the chart normal.

    Exact, with no rejection: draws count isotropic directions in the
    subsphere and maps each one's polar angle in the plane of the projected
    wedge normals linearly from (-pi, pi] onto the wedge's arc, leaving the
    orthogonal part as it is.  An isotropic direction's polar angle is
    uniform and independent of the rest of the point, so the image is
    uniform on the sliced wedge.  The arc comes from the projected normals,
    not from the opening-angle closed form.  Raises DomainError where the
    slice degenerates (psi = 0, see _lune_frame).
    """
    basis, plane, start, width = _lune_frame(d, phi, psi)
    coords = sample_uniform_sphere(d - 1, seed.substream("subsphere"), count)
    inplane = coords @ plane.T
    radius = np.hypot(inplane[:, 0], inplane[:, 1])
    theta = start + (np.arctan2(inplane[:, 1], inplane[:, 0]) + math.pi) * (
        width / (2.0 * math.pi)
    )
    moved = np.stack([radius * np.cos(theta), radius * np.sin(theta)], axis=1)
    coords += (moved - inplane) @ plane
    return coords @ basis.T


def mc_I1(
    d: int, phi: float, psi: float, sample_count: int, seed: SeedSpec
) -> EstimatorReport:
    """Monte Carlo estimate of the d-fold cross-section volume integral.

    Averages the parallelotope volume of d independent uniform points on
    the sliced wedge and scales by the cross-section measure to the d-th
    power, matching the iterated surface integral it estimates.
    """
    if sample_count < _MIN_SAMPLES:
        raise DomainError(f"sample_count must be at least {_MIN_SAMPLES}")
    mu = cross_section_measure(d, phi, psi)
    points = subsphere_wedge_points(d, phi, psi, sample_count * d, seed)
    volumes = parallelotope_volume(points.reshape(sample_count, d, d + 1))
    mean = float(volumes.mean())
    spread = float(volumes.std(ddof=1)) if sample_count > 1 else 0.0
    scale = mu**d
    return EstimatorReport(
        value=scale * mean,
        std_error=scale * spread / math.sqrt(sample_count),
        sample_count=sample_count,
        seed=seed,
    )


def i1_upper_bound(d: int) -> float:
    """Worst-case value of the cross-section integral: full lune, unit volumes."""
    return (omega(d) / 2.0) ** d


def quadrature_I1_dim2(phi: float, psi: float) -> float:
    """Deterministic value of the d=2 cross-section integral.

    In gnomonic coordinates on the sliced arc the integral becomes a double
    integral of |a-b| against (1+a^2)^{-3/2}(1+b^2)^{-3/2} over a square;
    the inner integral has the closed antiderivative 2(sqrt(1+b^2) -
    1/sqrt(1+L^2)), leaving one adaptive quadrature.
    """
    from scipy import integrate

    beta = float(opening_angle(phi, psi))
    half = math.tan(beta / 2.0)
    edge = 1.0 / math.sqrt(1.0 + half * half)

    def outer(b: float) -> float:
        inner = 2.0 * (math.sqrt(1.0 + b * b) - edge)
        return inner * (1.0 + b * b) ** -1.5

    value, abserr = integrate.quad(outer, -half, half, epsabs=0.0, epsrel=1e-12, limit=200)
    if value != 0.0 and abserr > 1e-9 * abs(value):
        raise QuadratureError(f"cross-section quadrature error {abserr:.2e} too large")
    return value


@dataclass(frozen=True)
class LimitLemmaReport:
    """Values of the binomial limit integral along an n grid."""

    d: int
    alpha: float
    epsilon: float
    n_grid: tuple
    values: tuple
    ratios: tuple
    target: float

    @property
    def final_relative_gap(self) -> float:
        return abs(self.ratios[-1] - self.target) / self.target


def binomial_limit_integrand_value(d: int, alpha: float, n: float, epsilon: float) -> float:
    """The double integral of (st)^(d-1) (1-st/n)^(n-d) over (0,n*alpha)x(0,eps).

    The inner integral in t is an incomplete beta function exactly; the
    outer integral runs in logarithmic coordinates where the integrand is a
    smooth sigmoid, handled by one adaptive rule.
    """
    if not 0.0 < epsilon < 0.5:
        raise DomainError("epsilon must lie in (0, 1/2)")
    if alpha <= 0.0 or n <= d:
        raise DomainError("need alpha > 0 and n > d")
    from scipy import integrate, special

    a, b = float(d), float(n - d + 1)
    log_beta = special.betaln(a, b)

    def outer(y: float) -> float:
        x = epsilon * math.exp(y) / n
        return float(special.betainc(a, b, min(x, 1.0)))

    y_hi = math.log(n * alpha)
    y_lo = min(math.log(1e-6), y_hi - 1.0)
    knee = math.log(d / epsilon)
    points = [knee] if y_lo < knee < y_hi else None
    value, abserr = integrate.quad(
        outer, y_lo, y_hi, epsabs=0.0, epsrel=_QUAD_RTOL, limit=400, points=points
    )
    if value <= 0.0 or abserr > 10.0 * _QUAD_RTOL * value:
        raise QuadratureError(
            f"limit-lemma quadrature error {abserr:.2e} relative to {value:.6e}"
        )
    return math.exp(d * math.log(n) + log_beta) * value


def mc_binomial_limit_lemma(
    d: int, alpha: float, n_grid, epsilon: float
) -> LimitLemmaReport:
    """Evaluate the limit integral over an increasing n grid, scaled by log n.

    The scaled sequence trends toward (d-1)!; how close it lands at finite
    n depends on alpha and epsilon through an additive log(alpha*eps/d)
    correction, so callers pick the grid and tolerance band together.
    """
    n_grid = tuple(int(n) for n in n_grid)
    if any(b <= a for a, b in zip(n_grid, n_grid[1:])) or not n_grid:
        raise DomainError("n_grid must be nonempty and strictly increasing")
    values = tuple(binomial_limit_integrand_value(d, alpha, n, epsilon) for n in n_grid)
    ratios = tuple(v / math.log(n) for v, n in zip(values, n_grid))
    return LimitLemmaReport(
        d=d,
        alpha=float(alpha),
        epsilon=float(epsilon),
        n_grid=n_grid,
        values=values,
        ratios=ratios,
        target=float(math.factorial(d - 1)),
    )
