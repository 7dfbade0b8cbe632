"""Independent Monte Carlo and quadrature oracles for the closed forms.

Every closed-form quantity in the formulas module gets at least one
estimator here that shares no code path with it: cap measures and the
wedge measure by hit fractions on the full sphere, the cross-section
integral by direct sampling on a great subsphere, and the binomial limit
integral by a fixed Gauss-Legendre rule in numpy.  The d = 2
cross-section integral also has an exact value here, derived apart from
the Monte Carlo route.  Agreement within stated Monte Carlo error is the
evidence that the implemented formulas mean what they claim.  Only the
limit lemma calls scipy (its incomplete beta function), imported in that
function's body, so importing this module does not load it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError
from .formulas import EstimatorReport, _gauss_legendre_panels, parallelotope_volume
from .geometry import (
    CHART_TOL,
    WedgeModel,
    normal_from_angles,
    omega,
    opening_angle,
    orthonormal_complement,
    row_norms,
    wedge_contains,
)
from .sampling import _BATCH, SeedSpec, sample_uniform_sphere

_MIN_SAMPLES = 10**4
_QUAD_RTOL = 1e-8
# The panel width in log n of the limit lemma's coarser rule; on the
# suite's budgets that rule differs from the finer one by 4e-12 to 3e-9
# relative, above the ~3e-13 floor that scipy's betainc sets and below the
# 10 * _QUAD_RTOL error test
_LIMIT_PANEL_WIDTH = 2.0


def mc_cap_measure(
    model: WedgeModel, directions, sample_count: int, seed: SeedSpec
) -> tuple:
    """Hit-fraction estimates of the measure of wedge ∩ {x·z >= 0}, one per row z.

    directions is a (k, d+1) stack of unit vectors.  Every direction is
    tested on the same sample (common random numbers): each chunk of
    _BATCH sphere points is drawn once, on its own substream, and tested
    for wedge membership once.  So each estimate has the law and the bits
    of a one-row call on the same seed, and only the k estimates of one
    call depend on each other.  The chunk's in-wedge rows (about 2^-j of
    them) are copied out once, and each direction counts its hits among
    them with its own matrix-vector product: the hits of a test on every
    point masked by membership, at a fraction of the work.  A (rows, k)
    product would be a large temporary.
    """
    directions = np.ascontiguousarray(directions, dtype=float)
    if directions.ndim != 2 or directions.shape[1] != model.d + 1 or not len(directions):
        raise DomainError("directions must be a nonempty (k, d+1) stack of ambient vectors")
    if not np.all(np.abs(row_norms(directions) - 1.0) <= 1e-9):
        raise DomainError("every direction must be a unit vector")
    if sample_count < _MIN_SAMPLES:
        raise DomainError(f"sample_count must be at least {_MIN_SAMPLES}")
    total = omega(model.d + 1)
    hits = [0] * len(directions)
    for chunk_index, done in enumerate(range(0, sample_count, _BATCH)):
        chunk_seed = seed.substream("cap_measure", chunk_index)
        points = sample_uniform_sphere(model.d, chunk_seed, min(_BATCH, sample_count - done))
        inside = points[wedge_contains(model, points)]
        for k, z in enumerate(directions):
            hits[k] += int(np.count_nonzero(inside @ z >= 0.0))
    reports = []
    for count in hits:
        p = count / sample_count
        std_error = total * math.sqrt(max(p * (1.0 - p), 0.0) / sample_count)
        reports.append(EstimatorReport(value=total * p, std_error=std_error))
    return tuple(reports)


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
        value=scale * mean, std_error=scale * spread / math.sqrt(sample_count)
    )


def i1_upper_bound(d: int) -> float:
    """Worst-case value of the cross-section integral: full lune, unit volumes."""
    return (omega(d) / 2.0) ** d


def quadrature_I1_dim2(phi: float, psi: float) -> float:
    """Exact value of the d=2 cross-section integral, 2(beta - sin beta).

    In gnomonic coordinates on the sliced arc the integral is the double
    integral of |a-b| against (1+a^2)^{-3/2}(1+b^2)^{-3/2} over a square
    of half-width tan(beta/2); it integrates in closed form, with beta the
    opening angle.  Below beta = 0.5 the value comes from its Taylor series,
    since beta - sin(beta) loses about log10(6/beta^2) digits to cancellation.
    """
    beta = float(opening_angle(phi, psi))
    if beta < 0.5:
        # seven terms of beta^3 * sum_k 2(-1)^k beta^(2k)/(2k+3)! reach 1e-15 relative
        return beta**3 * sum(
            (-1) ** k * 2.0 * beta ** (2 * k) / math.factorial(2 * k + 3) for k in range(7)
        )
    return 2.0 * (beta - math.sin(beta))


@dataclass(frozen=True)
class LimitLemmaReport:
    """The binomial limit integral over log n along an n grid, and its limit."""

    ratios: tuple
    target: float

    @property
    def final_relative_gap(self) -> float:
        return abs(self.ratios[-1] - self.target) / self.target


def _limit_integral(d: int, alpha: float, n: float, epsilon: float, width: float):
    """The outer integral of binomial_limit_integrand_value and its error estimate.

    Integrates the incomplete beta function I_x(d, n-d+1), x = eps e^y / n,
    over y in logarithmic coordinates, where it is a smooth sigmoid with its
    knee at y = log(d/eps).  The panels split there and at log(n/eps), above
    which x >= 1 and the integrand is exactly 1.  Each interval gets the
    fewest equal panels no wider than width.  Returns the rule with every
    panel halved, and its distance from the rule on the whole panels.
    """
    from scipy import special

    y_hi = math.log(n * alpha)
    y_lo = min(math.log(1e-6), y_hi - 1.0)
    y_top = min(y_hi, math.log(n / epsilon))
    knee = math.log(d / epsilon)
    cuts = [y_lo, knee, y_top] if y_lo < knee < y_top else [y_lo, y_top]
    counts = [math.ceil((hi - lo) / width) for lo, hi in zip(cuts, cuts[1:])]
    values = []
    for split in (1, 2):
        y, w = _gauss_legendre_panels(cuts, [split * count for count in counts])
        x = np.minimum(epsilon * np.exp(y) / n, 1.0)
        values.append(float(special.betainc(float(d), float(n - d + 1), x) @ w))
    return values[1] + (y_hi - y_top), abs(values[1] - values[0])


def binomial_limit_integrand_value(d: int, alpha: float, n: float, epsilon: float) -> float:
    """The double integral of (st)^(d-1) (1-st/n)^(n-d) over (0,n*alpha)x(0,eps).

    The inner integral in t is an incomplete beta function exactly; the
    outer one is a composite Gauss-Legendre rule in logarithmic coordinates
    (_limit_integral), whose two panel widths give its error estimate.
    """
    if not 0.0 < epsilon < 0.5:
        raise DomainError("epsilon must lie in (0, 1/2)")
    if alpha <= 0.0 or n <= d:
        raise DomainError("need alpha > 0 and n > d")
    from scipy import special

    value, abserr = _limit_integral(d, alpha, n, epsilon, _LIMIT_PANEL_WIDTH)
    if value <= 0.0 or abserr > 10.0 * _QUAD_RTOL * value:
        raise QuadratureError(
            f"limit-lemma quadrature error {abserr:.2e} relative to {value:.6e}"
        )
    return math.exp(d * math.log(n) + special.betaln(float(d), float(n - d + 1))) * value


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
    ratios = tuple(
        binomial_limit_integrand_value(d, alpha, n, epsilon) / math.log(n) for n in n_grid
    )
    return LimitLemmaReport(ratios=ratios, target=float(math.factorial(d - 1)))
