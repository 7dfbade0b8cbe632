"""Closed-form quantities of the facet-count analysis.

Covers the wedge measure, the cap measure I2 of a wedge sliced by a
hyperplane together with its lower bound and small-angle asymptotics,
Girard's triangle area, the parallelotope constant A_d with the derived
slope constant c_{d,2}, and the stabilized quotient f(x, y) whose lower
bound drives the small-angle estimates.  The appendix inequalities
themselves are checked on interior grids by suites.suite_appendix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError
from .geometry import BLOCK_ROWS, omega, row_blocks
from .sampling import SeedSpec, _beta_prime

# Samples per substream of estimate_A_d: it fixes which draws each sample
# takes, so changing it changes the estimate's bits.
_A_D_CHUNK = 1 << 20

# A_d known in closed form.  At d = 2 the rows are (u_i, 1), so A_2 = E|u_1 - u_2| = 2/3.
EXACT_A_D = {2: 2.0 / 3.0}


def wedge_measure(d: int, j: int = 2) -> float:
    """Measure of the wedge cut by j mutually orthogonal hyperplanes."""
    return omega(d + 1) / 2.0 ** j


def i2_closed(d: int, phi, psi):
    """Cap measure of the wedge on the positive side of the sliced hyperplane.

    Equals omega_(d+1)/(4 pi) * (psi - arcsin(cos(phi) sin(psi))) for
    phi in [0, pi], psi in [0, pi/2]; independent of the u component.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    inner = np.arcsin(np.clip(np.cos(phi) * np.sin(psi), -1.0, 1.0))
    value = omega(d + 1) / (4.0 * math.pi) * (psi - inner)
    return np.maximum(value, 0.0)[()]


def i2_complement(d: int, phi, psi):
    """Wedge measure minus the cap measure, in closed form."""
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    inner = np.arcsin(np.clip(np.cos(phi) * np.sin(psi), -1.0, 1.0))
    return (omega(d + 1) / (4.0 * math.pi) * (math.pi - psi + inner))[()]


def i2_bounds(d: int, phi, psi):
    """(lower bound, small-angle asymptotic) for the cap measure.

    The lower bound omega_(d+1) phi^2 psi / (2 pi^3) holds on the whole
    open domain; the asymptotic omega_(d+1) phi^2 psi / (8 pi) is attained
    in the limit phi, psi -> 0.
    """
    phi = np.asarray(phi, dtype=float)
    psi = np.asarray(psi, dtype=float)
    w = omega(d + 1)
    base = phi ** 2 * psi
    return (w / (2.0 * math.pi ** 3) * base)[()], (w / (8.0 * math.pi) * base)[()]


def girard_area(a: float, b: float, c: float) -> float:
    """Area of a spherical triangle from its angle sum."""
    return a + b + c - math.pi


def _svd_volume(vectors: np.ndarray) -> np.ndarray:
    if not np.isfinite(vectors).all():
        raise DomainError("parallelotope_volume needs finite entries")
    singular = np.linalg.svd(vectors, compute_uv=False)
    volume = np.prod(singular, axis=-1)
    degenerate = singular[..., -1] <= 1e-14 * singular[..., 0]
    return np.where(degenerate, 0.0, volume)


def _square_volume(stacks: np.ndarray) -> np.ndarray:
    """|det| of a (count, k, k) stack: closed forms for k = 2 and 3, LU beyond."""
    k = stacks.shape[-1]
    if k == 2:
        a, b, c, d = stacks[:, 0, 0], stacks[:, 0, 1], stacks[:, 1, 0], stacks[:, 1, 1]
        return np.abs(a * d - b * c)
    if k == 3:
        r0, r1, r2 = stacks[:, 0], stacks[:, 1], stacks[:, 2]
        return np.abs(
            r0[:, 0] * (r1[:, 1] * r2[:, 2] - r1[:, 2] * r2[:, 1])
            - r0[:, 1] * (r1[:, 0] * r2[:, 2] - r1[:, 2] * r2[:, 0])
            + r0[:, 2] * (r1[:, 0] * r2[:, 1] - r1[:, 1] * r2[:, 0])
        )
    return np.abs(np.linalg.det(stacks))


def parallelotope_volume(vectors: np.ndarray) -> np.ndarray:
    """Volume spanned by row vectors, batched over leading axes.

    Products of singular values equal the Gram-determinant square root but
    stay nonnegative near rank deficiency; stacks whose smallest singular
    value is below 1e-14 of the largest are snapped to exactly zero.

    Square stacks use |det| instead: |ad - bc| for k = 2, the cofactor
    expansion along the first row for k = 3, LU beyond.  A stack the SVD
    rule would snap has |det| <= s_min s_max^(k-1) <= 1e-14 ||A||_F^k, so
    every stack with |det| <= 1e-13 ||A||_F^k goes through the SVD rule and
    snapped stacks still come out exactly zero.  The factor 10 covers the
    rounding: each closed form sums k! products of k entries with at most
    k + 2 roundings each, so it is off by at most about (k + 2) u perm(|A|)
    <= 5 u ||A||_F^k < 6e-16 ||A||_F^k (u = 2^-53; perm(|A|) <= the product
    of the row 1-norms <= ||A||_F^k).  For k >= 4 it covers LU's rounding.

    A NaN or infinite entry raises DomainError.  Such a stack always fails
    the |det| test, so only the stacks sent to the SVD are checked; finite
    stacks that overflow still give inf or 0.
    """
    vectors = np.asarray(vectors, dtype=float)
    m, k = vectors.shape[-2], vectors.shape[-1]
    if m > k:
        raise DomainError("more vectors than ambient dimensions")
    if m < k:
        return _svd_volume(vectors)[()]
    stacks = vectors.reshape(-1, m, k)
    volume = _square_volume(stacks)
    scale = np.einsum("ijk,ijk->i", stacks, stacks) ** (k / 2.0)
    # negated so that non-finite and overflowed stacks also take the SVD path
    unsure = ~(volume > 1e-13 * scale)
    if np.any(unsure):
        volume[unsure] = _svd_volume(stacks[unsure])
    return volume.reshape(vectors.shape[:-2])[()]


@dataclass(frozen=True)
class EstimatorReport:
    """Monte Carlo estimate with its standard error and provenance."""

    value: float
    std_error: float
    sample_count: int
    seed: SeedSpec

    def __post_init__(self) -> None:
        if self.std_error < 0 or self.sample_count < 1:
            raise DomainError("std_error must be >= 0 and sample_count >= 1")


@dataclass(frozen=True)
class ModelConstants:
    """All derived constants of the wedge model in one bundle."""

    d: int
    omega_d_minus_1: float
    omega_d_plus_1: float
    b_d: float
    B_d: float
    A_d: float
    c_d2: float


def estimate_A_d(d: int, sample_count: int, seed: SeedSpec) -> EstimatorReport:
    """Monte Carlo estimate of the mean parallelotope volume constant.

    Averages the volume spanned by d random rows (U_i, Z_i, 1) in R^d with
    U_i uniform on [-1, 1] and Z_i beta-prime in R^(d-2) with parameter
    (d+1)/2.  Samples are drawn in fixed-size chunks on derived substreams,
    so the result is identical under any worker partition.  A chunk's
    volumes are computed over geometry.row_blocks through one reused row
    array, then summed over the whole chunk at once.
    """
    if d < 2:
        raise DomainError("estimate_A_d requires d >= 2")
    if sample_count < 10 ** 3:
        raise DomainError("sample_count must be at least 1000")
    sums: list[float] = []
    sq_sums: list[float] = []
    done = 0
    chunk_index = 0
    while done < sample_count:
        m = min(_A_D_CHUNK, sample_count - done)
        rng = seed.substream("A_d", chunk_index).generator()
        u = rng.uniform(-1.0, 1.0, (m, d))
        z = _beta_prime(rng, d - 2, (d + 1) / 2.0, m * d).reshape(m, d, d - 2)
        # rows (u, z, 1) are written block by block; the last column stays 1
        block = np.ones((BLOCK_ROWS + 1, d, d))
        volumes = np.empty(m)
        for rows in row_blocks(m):
            stacks = block[: rows.stop - rows.start]
            stacks[:, :, 0] = u[rows]
            stacks[:, :, 1:-1] = z[rows]
            volumes[rows] = parallelotope_volume(stacks)
        sums.append(float(volumes.sum()))
        sq_sums.append(float(np.square(volumes).sum()))
        done += m
        chunk_index += 1
    mean = math.fsum(sums) / sample_count
    var = max(math.fsum(sq_sums) / sample_count - mean * mean, 0.0)
    return EstimatorReport(
        value=mean,
        std_error=math.sqrt(var / sample_count),
        sample_count=sample_count,
        seed=seed,
    )


def model_constants(d: int, A_d) -> ModelConstants:
    """Derive every model constant from the dimension and A_d.

    Accepts A_d as a float or an EstimatorReport.  Checks the internal
    identity omega_(d-1) B_d / (d b_d^d) = c_{d,2} to 1e-12 relative.
    """
    if d < 2:
        raise DomainError("model_constants requires d >= 2")
    a = A_d.value if isinstance(A_d, EstimatorReport) else float(A_d)
    if a <= 0:
        raise DomainError("A_d must be positive")
    w_minus, w_plus = omega(d - 1), omega(d + 1)
    b_d = w_plus / (8.0 * math.pi)
    B_d = (a / 2.0) * (w_plus / (4.0 * math.pi)) ** d
    c_d2 = 2.0 ** (d - 1) * w_minus * a / d
    check = w_minus * B_d / (d * b_d ** d)
    if abs(check - c_d2) > 1e-12 * abs(c_d2):
        raise InternalError(f"constant identity violated: {check} vs {c_d2}")
    return ModelConstants(
        d=d,
        omega_d_minus_1=w_minus,
        omega_d_plus_1=w_plus,
        b_d=b_d,
        B_d=B_d,
        A_d=a,
        c_d2=c_d2,
    )


# Bivariate series of (x - arcsin(sin x cos y)) / (x y^2) through total
# degree 6; only even powers occur.  Exact rational coefficients.
_F_SERIES = (
    (0, 0, 0.5),
    (2, 0, 1.0 / 6.0),
    (0, 2, -1.0 / 24.0),
    (4, 0, 1.0 / 15.0),
    (2, 2, -5.0 / 36.0),
    (0, 4, 1.0 / 720.0),
    (6, 0, 17.0 / 630.0),
    (4, 2, -47.0 / 360.0),
    (2, 4, 91.0 / 2160.0),
    (0, 6, -1.0 / 40320.0),
)
_F_SERIES_CUTOFF = 1e-3


def appendix_f(x, y):
    """The ratio (x - arcsin(sin x cos y)) / (x y^2), stabilized near 0.

    Direct evaluation cancels catastrophically for small arguments, so
    max(|x|, |y|) < 1e-3 switches to a degree-6 series; x = 0 is extended
    by the limit (1 - cos y)/y^2.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if np.any(y <= 0) or np.any(x < 0):
        raise DomainError("appendix_f requires x >= 0 and y > 0")
    x_b, y_b = np.broadcast_arrays(x, y)
    out = np.empty(x_b.shape)
    small = np.maximum(np.abs(x_b), np.abs(y_b)) < _F_SERIES_CUTOFF
    if np.any(small):
        xs, ys = x_b[small], y_b[small]
        acc = np.zeros_like(xs)
        for i, j, coeff in _F_SERIES:
            acc += coeff * xs ** i * ys ** j
        out[small] = acc
    big = ~small
    if np.any(big):
        xl, yl = x_b[big], y_b[big]
        vals = np.empty_like(xl)
        zero = xl == 0.0
        vals[zero] = (1.0 - np.cos(yl[zero])) / yl[zero] ** 2
        pos = ~zero
        xp, yp = xl[pos], yl[pos]
        vals[pos] = (xp - np.arcsin(np.sin(xp) * np.cos(yp))) / (xp * yp ** 2)
        out[big] = vals
    return out[()]
