"""Ambient geometry of the spherical wedge.

Points live on the unit sphere S^d embedded in R^(d+1) and are stored as
plain numpy arrays of length d+1 (batches as arrays of shape (n, d+1)).
The wedge is the intersection of S^d with j halfspaces whose bounding
hyperplanes pass through the origin; the right-angle case j=2 uses the
normals e_d and e_(d+1), so the wedge is a quarter sphere.

A unit normal direction z with z_(d+1) <= 0 is parametrized by angles
(phi, psi) and a unit vector u in the span of e_1..e_(d-1):

    z = sin(phi) sin(psi) u - cos(phi) sin(psi) e_d - cos(psi) e_(d+1).

Directions with z_(d+1) > 0 are handled by the caller via the antipodal
map; the chart covers the closure phi in [0, pi], psi in [0, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChartSingular, DomainError, HalfSphereViolation

# Shared tolerances, fixed in one place.
UNIT_NORM_TOL = 1e-12
ORTHO_TOL = 1e-10
CHART_TOL = 1e-12

# Hard cap for Poisson cloud sizes and similar enumerations.
MAX_POINTS = 10 ** 8

# Rows per block of the per-point passes over a cloud (normalise, fold,
# validate, project, prune).  Their scratch is then a few block-sized arrays
# that stay in cache and are reused by malloc, instead of n-sized
# temporaries that a fresh pool worker must page in on first touch.
BLOCK_ROWS = 1 << 12


def row_blocks(n: int) -> list:
    """Slices of BLOCK_ROWS rows, in order, that cover n rows.

    A lone last row joins the block before it (which then has BLOCK_ROWS + 1
    rows): numpy evaluates a one-row matrix-vector product as a dot product,
    whose rounding differs from the matrix-vector kernel that a whole-array
    product uses for that row.
    """
    starts = list(range(0, n, BLOCK_ROWS))
    if len(starts) > 1 and n - starts[-1] == 1:
        starts.pop()
    return [slice(a, b) for a, b in zip(starts, starts[1:] + [n])]


def omega(k: int) -> float:
    """Surface measure omega_k of S^(k-1), i.e. 2 pi^(k/2) / Gamma(k/2)."""
    if k < 1:
        raise DomainError("omega(k) requires k >= 1")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def _check_unit(x: np.ndarray, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise DomainError(f"{name} must be unit length, deviation {worst:.3e}")
    return x


@dataclass
class WedgeCoords:
    """Angular chart (phi, psi, u) of a unit normal direction.

    phi in [0, pi], psi in [0, pi/2]; u is a unit vector in R^(d-1)
    identified with span{e_1, ..., e_(d-1)}.  chart_degenerate marks
    inputs where some coordinates were canonicalized because the chart
    is singular there (psi = 0, or sin(phi) = 0).
    """

    phi: float
    psi: float
    u: np.ndarray
    chart_degenerate: bool = False

    def __post_init__(self) -> None:
        self.u = np.asarray(self.u, dtype=float)
        if self.u.ndim != 1 or self.u.size < 1:
            raise DomainError("u must be a vector of dimension d-1 >= 1")
        if not (-CHART_TOL <= self.phi <= math.pi + CHART_TOL):
            raise DomainError(f"phi out of range [0, pi]: {self.phi}")
        if not (-CHART_TOL <= self.psi <= math.pi / 2 + CHART_TOL):
            raise DomainError(f"psi out of range [0, pi/2]: {self.psi}")
        _check_unit(self.u, "u")

    @property
    def d(self) -> int:
        return self.u.size + 1


@dataclass
class WedgeModel:
    """Wedge configuration: dimension d, hyperplane count j, normals, center.

    The center is a unit vector with strictly positive inner product with
    every normal; it doubles as the gnomonic projection pole, so all wedge
    points lie in its open half-sphere almost surely.
    """

    d: int
    j: int
    normals: np.ndarray
    center: np.ndarray

    def __post_init__(self) -> None:
        self.normals = np.atleast_2d(np.asarray(self.normals, dtype=float))
        self.center = np.asarray(self.center, dtype=float)
        if self.d < 2:
            raise DomainError("dimension d must be >= 2")
        if self.normals.shape != (self.j, self.d + 1):
            raise DomainError("normals must be a (j, d+1) array")
        _check_unit(self.normals, "normal")
        _check_unit(self.center, "center")
        gram = self.normals @ self.normals.T
        off = gram - np.diag(np.diag(gram))
        if np.any(np.abs(off) > 1.0 - ORTHO_TOL):
            raise DomainError("normals must be pairwise linearly independent")
        if self.j == 2 and abs(gram[0, 1]) > ORTHO_TOL:
            raise DomainError("j=2 requires orthogonal normals (right angle)")
        if np.any(self.normals @ self.center <= UNIT_NORM_TOL):
            raise DomainError("center must have positive inner product with every normal")

    @classmethod
    def right_angle(cls, d: int) -> "WedgeModel":
        """Quarter-sphere wedge bounded by the hyperplanes normal to e_d, e_(d+1)."""
        normals = np.zeros((2, d + 1))
        normals[0, d - 1] = 1.0
        normals[1, d] = 1.0
        center = (normals[0] + normals[1]) / math.sqrt(2.0)
        return cls(d=d, j=2, normals=normals, center=center)

    @classmethod
    def half_sphere(cls, d: int) -> "WedgeModel":
        """Half sphere bounded by the hyperplane normal to e_(d+1)."""
        normals = np.zeros((1, d + 1))
        normals[0, d] = 1.0
        return cls(d=d, j=1, normals=normals, center=normals[0].copy())

    @classmethod
    def from_normals(cls, d: int, normals, center=None) -> "WedgeModel":
        normals = np.atleast_2d(np.asarray(normals, dtype=float))
        if center is None:
            center = normals.sum(axis=0)
            center = center / np.linalg.norm(center)
        return cls(d=d, j=normals.shape[0], normals=normals, center=np.asarray(center, float))

    @property
    def is_orthogonal(self) -> bool:
        gram = self.normals @ self.normals.T
        return bool(np.all(np.abs(gram - np.eye(self.j)) <= ORTHO_TOL))

    @property
    def surface_measure(self) -> float | None:
        """Exact wedge measure when the normals are mutually orthogonal, else None."""
        if self.is_orthogonal:
            return omega(self.d + 1) / 2.0 ** self.j
        return None


def wedge_contains(model: WedgeModel, points: np.ndarray) -> np.ndarray | bool:
    """Membership test z . n_i >= -1e-12 for every normal; batched."""
    points = np.asarray(points, dtype=float)
    # One matrix-vector product per normal: OpenBLAS threads an
    # (n, d+1) @ (d+1, j) product, which is far slower at this shape and
    # oversubscribes the cores when pool workers run side by side.
    inside = np.ones(points.shape[:-1], dtype=bool)
    for normal in model.normals:
        inside &= points @ normal >= -UNIT_NORM_TOL
    if points.ndim == 1:
        return bool(inside)
    return inside


def gnomonic_project(center: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Central projection v -> v/(center.v) - center onto the tangent hyperplane.

    Raises HalfSphereViolation unless center.v > 1e-12 for every input point.
    """
    center = _check_unit(center, "center")
    points = np.asarray(points, dtype=float)
    dots = points @ center
    if np.any(dots <= UNIT_NORM_TOL):
        raise HalfSphereViolation("point outside the open half-sphere of the chart")
    return points / dots[..., None] - center


def gnomonic_inverse(center: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Inverse projection x -> (x + center)/|x + center| for x orthogonal to center."""
    center = _check_unit(center, "center")
    tangent = np.asarray(tangent, dtype=float)
    scale = 1.0 + np.linalg.norm(tangent, axis=-1)
    if np.any(np.abs(tangent @ center) > ORTHO_TOL * scale):
        raise DomainError("tangent point is not orthogonal to the projection center")
    w = tangent + center
    norms = np.linalg.norm(w, axis=-1)
    return w / (norms[..., None] if w.ndim > 1 else norms)


def normal_from_angles(phi: float, psi: float, u: np.ndarray) -> np.ndarray:
    """Evaluate the angular chart: unit normal z from (phi, psi, u)."""
    coords = WedgeCoords(phi, psi, u)
    sp, cp = math.sin(coords.phi), math.cos(coords.phi)
    ss, cs = math.sin(coords.psi), math.cos(coords.psi)
    z = np.empty(coords.d + 1)
    z[: coords.d - 1] = sp * ss * coords.u
    z[coords.d - 1] = -cp * ss
    z[coords.d] = -cs
    return z


def angles_from_normal(z: np.ndarray, canonicalize: bool = True) -> WedgeCoords:
    """Invert the angular chart on the branch z_(d+1) <= 0.

    Singular inputs (psi ~ 0, or sin(phi) ~ 0 where u is unconstrained) are
    canonicalized to phi=0, u=e_1 with chart_degenerate set; pass
    canonicalize=False to raise ChartSingular instead.
    """
    z = _check_unit(z, "z")
    d = z.size - 1
    if d < 2:
        raise DomainError("ambient dimension must be at least 3")
    if z[d] > CHART_TOL:
        raise DomainError("z_(d+1) > 0: apply the antipodal map before inverting")
    psi = math.acos(min(max(-z[d], 0.0), 1.0))
    e1 = np.zeros(d - 1)
    e1[0] = 1.0
    sin_psi = float(np.linalg.norm(z[:d]))
    if sin_psi < CHART_TOL:
        if not canonicalize:
            raise ChartSingular("psi ~ 0: phi and u are unconstrained")
        return WedgeCoords(0.0, psi, e1, chart_degenerate=True)
    head = float(np.linalg.norm(z[: d - 1]))
    phi = math.atan2(head, -z[d - 1])
    if head < CHART_TOL:
        if not canonicalize:
            raise ChartSingular("sin(phi) ~ 0: u is unconstrained")
        return WedgeCoords(phi, psi, e1, chart_degenerate=True)
    return WedgeCoords(phi, psi, z[: d - 1] / head)


def opening_angle(phi, psi):
    """Dihedral angle beta of the sliced wedge, tan(beta) = tan(phi)/cos(psi).

    Evaluated as atan2(sin(phi), cos(phi) cos(psi)), which realizes the exact
    sine/cosine pair of the angle and covers the closed ranges phi in [0, pi],
    psi in [0, pi/2] without overflow.
    """
    return np.arctan2(np.sin(phi), np.cos(phi) * np.cos(psi))


def napier_reflect(phi: float, psi: float) -> tuple[float, float]:
    """Reflect (phi, psi) across the wedge's symmetry hyperplane.

    The image satisfies tan(phi') = tan(psi) sin(phi) and
    tan(phi) = tan(psi') sin(phi'); the map is an involution on (0, pi/2)^2.
    """
    if not (0.0 < phi < math.pi / 2 and 0.0 < psi < math.pi / 2):
        raise DomainError("napier_reflect requires phi, psi in the open interval (0, pi/2)")
    phi_t = math.atan(math.tan(psi) * math.sin(phi))
    psi_t = math.atan2(math.tan(phi), math.sin(phi_t))
    return phi_t, psi_t


def napier_jacobian(phi: float, psi: float) -> float:
    """Derivative magnitude |det DG|(phi, psi) of the reflection map.

    Equals tan(psi)/sqrt(1 + tan(psi)^2 sin(phi)^2), written here with
    sines and cosines so that psi -> pi/2 stays finite.
    """
    if not (0.0 < phi < math.pi / 2 and 0.0 < psi < math.pi / 2):
        raise DomainError("napier_jacobian requires phi, psi in the open interval (0, pi/2)")
    s, c = math.sin(psi), math.cos(psi)
    return s / math.sqrt(c * c + s * s * math.sin(phi) ** 2)


def orthonormal_complement(z: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to z.

    Returns a (d+1, d) matrix with orthonormal columns; built by removing
    the standard basis vector most parallel to z and orthonormalizing the
    remainder against z.
    """
    z = _check_unit(z, "z")
    m = z.size
    cols = np.delete(np.eye(m), int(np.argmax(np.abs(z))), axis=1)
    cols -= np.outer(z, z @ cols)
    q, r = np.linalg.qr(cols)
    # fix signs so the basis does not depend on the LAPACK build
    q = q * np.sign(np.diag(r))[None, :]
    if np.max(np.abs(q.T @ z)) > ORTHO_TOL:
        raise DomainError("orthonormal complement construction failed")
    return q
