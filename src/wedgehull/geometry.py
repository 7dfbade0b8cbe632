"""Ambient geometry of the spherical wedge.

Points live on the unit sphere S^d embedded in R^(d+1) and are stored as
plain numpy arrays of length d+1 (batches as arrays of shape (n, d+1)).
The wedge is the intersection of S^d with j halfspaces whose bounding
hyperplanes pass through the origin and have mutually orthogonal normals;
the right-angle case j=2 uses the normals e_d and e_(d+1), so the wedge is
a quarter sphere.

A unit normal direction z with z_(d+1) <= 0 is parametrized by angles
(phi, psi) and a unit vector u in the span of e_1..e_(d-1):

    z = sin(phi) sin(psi) u - cos(phi) sin(psi) e_d - cos(psi) e_(d+1).

Directions with z_(d+1) > 0 are handled by the caller via the antipodal
map; the chart covers the closure phi in [0, pi], psi in [0, pi/2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .errors import DomainError, HalfSphereViolation

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

# Most rows for which determinant and cofactor_normals read the Laplace minors
# table, whose work grows like k 2^(k-1): from 7 rows on LU is faster.
_LAPLACE_ROWS = 6


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


def row_norms(block: np.ndarray) -> np.ndarray:
    """Row norms of a C-ordered block, bit-equal to np.linalg.norm(block, axis=1).

    That call reduces each short row in its own pairwise_sum, which costs
    far more per row than the arithmetic.  Below 8 columns pairwise_sum adds
    in sequence, so summing whole columns in sequence gives the same bits
    for a fraction of the time; wider blocks (d >= 7) go to numpy itself.
    """
    if block.shape[1] >= 8:
        return np.linalg.norm(block, axis=1)
    total = block[:, 0] * block[:, 0]
    for c in range(1, block.shape[1]):
        total += block[:, c] * block[:, c]
    return np.sqrt(total, out=total)


def _laplace_minors(rows, width: int) -> dict:
    """Minors of k rows on every ascending k-column tuple; rows[r][c] is entry (r, c) of a batch.

    Built from the bottom row up: the last row's entries are the 1 x 1
    minors, and each minor of rows r.. is the Laplace expansion along row r
    over the level below, its terms added left to right with alternating
    signs (so 2 x 2 minors are ad - bc).  Returns the top level.
    """
    minors = {(c,): rows[-1][c] for c in range(width)}
    for r in range(len(rows) - 2, -1, -1):
        below, minors = minors, {}
        for cols in combinations(range(width), len(rows) - r):
            total = rows[r][cols[0]] * below[cols[1:]]
            for j in range(1, len(cols)):
                term = rows[r][cols[j]] * below[cols[:j] + cols[j + 1:]]
                (np.subtract if j % 2 else np.add)(total, term, out=total)
            minors[cols] = total
    return minors


def determinant(stacks: np.ndarray) -> np.ndarray:
    """Signed determinants of a (count, k, k) stack: the minors table, LU above _LAPLACE_ROWS."""
    k = stacks.shape[-1]
    if k > _LAPLACE_ROWS:
        return np.linalg.det(stacks)
    det = _laplace_minors(stacks.transpose(1, 2, 0), k)[tuple(range(k))]
    return det.copy() if k == 1 else det  # a 1 x 1 minor is a view of stacks


def cofactor_normals(stacks: np.ndarray) -> np.ndarray:
    """Generalized cross products of a (count, d, d+1) stack, one row per stack.

    Entry i of a row is the cofactor (-1)^i det(stack without column i): a
    direction orthogonal to all d rows of its stack, whose norm is the
    d-volume they span (Cauchy-Binet).  The d + 1 minors are the top of one
    _laplace_minors table, which computes each lower minor once for all the
    cofactors that share it: (x_1, -x_0) at d = 1, np.cross bit for bit at
    d = 2.  Above _LAPLACE_ROWS each minor is an LU determinant.

    The result is the transpose of a C-ordered (d+1, count) array, so each
    cofactor is one contiguous array: row_norms sums contiguous columns, and
    the transpose feeds a matrix product without a copy.
    """
    count, d, amb = stacks.shape
    if d > _LAPLACE_ROWS:
        minors = {c: np.linalg.det(np.take(stacks, c, axis=2)) for c in combinations(range(amb), d)}
    else:
        minors = _laplace_minors(stacks.transpose(1, 2, 0), amb)
    normals = np.empty((amb, count))
    for i in range(amb):
        cols = tuple(c for c in range(amb) if c != i)
        np.multiply(minors[cols], (-1.0) ** i, out=normals[i])
    return normals.T


def omega(k: int) -> float:
    """Surface measure omega_k of S^(k-1), i.e. 2 pi^(k/2) / Gamma(k/2)."""
    if k < 1:
        raise DomainError("omega(k) requires k >= 1")
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def wedge_measure(d: int, j: int = 2) -> float:
    """Measure of the wedge cut by j mutually orthogonal hyperplanes."""
    return omega(d + 1) / 2.0 ** j


def _check_unit(x: np.ndarray, name: str = "vector") -> np.ndarray:
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1)
    if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
        worst = float(np.max(np.abs(norms - 1.0)))
        raise DomainError(f"{name} must be unit length, deviation {worst:.3e}")
    return x


@dataclass(eq=False)
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


@dataclass(eq=False)
class WedgeModel:
    """Wedge configuration: dimension d, hyperplane count j, normals, center.

    The j unit normals must be mutually orthogonal: the wedge is then a
    fundamental domain of the 2^j reflections across its hyperplanes, which
    is what wedge_measure and the sampler's fold rely on.  The center is a
    unit vector with strictly positive inner product with every normal; it
    doubles as the gnomonic projection pole, so all wedge points lie in its
    open half-sphere almost surely.  basis is the orthonormal complement of
    the center, the projection's tangent frame.
    """

    d: int
    j: int
    normals: np.ndarray
    center: np.ndarray
    basis: np.ndarray = field(init=False, repr=False)

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
        if np.any(np.abs(gram - np.diag(np.diag(gram))) > ORTHO_TOL):
            raise DomainError("normals must be mutually orthogonal")
        if np.any(self.normals @ self.center <= UNIT_NORM_TOL):
            raise DomainError("center must have positive inner product with every normal")
        self.basis = orthonormal_complement(self.center)

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


def angles_from_normal(z: np.ndarray) -> WedgeCoords:
    """Invert the angular chart on the branch z_(d+1) <= 0.

    Where sin(phi) ~ 0 leaves u unconstrained, u = e_1 and chart_degenerate
    is set; where psi ~ 0 leaves phi unconstrained as well, also phi = 0.
    """
    z = _check_unit(z, "z")
    d = z.size - 1
    if d < 2:
        raise DomainError("ambient dimension must be at least 3")
    if z[d] > CHART_TOL:
        raise DomainError("z_(d+1) > 0: apply the antipodal map before inverting")
    psi = math.acos(min(max(-z[d], 0.0), 1.0))
    head = float(np.linalg.norm(z[: d - 1]))
    phi = math.atan2(head, -z[d - 1])
    if float(np.linalg.norm(z[:d])) < CHART_TOL:
        phi = 0.0  # psi ~ 0 leaves phi free too; head <= sin(psi) is then tiny as well
    if head < CHART_TOL:
        return WedgeCoords(phi, psi, np.eye(d - 1)[0], chart_degenerate=True)
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
