"""Reproducible random generation for all Monte Carlo components.

Every consumer addresses randomness through a SeedSpec: a (master_seed,
stream_id) pair keying a counter-based Philox generator.  Distinct stream
ids give independent streams, so replications can run on any number of
workers in any order and still produce bit-identical output.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, ResourceLimit, SamplerStalled
from .geometry import (
    MAX_POINTS,
    UNIT_NORM_TOL,
    WedgeModel,
    row_blocks,
    row_norms,
    wedge_contains,
    wedge_measure,
)

_U64 = 1 << 64
# Proposals per rejection round, and points per substream of the cap-measure
# oracle: it fixes which draws each sample takes, so changing it changes bits.
_BATCH = 1 << 17
_STALL_PROPOSALS = 10 ** 7
_STALL_ACCEPTANCE = 1e-6


@dataclass(frozen=True)
class SeedSpec:
    """Addressable random stream: (master_seed, stream_id), both 64-bit."""

    master_seed: int
    stream_id: int = 0

    def __post_init__(self) -> None:
        for name in ("master_seed", "stream_id"):
            v = getattr(self, name)
            if not (0 <= int(v) < _U64):
                raise DomainError(f"{name} must be a 64-bit unsigned integer")

    def generator(self) -> np.random.Generator:
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        return np.random.Generator(np.random.Philox(key=key))

    def substream(self, *parts) -> "SeedSpec":
        return SeedSpec(self.master_seed, derive_stream(self.stream_id, *parts))


def derive_stream(*parts) -> int:
    """Stable 64-bit stream id from a tuple of ints, floats, and strings.

    Uses a keyed hash of a canonical text encoding, so ids do not depend on
    interpreter hash randomization, platform, or worker scheduling.
    """
    tokens = []
    for p in parts:
        if isinstance(p, bool) or not isinstance(p, (int, float, str)):
            raise DomainError(f"unsupported stream part {p!r}")
        tag = "i" if isinstance(p, int) else ("f" if isinstance(p, float) else "s")
        tokens.append(f"{tag}{p!r}")
    digest = hashlib.blake2b("|".join(tokens).encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


@dataclass(eq=False)
class SampleCloud:
    """A finite point set on a wedge, checked on construction to lie on it."""

    model: WedgeModel
    points: np.ndarray

    def __post_init__(self) -> None:
        self.points = np.asarray(self.points, dtype=float).reshape(-1, self.model.d + 1)
        self.validate()

    def __len__(self) -> int:
        return self.points.shape[0]

    def validate(self) -> None:
        # Hard assertions, not statistical: membership and unit norm for 100%.
        # Written as not (... <= tol) so that NaN and inf rows count as non-unit.
        for rows in row_blocks(len(self)):
            block = self.points[rows]
            norms = row_norms(block)
            if not np.max(np.abs(norms - 1.0)) <= UNIT_NORM_TOL:
                raise InternalError("sample cloud contains non-unit points")
            if not np.all(wedge_contains(self.model, block)):
                raise InternalError("sample cloud contains points outside the wedge")


def _unit_sphere(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    # Normalises the one draw in place, block by block.  Rows whose norm
    # underflows are redrawn afterwards, together and in index order, which
    # is the order in which a whole-array pass would redraw them.
    x = rng.standard_normal((count, d + 1))
    tiny = []
    for rows in row_blocks(count):
        block = x[rows]
        norms = row_norms(block)
        small = norms < 1e-300
        if small.any():  # never in practice; keeps the math airtight
            tiny.extend(rows.start + np.flatnonzero(small))
            norms[small] = 1.0
        block /= norms[:, None]
    bad = np.array(tiny, dtype=np.intp)
    while bad.size:
        fresh = rng.standard_normal((bad.size, d + 1))
        norms = row_norms(fresh)
        good = norms >= 1e-300
        x[bad[good]] = fresh[good] / norms[good, None]
        bad = bad[~good]
    return x


def sample_uniform_sphere(d: int, seed: SeedSpec, count: int) -> np.ndarray:
    """count i.i.d. uniform points on S^d as normalized Gaussian vectors."""
    if d < 1 or count < 0:
        raise DomainError("need d >= 1 and count >= 0")
    return _unit_sphere(seed.generator(), d, count)


def _fold_to_wedge(model: WedgeModel, points: np.ndarray) -> np.ndarray:
    # Reflect across each bounding hyperplane in turn; exact 2^j-to-1 and
    # measure preserving because the normals are mutually orthogonal.  For a
    # coordinate-axis normal the reflection is abs() of that column, which
    # gives the same bits as the reflect-and-subtract below, which runs block
    # by block (each row is reflected on its own, so the bits do not change).
    for normal in model.normals:
        axis = np.flatnonzero(normal)
        if axis.size == 1 and normal[axis[0]] == 1.0:
            np.abs(points[:, axis[0]], out=points[:, axis[0]])
            continue
        for rows in row_blocks(len(points)):
            block = points[rows]
            dots = block @ normal
            neg = dots < 0.0
            if np.any(neg):
                block[neg] -= 2.0 * np.outer(dots[neg], normal)
    return points


def _reject_to_wedge(model: WedgeModel, rng: np.random.Generator, count: int) -> np.ndarray:
    kept: list[np.ndarray] = []
    got = 0
    proposed = 0
    while got < count:
        batch = _unit_sphere(rng, model.d, _BATCH)
        hits = batch[wedge_contains(model, batch)]
        proposed += _BATCH
        got += len(hits)
        kept.append(hits)
        if proposed >= _STALL_PROPOSALS and got < _STALL_ACCEPTANCE * proposed:
            raise SamplerStalled(
                f"acceptance {got}/{proposed} below {_STALL_ACCEPTANCE} for normals "
                f"{model.normals.tolist()}"
            )
    return np.concatenate(kept)[:count]


def _wedge_points(model: WedgeModel, rng: np.random.Generator, count: int) -> np.ndarray:
    if model.j <= 2 and model.is_orthogonal:
        return _fold_to_wedge(model, _unit_sphere(rng, model.d, count))
    return _reject_to_wedge(model, rng, count)


def sample_uniform_wedge(model: WedgeModel, seed: SeedSpec, count: int) -> SampleCloud:
    """count i.i.d. uniform points on the wedge.

    For j <= 2 with orthogonal normals the points come from the exact
    coordinate fold of uniform sphere samples; general normals fall back
    to rejection from the sphere.  A count above MAX_POINTS raises
    ResourceLimit before anything is drawn.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if count > MAX_POINTS:
        raise ResourceLimit(f"cloud size {count:.3e} exceeds {MAX_POINTS:.0e}")
    points = _wedge_points(model, seed.generator(), count)
    return SampleCloud(model=model, points=points)


def sample_poisson_wedge(model: WedgeModel, gamma: float, seed: SeedSpec) -> SampleCloud:
    """One draw of the Poisson model with intensity gamma on the wedge.

    The count is Poisson(gamma * wedge_measure(d, j)), followed by that many
    uniform wedge points.  That measure is exact for mutually orthogonal
    normals only, so any other wedge raises DomainError.
    """
    if gamma < 0:
        raise DomainError("gamma must be nonnegative")
    if not model.is_orthogonal:
        raise DomainError("the Poisson model needs mutually orthogonal normals")
    mean = gamma * wedge_measure(model.d, model.j)
    if mean > MAX_POINTS:
        raise ResourceLimit(f"expected cloud size {mean:.3e} exceeds {MAX_POINTS:.0e}")
    rng = seed.generator()
    points = _wedge_points(model, rng, int(rng.poisson(mean)))
    return SampleCloud(model=model, points=points)


def _beta_prime(rng: np.random.Generator, k: int, beta: float, count: int) -> np.ndarray:
    if k == 0:
        return np.zeros((count, 0))
    # standard_gamma underflows to exactly 0 at small shapes; the floor keeps x finite
    scale = rng.standard_gamma(beta - k / 2.0, count)
    np.maximum(scale, np.finfo(float).tiny, out=scale)
    scale *= 2.0
    np.sqrt(scale, out=scale)
    x = rng.standard_normal((count, k))
    x /= scale[:, None]
    return x


def sample_beta_prime(k: int, beta: float, seed: SeedSpec, count: int) -> np.ndarray:
    """count i.i.d. vectors in R^k with density prop. to (1 + |x|^2)^(-beta).

    Each is N / sqrt(2 G), with N standard normal in R^k and G ~
    Gamma(beta - k/2): a multivariate t vector with 2 beta - k degrees of
    freedom, scaled by 1/sqrt(2 beta - k) (Kotz and Nadarajah, Multivariate
    t Distributions and Their Applications, 2004).  k=0 yields empty vectors.
    """
    if k < 0 or count < 0:
        raise DomainError("need k >= 0 and count >= 0")
    if beta <= k / 2.0:
        raise DomainError(f"beta must exceed k/2, got beta={beta}, k={k}")
    return _beta_prime(seed.generator(), k, beta, count)
