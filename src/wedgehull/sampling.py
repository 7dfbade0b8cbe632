"""Reproducible random generation for all Monte Carlo components.

Every consumer addresses randomness through a SeedSpec: a (master_seed,
stream_id) pair keying a counter-based Philox generator.  Distinct stream
ids give independent streams, so replications can run on any number of
workers in any order and still produce bit-identical output.  Wedge points
are uniform sphere points folded into the wedge by the reflections across
its hyperplanes, so no sampler has a rejection loop.  Both wedge samplers
assemble their clouds from the checked blocks of one generator, which a
d = 2 sweep reads directly instead.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InternalError, ResourceLimit
from .geometry import (
    BLOCK_ROWS,
    MAX_POINTS,
    UNIT_NORM_TOL,
    WedgeModel,
    row_blocks,
    row_norms,
    wedge_contains,
    wedge_measure,
)

_U64 = 1 << 64

# Rows per block of the wedge sampler.  Twice BLOCK_ROWS halves a d = 2
# sweep's per-block calls (a 2^17-point replicate ran about 1 ms faster)
# while its block-sized buffers stay below 1 MiB.
STREAM_ROWS = 2 * BLOCK_ROWS


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
    """A finite point set on a wedge, checked on construction to lie on it.

    points is one point of shape (d+1,) or a batch of shape (n, d+1); any
    other shape is a DomainError, never reshaped into points.
    """

    model: WedgeModel
    points: np.ndarray

    def __post_init__(self) -> None:
        amb = self.model.d + 1
        points = np.asarray(self.points, dtype=float)
        if points.shape == (amb,):
            points = points.reshape(1, amb)
        elif points.ndim != 2 or points.shape[1] != amb:
            raise DomainError(
                f"points must have shape ({amb},) or (n, {amb}) for d={self.model.d}, "
                f"got {points.shape}"
            )
        self.points = points
        self.validate()

    def __len__(self) -> int:
        return self.points.shape[0]

    def validate(self) -> None:
        for rows in row_blocks(len(self)):
            _check_block(self.model, self.points[rows])


def _check_block(model: WedgeModel, block: np.ndarray) -> None:
    # Hard assertions, not statistical: membership and unit norm for 100%.
    # Written as not (... <= tol) so that NaN and inf rows count as non-unit.
    # max |norm - 1| <= tol as two reductions; norm - 1 is exact near 1
    norms = row_norms(block)
    if not (norms.max() - 1.0 <= UNIT_NORM_TOL and 1.0 - norms.min() <= UNIT_NORM_TOL):
        raise InternalError("sample cloud contains non-unit points")
    if not np.all(wedge_contains(model, block)):
        raise InternalError("sample cloud contains points outside the wedge")


def _normalise(block: np.ndarray) -> np.ndarray:
    # Scales the rows of block to unit length in place and returns the
    # (local) indices of the rows whose norm underflows, left unscaled.
    norms = row_norms(block)
    tiny = np.empty(0, dtype=np.intp)
    if norms.min() < 1e-300:  # never in practice; keeps the math airtight
        tiny = (norms < 1e-300).nonzero()[0]
        norms[tiny] = 1.0
    # column by column: a broadcast over rows of d+1 entries runs a far
    # slower inner loop, and each entry gets the same division either way
    for column in block.T:
        column /= norms
    return tiny


def _redraw(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    # count unit rows for the rows whose norm underflowed, in index order:
    # a row that underflows again is drawn again, after the others.
    out = np.empty((count, d + 1))
    bad = np.arange(count)
    while bad.size:
        fresh = rng.standard_normal((bad.size, d + 1))
        norms = row_norms(fresh)
        good = norms >= 1e-300
        out[bad[good]] = fresh[good] / norms[good, None]
        bad = bad[~good]
    return out


def _unit_sphere(rng: np.random.Generator, d: int, count: int) -> np.ndarray:
    # One draw, normalised in place block by block; rows whose norm
    # underflows are redrawn afterwards, together and in index order.
    x = rng.standard_normal((count, d + 1))
    tiny = [rows.start + _normalise(x[rows]) for rows in row_blocks(count)]
    tiny = np.concatenate(tiny) if tiny else np.empty(0, dtype=np.intp)
    if tiny.size:
        x[tiny] = _redraw(rng, d, tiny.size)
    return x


def sample_uniform_sphere(d: int, seed: SeedSpec, count: int) -> np.ndarray:
    """count i.i.d. uniform points on S^d as normalized Gaussian vectors."""
    if d < 1 or count < 0:
        raise DomainError("need d >= 1 and count >= 0")
    return _unit_sphere(seed.generator(), d, count)


def _fold_to_wedge(model: WedgeModel, points: np.ndarray) -> np.ndarray:
    # Reflect across each bounding hyperplane in turn.  The normals are
    # mutually orthogonal, so the reflections commute and generate a group of
    # order 2^j whose fundamental domain is the wedge: the fold is exactly
    # 2^j-to-1 and measure preserving, for any j.  For a
    # coordinate-axis normal the reflection is abs() of that column, which
    # gives the same bits as the reflect-and-subtract below.
    for normal, axis in zip(model.normals, model.axes):
        if axis is not None:
            np.abs(points[:, axis], out=points[:, axis])
            continue
        dots = points @ normal
        neg = dots < 0.0
        if np.any(neg):
            points[neg] -= 2.0 * np.outer(dots[neg], normal)
    return points


def _wedge_blocks(model: WedgeModel, rng: np.random.Generator, count: int):
    # The one wedge sampler.  Each block of row_blocks(count, STREAM_ROWS)
    # is drawn with standard_normal(out=...), which reads the stream exactly
    # as one (count, d+1) draw does, then normalised, folded and checked as
    # SampleCloud.validate checks a cloud.  A block with a row whose norm
    # underflows is held back; after the last block those rows are redrawn
    # in index order, as _unit_sphere redraws them, and the held blocks
    # follow.  Blocks without such rows are views of one reused C-ordered
    # buffer, so every pass rounds as it does on rows of a whole cloud.
    buffer = np.empty((min(count, STREAM_ROWS + 1), model.d + 1))
    held = []
    for rows in row_blocks(count, STREAM_ROWS):
        block = buffer[: rows.stop - rows.start]
        rng.standard_normal(out=block)
        tiny = _normalise(block)
        if tiny.size:
            held.append((rows.start, block.copy(), tiny))
            continue
        _check_block(model, _fold_to_wedge(model, block))
        yield rows.start, block
    if not held:
        return
    fresh = _redraw(rng, model.d, sum(tiny.size for _, _, tiny in held))
    used = 0
    for start, block, tiny in held:
        block[tiny] = fresh[used : used + tiny.size]
        used += tiny.size
        _check_block(model, _fold_to_wedge(model, block))
        yield start, block


def uniform_wedge_blocks(model: WedgeModel, seed: SeedSpec, count: int):
    """count i.i.d. uniform wedge points, as (start, block) pairs.

    block holds the points start, start + 1, ... of the cloud that
    sample_uniform_wedge(model, seed, count) returns, bit for bit, already
    checked to lie on the wedge.  Blocks cover the cloud once; they arrive
    in order, except that a block holding a redrawn row comes after all
    others.  A block is overwritten by the next one, so read it before
    asking for the next.  A count above MAX_POINTS raises ResourceLimit
    before anything is drawn.
    """
    if count < 0:
        raise DomainError("count must be nonnegative")
    if count > MAX_POINTS:
        raise ResourceLimit(f"cloud size {count:.3e} exceeds {MAX_POINTS:.0e}")
    return _wedge_blocks(model, seed.generator(), count)


def poisson_wedge_blocks(model: WedgeModel, gamma: float, seed: SeedSpec):
    """(count, blocks): one draw of the Poisson model, blocked as in uniform_wedge_blocks.

    The count is Poisson(gamma * wedge_measure(d, j)), followed by that many
    uniform wedge points from the same stream.
    """
    if gamma < 0:
        raise DomainError("gamma must be nonnegative")
    mean = gamma * wedge_measure(model.d, model.j)
    if mean > MAX_POINTS:
        raise ResourceLimit(f"expected cloud size {mean:.3e} exceeds {MAX_POINTS:.0e}")
    rng = seed.generator()
    count = int(rng.poisson(mean))
    return count, _wedge_blocks(model, rng, count)


def _assemble(model: WedgeModel, count: int, blocks) -> SampleCloud:
    # The blocks are checked as they are drawn, so the cloud is not checked again.
    points = np.empty((count, model.d + 1))
    for start, block in blocks:
        points[start : start + len(block)] = block
    cloud = SampleCloud.__new__(SampleCloud)
    cloud.model, cloud.points = model, points
    return cloud


def sample_uniform_wedge(model: WedgeModel, seed: SeedSpec, count: int) -> SampleCloud:
    """count i.i.d. uniform points on the wedge.

    The points are count uniform sphere samples folded into the wedge by
    the reflections across its hyperplanes, which is exact for every j,
    assembled from uniform_wedge_blocks.  A count above MAX_POINTS raises
    ResourceLimit before anything is drawn.
    """
    return _assemble(model, count, uniform_wedge_blocks(model, seed, count))


def sample_poisson_wedge(model: WedgeModel, gamma: float, seed: SeedSpec) -> SampleCloud:
    """One draw of the Poisson model with intensity gamma on the wedge.

    The count is Poisson(gamma * wedge_measure(d, j)), followed by that many
    uniform wedge points, assembled from poisson_wedge_blocks.
    """
    return _assemble(model, *poisson_wedge_blocks(model, gamma, seed))


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
