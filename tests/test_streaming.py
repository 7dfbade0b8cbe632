"""The d = 2 sweep's streamed replicate: counts pinned, blocks checked, memory bounded.

`experiments._count_facets` draws a d = 2 replicate block by block and
hands the blocks straight to the planar hull, which prunes each block
against a running extreme octagon.  COUNTS_DIGEST pins the (facets,
vertices, flag) of that path and of the whole-cloud path
(`facets_projected` on `sample_uniform_wedge` or `sample_poisson_wedge`)
over about 200 replicates; it was taken before the replicate was streamed
and must never be re-pinned.
"""

import hashlib
import math
import tracemalloc

import numpy as np
import pytest

import wedgehull.hull as hull
import wedgehull.sampling as sampling
from wedgehull import SeedSpec, WedgeModel, derive_stream, facets_projected
from wedgehull.errors import DegenerateInput
from wedgehull.experiments import _count_facets
from wedgehull.geometry import BLOCK_ROWS, row_blocks, wedge_measure
from wedgehull.sampling import STREAM_ROWS, sample_poisson_wedge, sample_uniform_wedge

B = BLOCK_ROWS
S = STREAM_ROWS
_S = 1.0 / math.sqrt(2.0)
PIN_SIZES = [1 << k for k in range(4, 18)] + [B - 1, B, B + 1, 2 * B + 1]
PIN_REPS = 3
COUNTS_DIGEST = "33f12ad811bca6653475d74766069373"


def _pin_models():
    return {
        "binomial": ("uniform", WedgeModel.right_angle(2)),
        "poisson": ("poisson", WedgeModel.right_angle(2)),
        "halfsphere": ("uniform", WedgeModel.half_sphere(2)),
        "rotated": ("uniform", WedgeModel.from_normals(2, ((_S, _S, 0.0), (0.0, 0.0, 1.0)))),
    }


def _sweep_counts(kind, model, size, seed):
    try:
        facets, vertices = _count_facets(kind, model, model.j, size, seed)
    except DegenerateInput:
        return (-1, -1, True)
    return (facets, vertices, False)


def _cloud_counts(kind, model, size, seed):
    if kind == "poisson":
        cloud = sample_poisson_wedge(model, size, seed)
    else:
        cloud = sample_uniform_wedge(model, seed, size)
    if len(cloud) < 3:
        return (0, len(cloud), False)
    fs = facets_projected(cloud)
    return (fs.facet_count, fs.vertex_count, fs.degenerate_flag)


def test_counts_digest_is_pinned():
    lines = []
    for name, (kind, model) in _pin_models().items():
        for n in PIN_SIZES:
            size = n / wedge_measure(2, model.j) if kind == "poisson" else n
            for rep in range(PIN_REPS):
                seed = SeedSpec(20260815, derive_stream("pin", name, n, rep))
                sweep = _sweep_counts(kind, model, size, seed)
                cloud = _cloud_counts(kind, model, size, seed)
                lines.append(f"{name},{n},{rep},{sweep},{cloud}")
    text = "\n".join(lines).encode()
    assert len(lines) == 4 * len(PIN_SIZES) * PIN_REPS == 216
    assert hashlib.blake2b(text, digest_size=16).hexdigest() == COUNTS_DIGEST


class _ScriptedStream:
    """Stands in for a Generator: standard_normal reads one scripted stream in order."""

    def __init__(self, values):
        self.values = values
        self.used = 0

    def standard_normal(self, size=None, out=None):
        shape = size if out is None else out.shape
        count = math.prod(shape)
        draw = self.values[self.used : self.used + count].reshape(shape)
        self.used += count
        if out is None:
            return draw.copy()
        out[...] = draw
        return out


def test_underflowed_row_in_a_middle_block_is_redrawn_after_the_last_block():
    d, n = 2, 3 * S + 5
    values = np.random.default_rng(12).standard_normal(3 * n + 6)
    values[3 * (S + 7) : 3 * (S + 8)] = 0.0  # row S + 7 of the first draw
    values[3 * n : 3 * n + 3] = 1e-310  # its first redraw underflows too
    model = WedgeModel.right_angle(d)
    streamed = _ScriptedStream(values)
    blocks = [(start, block.copy()) for start, block in sampling._wedge_blocks(model, streamed, n)]
    whole = _ScriptedStream(values)
    want = sampling._fold_to_wedge(model, sampling._unit_sphere(whole, d, n))
    assert streamed.used == whole.used == 3 * n + 6
    # the block holding the redrawn row comes after all the others
    assert [start for start, _ in blocks] == [0, 2 * S, 3 * S, S]
    got = np.empty((n, d + 1))
    for start, block in blocks:
        got[start : start + len(block)] = block
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def _chart(model, blocks, n):
    coords = np.full((2, n), np.nan)
    for start, xy in hull._chart_blocks(model, blocks):
        coords[:, start : start + xy.shape[1]] = xy
    return coords


@pytest.mark.parametrize("n", [S - 1, S, S + 1, 2 * S + 1])
@pytest.mark.parametrize("name", ["binomial", "halfsphere", "rotated"])
def test_stream_blocks_project_as_the_cloud_does(name, n):
    # The sampler's blocks (STREAM_ROWS rows) and the cloud's (BLOCK_ROWS
    # rows, in facets_projected) give every point the same chart bits, so
    # the sweep and the cloud route decide the same hull.
    _, model = _pin_models()[name]
    seed = SeedSpec(20260815, derive_stream("stream", name, n))
    cloud = sample_uniform_wedge(model, seed, n)
    streamed = _chart(model, sampling.uniform_wedge_blocks(model, seed, n), n)
    blocked = [(rows.start, cloud.points[rows]) for rows in row_blocks(n)]
    assert np.array_equal(streamed.view(np.uint64), _chart(model, blocked, n).view(np.uint64))
    assert _sweep_counts("uniform", model, n, seed) == _cloud_counts("uniform", model, n, seed)


def test_hull_vertex_only_in_the_last_block_survives_the_running_octagon():
    # The first block holds the eight corners that win the octagon's
    # directions; the last holds eight more hull vertices, each beyond an
    # edge of that octagon but extreme in none of its directions.
    rng = np.random.default_rng(13)
    n = 3 * B + 100
    radius = 0.9 * np.sqrt(rng.random(n))
    angle = rng.uniform(0.0, 2.0 * np.pi, n)
    coords = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    even = np.arange(8) * (np.pi / 4)
    coords[:8] = np.column_stack([np.cos(even), np.sin(even)])
    odd = even + np.pi / 8
    coords[-8:] = 1.04 * np.column_stack([np.cos(odd), np.sin(odd)])
    corners = set(range(8)) | set(range(n - 8, n))
    kept = hull._prune(hull._coord_blocks(coords))[0]
    assert corners <= set(kept.tolist()) and len(kept) < 40
    edges, vertices, degenerate = hull._hull2d(coords)
    assert set(vertices) == corners and len(edges) == 16 and not degenerate


def test_streamed_replicate_allocates_only_block_sized_arrays():
    # Peak traced allocation of one 2^17-point binomial replicate: a few
    # block-sized buffers (5.6 MiB with the cloud, its chart columns and
    # whole-array passes).
    model = WedgeModel.right_angle(2)
    seed = SeedSpec(20260815, derive_stream("peak", 1 << 17))
    _count_facets("uniform", model, 2, 1 << 17, seed)
    tracemalloc.start()
    try:
        _count_facets("uniform", model, 2, 1 << 17, seed)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2**20
