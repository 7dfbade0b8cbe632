"""Golden records: pinned digests of the CSV of small fixed sweeps.

Each digest is the blake2b (16 bytes) of the records CSV with the wall_ms
column removed, so any change to sampling, folding, projection, pruning or
the hull chain that alters a single facet count, vertex count, stream id or
retry flag changes the digest.  Performance work must leave them unchanged.
"""

import hashlib
import math

import pytest

from wedgehull import ExperimentConfig, run_experiment
from wedgehull.experiments import CSV_HEADER, write_csv

SEED = 20260815
_WALL = CSV_HEADER.split(",").index("wall_ms")
_S = 1.0 / math.sqrt(2.0)

GOLDEN = {
    "binomial_d2": (
        dict(model="binomial", d=2, grid=(16, 600, 4096), reps=4),
        "cdf14e40c95ab0073a2c1a22a21864fb",
    ),
    "binomial_d3": (
        dict(model="binomial", d=3, grid=(16, 256, 1024), reps=3),
        "6626e67ef01358c1ab52249cca5c1c63",
    ),
    "halfsphere_d2": (
        dict(model="halfsphere", d=2, grid=(16, 600, 2048), reps=3),
        "9f218e9a7d2acbda2452e1f4745faf77",
    ),
    "poisson_d2": (
        dict(model="poisson", d=2, grid=(10.0, 200.0, 1000.0), reps=3),
        "20e7bd7814a5964f1da958f3b432b3b6",
    ),
    "polygon_ell5": (
        dict(model="polygon_baseline", d=2, grid=(16, 600, 2048), reps=3, ell=5),
        "6a5029f791f8e08e88f356c327dc4037",
    ),
    "probe_rotated_j2": (
        dict(
            model="conjecture_probe",
            d=2,
            j=2,
            grid=(16, 600, 2048),
            reps=3,
            normals=((_S, _S, 0.0), (0.0, 0.0, 1.0)),
        ),
        "1c9d0a76e75f9ad68bd332f54b724232",
    ),
}


def records_digest(path) -> str:
    text = path.read_text(encoding="utf-8")
    lines = [
        ",".join(c for i, c in enumerate(line.split(",")) if i != _WALL)
        for line in text.split("\n")
    ]
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def _digest(tmp_path, name, workers=1):
    spec, _ = GOLDEN[name]
    cfg = ExperimentConfig(master_seed=SEED, **spec)
    path = tmp_path / f"{name}_w{workers}.csv"
    write_csv(path, run_experiment(cfg, workers=workers))
    return records_digest(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_digest_is_pinned(tmp_path, name):
    assert _digest(tmp_path, name) == GOLDEN[name][1]


def test_binomial_digest_is_pinned_on_two_workers(tmp_path):
    assert _digest(tmp_path, "binomial_d2", workers=2) == GOLDEN["binomial_d2"][1]
