"""Golden outputs: pinned digests of the CSV and JSON summary of small fixed sweeps.

Each records digest is the blake2b (16 bytes) of the records CSV with the
wall_ms column removed, so any change to sampling, folding, projection,
pruning or the hull chain that alters a single facet count, vertex count,
stream id or retry flag changes the digest.  Each summary digest is the
blake2b of the JSON summary file (constants at 10^4 samples), so it also pins
the config echo, the fit and, for the c_d2-law models, the constants block.
Performance work and refactors must leave them unchanged.
"""

import hashlib
import math

import pytest

from wedgehull import ExperimentConfig, run_experiment, summarize
from wedgehull.experiments import CSV_HEADER, write_csv, write_summary

SEED = 20260815
_WALL = CSV_HEADER.split(",").index("wall_ms")
_S = 1.0 / math.sqrt(2.0)

GOLDEN = {
    "binomial_d2": (
        dict(model="binomial", d=2, grid=(16, 600, 4096), reps=4),
        "cdf14e40c95ab0073a2c1a22a21864fb",
        "9c74fb9f86a8a579e9801ec46bae643a",
    ),
    "binomial_d3": (
        dict(model="binomial", d=3, grid=(16, 256, 1024), reps=3),
        "6626e67ef01358c1ab52249cca5c1c63",
        "69bda9861c1e8c9370a3183e7a11a55c",
    ),
    "halfsphere_d2": (
        dict(model="halfsphere", d=2, grid=(16, 600, 2048), reps=3),
        "9f218e9a7d2acbda2452e1f4745faf77",
        # no constants block: the plateau law reads no A_d
        "1be184a0efb0ef7d55f8ff2b43915c28",
    ),
    "poisson_d2": (
        dict(model="poisson", d=2, grid=(10.0, 200.0, 1000.0), reps=3),
        "20e7bd7814a5964f1da958f3b432b3b6",
        "1149189eb014f9ec7d334fd333ef10f0",
    ),
    "polygon_ell5": (
        dict(model="polygon_baseline", d=2, grid=(16, 600, 2048), reps=3, ell=5),
        "6a5029f791f8e08e88f356c327dc4037",
        "2fcc40bba248b5bc7cdb05f3ec490693",
    ),
    "polygon_default": (
        dict(model="polygon_baseline", d=2, grid=(16, 600, 2048), reps=3),
        "68269ed18c29e3fee3f2309e709451ed",
        "b908ffb1b5562fedbb6a84a8663901c0",
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
        "b772b7c3e35d8cc81b223efd944eb053",
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
    cfg = ExperimentConfig(master_seed=SEED, **GOLDEN[name][0])
    path = tmp_path / f"{name}_w{workers}.csv"
    write_csv(path, run_experiment(cfg, workers=workers))
    return records_digest(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_records_digest_is_pinned(tmp_path, name):
    assert _digest(tmp_path, name) == GOLDEN[name][1]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_summary_digest_is_pinned(tmp_path, name):
    cfg = ExperimentConfig(master_seed=SEED, **GOLDEN[name][0])
    path = tmp_path / f"{name}.json"
    write_summary(path, summarize(cfg, run_experiment(cfg), constants_samples=10**4))
    assert hashlib.blake2b(path.read_bytes(), digest_size=16).hexdigest() == GOLDEN[name][2]


def test_binomial_digest_is_pinned_on_two_workers(tmp_path):
    assert _digest(tmp_path, "binomial_d2", workers=2) == GOLDEN["binomial_d2"][1]
