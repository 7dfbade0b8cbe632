"""Golden outputs: pinned digests of the CSV and JSON summary of small fixed sweeps.

Each records digest is the blake2b (16 bytes) of the records CSV with the
wall_ms column removed, so any change to sampling, folding, projection,
pruning or the hull chain that alters a single facet count, vertex count,
stream id or retry flag changes the digest.  Each summary digest is the
blake2b of the JSON summary file (a d >= 3 constants estimate at 10^4
samples), so it also pins the config echo, the fit and, for the c_d2-law
models, the constants block.
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
        "74783ecf5d55ee85fa01a244b2094c19",
    ),
    "binomial_d3": (
        dict(model="binomial", d=3, grid=(16, 256, 1024), reps=3),
        "6626e67ef01358c1ab52249cca5c1c63",
        "44d9bd8a6e48920b74d65553decc4081",
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
        "f3cf58fd6f4d39ba0e4208f9b55283fb",
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
    "binomial_rotated": (
        dict(
            model="binomial",
            d=2,
            grid=(16, 600, 2048),
            reps=3,
            normals=((_S, _S, 0.0), (0.0, 0.0, 1.0)),
        ),
        "1a700f5d9281604e6b8b2ef591b15f17",
        "dd71d54b76ded7963a0cb6eb40b456ee",
    ),
    "probe_j3_d3": (
        dict(
            model="conjecture_probe",
            d=3,
            grid=(16, 256, 1024),
            reps=3,
            normals=((0.0, 1.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (0.0, 0.0, 0.0, 1.0)),
        ),
        "44f2499f26f2b49cc9e49adb5f6b8a24",
        "9d559bedac5685765b31f4fb5f9e019d",
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


@pytest.mark.parametrize("name", ["binomial_d2", "binomial_d3"])
def test_binomial_digest_is_pinned_on_two_workers(tmp_path, name):
    assert _digest(tmp_path, name, workers=2) == GOLDEN[name][1]
