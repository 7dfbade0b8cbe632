"""Command-line surface: run experiments, estimate constants, verify oracles.

Machine-readable JSON goes to stdout, human-readable progress to stderr.
Exit codes: 0 success, 1 runtime or verification failure, 2 usage error.
The default output directory comes from WEDGEHULL_OUTPUT_DIR when --out is
omitted.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from pathlib import Path

from .errors import DomainError, FitError, WedgehullError
from .experiments import (
    MODEL_SPECS,
    ExperimentConfig,
    check_workers,
    config_hash,
    fit_window,
    run_experiment,
    summarize,
    write_csv,
    write_summary,
)
from .formulas import estimate_A_d, model_constants
from .sampling import SeedSpec
from .suites import SUITE_NAMES, check_dims, run_suites

OUTPUT_DIR_ENV = "WEDGEHULL_OUTPUT_DIR"


def parse_grid(text: str):
    """Parse `start:stop:xF` geometric progressions or comma lists as floats.

    The numbers get their type from ExperimentConfig: point counts are ints
    and intensities floats, however they were spelled here.
    """
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3 or not parts[2].startswith("x"):
            raise ValueError(f"grid must look like start:stop:xF, got {text!r}")
        start, stop, factor = float(parts[0]), float(parts[1]), float(parts[2][1:])
        if not factor > 1.0:
            raise ValueError("grid factor must exceed 1")
        if not 0 < start <= stop < math.inf:
            raise ValueError("grid needs 0 < start <= stop < inf")
        values = []
        v = start
        while v <= stop * (1 + 1e-12):
            values.append(v)
            v *= factor
        return tuple(values)
    return tuple(float(token) for token in text.split(","))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wedgehull",
        description="Random spherical polytopes on a right-angled wedge: "
        "facet-count experiments, constants, and verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a facet-count sweep and persist CSV/JSON")
    sim.add_argument("--config", type=str, help="JSON file mirroring ExperimentConfig")
    sim.add_argument("--model", choices=tuple(MODEL_SPECS), help="experiment family")
    sim.add_argument("--dim", type=int, help="sphere dimension d (default 2)")
    sim.add_argument("--grid", type=str, help="n grid (Poisson: intensities), e.g. 128:131072:x2")
    sim.add_argument("--reps", type=int, help="replications per grid value (default 100)")
    sim.add_argument("--seed", type=int, help="64-bit master seed (default 0)")
    sim.add_argument("--ell", type=int, default=None, help="polygon sides (polygon model)")
    sim.add_argument("--fit-window", type=str, default=None, help="grid subset for the fit")
    sim.add_argument("--out", type=str, default=None, help="output directory")
    sim.add_argument("--workers", type=int, default=1, help="parallel workers")

    con = sub.add_parser("constants", help="estimate the parallelotope constant and c_d2")
    con.add_argument("--dim", type=int, required=True)
    con.add_argument("--samples", type=int, required=True)
    con.add_argument("--seed", type=int, default=0)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument("--suite", choices=SUITE_NAMES + ("all",), default="all")
    ver.add_argument("--dim", type=int, default=None, help="restrict checks to one dimension")
    return parser


def _config_from_args(args) -> ExperimentConfig:
    # the flags that set a config field; a config file sets them all
    flags = {"--model": args.model, "--dim": args.dim, "--grid": args.grid, "--reps": args.reps,
             "--seed": args.seed, "--ell": args.ell, "--fit-window": args.fit_window}
    if args.config:
        given = [flag for flag, value in flags.items() if value is not None]
        if given:
            raise ValueError(f"--config holds the whole sweep; drop {' '.join(given)}")
        try:
            text = Path(args.config).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ValueError(f"cannot read config {args.config}: {exc}") from exc
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"config {args.config} is not valid JSON: {exc}") from exc
        cfg = ExperimentConfig.from_dict(data)
        if cfg.output_path is not None and args.out is not None:
            raise ValueError(f"config {args.config} sets output_path; drop --out")
        return cfg
    if not args.model:
        raise ValueError("either --config or --model is required")
    if not args.grid:
        raise ValueError("--model needs --grid")
    window = parse_grid(args.fit_window) if args.fit_window else None
    return ExperimentConfig(
        model=args.model,
        d=2 if args.dim is None else args.dim,
        grid=parse_grid(args.grid),
        reps=100 if args.reps is None else args.reps,
        master_seed=0 if args.seed is None else args.seed,
        fit_window=window,
        output_path=args.out,
        ell=args.ell,
    )


def _theory_line(cfg: ExperimentConfig, summary: dict) -> str:
    fit = summary["fit"]
    slope = fit["slope"]
    se = fit["slope_se"]
    spec = MODEL_SPECS[cfg.model]
    target = spec.slope(cfg, summary)
    return (
        f"slope {slope:.4f} +/- {se:.4f} vs theory {spec.law} = {target:.6f} "
        f"(gap {slope - target:+.4f}), r2 {fit['r2']:.4f}"
    )


def cmd_simulate(args) -> int:
    try:
        cfg = _config_from_args(args)
        check_workers(args.workers)
        fit_window(cfg)
    except (ValueError, KeyError, DomainError, FitError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(cfg.output_path or args.out or os.environ.get(OUTPUT_DIR_ENV) or ".")
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_hash(cfg)
    print(
        f"running {cfg.model} d={cfg.d} grid={list(cfg.grid)} reps={cfg.reps} "
        f"seed={cfg.master_seed} workers={args.workers}",
        file=sys.stderr,
    )
    records = run_experiment(cfg, workers=args.workers)
    summary = summarize(cfg, records)
    base = f"{cfg.model}_d{cfg.d}_{digest}"
    csv_path = out_dir / f"{base}.csv"
    json_path = out_dir / f"{base}.json"
    write_csv(csv_path, records)
    write_summary(json_path, summary)
    print(_theory_line(cfg, summary), file=sys.stderr)
    print(f"records: {csv_path}", file=sys.stderr)
    print(f"summary: {json_path}", file=sys.stderr)
    print(json.dumps(summary, indent=2))
    return 0


def cmd_constants(args) -> int:
    try:
        report = estimate_A_d(args.dim, args.samples, SeedSpec(args.seed, 0))
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    constants = model_constants(args.dim, report.value)
    payload = {
        "d": args.dim,
        "samples": args.samples,
        "seed": args.seed,
        "A_d": report.value,
        "A_d_se": report.std_error,
        "omega_d_minus_1": constants.omega_d_minus_1,
        "omega_d_plus_1": constants.omega_d_plus_1,
        "b_d": constants.b_d,
        "B_d": constants.B_d,
        "c_d2": constants.c_d2,
    }
    print(
        f"A_{args.dim} = {report.value:.6f} +/- {report.std_error:.6f}, "
        f"c_{args.dim},2 = {constants.c_d2:.6f}",
        file=sys.stderr,
    )
    print(json.dumps(payload, indent=2))
    return 0


def cmd_verify(args) -> int:
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    dims = (2, 3) if args.dim is None else (args.dim,)
    try:
        check_dims(names, dims)
    except DomainError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    # The suites call Qhull and scipy's incomplete beta function, which the
    # package loads only when called; load them now so each [time] line times
    # its suite.
    import scipy.spatial  # noqa: F401
    import scipy.special  # noqa: F401

    results = []
    for name in names:
        start = time.perf_counter()
        checks = run_suites((name,), dims=dims)
        elapsed = time.perf_counter() - start
        for result in checks:
            status = "pass" if result.passed else "FAIL"
            print(f"[{status}] {result.suite}.{result.name}: {result.detail}", file=sys.stderr)
        print(f"[time] {name}: {len(checks)} checks in {elapsed:.2f} s", file=sys.stderr)
        results.extend(checks)
    failures = [r for r in results if not r.passed]
    report = {
        "suites": list(names),
        "dims": list(dims),
        "checks": [r.to_dict() for r in results],
        "passed": not failures,
    }
    print(json.dumps(report, indent=2))
    return 0 if not failures else 1


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args)
        if args.command == "constants":
            return cmd_constants(args)
        if args.command == "verify":
            return cmd_verify(args)
    except WedgehullError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    parser.error("unknown command")
    return 2


if __name__ == "__main__":
    sys.exit(main())
