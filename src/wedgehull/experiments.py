"""Experiment harness: sweep cloud sizes, count facets, regress against log size.

Each (grid value, replicate) pair is an independent task keyed by a derived
RNG stream, so results are bit-identical for any worker count or execution
order.  Records persist to a fixed CSV schema; per-experiment summaries
(grid means, weighted log-linear fit, theoretical constants) persist to
JSON.  The expected facet count of the right-angle wedge model grows like
(4/3) log n for d=2 and 2^{d-1} omega_{d-1} A_d / d log n in general, which
the fitted slope is compared against; A_d is exact where
formulas.EXACT_A_D has it and a Monte Carlo estimate otherwise.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from .errors import DegenerateInput, DomainError, FitError
from .formulas import EXACT_A_D, estimate_A_d, model_constants
from .geometry import MAX_POINTS, WedgeModel, wedge_measure
from .hull import _hull2d, facets_projected, planar_facets
from .sampling import (
    SeedSpec,
    derive_stream,
    poisson_wedge_blocks,
    sample_poisson_wedge,
    sample_uniform_wedge,
    uniform_wedge_blocks,
)

CSV_HEADER = "model,d,j,size_param,rep,facets,vertices,stream_id,wall_ms,flag"
MAX_RETRIES = 3
DEFAULT_MIN_FIT_SIZE = 512
CONSTANTS_SAMPLES = 10**6
_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class ModelSpec:
    """What one sweep model is: sampler, j, theory slope.

    A fixed-size kind ("uniform", "polygon") needs grid values of at least
    d+1, enough points to span a facet; a Poisson grid holds intensities.
    """

    kind: str  # sampler: "uniform" or "poisson" on a wedge, or "polygon"
    j: object  # the model's j, or the config field it follows from ("ell" or "normals")
    law: str  # the theory slope, as printed
    slope: Callable  # (cfg, summary) -> expected growth of the mean facet count per log n


def _c_d2(cfg, summary):
    return summary["constants"]["c_d2_theory"]


def _zero(cfg, summary):
    return 0.0


def _two_ell_thirds(cfg, summary):
    return 2.0 * cfg.ell / 3.0


MODEL_SPECS = {
    "binomial": ModelSpec("uniform", 2, "c_d2", _c_d2),
    "poisson": ModelSpec("poisson", 2, "c_d2", _c_d2),
    "halfsphere": ModelSpec("uniform", 1, "plateau", _zero),
    "polygon_baseline": ModelSpec("polygon", "ell", "2*ell/3", _two_ell_thirds),
    "conjecture_probe": ModelSpec("uniform", "normals", "c_d2", _c_d2),
}


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _numbers(name: str, values, kind: str) -> tuple:
    """The one rule typing grid, fit_window and read-back sizes; the type keys streams."""
    if not isinstance(values, (list, tuple)) or not all(
        _is_int(v) or (isinstance(v, float) and math.isfinite(v)) for v in values
    ):
        raise DomainError(f"{name} must be a list of finite numbers, got {values!r}")
    if kind == "poisson":  # an intensity is a real number: 10 is 10.0
        return tuple(float(v) for v in values)
    if not all(_is_int(v) or v.is_integer() for v in values):
        raise DomainError(f"{name} values are point counts and must be whole, got {values!r}")
    return tuple(int(v) for v in values)  # one sweep (hash, streams) however spelled: 8.0 is 8


@dataclass(frozen=True)
class ExperimentConfig:
    """Declarative description of one facet-count sweep."""

    model: str
    d: int
    grid: tuple
    reps: int
    master_seed: int
    j: int = None  # follows from the model; a config may state it, not change it
    fit_window: tuple = None
    output_path: str = None
    normals: tuple = None
    ell: int = None

    def __post_init__(self):
        if self.model not in MODEL_SPECS:
            raise DomainError(f"model must be one of {tuple(MODEL_SPECS)}")
        for name in ("d", "reps", "master_seed", "j", "ell"):
            value = getattr(self, name)
            if not (_is_int(value) or (name in ("j", "ell") and value is None)):
                raise DomainError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.output_path, (str, type(None))):
            raise DomainError(f"output_path must be a string, got {self.output_path!r}")
        if self.d < 2:
            raise DomainError("dimension must be at least 2")
        spec = MODEL_SPECS[self.model]
        normals = None
        if self.normals is not None:
            try:
                normals = np.asarray(self.normals, dtype=float)
            except (TypeError, ValueError) as exc:
                raise DomainError("normals must be a (j, d+1) array of numbers") from exc
        if spec.j == "ell":
            if self.ell is None:
                object.__setattr__(self, "ell", 3)
            j = self.ell
        elif self.ell is not None:
            raise DomainError(f"only the polygon baseline takes ell, not {self.model}")
        elif spec.j == "normals":
            if normals is None or normals.ndim != 2:
                raise DomainError(f"{self.model} needs normals; its j is their row count")
            j = normals.shape[0]
        else:
            j = spec.j
        if self.j is not None and self.j != j:
            raise DomainError(f"{self.model} has j = {j}, not {self.j}")
        object.__setattr__(self, "j", j)
        grid = _numbers("grid", self.grid, spec.kind)
        object.__setattr__(self, "grid", grid)
        if not grid or any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("grid must be nonempty and strictly increasing")
        if spec.kind == "poisson":
            expected = grid[-1] * wedge_measure(self.d, j)
            if expected > MAX_POINTS:
                raise DomainError(f"expected cloud size {expected:.3e} exceeds {MAX_POINTS:.0e}")
        elif grid[-1] > MAX_POINTS:
            raise DomainError(f"grid point counts must be at most {MAX_POINTS:.0e}")
        elif grid[0] < self.d + 1:  # too few points to span a facet
            raise DomainError(f"{self.model} grid values must be at least d+1")
        if self.reps < 1:
            raise DomainError("reps must be at least 1")
        if not 0 <= self.master_seed < 2**64:
            raise DomainError("master_seed must fit in 64 bits")
        if self.fit_window is not None:
            window = _numbers("fit_window", self.fit_window, spec.kind)
            object.__setattr__(self, "fit_window", window)
            if not set(window) <= set(grid):
                raise DomainError("fit_window must be a subset of the grid")
        if spec.kind == "polygon":
            if self.d != 2:
                raise DomainError("polygon baseline is planar (d=2)")
            if self.ell < 3:
                raise DomainError("polygon needs at least 3 sides")
            if normals is not None:
                raise DomainError("polygon baseline takes no normals")
        if spec.j == "normals" and not 3 <= j <= self.d:
            # j = 1 and j = 2 are the halfsphere and binomial, which take normals too
            raise DomainError(f"{self.model} needs 3 <= j <= d, got j = {j}")
        if normals is not None:
            shape = f"a (j, d+1) = ({j}, {self.d + 1}) array of numbers"
            if normals.shape != (j, self.d + 1):
                raise DomainError(f"normals must be {shape}, got shape {normals.shape}")
            # the model the sweep builds, checked once before any output exists
            _build_model(self.d, j, normals)
            object.__setattr__(self, "normals", tuple(map(tuple, normals.tolist())))

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise DomainError(f"a config must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise DomainError(f"unknown config fields: {sorted(unknown)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in data]
        if missing:
            raise DomainError(f"missing config fields: {missing}")
        return cls(**data)


def config_hash(cfg: ExperimentConfig) -> str:
    """Stable digest of the semantic fields (output location excluded)."""
    payload = cfg.to_dict()
    payload.pop("output_path")
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


@dataclass(frozen=True)
class RunRecord:
    """One facet count: a single cloud at one grid value."""

    model: str
    d: int
    j: int
    size_param: float
    rep_index: int
    facet_count: int
    vertex_count: int
    wall_time_ms: float
    stream_id: int
    flag: int = 0


@dataclass(frozen=True)
class SlopeFit:
    """Weighted least-squares line of mean facet count vs log size."""

    slope: float
    slope_std_error: float
    intercept: float
    r_squared: float
    grid_points_used: tuple


def _normals_token(normals) -> str:
    if normals is None:
        return "default"
    return ";".join(f"{x:.17g}" for row in normals for x in row)


def _build_model(d: int, j: int, normals) -> WedgeModel:
    if normals is not None:
        return WedgeModel.from_normals(d, np.asarray(normals, float))
    if j == 1:
        return WedgeModel.half_sphere(d)
    return WedgeModel.right_angle(d)


def _polygon_vertices(ell: int) -> np.ndarray:
    angles = 2.0 * np.pi * np.arange(ell) / ell
    return np.column_stack([np.cos(angles), np.sin(angles)])


def _sample_polygon(ell: int, n: int, seed: SeedSpec) -> np.ndarray:
    # Fan triangulation from the centroid; triangles are congruent, so a
    # uniform triangle index plus the square-root warp is uniform overall.
    verts = _polygon_vertices(ell)
    rng = seed.generator()
    tri = rng.integers(0, ell, size=n)
    r1 = np.sqrt(rng.random(n))
    r2 = rng.random(n)
    a = verts[tri]
    b = verts[(tri + 1) % ell]
    return (r1 * (1.0 - r2))[:, None] * a + (r1 * r2)[:, None] * b


def _count_facets(kind: str, model, j: int, size, seed: SeedSpec):
    """(facets, vertices) of one cloud; DegenerateInput asks for a fresh draw.

    A d = 2 cloud streams from the sampler's blocks straight into the
    planar hull, so no array grows with the cloud; Qhull (d >= 3) needs the
    whole cloud at once.
    """
    if kind == "polygon":
        edges, vertices, degenerate = _hull2d(_sample_polygon(j, int(size), seed))
        if degenerate:
            raise DegenerateInput(f"degenerate planar hull at n={size}")
        return len(edges), len(vertices)
    if model.d == 2:
        if kind == "poisson":
            count, blocks = poisson_wedge_blocks(model, float(size), seed)
        else:
            count, blocks = int(size), uniform_wedge_blocks(model, seed, int(size))
        if count < 3:
            # too few points to span any facet; every point is extreme
            return 0, count
        facet_set = planar_facets(model, blocks)
    else:
        if kind == "poisson":
            cloud = sample_poisson_wedge(model, float(size), seed)
        else:
            cloud = sample_uniform_wedge(model, seed, int(size))
        if len(cloud) < model.d + 1:
            return 0, len(cloud)
        facet_set = facets_projected(cloud)
    if facet_set.degenerate_flag:
        raise DegenerateInput(f"flagged hull at size={size}")
    return facet_set.facet_count, facet_set.vertex_count


def _execute_task(payload: dict) -> RunRecord:
    size = payload["size"]
    rep = payload["rep"]
    last_error = None
    for attempt in range(MAX_RETRIES + 1):
        stream_id = derive_stream(*payload["stream_key"], size, rep, attempt)
        seed = SeedSpec(payload["master_seed"], stream_id)
        start = time.perf_counter()
        try:
            facet_count, vertex_count = _count_facets(
                payload["kind"], payload["model"], payload["j"], size, seed
            )
        except DegenerateInput as exc:
            last_error = exc
            continue
        wall = (time.perf_counter() - start) * 1000.0
        return RunRecord(
            model=payload["record_model"],
            d=payload["d"],
            j=payload["j"],
            size_param=size,
            rep_index=rep,
            facet_count=facet_count,
            vertex_count=vertex_count,
            wall_time_ms=wall,
            stream_id=stream_id,
            flag=attempt,
        )
    raise DegenerateInput(
        f"still degenerate after {MAX_RETRIES} retries at size={size} rep={rep}"
    ) from last_error


def check_workers(workers) -> None:
    """Raise DomainError unless `workers` is a whole number of at least 1."""
    if not _is_int(workers) or workers < 1:
        raise DomainError(f"workers must be an integer of at least 1, got {workers!r}")


def run_experiment(cfg: ExperimentConfig, workers: int = 1):
    """One record per (grid value, replicate) of the sweep, in grid order.

    Records are bit-identical for any worker count and task order: each
    task draws from its own derived stream.  Tasks run largest first (in
    reverse, as the grid is strictly increasing), so each process maps its
    biggest arrays once and reuses that memory for the smaller clouds.  A
    d >= 3 sweep imports Qhull before its first task, so no record's wall
    time includes the import and forked workers inherit it.
    """
    check_workers(workers)
    if cfg.d >= 3:
        import scipy.spatial  # noqa: F401

    kind = MODEL_SPECS[cfg.model].kind
    # one wedge (and so one projection basis) per sweep; a polygon has none
    model = None if kind == "polygon" else _build_model(cfg.d, cfg.j, cfg.normals)
    token = () if kind == "polygon" else (_normals_token(cfg.normals),)
    payloads = [
        {
            "record_model": cfg.model,
            "kind": kind,
            "d": cfg.d,
            "j": cfg.j,
            "size": size,
            "rep": rep,
            "master_seed": cfg.master_seed,
            "model": model,
            "stream_key": (kind, cfg.d, cfg.j, *token),
        }
        for size in cfg.grid
        for rep in range(cfg.reps)
    ]
    # a fork pool starts all its workers at once, so it gets no more than the tasks
    workers = min(workers, len(payloads))
    if workers == 1:
        return [_execute_task(p) for p in reversed(payloads)][::-1]
    chunk = max(1, len(payloads) // (8 * workers))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_execute_task, reversed(payloads), chunksize=chunk))[::-1]


def aggregate(records):
    """Per-grid-value sample moments: sizes, means, SE of mean, variance, reps."""
    groups: dict = {}
    for record in records:
        groups.setdefault(record.size_param, []).append(record.facet_count)
    sizes = sorted(groups)
    means, std_errors, variances, reps = [], [], [], []
    for size in sizes:
        counts = np.asarray(groups[size], dtype=float)
        r = counts.size
        mean = float(counts.mean())
        var = float(counts.var(ddof=1)) if r > 1 else 0.0
        means.append(mean)
        variances.append(var)
        std_errors.append(math.sqrt(var / r) if r > 1 else 0.0)
        reps.append(r)
    return sizes, means, std_errors, variances, reps


def _check_fit_sizes(sizes) -> None:
    if len(sizes) < 3:
        raise FitError(f"need at least 3 grid points to fit, got {len(sizes)}")
    if any(s <= 1 for s in sizes):
        raise FitError("sizes must exceed 1 for a log regressor")


def fit_slope(records, window=None, log_power: float = 1.0) -> SlopeFit:
    """Weighted least squares of mean facet count against log(size)^log_power.

    Weights are reps/variance per grid value, so the slope standard error
    propagates the replication noise of each mean.  The sqrt(w)-scaled system
    is solved by QR, not through the normal matrix: a grid value whose
    replicates all agree gets a weight near 1e12, which squares the normal
    matrix's condition number past what double precision holds.
    """
    if log_power <= 0.0:
        raise FitError("regressor power must be positive")
    if window is not None:
        allowed = set(window)
        records = [r for r in records if r.size_param in allowed]
    sizes, means, _, variances, reps = aggregate(records)
    _check_fit_sizes(sizes)
    x = np.log(np.asarray(sizes, dtype=float)) ** log_power
    y = np.asarray(means, dtype=float)
    w = np.asarray(reps, dtype=float) / np.maximum(np.asarray(variances), _VARIANCE_FLOOR)
    root = np.sqrt(w)
    design = np.column_stack([np.ones_like(x), x])
    q, r = np.linalg.qr(design * root[:, None])
    # r11 is the part of the regressor column not along the constant column
    if not abs(r[1, 1]) > 1e-12 * np.linalg.norm(r[:, 1]):
        raise FitError("singular design; grid values too clustered")
    params = np.linalg.solve(r, q.T @ (root * y))
    intercept, slope = float(params[0]), float(params[1])
    residuals = y - design @ params
    rss = float(w @ residuals**2)
    y_bar = float(w @ y / w.sum())
    tss = float(w @ (y - y_bar) ** 2)
    r_squared = 1.0 - rss / tss if tss > 0 else 1.0
    return SlopeFit(
        slope=slope,
        # the covariance is inv(R) inv(R).T, whose slope entry is 1 / r11^2
        slope_std_error=float(1.0 / abs(r[1, 1])),
        intercept=intercept,
        r_squared=r_squared,
        grid_points_used=tuple(sizes),
    )


def fit_window(cfg: ExperimentConfig) -> tuple:
    """The grid values that summarize fits, checked against fit_slope's rules.

    cfg.fit_window, else those past the small-size transient (about 512
    expected points), else the whole grid; FitError if they cannot be fitted.
    """
    window = cfg.fit_window
    if window is None:
        # a Poisson grid holds intensities on a right-angled (j = 2) wedge
        poisson = MODEL_SPECS[cfg.model].kind == "poisson"
        scale = wedge_measure(cfg.d, cfg.j) if poisson else 1
        window = tuple(g for g in cfg.grid if g * scale >= DEFAULT_MIN_FIT_SIZE)
        if len(window) < 3:
            window = cfg.grid
    _check_fit_sizes(window)
    return window


def _format_size(value) -> str:
    if float(value) == int(value):
        return str(int(value))
    return repr(float(value))


def write_csv(path, records) -> None:
    lines = [CSV_HEADER]
    for r in records:
        lines.append(
            ",".join(
                [
                    r.model,
                    str(r.d),
                    str(r.j),
                    _format_size(r.size_param),
                    str(r.rep_index),
                    str(r.facet_count),
                    str(r.vertex_count),
                    str(r.stream_id),
                    repr(float(r.wall_time_ms)),
                    str(r.flag),
                ]
            )
        )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path):
    """Rebuild records, sizes typed as their sweep types them."""
    text = Path(path).read_text(encoding="utf-8")
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError("unrecognized records file header")
    records = []
    for line in lines[1:]:
        model, d, j, size, rep, facets, vertices, stream, wall, flag = line.split(",")
        spec = MODEL_SPECS.get(model)
        if spec is None:
            raise DomainError(f"unknown model {model!r} in records file")
        records.append(
            RunRecord(
                model=model,
                d=int(d),
                j=int(j),
                size_param=_numbers("size_param", [float(size)], spec.kind)[0],
                rep_index=int(rep),
                facet_count=int(facets),
                vertex_count=int(vertices),
                wall_time_ms=float(wall),
                stream_id=int(stream),
                flag=int(flag),
            )
        )
    return records


def summarize(
    cfg: ExperimentConfig, records, constants_samples: int = CONSTANTS_SAMPLES
) -> dict:
    """Aggregate records into the persistent JSON summary document.

    Models whose theory slope is c_{d,2} get a constants block: A_d from
    formulas.EXACT_A_D with standard error 0 where the table has d, else
    estimated from `constants_samples` draws on the ("constants", d) stream
    of the master seed, so the whole document is reproducible.  The others
    have none: the half-sphere's plateau and the polygon's 2*ell/3 need no
    A_d.
    """
    sizes, means, std_errors, _, _ = aggregate(records)
    window = fit_window(cfg)
    fit = fit_slope(records, window)
    summary = {
        "config": {**cfg.to_dict(), "hash": config_hash(cfg)},
        "grid": sizes,
        "means": means,
        "std_errors": std_errors,
        "fit": {
            "slope": fit.slope,
            "slope_se": fit.slope_std_error,
            "intercept": fit.intercept,
            "r2": fit.r_squared,
            "window": list(fit.grid_points_used),
        },
    }
    spec = MODEL_SPECS[cfg.model]
    if spec.slope is _c_d2:
        a_d, a_d_se = EXACT_A_D.get(cfg.d), 0.0
        if a_d is None:
            seed = SeedSpec(cfg.master_seed, derive_stream("constants", cfg.d))
            report = estimate_A_d(cfg.d, constants_samples, seed)
            a_d, a_d_se = report.value, report.std_error
        c_d2 = model_constants(cfg.d, a_d).c_d2
        summary["constants"] = {"A_d": a_d, "A_d_se": a_d_se, "c_d2_theory": c_d2}
    if spec.j == "normals":
        alt = fit_slope(records, window, log_power=float(cfg.j - 1))
        summary["fit_log_power"] = {
            "power": cfg.j - 1,
            "slope": alt.slope,
            "slope_se": alt.slope_std_error,
            "intercept": alt.intercept,
            "r2": alt.r_squared,
        }
    return summary


def write_summary(path, summary: dict) -> None:
    Path(path).write_text(
        json.dumps(summary, indent=2) + "\n", encoding="utf-8", newline="\n"
    )
