"""Correctness gate: checks one operation's output against what it must be.

Sweeps are checked record by record (hull invariants, coverage of every
`(size, rep)` pair), by digest for the pinned seed, and by tolerance for the
summary JSON.  The slope law is checked on the records of a whole run.
`verify` commands must exit 0 with every expected check present and passed.
Each check returns a list of problems; an operation whose output has any
problem counts every replicate or check it should have produced as failed.
"""

import hashlib
import json
import math

CSV_COLUMNS = (
    "model", "d", "j", "size_param", "rep", "facets", "vertices", "stream_id", "wall_ms", "flag"
)
MAX_FLAG = 3


def omega(k):
    """Surface measure of the unit (k-1)-sphere."""
    return 2.0 * math.pi ** (k / 2.0) / math.gamma(k / 2.0)


def theory_slope(d, a_d):
    """c_{d,2} = 2^(d-1) omega_(d-1) A_d / d."""
    return 2.0 ** (d - 1) * omega(d - 1) * a_d / d


def records_digest(text):
    """blake2b of the records CSV with the wall_ms column removed."""
    drop = CSV_COLUMNS.index("wall_ms")
    lines = [",".join(c for i, c in enumerate(line.split(",")) if i != drop)
             for line in text.split("\n")]
    return hashlib.blake2b("\n".join(lines).encode(), digest_size=16).hexdigest()


def parse_records(text):
    lines = [line for line in text.split("\n") if line]
    if not lines or lines[0] != ",".join(CSV_COLUMNS):
        raise ValueError("unexpected records header")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(CSV_COLUMNS):
            raise ValueError(f"bad records line {line!r}")
        row = dict(zip(CSV_COLUMNS, cells))
        for key in ("d", "j", "rep", "facets", "vertices", "stream_id", "flag"):
            row[key] = int(row[key])
        row["size_param"] = float(row["size_param"])
        row["wall_ms"] = float(row["wall_ms"])
        records.append(row)
    return records


def _record_ok(row, inputs):
    d, facets, vertices = inputs["d"], row["facets"], row["vertices"]
    if (row["model"], row["d"], row["j"]) != (inputs["model"], d, 2):
        return False
    if not 0 <= row["flag"] <= MAX_FLAG or row["wall_ms"] < 0.0:
        return False
    if inputs["model"] == "binomial" and vertices > row["size_param"]:
        return False
    return d == 2 and facets == vertices >= 3


def check_records(records, inputs):
    """Per-record hull invariants plus exact coverage of the grid x reps."""
    grid = [float(g) for g in inputs["grid"]]
    expected = {(g, r) for g in grid for r in range(inputs["reps"])}
    seen = set()
    bad = 0
    for row in records:
        key = (row["size_param"], row["rep"])
        if key not in expected or key in seen or not _record_ok(row, inputs):
            bad += 1
            continue
        seen.add(key)
    missing = len(expected - seen)
    problems = []
    if bad:
        problems.append(f"{bad} records fail the hull invariants or grid coverage")
    if missing:
        problems.append(f"{missing} (size, rep) pairs have no valid record")
    return problems


def _grid_moments(records):
    groups = {}
    for row in records:
        groups.setdefault(row["size_param"], []).append(row["facets"])
    out = []
    for size in sorted(groups):
        counts = groups[size]
        r = len(counts)
        mean = math.fsum(counts) / r
        var = math.fsum((c - mean) ** 2 for c in counts) / (r - 1) if r > 1 else 0.0
        out.append((size, mean, var, r))
    return out


def _weighted_slope(moments, window):
    # Same estimator as the summary: weights reps / variance, x = log(size).
    rows = [(math.log(s), m, r / max(v, 1e-12)) for s, m, v, r in moments if s in window]
    sw = math.fsum(w for _, _, w in rows)
    sx = math.fsum(w * x for x, _, w in rows)
    sy = math.fsum(w * y for _, y, w in rows)
    sxx = math.fsum(w * x * x for x, _, w in rows)
    sxy = math.fsum(w * x * y for x, y, w in rows)
    return (sw * sxy - sx * sy) / (sw * sxx - sx * sx)


def _close(a, b, rel):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def check_summary(summary, records, inputs, master_seed, reference):
    """Summary JSON against the run's config, its records and the A_d reference."""
    problems = []
    cfg = summary.get("config", {})
    echo = (cfg.get("model"), cfg.get("d"), [float(g) for g in cfg.get("grid", [])],
            cfg.get("reps"), cfg.get("master_seed"))
    want = (inputs["model"], inputs["d"], [float(g) for g in inputs["grid"]],
            inputs["reps"], master_seed)
    if echo != want:
        problems.append(f"summary config {echo} does not echo the run {want}")
        return problems
    moments = _grid_moments(records)
    if [float(g) for g in summary["grid"]] != [m[0] for m in moments]:
        return problems + ["summary grid differs from the records"]
    for (size, mean, var, r), got_mean, got_se in zip(
        moments, summary["means"], summary["std_errors"]
    ):
        if not _close(got_mean, mean, 1e-12) or not _close(got_se, math.sqrt(var / r), 1e-9):
            problems.append(f"summary mean/std_error at size {size} differ from the records")
    fit = summary["fit"]
    window = {float(g) for g in fit["window"]}
    slope = _weighted_slope(moments, window)
    if not _close(fit["slope"], slope, 1e-6):
        problems.append(f"summary slope {fit['slope']} != {slope} refitted from the records")
    ref = reference[f"A_{inputs['d']}"]
    consts = summary["constants"]
    tol = 5.0 * math.hypot(consts["A_d_se"], ref["se"])
    if abs(consts["A_d"] - ref["value"]) > tol:
        problems.append(f"A_d {consts['A_d']} outside {ref['value']} +/- {tol:.2e}")
    if not _close(consts["c_d2_theory"], theory_slope(inputs["d"], consts["A_d"]), 1e-9):
        problems.append("c_d2_theory is inconsistent with A_d")
    return problems


def check_slope_law(records, d, reference, band, margin):
    """Pooled OLS slope of facets on log(size) against c_{d,2}.

    Passes when the slope lies within `band` (relative) of the theory slope,
    widened by `margin` standard errors of the pooled fit.
    """
    target = theory_slope(d, reference[f"A_{d}"]["value"])
    xs = [math.log(r["size_param"]) for r in records]
    ys = [float(r["facets"]) for r in records]
    n = len(xs)
    if n < 3 or len(set(xs)) < 3:
        return target, float("nan"), float("nan"), False
    mx, my = math.fsum(xs) / n, math.fsum(ys) / n
    sxx = math.fsum((x - mx) ** 2 for x in xs)
    slope = math.fsum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx
    rss = math.fsum((y - my - slope * (x - mx)) ** 2 for x, y in zip(xs, ys))
    se = math.sqrt(rss / (n - 2) / sxx)
    return target, slope, se, abs(slope - target) <= band * target + margin * se


def parse_reports(text):
    """The JSON documents a sequence of `verify` commands printed, in order."""
    decoder = json.JSONDecoder()
    reports, pos = [], 0
    while text[pos:].strip():
        pos += len(text[pos:]) - len(text[pos:].lstrip())
        report, pos = decoder.raw_decode(text, pos)
        reports.append(report)
    return reports


def check_verify(reports, suites, expected_checks):
    """One passed report per suite, with every expected check present and passed."""
    problems = []
    if [r.get("suites") for r in reports] != [[s] for s in suites]:
        problems.append(f"reports cover {[r.get('suites') for r in reports]}, expected {suites}")
    checks = [c for r in reports for c in r.get("checks", [])]
    names = [f"{c.get('suite')}.{c.get('name')}" for c in checks]
    failed = [n for n, c in zip(names, checks) if c.get("passed") is not True]
    if failed:
        problems.append("failed checks: " + ", ".join(failed))
    if len(set(names)) != len(names) or len(names) != expected_checks:
        problems.append(f"{len(names)} checks reported, {expected_checks} distinct expected")
    if not all(r.get("passed") is True for r in reports):
        problems.append("a report is not marked passed")
    return problems
