import hashlib
import json
import math
import os
import re
import shlex
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import wedgehull.cli as cli
import wedgehull.experiments as experiments
import wedgehull.suites as suites
from wedgehull import DegenerateInput, DomainError
from wedgehull.cli import main, parse_grid
from wedgehull.experiments import CSV_HEADER
from wedgehull.suites import SUITE_NAMES, CheckResult

SEED = "20260815"
# blake2b (16 bytes) of `verify --suite appendix`'s stdout: the grid checks'
# details carry each least slack and its witness, so a changed grid, slack
# expression or check order changes it
APPENDIX_REPORT_DIGEST = "97e560fbef5e7de2b46df220cd4d1597"
# and of `verify --suite hull`'s: a route mismatch, a skipped degenerate
# cloud or an Euler failure at d = 2 or 3 changes it
HULL_REPORT_DIGEST = "f3baa0afc6386ea5e3a81d9293db846f"
# and of `verify --suite limits`'s at both dims: each detail prints the
# limit-lemma ratios to 4-6 digits, so a change of quadrature that moves them
# changes it
LIMITS_REPORT_DIGEST = "c7a3c75be30235e9b88061359dcec863"


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(tmp_path, body: str):
    """Run `body` in a fresh interpreter in tmp_path; its last stdout line, as JSON.

    `body` may call loaded(), the sorted names of the scipy modules imported
    so far.
    """
    prelude = (
        "import json, sys\n"
        "def loaded():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    done = subprocess.run(
        [sys.executable, "-c", prelude + textwrap.dedent(body)],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def readme_commands() -> list:
    """argv of every `wedgehull simulate|constants|verify` line in README code blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```[^\n]*\n(.*?)^```", text, flags=re.M | re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    pattern = re.compile(r"wedgehull (simulate|constants|verify)\b")
    return [shlex.split(line)[1:] for line in lines if pattern.match(line)]


def strip_wall_column(csv_text: str) -> list:
    rows = []
    for line in csv_text.strip().split("\n"):
        cells = line.split(",")
        rows.append(cells[:8] + cells[9:])
    return rows


class TestParseGrid:
    def test_geometric_progression(self):
        assert parse_grid("128:1024:x2") == (128, 256, 512, 1024)

    def test_progression_with_float_endpoints(self):
        assert parse_grid("0.5:4:x2.0") == (0.5, 1.0, 2.0, 4.0)

    def test_comma_lists(self):
        assert parse_grid("16,32,64") == (16, 32, 64)
        assert parse_grid("2.5, 5.0") == (2.5, 5.0)
        assert parse_grid("1e2,2e2") == (100.0, 200.0)

    def test_values_are_plain_floats(self):
        # ExperimentConfig types them; the spelling decides nothing
        for text in ("128:1024:x2", "16,32,64", "1e2,2e2", "2.5, 5"):
            assert {type(v) for v in parse_grid(text)} == {float}

    def test_rejects_unbounded_progressions(self):
        for text in ("8:inf:x2", "inf:inf:x2", "nan:16:x2", "8:16:xnan"):
            with pytest.raises(ValueError):
                parse_grid(text)

    def test_rejects_malformed(self):
        with pytest.raises(ValueError):
            parse_grid("10:100")
        with pytest.raises(ValueError):
            parse_grid("10:100:2")
        with pytest.raises(ValueError):
            parse_grid("10:100:x1")
        with pytest.raises(ValueError):
            parse_grid("100:10:x2")
        with pytest.raises(ValueError):
            parse_grid("0:10:x2")


class TestConstantsCommand:
    def test_reports_planar_constant(self, capsys):
        code, out, err = run_cli(
            capsys, ["constants", "--dim", "2", "--samples", "200000", "--seed", SEED]
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["A_d"] - 2.0 / 3.0) <= 3 * payload["A_d_se"]
        assert payload["c_d2"] == pytest.approx(
            3.0 * payload["A_d"] * 2.0 / 3.0, rel=1e-12
        )
        assert abs(payload["c_d2"] - 4.0 / 3.0) <= 9 * payload["A_d_se"]
        assert "c_2,2" in err

    def test_sample_floor(self, capsys):
        code, _, err = run_cli(capsys, ["constants", "--dim", "2", "--samples", "10"])
        assert code == 2
        assert "usage error" in err

    def test_dimension_floor(self, capsys):
        code, _, _ = run_cli(capsys, ["constants", "--dim", "1", "--samples", "5000"])
        assert code == 2


class TestSimulateCommand:
    def simulate(self, capsys, out_dir, extra=()):
        argv = [
            "simulate",
            "--model",
            "binomial",
            "--grid",
            "8,16,32",
            "--reps",
            "4",
            "--seed",
            SEED,
            "--out",
            str(out_dir),
            *extra,
        ]
        return run_cli(capsys, argv)

    def test_writes_csv_and_json(self, capsys, tmp_path):
        code, out, err = self.simulate(capsys, tmp_path)
        assert code == 0
        summary = json.loads(out)
        digest = summary["config"]["hash"]
        csv_path = tmp_path / f"binomial_d2_{digest}.csv"
        json_path = tmp_path / f"binomial_d2_{digest}.json"
        assert csv_path.exists() and json_path.exists()
        assert csv_path.read_text().splitlines()[0] == CSV_HEADER
        assert json.loads(json_path.read_text()) == summary
        assert summary["grid"] == [8, 16, 32]
        assert "records:" in err and "slope" in err

    def test_deterministic_including_workers(self, capsys, tmp_path):
        code_a, out_a, _ = self.simulate(capsys, tmp_path / "a")
        code_b, out_b, _ = self.simulate(capsys, tmp_path / "b")
        code_c, out_c, _ = self.simulate(capsys, tmp_path / "c", extra=["--workers", "2"])
        assert code_a == code_b == code_c == 0
        summaries = []
        for text in (out_a, out_b, out_c):
            summary = json.loads(text)
            summary["config"].pop("output_path")  # only the directory differs
            summaries.append(summary)
        assert summaries[0] == summaries[1] == summaries[2]
        csvs = []
        for sub in ("a", "b", "c"):
            (path,) = (tmp_path / sub).glob("*.csv")
            csvs.append(strip_wall_column(path.read_text()))
        assert csvs[0] == csvs[1] == csvs[2]

    def test_model_needs_grid(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["simulate", "--model", "poisson", "--out", str(tmp_path)])
        assert code == 2
        assert "--grid" in err
        assert not list(tmp_path.glob("*"))

    def test_model_or_config_required(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, ["simulate", "--out", str(tmp_path)])
        assert code == 2
        assert "usage error" in err

    def test_config_file(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {
                    "model": "binomial",
                    "d": 2,
                    "grid": [8, 16, 32],
                    "reps": 3,
                    "master_seed": int(SEED),
                    "output_path": str(tmp_path),
                }
            )
        )
        code, out, _ = run_cli(capsys, ["simulate", "--config", str(cfg_path)])
        assert code == 0
        assert json.loads(out)["config"]["reps"] == 3
        assert list((tmp_path).glob("binomial_d2_*.csv"))

    def test_config_file_refuses_flags(self, capsys, tmp_path):
        # each flag below would once have been dropped without a word
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps(
                {"model": "binomial", "d": 2, "grid": [8, 16, 32], "reps": 2,
                 "master_seed": 5, "output_path": str(dir_a)}
            )
        )
        argv = ["simulate", "--config", str(cfg_path), "--reps", "7", "--model", "halfsphere"]
        code, out, err = run_cli(capsys, argv + ["--grid", "64,128,256", "--out", str(dir_b)])
        assert code == 2
        assert "usage error" in err and "drop --model --grid --reps" in err
        assert out == ""
        assert not dir_a.exists() and not dir_b.exists()

    @pytest.mark.parametrize(
        "flag",
        [
            ["--model", "binomial"],
            ["--dim", "2"],
            ["--grid", "8,16,32"],
            ["--reps", "100"],
            ["--seed", "0"],
            ["--ell", "3"],
            ["--fit-window", "8,16,32"],
        ],
        ids=lambda flag: flag[0],
    )
    def test_config_file_refuses_each_field_flag(self, capsys, tmp_path, flag):
        # even a flag that repeats the file's value or the flag's default
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            json.dumps({"model": "binomial", "d": 2, "grid": [8, 16, 32], "reps": 2,
                        "master_seed": 0})
        )
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir), *flag]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert f"drop {flag[0]}" in err
        assert out == "" and not out_dir.exists()

    def test_out_only_fills_a_null_output_path(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        data = {"model": "binomial", "d": 2, "grid": [8, 16, 32], "reps": 2, "master_seed": 0}
        cfg_path.write_text(json.dumps({**data, "output_path": str(tmp_path / "a")}))
        argv = ["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "b")]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "sets output_path" in err and out == ""
        assert not (tmp_path / "a").exists() and not (tmp_path / "b").exists()
        cfg_path.write_text(json.dumps(data))
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert json.loads(out)["config"]["output_path"] is None
        assert list((tmp_path / "b").glob("binomial_d2_*.csv"))

    @pytest.mark.parametrize(
        "extra, message",
        [
            ({"j": 7}, "binomial has j = 2, not 7"),
            ({"model": "polygon_baseline", "j": 7}, "polygon_baseline has j = 3, not 7"),
            ({"model": "conjecture_probe", "j": 2}, "conjecture_probe needs normals"),
            # one or two normals make the halfsphere or the binomial, which take normals
            (
                {"model": "conjecture_probe", "normals": [[0, 1, 0], [0, 0, 1]]},
                "conjecture_probe needs 3 <= j <= d, got j = 2",
            ),
        ],
    )
    def test_config_j_that_disagrees_exits_two(self, capsys, tmp_path, extra, message):
        data = {"model": "binomial", "d": 2, "grid": [8, 16, 32], "reps": 2, "master_seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**data, **extra}))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert f"usage error: {message}" in err
        assert out == "" and not out_dir.exists()

    def test_whole_float_point_counts_in_a_config_file(self, capsys, tmp_path):
        outputs = []
        for name, grid in (("ints", [8, 16, 32]), ("floats", [8.0, 16.0, 32.0])):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(
                json.dumps(
                    {"model": "binomial", "d": 2, "grid": grid, "reps": 2,
                     "master_seed": int(SEED), "fit_window": grid}
                )
            )
            out_dir = tmp_path / name
            argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir)]
            code, out, _ = run_cli(capsys, argv)
            assert code == 0
            (csv_path,) = out_dir.glob("*.csv")
            outputs.append((out, csv_path.name, strip_wall_column(csv_path.read_text())))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize(
        "option, spellings",
        [
            (("--model", "poisson", "--grid"), ("20:160:x2", "20,40,80,160.0")),
            (("--model", "polygon_baseline", "--grid"), ("1e2,2e2,4e2", "100,200,400")),
        ],
    )
    def test_grid_spellings_are_one_sweep(self, capsys, tmp_path, option, spellings):
        outputs = []
        for index, grid in enumerate(spellings):
            out_dir = tmp_path / str(index)
            argv = ["simulate", *option, grid, "--reps", "3", "--seed", SEED, "--out"]
            code, out, _ = run_cli(capsys, [*argv, str(out_dir)])
            assert code == 0
            (csv_path,) = out_dir.glob("*.csv")
            summary = json.loads(out)
            outputs.append(
                (summary["config"]["hash"], csv_path.name, strip_wall_column(csv_path.read_text()))
            )
        assert outputs[0] == outputs[1]

    def test_config_missing_fields_exits_two(self, capsys, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"model": "binomial", "d": 2, "grid": [8, 16, 32]}))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "usage error" in err
        assert "master_seed" in err and "reps" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("field, value", [("d", "2"), ("reps", 3.5), ("reps", True)])
    def test_config_mistyped_field_exits_two(self, capsys, tmp_path, field, value):
        data = {"model": "binomial", "d": 2, "grid": [8, 16, 32], "reps": 3, "master_seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**data, field: value}))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert f"usage error: {field} must be an integer" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "field, extra",
        [
            ("normals", {"normals": [[1, 0]]}),
            ("grid", {"model": "poisson", "grid": [10.0, 20.0, math.nan]}),
            ("output_path", {"output_path": 5}),
            # a tilted third normal: wedge_measure and the fold need right angles
            (
                "normals",
                {
                    "model": "conjecture_probe",
                    "d": 3,
                    "normals": [[0, 0, 1, 0], [0, 0, 0, 1], [math.sin(0.8), 0, math.cos(0.8), 0]],
                },
            ),
        ],
    )
    def test_config_invalid_value_exits_two(self, capsys, tmp_path, field, extra):
        data = {"model": "binomial", "d": 2, "grid": [8, 16, 32], "reps": 2, "master_seed": 1}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({**data, **extra}))
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert f"usage error: {field} must be" in err
        assert out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "content, message",
        [
            ("5", "a config must be a JSON object, got int"),
            ('"abc"', "a config must be a JSON object, got str"),
            ("{\"model\": ", "is not valid JSON"),
            (None, "cannot read config"),  # missing file
            ("", "cannot read config"),  # a directory, not a file
        ],
        ids=["int", "string", "truncated", "missing", "directory"],
    )
    def test_unusable_config_file_exits_two(self, capsys, tmp_path, content, message):
        cfg_path = tmp_path / "cfg.json"
        if content == "":
            cfg_path.mkdir()
        elif content is not None:
            cfg_path.write_text(content)
        out_dir = tmp_path / "out"
        argv = ["simulate", "--config", str(cfg_path), "--out", str(out_dir)]
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "usage error:" in err and message in err
        assert out == ""
        assert not out_dir.exists()

    def test_output_dir_env_fallback(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path / "env_out"))
        argv = [
            "simulate",
            "--model",
            "binomial",
            "--grid",
            "8,16,32",
            "--reps",
            "2",
            "--seed",
            SEED,
        ]
        code, _, _ = run_cli(capsys, argv)
        assert code == 0
        assert list((tmp_path / "env_out").glob("binomial_d2_*.json"))

    def test_polygon_sides_set_j(self, capsys, tmp_path):
        argv = [
            "simulate",
            "--model",
            "polygon_baseline",
            "--grid",
            "16,32,64",
            "--reps",
            "3",
            "--ell",
            "4",
            "--seed",
            SEED,
            "--out",
            str(tmp_path),
        ]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        summary = json.loads(out)
        assert summary["config"]["model"] == "polygon_baseline"
        assert summary["config"]["j"] == 4

    def test_polygon_without_ell_describes_its_run(self, capsys, tmp_path):
        argv = ["simulate", "--model", "polygon_baseline", "--grid", "16,32,64", "--reps", "3"]
        code, out, err = run_cli(capsys, argv + ["--seed", SEED, "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(out)
        assert (summary["config"]["ell"], summary["config"]["j"]) == (3, 3)
        assert "constants" not in summary
        assert "2*ell/3 = 2.000000" in err
        (csv_path,) = tmp_path.glob("*.csv")
        assert csv_path.name == f"polygon_baseline_d2_{summary['config']['hash']}.csv"
        assert all(row[2] == "3" for row in strip_wall_column(csv_path.read_text())[1:])

    def test_halfsphere_summary_has_no_constants(self, capsys, tmp_path):
        argv = ["simulate", "--model", "halfsphere", "--grid", "16,64,256", "--reps", "3"]
        code, out, err = run_cli(capsys, argv + ["--seed", "0", "--out", str(tmp_path)])
        assert code == 0
        assert "constants" not in json.loads(out)
        assert "vs theory plateau = 0.000000" in err

    def test_binomial_sweep_at_dim_4(self, capsys, tmp_path):
        argv = ["simulate", "--model", "binomial", "--dim", "4", "--grid", "256,1024,4096"]
        code, out, _ = run_cli(capsys, argv + ["--reps", "3", "--out", str(tmp_path)])
        assert code == 0
        summary = json.loads(out)
        assert summary["config"]["d"] == 4 and summary["grid"] == [256, 1024, 4096]
        (path,) = tmp_path.glob("*.csv")
        rows = strip_wall_column(path.read_text())[1:]
        assert len(rows) == 9 and all(int(row[5]) > 0 for row in rows)

    def test_simulate_options_are_pinned(self):
        # a new option or model name has to edit this test on purpose
        (sub,) = (a for a in cli._build_parser()._actions if a.dest == "command")
        simulate = sub.choices["simulate"]
        flags = {s for a in simulate._actions for s in a.option_strings} - {"-h", "--help"}
        assert flags == {
            "--config", "--model", "--dim", "--grid", "--reps",
            "--seed", "--ell", "--fit-window", "--out", "--workers",
        }
        (model,) = (a for a in simulate._actions if a.dest == "model")
        assert tuple(model.choices) == (
            "binomial", "poisson", "halfsphere", "polygon_baseline", "conjecture_probe",
        )

    @pytest.mark.parametrize(
        "extra",
        [
            ["--model", "polygon", "--grid", "16,32,64"],
            ["--model", "probe", "--grid", "16,32,64"],
            ["--model", "poisson", "--gamma-grid", "20,40,80"],
            ["--model", "binomial", "--grid", "8,16,32", "--j", "2"],
        ],
        ids=["polygon", "probe", "gamma-grid", "j"],
    )
    def test_removed_spellings_and_flags_exit_two(self, capsys, tmp_path, extra):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--out", str(tmp_path), *extra])
        assert exc.value.code == 2
        assert not list(tmp_path.glob("*"))

    def test_runtime_error_exits_one(self, capsys, tmp_path, monkeypatch):
        def always_degenerate(cloud):
            raise DegenerateInput("synthetic")

        monkeypatch.setattr(experiments, "facets_projected", always_degenerate)
        code, _, err = self.simulate(capsys, tmp_path)
        assert code == 1
        assert "error" in err

    def test_bad_grid_exits_two(self, capsys, tmp_path):
        argv = ["simulate", "--model", "binomial", "--grid", "8:4:x2", "--out", str(tmp_path)]
        code, _, _ = run_cli(capsys, argv)
        assert code == 2

    @pytest.mark.parametrize(
        "extra",
        [
            ["--grid", "8,16", "--reps", "0"],
            ["--grid", "100.5,200,400"],
            ["--grid", "2,8"],  # below the d+1 floor
            ["--grid", "8,16,32", "--ell", "7"],  # only the polygon has sides
            ["--grid", "8,16,32", "--ell", "-3"],
            ["--grid", "8,16,32", "--workers", "0"],
            ["--grid", "8,16,32", "--workers", "-3"],
            ["--grid", "1e9,2e9,4e9"],  # above MAX_POINTS: refused before any draw
            ["--model", "poisson", "--grid", "1e8,2e8,4e8"],  # expected clouds too
            # summaries that could not be fitted: refused before any replicate
            ["--grid", "4096,8192"],
            ["--grid", "8,16,32", "--fit-window", "16,32"],
            ["--model", "poisson", "--grid", "0.25,0.5,1.0"],
        ],
    )
    def test_rejected_config_exits_two(self, capsys, tmp_path, extra):
        argv = ["simulate", "--model", "binomial", "--out", str(tmp_path), *extra]
        code, _, err = run_cli(capsys, argv)
        assert code == 2
        assert "usage error" in err
        assert not list(tmp_path.glob("*"))


class TestVerifyCommand:
    def test_appendix_suite_passes(self, capsys):
        code, out, err = run_cli(capsys, ["verify", "--suite", "appendix"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert report["suites"] == ["appendix"]
        assert report["checks"]
        assert all(c["passed"] for c in report["checks"])
        assert "[pass]" in err

    def test_appendix_report_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "appendix"])
        assert code == 0
        assert hashlib.blake2b(out.encode(), digest_size=16).hexdigest() == APPENDIX_REPORT_DIGEST

    def test_hull_report_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "hull"])
        assert code == 0
        assert hashlib.blake2b(out.encode(), digest_size=16).hexdigest() == HULL_REPORT_DIGEST

    def test_limits_report_is_pinned(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "limits"])
        assert code == 0
        assert json.loads(out)["dims"] == [2, 3]
        assert hashlib.blake2b(out.encode(), digest_size=16).hexdigest() == LIMITS_REPORT_DIGEST

    def test_dim_restriction_accepted(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "appendix", "--dim", "2"])
        assert code == 0
        assert json.loads(out)["dims"] == [2]

    def test_geometry_suite_report_is_json(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "geometry", "--dim", "2"])
        assert code == 0
        report = json.loads(out)
        assert report["passed"] is True
        assert all(c["passed"] is True for c in report["checks"])

    def test_failure_exits_one(self, capsys, monkeypatch):
        def fake_run_suites(names, dims):
            return [CheckResult("geometry", "synthetic", False, "forced failure")]

        monkeypatch.setattr(cli, "run_suites", fake_run_suites)
        code, out, err = run_cli(capsys, ["verify", "--suite", "geometry"])
        assert code == 1
        assert json.loads(out)["passed"] is False
        assert "[FAIL]" in err

    def test_reports_time_per_suite(self, capsys, monkeypatch):
        def fake_run_suites(names, dims):
            return [CheckResult(name, "synthetic", True, "ok") for name in names]

        monkeypatch.setattr(cli, "run_suites", fake_run_suites)
        code, out, err = run_cli(capsys, ["verify"])
        assert code == 0
        timed = [line for line in err.splitlines() if line.startswith("[time] ")]
        assert [line.split(":")[0] for line in timed] == [
            f"[time] {name}" for name in SUITE_NAMES
        ]
        assert all(line.endswith(" s") and "1 checks in" in line for line in timed)
        report = json.loads(out)
        assert list(report) == ["suites", "dims", "checks", "passed"]
        assert report["suites"] == list(SUITE_NAMES)
        assert [c["suite"] for c in report["checks"]] == list(SUITE_NAMES)

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--dim", "4"],  # the limits suite has budgets for d = 2 and 3
            ["verify", "--suite", "limits", "--dim", "4"],
            ["verify", "--dim", "1"],
            ["verify", "--suite", "hull", "--dim", "1"],
        ],
    )
    def test_unsupported_dim_is_a_usage_error(self, capsys, monkeypatch, argv):
        calls = []
        monkeypatch.setattr(cli, "run_suites", lambda names, dims: calls.append(names) or [])
        code, out, err = run_cli(capsys, argv)
        assert code == 2
        assert "usage error" in err and not out
        assert calls == []

    def test_run_suites_rejects_unsupported_dims(self):
        with pytest.raises(DomainError):
            suites.run_suites(("limits",), dims=(4,))
        with pytest.raises(DomainError):
            suites.run_suites(("hull",), dims=(1,))

    def test_run_suites_rejects_unknown_suite(self):
        with pytest.raises(ValueError):
            suites.run_suites(("nope",))

    def test_hull_suite_runs_at_dim_4(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--suite", "hull", "--dim", "4"])
        assert code == 0
        report = json.loads(out)
        assert [(c["name"], c["passed"]) for c in report["checks"]] == [
            ("dual_route_equivalence_d4", True),
            ("euler_relation_d4", True),
        ]

    def test_unknown_suite_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestScipyLoadsWhenCalled:
    """A d = 2 sweep never loads scipy; the commands that call it load it in set-up."""

    SIMULATE = ["simulate", "--model", "binomial", "--grid", "8,16,32", "--reps", "2"]

    def test_package_import_loads_no_scipy(self, tmp_path):
        body = """
            import wedgehull, wedgehull.cli, wedgehull.suites
            print(json.dumps(loaded()))
        """
        assert run_fresh(tmp_path, body) == []

    def test_planar_simulate_loads_no_scipy(self, tmp_path):
        body = f"""
            import wedgehull.cli as cli
            code = cli.main({self.SIMULATE + ["--out", "out"]!r})
            print(json.dumps([code, loaded()]))
        """
        assert run_fresh(tmp_path, body) == [0, []]

    def test_d3_simulate_loads_qhull_before_its_first_task(self, tmp_path):
        body = f"""
            import wedgehull.cli as cli
            import wedgehull.experiments as experiments
            seen = []
            real = experiments._execute_task

            def spy(payload):
                seen.append("scipy.spatial" in sys.modules)
                return real(payload)

            experiments._execute_task = spy
            code = cli.main({self.SIMULATE + ["--dim", "3", "--out", "out"]!r})
            print(json.dumps([code, seen[0], "scipy.spatial" in loaded()]))
        """
        assert run_fresh(tmp_path, body) == [0, True, True]

    def test_verify_loads_scipy_before_its_first_suite(self, tmp_path):
        body = """
            import wedgehull.cli as cli
            wanted = ("scipy.integrate", "scipy.spatial", "scipy.special")
            seen = []

            def spy(names, dims):
                if not seen:
                    seen.append([m for m in wanted if m in sys.modules])
                return []

            cli.run_suites = spy
            code = cli.main(["verify", "--suite", "geometry"])
            print(json.dumps([code, seen]))
        """
        assert run_fresh(tmp_path, body) == [0, [["scipy.spatial", "scipy.special"]]]

    @pytest.mark.parametrize(
        "argv", [["verify", "--suite", "limits"], ["verify", "--suite", "i1", "--dim", "2"]]
    )
    def test_quadrature_suites_load_no_integrator(self, tmp_path, argv):
        # the limit lemma's rule and the d = 2 cross-section value are numpy
        body = f"""
            import wedgehull.cli as cli
            code = cli.main({argv!r})
            unwanted = ("scipy.integrate", "scipy.optimize")
            print(json.dumps([code, [m for m in loaded() if m.startswith(unwanted)]]))
        """
        assert run_fresh(tmp_path, body) == [0, []]


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_example_parses(argv):
    # parsed only: a renamed or removed option breaks the example, not a run
    cli._build_parser().parse_args(argv)


def test_readme_examples_cover_every_command():
    assert {argv[0] for argv in readme_commands()} == {"simulate", "constants", "verify"}


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["bogus"])
    assert exc.value.code == 2


def test_missing_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
