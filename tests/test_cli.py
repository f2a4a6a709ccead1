"""Command-line surface, exercised end to end through main().

Everything here calls wavereg.cli.main with an argv list and inspects exit
codes, captured output, and the files left behind; nothing shells out.  The
float comparisons against library calls are exact because the CSV writer
serializes at 17 significant digits, which round-trips float64.
"""

import ast
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wavereg import __version__, cli, experiments
from wavereg.cli import main
from wavereg.experiments import (
    DatumSpec,
    continuation_schedule,
    growth_experiment,
    make_datum,
    scaling_sweep,
    verify_legs,
)
from wavereg.model import PressureLaw
from wavereg.normalform import NormalFormSetting, to_normal_coords
from wavereg.spectral import Grid, norm

REPO_ROOT = Path(__file__).resolve().parents[1]


def read_table(path):
    """Parse a table the CLI wrote: (header, rows, meta), where rows hold the
    raw cell strings keyed by column name and meta collects the trailing
    `# key = value` comment lines."""
    header, rows, meta = None, [], {}
    with open(path, encoding="utf-8") as handle:
        for line in handle.read().splitlines():
            if line.startswith("#"):
                key, sep, value = line[1:].partition("=")
                if sep:
                    meta[key.strip()] = value.strip()
            elif line and header is None:
                header = line.split(",")
            elif line:
                cells = line.split(",")
                assert len(cells) == len(header), f"malformed row {line!r}"
                rows.append(dict(zip(header, cells)))
    assert header is not None, f"{path} has no header row"
    return header, rows, meta


def run_simulate(outdir, *extra):
    """A small, fast simulate invocation all the tests share."""
    argv = [
        "simulate", "--epsilon", "0.1", "--pressure", "p1", "--alpha", "0.5",
        "--t-end", "0.05", "--dt", "1e-3", "--store-every", "10",
        "--n-modes", "16", "--output-dir", str(outdir),
    ]
    argv.extend(extra)
    return main(argv)


class TestExitCodes:
    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        out = capsys.readouterr().out
        assert "simulate" in out and "verify" in out

    def test_missing_command(self, capsys):
        assert main([]) == 1

    def test_unknown_command(self, capsys):
        assert main(["transmogrify"]) == 1

    def test_unknown_flag(self, capsys):
        assert main(["simulate", "--frobnicate", "1"]) == 1

    def test_epsilon_out_of_range_names_the_bound(self, capsys, tmp_path):
        rc = main(["simulate", "--epsilon", "1.5", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "must lie in (0, 1)" in capsys.readouterr().err

    def test_target_norm_names_the_bound(self, capsys, tmp_path):
        rc = run_simulate(tmp_path, "--target-norm", "0.2")
        assert rc == 1
        assert "1/6" in capsys.readouterr().err

    def test_modified_requires_p0(self, capsys, tmp_path):
        rc = main([
            "simulate", "--system", "modified", "--pressure", "p1",
            "--epsilon", "0.1", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "law P0 only" in capsys.readouterr().err

    def test_theorem_scaling_pins_alpha(self, capsys, tmp_path):
        rc = run_simulate(tmp_path, "--theorem-scaling", "--alpha", "0.3")
        assert rc == 1
        assert "pins alpha = 0.5" in capsys.readouterr().err

    def test_alpha_rejected_on_modified(self, capsys, tmp_path):
        rc = main([
            "simulate", "--system", "modified", "--epsilon", "0.1",
            "--alpha", "0.5", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "use --lambda" in capsys.readouterr().err

    def test_lambda_rejected_on_regularized(self, capsys, tmp_path):
        rc = run_simulate(tmp_path, "--lambda", "0.2")
        assert rc == 1
        assert "use --alpha" in capsys.readouterr().err

    def test_missing_required_key(self, capsys, tmp_path):
        rc = main(["sweep", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "epsilons is required" in capsys.readouterr().err

    def test_non_numeric_flag_value(self, capsys, tmp_path):
        rc = run_simulate(tmp_path, "--dt", "soon")
        assert rc == 1
        assert "expected a number" in capsys.readouterr().err


class TestConfigFile:
    def test_flags_override_config(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon = 0.2\nt_end = 0.02\npressure = p1\nalpha = 0.5\n")
        rc = main([
            "simulate", "--config", str(conf), "--epsilon", "0.1",
            "--n-modes", "16", "--store-every", "10",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "simulate.json").read_text())
        assert manifest["config"]["epsilon"] == 0.1  # flag wins
        assert manifest["config"]["t_end"] == 0.02  # file fills the rest

    def test_dashes_and_underscores_interchangeable(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("t-end = 0.02\nstore-every = 10\n")
        rc = main([
            "simulate", "--config", str(conf), "--epsilon", "0.1",
            "--n-modes", "16", "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "simulate.json").read_text())
        assert manifest["config"]["t_end"] == 0.02

    def test_unknown_config_key(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("frobnicate = 1\n")
        rc = main(["simulate", "--config", str(conf), "--epsilon", "0.1",
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "unknown config key" in capsys.readouterr().err

    def test_malformed_line(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon 0.1\n")
        rc = main(["simulate", "--config", str(conf),
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "expected key=value" in capsys.readouterr().err

    def test_missing_file(self, capsys, tmp_path):
        rc = main(["simulate", "--config", str(tmp_path / "absent.conf"),
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "cannot read config file" in capsys.readouterr().err

    def test_shipped_example_drives_simulate(self, tmp_path):
        example = REPO_ROOT / "run.conf.example"
        rc = main([
            "simulate", "--config", str(example),
            "--t-end", "0.01", "--store-every", "10", "--n-modes", "16",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "simulate.json").read_text())
        assert manifest["config"]["pressure"] == "p1"
        assert manifest["config"]["alpha"] == 0.5


class TestSimulate:
    def test_csv_bytes_deterministic(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_simulate(a) == 0
        assert run_simulate(b) == 0
        assert (a / "simulate.csv").read_bytes() == (b / "simulate.csv").read_bytes()

    def test_csv_round_trips_through_reader(self, tmp_path):
        assert run_simulate(tmp_path) == 0
        header, rows, meta = read_table(str(tmp_path / "simulate.csv"))
        assert header == [
            "t", "norm_w1_H1", "norm_w2_L2", "norm_u1_H1", "norm_u2_L2",
            "energy", "mean_abs_u1", "mean_abs_u2", "cancellation_residual",
            "status",
        ]
        assert len(rows) == 6  # 51 steps sampled every 10, plus t = 0
        assert meta == {}
        for row in rows:
            assert row["status"] == "completed"
            assert float(row["norm_u1_H1"]) > 0.0

    def test_first_row_matches_library(self, tmp_path):
        assert run_simulate(tmp_path) == 0
        _, rows, _ = read_table(str(tmp_path / "simulate.csv"))
        amp = 0.1**0.5
        grid = Grid(16)
        spec = DatumSpec(1, 0.15, PressureLaw.P1, (1, 8), False)
        profile = make_datum(grid, spec)
        setting = NormalFormSetting(0.1, False, PressureLaw.P1, amp)
        state0 = amp * profile
        v0 = to_normal_coords(setting, state0 / amp)
        assert float(rows[0]["t"]) == 0.0
        assert float(rows[0]["norm_w1_H1"]) == norm(v0.u1, "Hs", s=1.0)
        assert float(rows[0]["norm_u1_H1"]) == norm(state0.u1, "Hs", s=1.0)

    def test_manifest_contents(self, tmp_path):
        assert run_simulate(tmp_path) == 0
        manifest = json.loads((tmp_path / "simulate.json").read_text())
        assert manifest["command"] == "simulate"
        assert manifest["version"] == __version__
        assert manifest["terminal_status"] == "completed"
        assert manifest["blowup_time"] is None
        assert manifest["samples"] == 6
        assert manifest["wall_time_seconds"] > 0.0
        assert manifest["outputs"] == ["simulate.csv"]
        assert manifest["config"]["epsilon"] == 0.1
        assert manifest["config"]["band"] == [1, 8]

    def test_manifest_size_repeats(self, tmp_path):
        # the wall time is written at a fixed width, as a JSON number, so two
        # runs of one config write manifests of one size
        sizes = []
        for _ in range(2):
            assert run_simulate(tmp_path) == 0
            text = (tmp_path / "simulate.json").read_text()
            assert re.search(r'"wall_time_seconds": \d\.\d{6}e[+-]\d\d\n', text)
            assert isinstance(json.loads(text)["wall_time_seconds"], float)
            sizes.append(len(text.encode()))
        assert sizes[0] == sizes[1]

    def test_env_var_sets_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WAVEREG_OUTPUT_DIR", str(tmp_path))
        rc = main([
            "simulate", "--epsilon", "0.1", "--t-end", "0.01",
            "--store-every", "10", "--n-modes", "16",
        ])
        assert rc == 0
        assert (tmp_path / "simulate.csv").exists()

    def test_tag_renames_outputs(self, tmp_path):
        assert run_simulate(tmp_path, "--tag", "demo") == 0
        assert (tmp_path / "demo.csv").exists()
        assert (tmp_path / "demo.json").exists()

    def test_instant_blowup_is_still_a_successful_run(self, tmp_path):
        # a threshold below the datum norm crosses at t = 0; that is a
        # reported outcome, not a tool failure
        rc = run_simulate(tmp_path, "--rho-max", "0.1", "--tag", "burst")
        assert rc == 0
        manifest = json.loads((tmp_path / "burst.json").read_text())
        assert manifest["terminal_status"] == "blowup"
        assert manifest["blowup_time"] == 0.0


class TestSweep:
    ARGS = [
        "sweep", "--pressure", "p1", "--alpha", "0.5",
        "--epsilons", "0.2,0.1,0.05", "--t-end", "0.05", "--dt", "2e-3",
        "--n-modes", "16",
    ]

    def test_rows_and_fit_footer(self, tmp_path):
        rc = main(self.ARGS + ["--output-dir", str(tmp_path)])
        assert rc == 0
        header, rows, meta = read_table(str(tmp_path / "sweep.csv"))
        assert header == ["epsilon", "time", "status", "final_norm1",
                          "final_norm2"]
        assert [float(r["epsilon"]) for r in rows] == [0.2, 0.1, 0.05]
        assert all(r["status"] == "completed" for r in rows)
        assert all(r["time"] == "" for r in rows)
        assert meta["slope"] == "none"
        assert meta["message"] == "no blow-up observed"

    def test_rows_match_library(self, tmp_path):
        rc = main(self.ARGS + ["--output-dir", str(tmp_path)])
        assert rc == 0
        _, rows, _ = read_table(str(tmp_path / "sweep.csv"))
        spec = DatumSpec(1, 0.15, PressureLaw.P1, (1, 8), False)
        result = scaling_sweep(
            PressureLaw.P1, "regularized", (0.2, 0.1, 0.05), spec,
            amplitude_exponent=0.5, t_end=0.05, dt=2e-3, n_modes=16,
        )
        for row, expected in zip(rows, result.rows):
            assert float(row["final_norm1"]) == expected.final_norm1
            assert float(row["final_norm2"]) == expected.final_norm2

    def test_parallel_jobs_byte_identical(self, tmp_path):
        a, b = tmp_path / "serial", tmp_path / "parallel"
        assert main(self.ARGS + ["--output-dir", str(a)]) == 0
        assert main(self.ARGS + ["--jobs", "2", "--output-dir", str(b)]) == 0
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()

    def test_conflicting_amplitude_flags(self, capsys, tmp_path):
        rc = main([
            "sweep", "--epsilons", "0.2,0.1,0.05", "--alpha", "0",
            "--lambda", "0.2", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "at most one" in capsys.readouterr().err

    def test_lambda_rejected_on_regularized(self, capsys, tmp_path):
        rc = main(["sweep", "--system", "regularized", "--lambda", "0.3",
                   "--epsilons", "0.2,0.1", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "use --alpha" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_alpha_rejected_on_modified(self, capsys, tmp_path):
        rc = main(["sweep", "--system", "modified", "--alpha", "0.5",
                   "--epsilons", "0.2,0.1", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "use --lambda" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_bad_epsilon_in_list(self, capsys, tmp_path):
        rc = main(["sweep", "--epsilons", "0.2,1.1,0.05",
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "must lie in (0, 1), got 1.1" in capsys.readouterr().err


class TestGrowth:
    def test_values_match_library(self, tmp_path):
        rc = main(["growth", "--wavenumbers", "1,2,4", "--u-star", "0",
                   "--output-dir", str(tmp_path)])
        assert rc == 0
        _, rows, _ = read_table(str(tmp_path / "growth.csv"))
        expected = growth_experiment(PressureLaw.P0, 0.0, (1, 2, 4))
        assert len(rows) == 3
        for row, m in zip(rows, expected):
            assert int(row["wavenumber"]) == m.wavenumber
            assert float(row["measured"]) == m.measured
            assert float(row["predicted"]) == m.predicted

    def test_elliptic_prediction_exact(self, tmp_path):
        rc = main(["growth", "--wavenumbers", "4", "--output-dir", str(tmp_path)])
        assert rc == 0
        _, rows, _ = read_table(str(tmp_path / "growth.csv"))
        assert float(rows[0]["predicted"]) == 4.0

    def test_negative_epsilon_rejected(self, capsys, tmp_path):
        rc = main(["growth", "--epsilon", "-0.1", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "nonnegative" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value", [
        ("--u-star", "1e160"), ("--u-star", "1e154"), ("--epsilon", "1e200")])
    def test_input_that_overflows_exits_one(self, capsys, tmp_path, flag, value):
        # one line naming the input: no traceback, no warning, no nan rates
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["growth", flag, value, "--output-dir", str(tmp_path)])
        assert rc == 1
        name = flag[2:].replace("-", "_")
        assert capsys.readouterr().err == (
            f"error: {name} {float(value)} takes the closed form of wavenumber 1 "
            "past the float range\n")
        assert os.listdir(tmp_path) == []


class TestContinue:
    def test_worked_schedule(self, tmp_path):
        rc = main([
            "continue", "--rho", "0.5", "--epsilon", "0.01", "--alpha", "0.5",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 0
        manifest = json.loads((tmp_path / "continue.json").read_text())
        assert manifest["j_formula"] == 11
        assert manifest["j_star"] == 7
        assert manifest["time_sequence"][0] == pytest.approx(0.02, abs=1e-15)
        assert manifest["rho_sequence"][1] == pytest.approx(0.72, abs=1e-14)
        schedule = continuation_schedule(0.5, 0.01, 0.5)
        assert manifest["t_star"] == schedule.t_star

    def test_budget_too_coarse_exits_one(self, capsys, tmp_path):
        # eps close to 1 makes the step grain larger than the whole budget
        rc = main(["continue", "--rho", "0.5", "--epsilon", "0.9",
                   "--alpha", "0", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:")

    def test_huge_rho_exits_one(self, capsys, tmp_path):
        # rho**2 is past the float range: one line, no traceback
        rc = main(["continue", "--rho", "1e200", "--epsilon", "0.01",
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_budget_square_overflow_exits_one(self, capsys, tmp_path):
        # the count passes its check; a later budget's square does not exist
        rc = main(["continue", "--rho", "1.2e154", "--epsilon", "0.5", "--alpha", "1",
                   "--growth-constant", "100", "--step-constant", "1e-300",
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rho 1.2e+154 is too large") and err.count("\n") == 1
        assert os.listdir(tmp_path) == []

    def test_budget_past_the_float_range_exits_one(self, capsys, tmp_path):
        # at the parent this exited 0 and wrote 4,999 Infinity tokens, which
        # is not JSON
        rc = main(["continue", "--rho", "1e154", "--epsilon", "0.5", "--alpha", "1",
                   "--growth-constant", "1e154", "--step-constant", "1e-150",
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: rho 1e+154 and growth_constant 1e+154 are too large")
        assert err.count("\n") == 1
        assert os.listdir(tmp_path) == []


class TestPicard:
    def test_converges_on_short_horizon(self, tmp_path):
        rc = main(["picard", "--epsilon", "0.2", "--output-dir", str(tmp_path)])
        assert rc == 0
        manifest = json.loads((tmp_path / "picard.json").read_text())
        assert manifest["converged"] is True
        assert manifest["final_residual"] < 1e-10
        assert manifest["t_horizon"] == pytest.approx(0.1 * 0.2**2)
        assert all(r < 1.0 for r in manifest["contraction_ratios"])

    def test_stalling_horizon_exits_two(self, tmp_path):
        rc = main([
            "picard", "--epsilon", "0.2", "--t-horizon", "40.0",
            "--max-iter", "10", "--n-nodes", "129",
            "--output-dir", str(tmp_path),
        ])
        assert rc == 2
        manifest = json.loads((tmp_path / "picard.json").read_text())
        assert manifest["converged"] is False
        assert max(manifest["contraction_ratios"]) > 1.0

    def test_datum_guard_violation_exits_one(self, capsys, tmp_path):
        rc = main([
            "picard", "--epsilon", "0.9", "--target-norm", "0.165",
            "--band", "1,2", "--output-dir", str(tmp_path),
        ])
        assert rc == 1
        assert "below 1/6" in capsys.readouterr().err


class TestVerify:
    def test_all_legs_pass(self, capsys):
        assert main(["verify", "--n-modes", "64", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6
        assert "FAIL" not in out
        assert "verify: 6/6 checks passed" in out

    def test_implicit_representation_residual_is_pinned(self, capsys):
        # the leg's R1 rows come from one batched forcing call on the whole
        # trajectory; the value printed by the per-state form it replaced
        assert main(["verify", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "implicit_representation: 2.356e-04 (threshold 5.000e-03) PASS" in out

    def test_prints_the_library_legs(self, capsys):
        # two blocks of cancellation draws at K = 16: 31 + 9 fields
        assert main(["verify", "--n-modes", "16", "--seed", "2", "--fields", "40"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[:-1] == [
            f"{name}: {measured:.3e} (threshold {threshold:.3e}) PASS"
            for name, measured, threshold, _ in verify_legs(16, 2, 40)
        ]
        assert printed[-1] == "verify: 6/6 checks passed"

    def test_small_field_count(self, capsys):
        assert main(["verify", "--fields", "5"]) == 0
        assert "6/6" in capsys.readouterr().out

    def test_rejects_tiny_band(self, capsys):
        assert main(["verify", "--n-modes", "4"]) == 1
        assert "n_modes must be at least 8, got 4" in capsys.readouterr().err


class TestCsvText:
    def test_rows_equal_the_per_cell_format(self):
        # each row's template spells _fmt for every cell: floats (signed
        # zero, nan, inf, subnormal, numpy scalar) at 17 digits, None as
        # nothing, ints, bools, numpy ints and strings by str
        header = ["a", "b", "c", "d", "e", "f"]
        rows = [
            (-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, np.float64(1.0 / 3.0)),
            (1, True, None, "completed", np.int64(7), 0.1),
            [None, None, 2.5, False, "x", np.float64(-0.0)],
            (-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, np.float64(1.0 / 3.0)),
        ]
        meta = {"status": "blowup", "time": None, "value": 1e-300}
        want = "\n".join(
            [",".join(header)]
            + [",".join(cli._fmt(cell) for cell in row) for row in rows]
            + ["# status = blowup", "# time = none", "# value = 1e-300"]
        ) + "\n"
        assert cli._csv_text(header, rows, meta) == want
        assert want.splitlines()[1] == (
            "-0,nan,inf,-inf,4.9406564584124654e-324,0.33333333333333331")


class TestReadTable:
    def test_meta_and_blank_lines(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(
            "a,b\n\n1,2\n3,4\n# slope = 2.5\n# message = one, two\n"
        )
        header, rows, meta = read_table(str(path))
        assert header == ["a", "b"]
        assert rows == [{"a": "1", "b": "2"}, {"a": "3", "b": "4"}]
        assert meta == {"slope": "2.5", "message": "one, two"}

    def test_seventeen_digits_round_trip(self, tmp_path):
        values = np.random.default_rng(20240817).normal(size=50)
        path = tmp_path / "floats.csv"
        path.write_text(
            "x\n" + "\n".join(f"{v:.17g}" for v in values) + "\n"
        )
        _, rows, _ = read_table(str(path))
        assert [float(r["x"]) for r in rows] == list(values)


class TestOptionTable:
    """The flags and config keys each command takes, held against literal
    lists rather than against the table that generates them."""

    FLAGS = {
        "simulate": [
            "--system", "--pressure", "--epsilon", "--alpha", "--lambda",
            "--n-modes", "--n-points", "--seed", "--target-norm", "--band",
            "--theorem-scaling", "--dt", "--t-end", "--rho-max",
            "--store-every", "--config", "--output-dir", "--tag",
        ],
        "verify": ["--n-modes", "--seed", "--fields", "--config"],
        "sweep": [
            "--system", "--pressure", "--alpha", "--lambda", "--n-modes",
            "--seed", "--target-norm", "--band", "--theorem-scaling",
            "--epsilons", "--dt", "--t-end", "--rho-max", "--store-every",
            "--time-scale", "--jobs", "--config", "--output-dir", "--tag",
        ],
        "growth": [
            "--pressure", "--u-star", "--wavenumbers", "--epsilon",
            "--n-samples", "--config", "--output-dir", "--tag",
        ],
        "continue": [
            "--rho", "--epsilon", "--alpha", "--growth-constant",
            "--step-constant", "--config", "--output-dir", "--tag",
        ],
        "picard": [
            "--system", "--pressure", "--epsilon", "--alpha", "--lambda",
            "--n-modes", "--seed", "--target-norm", "--band",
            "--theorem-scaling", "--t-horizon", "--max-iter", "--n-nodes",
            "--config", "--output-dir", "--tag",
        ],
    }

    @pytest.fixture(autouse=True)
    def wide_help(self, monkeypatch):
        # one line per flag, however narrow the terminal running the tests
        monkeypatch.setenv("COLUMNS", "200")

    @staticmethod
    def help_text(capsys, command):
        assert main([command, "--help"]) == 0
        return capsys.readouterr().out

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_help_lists_the_flags_in_order(self, capsys, command):
        listed = re.findall(r"^  (--[\w-]+)", self.help_text(capsys, command), re.M)
        assert listed == self.FLAGS[command]

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_one_command_parser_helps_as_the_full_parser(self, capsys, command):
        # main fills in the options of the command it runs only
        texts = []
        for only in (None, command):
            with pytest.raises(SystemExit) as exc:
                cli._build_parser(only).parse_args([command, "--help"])
            assert exc.value.code == 0
            texts.append(capsys.readouterr().out)
        assert texts[0] == texts[1] == self.help_text(capsys, command)
        assert cli._build_parser(command).format_help() == cli._build_parser().format_help()

    @pytest.mark.parametrize("command,flag,text", [
        ("growth", "--epsilon", "dispersion strength, >= 0"),
        ("continue", "--alpha", "amplitude exponent in the step grain"),
        ("sweep", "--dt", "time step (scaled by eps^2 if requested)"),
    ])
    def test_command_specific_help(self, capsys, command, flag, text):
        line = re.search(rf"^  {flag} \S+\s+(.*)$", self.help_text(capsys, command), re.M)
        assert line.group(1) == text

    @pytest.mark.parametrize("command", list(FLAGS))
    def test_config_keys_are_the_flags(self, capsys, tmp_path, command):
        # every key of the command is known, so the loader gets past the
        # unknown-key check and fails on the first value it converts
        conf = tmp_path / "all.conf"
        keys = [flag[2:] for flag in self.FLAGS[command] if flag != "--config"]
        conf.write_text("".join(f"{key} = bogus\n" for key in keys))
        assert main([command, "--config", str(conf)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: expected")
        assert "unknown config key" not in err

    @pytest.mark.parametrize("command,key", [
        ("sweep", "epsilon"), ("verify", "tag"), ("growth", "alpha"),
        ("continue", "system"), ("picard", "n_points"), ("simulate", "jobs"),
    ])
    def test_config_key_of_another_command_rejected(self, capsys, tmp_path,
                                                    command, key):
        conf = tmp_path / "one.conf"
        conf.write_text(f"{key} = 1\n")
        assert main([command, "--config", str(conf)]) == 1
        assert f"unknown config key(s) for this command: {key}" in capsys.readouterr().err

    def test_sweep_takes_no_epsilon_flag(self, capsys, tmp_path):
        rc = main(TestSweep.ARGS + ["--epsilon", "0.5", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "unrecognized arguments: --epsilon 0.5" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_flags_are_not_abbreviated(self, capsys, tmp_path):
        rc = main(["simulate", "--eps", "0.1", "--t-end", "0.01",
                   "--n-modes", "8", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert "unrecognized arguments: --eps 0.1" in capsys.readouterr().err
        assert not (tmp_path / "simulate.csv").exists()

    def test_shipped_example_documents_exactly_the_keys(self, tmp_path):
        # active and commented-out `key = value` lines alike, read through
        # the loader so 'lambda' and dashed spellings map as for a user
        lines = [
            match.group(1)
            for line in (REPO_ROOT / "run.conf.example").read_text().splitlines()
            if (match := re.match(r"^(?:#\s*)?([A-Za-z_][\w-]*\s*=.*)$", line))
        ]
        conf = tmp_path / "uncommented.conf"
        conf.write_text("\n".join(lines) + "\n")
        keys = set(cli._load_config_file(str(conf)))
        known = set().union(*(defaults for _, _, defaults in cli._COMMANDS.values()))
        assert keys <= known  # every key named there is a key of some command
        assert known <= keys  # and every key of every command is named


class TestPicardTheoremScaling:
    ARGS = ["picard", "--pressure", "p1", "--epsilon", "0.2"]

    def final_residual(self, outdir, *extra):
        assert main(self.ARGS + ["--output-dir", str(outdir), *extra]) == 0
        manifest = json.loads((outdir / "picard.json").read_text())
        return manifest["final_residual"], manifest["config"]

    def test_flag_pins_alpha_for_the_law(self, tmp_path):
        pinned, config = self.final_residual(tmp_path / "flag", "--theorem-scaling")
        explicit, _ = self.final_residual(tmp_path / "alpha", "--alpha", "0.5")
        plain, plain_config = self.final_residual(tmp_path / "plain")
        assert config["theorem_scaling"] is True
        assert plain_config["theorem_scaling"] is False
        assert pinned == explicit
        assert pinned != plain

    def test_config_file_form(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("theorem_scaling = true\n")
        from_file, config = self.final_residual(tmp_path / "file", "--config", str(conf))
        explicit, _ = self.final_residual(tmp_path / "alpha", "--alpha", "0.5")
        assert config["theorem_scaling"] is True
        assert from_file == explicit


class TestSweepInputRules:
    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_one(self, capsys, tmp_path, jobs):
        rc = main(TestSweep.ARGS + ["--jobs", jobs, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert f"jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        assert not (tmp_path / "sweep.csv").exists()

    def test_amplitude_underflow_names_the_exponent(self, capsys, tmp_path):
        rc = main(["sweep", "--epsilons", "0.2,0.1,0.05", "--alpha", "1000",
                   "--n-modes", "8", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: amplitude_exponent 1000.0 underflows the amplitude to 0 at "
            "epsilon 0.2\n")
        assert os.listdir(tmp_path) == []

    def test_runs_all_at_time_zero_write_no_fit(self, capsys, tmp_path):
        # the datum's monitor, 0.15, starts above rho_max, so every run
        # crosses at t = 0 and no crossing time has a logarithm
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--epsilons", "0.2,0.1,0.05", "--rho-max", "0.01",
                       "--n-modes", "16", "--t-end", "0.05",
                       "--output-dir", str(tmp_path)])
        assert rc == 0
        message = ("3 blow-up run(s), 3 at time 0, and 0 diverged run(s) among 3; "
                   "slope not fitted")
        out, err = capsys.readouterr()
        assert err == ""
        assert f"slope=none ({message})" in out

        def reject(constant):
            raise ValueError(f"sweep.json holds {constant}")

        manifest = json.loads((tmp_path / "sweep.json").read_text(),
                              parse_constant=reject)
        assert (manifest["slope"], manifest["intercept"], manifest["residual"]) == (
            None, None, None)
        assert manifest["message"] == message
        assert manifest["statuses"] == ["blowup"] * 3
        _, rows, meta = read_table(str(tmp_path / "sweep.csv"))
        assert [r["time"] for r in rows] == ["0"] * 3
        assert meta["slope"] == "none"

    @pytest.mark.parametrize("command", ["simulate", "sweep"])
    def test_rho_max_rule_is_shared(self, capsys, tmp_path, command):
        argv = (["simulate", "--epsilon", "0.1"] if command == "simulate"
                else ["sweep", "--epsilons", "0.2,0.1,0.05"])
        rc = main(argv + ["--rho-max", "0", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == "error: rho_max must be positive, got 0.0\n"


class TestDatumRules:
    """simulate, sweep and picard read their amplitude flags and build their
    datum recipe through one reader, so each prints the library's own
    message for a bad datum."""

    @pytest.mark.parametrize("argv", [
        ["simulate", "--epsilon", "0.1"],
        ["sweep", "--epsilons", "0.2,0.1,0.05"],
        ["picard", "--epsilon", "0.2"],
    ], ids=["simulate", "sweep", "picard"])
    def test_target_norm_message_comes_from_the_datum(self, capsys, tmp_path, argv):
        rc = main(argv + ["--target-norm", "0.2", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: target_norm must lie in (0, 1/6), got 0.2\n")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["simulate", "sweep", "picard"])
    def test_law_rule_comes_before_the_datum(self, capsys, tmp_path, command):
        eps = (["--epsilons", "0.2,0.1,0.05"] if command == "sweep"
               else ["--epsilon", "0.2"])
        rc = main([command, *eps, "--system", "modified", "--pressure", "p1",
                   "--target-norm", "0.2", "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: the modified system is defined with law P0 only, got P1\n")

    # each command reads its model keys in one order: simulate and picard
    # epsilon and the system's law (the setting), then each command the
    # amplitude flags and the datum; the sweep checks its epsilons last
    @pytest.mark.parametrize("command", ["simulate", "sweep", "picard"])
    @pytest.mark.parametrize("eps,flags,message", [
        pytest.param("1.5", ["--system", "modified", "--pressure", "p1"],
                     {"simulate": "epsilon must lie in (0, 1), got 1.5",
                      "sweep": "the modified system is defined with law P0 only, got P1",
                      "picard": "epsilon must lie in (0, 1), got 1.5"},
                     id="epsilon-before-law"),
        pytest.param("0.2", ["--system", "modified", "--alpha", "0.5"],
                     "alpha does not apply to the modified system; use --lambda",
                     id="modified-alpha"),
        pytest.param("0.2", ["--lambda", "0.3"],
                     "lambda only applies to the modified system; use --alpha",
                     id="regularized-lambda"),
        pytest.param("0.2", ["--alpha", "0", "--lambda", "0.2"],
                     "give at most one of --alpha and --lambda (lambda only applies "
                     "to the modified system; use --alpha)", id="alpha-and-lambda"),
        pytest.param("0.2", ["--pressure", "p1", "--theorem-scaling", "--alpha", "0.3"],
                     "theorem scaling pins alpha = 0.5 for p1, got alpha = 0.3",
                     id="theorem-pin"),
    ])
    def test_model_rules_in_order(self, capsys, tmp_path, command, eps, flags, message):
        eps = (["--epsilons", f"{eps},0.1,0.05"] if command == "sweep"
               else ["--epsilon", eps])
        rc = main([command, *eps, *flags, "--output-dir", str(tmp_path)])
        assert rc == 1
        message = message[command] if isinstance(message, dict) else message
        assert capsys.readouterr().err == f"error: {message}\n"
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("command", ["simulate", "sweep", "picard"])
    def test_epsilon_without_finite_coefficients_is_one_line(self, capsys, tmp_path,
                                                             command):
        # 1e-110**3 underflows to 0, so 1/eps^3 has no value
        eps = (["--epsilons", "1e-110,0.2,0.1"] if command == "sweep"
               else ["--epsilon", "1e-110"])
        rc = main([command, *eps, "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: epsilon 1e-110 is too small: 1/epsilon^3 is not a finite number\n")
        assert os.listdir(tmp_path) == []


def _bad_model_keys():
    """(argv, the library's message) with one bad model key each."""
    outside = "epsilon must lie in (0, 1), got 1.5"
    law = "the modified system is defined with law P0 only, got P1"
    underflow = "amplitude must be positive, got 0.0"  # 0.2**1000 is 0.0
    eps = {"simulate": ["--epsilon"], "sweep": ["--epsilons"], "picard": ["--epsilon"],
           "continue": ["--rho", "0.5", "--epsilon"]}
    for command, flags in eps.items():
        value = "1.5,0.1,0.05" if command == "sweep" else "1.5"
        yield pytest.param([command, *flags, value], outside, id=f"{command}-epsilon")
    # 1e308**2 is past the float range, so epsilon is checked before the amplitude
    yield pytest.param(["simulate", "--epsilon", "1e308", "--alpha", "2"],
                       "epsilon must lie in (0, 1), got 1e+308", id="simulate-epsilon-power")
    for command in ("simulate", "sweep", "picard"):
        value = "0.2,0.1,0.05" if command == "sweep" else "0.2"
        yield pytest.param([command, *eps[command], value, "--system", "modified",
                            "--pressure", "p1"], law, id=f"{command}-modified-p1")
    # 1e-110**3 underflows to 0: the SystemSpec of each command rejects it
    for command in ("simulate", "sweep", "picard"):
        value = "1e-110,0.2,0.1" if command == "sweep" else "1e-110"
        yield pytest.param([command, *eps[command], value],
                           "epsilon 1e-110 is too small: 1/epsilon^3 is not a finite number",
                           id=f"{command}-epsilon-cube")
    for command in ("simulate", "picard"):
        yield pytest.param([command, "--epsilon", "0.2", "--alpha", "1000"], underflow,
                           id=f"{command}-alpha")
    yield pytest.param(["verify", "--fields", "0"], "fields must be at least 1, got 0",
                       id="verify-fields")
    yield pytest.param(["verify", "--n-modes", "4"], "n_modes must be at least 8, got 4",
                       id="verify-n-modes")


class TestBadModelKeyStartsNoWork:
    """The CLI spells no rule that a library record checks: each command
    builds the records first, so one bad model key prints the library's
    words on one line, writes no file and starts no work.  The work is
    make_datum (simulate, sweep and picard) and verify_legs' first suite,
    lemma_m_suite: verify_legs checks its own counts before it."""

    @pytest.mark.parametrize("argv, message", _bad_model_keys())
    def test_rejected_before_any_work(self, capsys, tmp_path, monkeypatch, argv, message):
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("WAVEREG_OUTPUT_DIR", raising=False)
        spies = []
        for module, name in ((cli, "make_datum"), (experiments, "make_datum"),
                             (experiments, "lemma_m_suite")):
            spies.append(mock.Mock(side_effect=AssertionError(f"{name} ran")))
            monkeypatch.setattr(module, name, spies[-1])
        assert main(argv) == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert os.listdir(tmp_path) == []
        assert not any(spy.called for spy in spies)


@pytest.fixture
def script():
    """scripts/cli_outputs.py as a module."""
    import importlib.util

    path = REPO_ROOT / "scripts" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCliOutputsScript:
    """scripts/cli_outputs.py, the byte-level record of the CLI's outputs."""

    def test_writes_streams_and_stripped_manifests(self, script, tmp_path):
        code = script.run_case("continue", script.CASES["continue"], str(tmp_path))
        assert code == 0
        case = tmp_path / "continue"
        assert (case / "exit").read_text() == "0\n"
        assert (case / "stderr").read_text() == ""
        assert (case / "stdout").read_text().endswith(
            "wrote <output-dir>/continue.json\n")
        manifest = json.loads((case / "files" / "continue.json").read_text())
        assert "wall_time_seconds" not in manifest
        assert "output_dir" not in manifest["config"]
        assert manifest["j_formula"] == 13887

    def test_error_case_and_existing_directory(self, script, tmp_path, capsys):
        code = script.run_case(
            "error-modified-p1", script.CASES["error-modified-p1"], str(tmp_path))
        assert code == 1
        assert (tmp_path / "error-modified-p1" / "stderr").read_text() == (
            "error: the modified system is defined with law P0 only, got P1\n")
        assert script.main([str(tmp_path)]) == 1
        assert "exists" in capsys.readouterr().err

    def test_cases_hold_every_benchmark_workload(self, script):
        """Each workload of perfbench/workloads.py, at the datum seed of the
        benchmark's first seed, is one of the recorded cases, so the digests
        cover the runs the benchmark times."""
        import importlib.util

        path = REPO_ROOT / "perfbench" / "workloads.py"
        spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        module = importlib.util.module_from_spec(spec)
        # @dataclass looks its module up in sys.modules
        sys.modules[spec.name] = module
        try:
            spec.loader.exec_module(module)
        finally:
            del sys.modules[spec.name]
        argvs = list(script.CASES.values())
        seed = module.datum_seed(1)
        missing = [name for name, workload in module.WORKLOADS.items()
                   if workload.argv(seed) not in argvs]
        assert missing == []

    def test_outputs_match_the_committed_digests(self, script, tmp_path):
        """Record every case and compare each file's sha256 with
        scripts/cli_outputs.sha256; a mismatch names each file whose digest
        differs or that is on one side only.

        The committed digests were recorded with Python 3.11.7 and numpy 2.4
        on x86-64 Linux.  Another numpy build may round an FFT or a reduction
        differently, and another Python may wrap argparse's help text
        differently, so elsewhere this test can fail with no fault in
        wavereg.  A change that means to move printed bytes regenerates the
        digests (`python3 scripts/cli_outputs.py --digest OUT_DIR`) and says
        which numbers moved."""
        for name, argv in script.CASES.items():
            script.run_case(name, argv, str(tmp_path))

        def digests(lines):
            return dict(reversed(line.split("  ", 1)) for line in lines)

        got = digests(script.digest_lines(str(tmp_path)))
        want = digests((REPO_ROOT / "scripts" / "cli_outputs.sha256").read_text().splitlines())
        differ = sorted(path for path in want.keys() | got.keys()
                        if want.get(path) != got.get(path))
        assert not differ, f"files that differ from scripts/cli_outputs.sha256: {differ}"


    def test_help_cases_are_wrapped_at_80_columns(self, script, tmp_path, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")
        assert script.run_case("help-sweep", script.CASES["help-sweep"], str(tmp_path)) == 0
        text = (tmp_path / "help-sweep" / "stdout").read_text()
        assert text.startswith("usage: wavereg sweep [-h]")
        assert max(map(len, text.splitlines())) <= 80
        assert os.environ["COLUMNS"] == "200"

    def test_compare_outputs_reports_numbers_and_refuses_text(self, tmp_path, capsys):
        import importlib.util

        path = REPO_ROOT / "scripts" / "compare_outputs.py"
        spec = importlib.util.spec_from_file_location("compare_outputs", path)
        compare = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare)
        old, new = tmp_path / "old", tmp_path / "new"
        for root, value in ((old, "2.5e-3"), (new, "2.4e-3")):
            (root / "case" / "files").mkdir(parents=True)
            (root / "case" / "exit").write_text("0\n")
            (root / "case" / "files" / "run.csv").write_text(
                f"t,mean\n0.0,1e-23\n0.1,{value}\n")
        (new / "case" / "files" / "run.csv").write_text("t,mean\n0.0,0\n0.1,2.4e-3\n")
        assert compare.main([str(old), str(new)]) == 0
        out = capsys.readouterr().out
        assert "largest absolute difference 1.000e-04 at line 3: 2.5e-3 -> 2.4e-3" in out
        assert "largest relative difference 1.000e+00 at line 2: 1e-23 -> 0" in out
        # an exit code is compared whole, not as a number
        (new / "case" / "exit").write_text("1\n")
        assert compare.main([str(old), str(new)]) == 1
        assert "case/exit: differs" in capsys.readouterr().out
        # so is a file on one side only, and any text between the numbers
        (new / "case" / "exit").write_text("0\n")
        (new / "case" / "stderr").write_text("")
        assert compare.main([str(old), str(new)]) == 1
        assert "case/stderr: only in NEW" in capsys.readouterr().out
        (new / "case" / "stderr").unlink()
        (new / "case" / "files" / "run.csv").write_text("t,status\n0.0,0\n0.1,2.4e-3\n")
        assert compare.main([str(old), str(new)]) == 1
        assert "text differs at line 1" in capsys.readouterr().out

    def test_compare_outputs_floor_skips_relative_moves_below_it(self, tmp_path, capsys):
        import importlib.util

        path = REPO_ROOT / "scripts" / "compare_outputs.py"
        spec = importlib.util.spec_from_file_location("compare_outputs", path)
        compare = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(compare)
        old, new = tmp_path / "old", tmp_path / "new"
        for root, residual, value in ((old, "1e-18", "2.5e-3"), (new, "3e-18", "2.4e-3")):
            (root / "case").mkdir(parents=True)
            (root / "case" / "run.csv").write_text(f"residual,x\n{residual},{value}\n")
            (root / "case" / "floor.csv").write_text(f"residual\n{residual}\n")
        assert compare.main([str(old), str(new)]) == 0
        plain = capsys.readouterr().out
        assert "largest relative difference 6.667e-01 at line 2: 1e-18 -> 3e-18" in plain
        assert compare.main(["--floor", "1e-15", str(old), str(new)]) == 0
        floored = capsys.readouterr().out
        # the move of 2.5e-3 shows; the absolute differences keep every pair
        assert "largest relative difference 4.000e-02 at line 2: 2.5e-3 -> 2.4e-3" in floored
        assert "case/floor.csv: numbers differ\n  largest absolute difference 2.000e-18" in floored
        assert "  no relative difference above the floor\n" in floored
        assert "overall largest relative difference 4.000e-02 in case/run.csv" in floored
        # a floor of 0 is the plain comparison, byte for byte
        assert compare.main(["--floor", "0", str(old), str(new)]) == 0
        assert capsys.readouterr().out == plain
        for bad in (["--floor"], ["--floor", "x", str(old), str(new)],
                    ["--floor", "-1", str(old), str(new)], ["--floor", "nan", str(old), str(new)]):
            assert compare.main(bad) == 2
            assert capsys.readouterr().err.startswith("usage:")


class TestPicardInputRules:
    @pytest.mark.parametrize("flag,value,message", [
        ("--n-nodes", "1", "n_nodes must be at least 3, got 1"),
        ("--n-nodes", "0", "n_nodes must be at least 3, got 0"),
        ("--max-iter", "0", "max_iter must be at least 1, got 0"),
        ("--max-iter", "-2", "max_iter must be at least 1, got -2"),
    ])
    def test_rejected_with_one_line_and_no_manifest(self, capsys, tmp_path,
                                                    flag, value, message):
        rc = main(["picard", "--epsilon", "0.2", flag, value,
                   "--output-dir", str(tmp_path)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "picard.json").exists()


class TestTheoremScalingOffSwitch:
    def test_flag_overrides_a_true_config_file(self, tmp_path):
        conf = tmp_path / "t.conf"
        conf.write_text("theorem_scaling = true\n")
        rc = run_simulate(tmp_path, "--config", str(conf),
                          "--no-theorem-scaling", "--alpha", "0")
        assert rc == 0
        manifest = json.loads((tmp_path / "simulate.json").read_text())
        assert manifest["config"]["theorem_scaling"] is False
        assert manifest["amplitude"] == 1.0

    def test_config_file_alone_still_pins(self, capsys, tmp_path):
        conf = tmp_path / "t.conf"
        conf.write_text("theorem_scaling = true\n")
        assert run_simulate(tmp_path, "--config", str(conf), "--alpha", "0") == 1
        assert "pins alpha = 0.5" in capsys.readouterr().err


class TestNonFiniteNumbers:
    """Every float flag, list entry and config value goes through one
    converter, which rejects NaN and the infinities before any command runs."""

    @pytest.mark.parametrize("argv,token", [
        pytest.param(["simulate", "--epsilon", "0.1", "--dt", "nan"], "nan",
                     id="simulate-dt"),
        pytest.param(["simulate", "--epsilon", "0.1", "--t-end", "inf", "--dt", "0.1"],
                     "inf", id="simulate-t-end"),
        pytest.param(["simulate", "--epsilon", "0.1", "--rho-max", "nan"], "nan",
                     id="simulate-rho-max"),
        pytest.param(["simulate", "--epsilon", "0.1", "--alpha", "nan"], "nan",
                     id="simulate-alpha"),
        pytest.param(["sweep", "--epsilons", "0.2,0.1,0.05", "--dt", "nan"], "nan",
                     id="sweep-dt"),
        pytest.param(["sweep", "--epsilons", "0.2,nan,0.05"], "nan",
                     id="sweep-epsilons-entry"),
        pytest.param(["growth", "--epsilon", "nan"], "nan", id="growth-epsilon"),
        pytest.param(["picard", "--epsilon", "0.2", "--t-horizon", "nan"], "nan",
                     id="picard-t-horizon"),
        pytest.param(["continue", "--epsilon", "0.01", "--rho", "inf"], "inf",
                     id="continue-rho"),
        pytest.param(["continue", "--epsilon", "0.01", "--rho=-inf"], "-inf",
                     id="continue-rho-negative"),
    ])
    def test_flag_rejected_with_one_line_and_no_output(self, capsys, tmp_path,
                                                       argv, token):
        out = tmp_path / "out"
        assert main(argv + ["--output-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: expected a finite number, got {token!r}\n")
        assert not out.exists() or not any(out.iterdir())

    def test_config_file_value_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("dt = nan\n")
        out = tmp_path / "out"
        rc = main(["simulate", "--epsilon", "0.1", "--config", str(conf),
                   "--output-dir", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: expected a finite number, got 'nan'\n"
        assert not out.exists() or not any(out.iterdir())


class TestNonFiniteOutputs:
    """Inputs that pass every rule but whose run yields inf or nan: the
    table and the manifest are checked before either file is written, and
    a non-finite number is one error line naming the command and where it
    sits, with no file left behind."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("argv,where", [
        pytest.param(["picard", "--epsilon", "0.2", "--t-horizon", "1e10"],
                     "picard: the manifest", id="picard-horizon"),
        pytest.param(["simulate", "--system", "modified", "--epsilon", "0.1",
                      "--lambda", "1e155"],
                     "simulate: column norm_u1_H1", id="simulate-lambda"),
        pytest.param(["sweep", "--system", "modified", "--lambda", "1e300",
                      "--epsilons", "0.2,0.1,0.05", "--n-modes", "16", "--t-end", "0.05"],
                     "sweep: column final_norm1", id="sweep-lambda"),
        pytest.param(["simulate", "--epsilon", "1e-40", "--t-end", "0.002"],
                     "simulate: column energy", id="simulate-epsilon"),
    ])
    def test_run_with_a_non_finite_result_writes_nothing(self, capsys, tmp_path,
                                                         argv, where):
        assert main(argv + ["--output-dir", str(tmp_path)]) == 1
        last = capsys.readouterr().err.splitlines()[-1]
        assert last.startswith(f"error: {where} holds ")
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("row,column,token", [
        ((float("nan"), 1.0, "completed"), "a", "nan"),
        ((0.0, -float("inf"), "completed"), "b", "-inf"),
        ((0.0, 1.0, float("inf")), "c", "inf"),
    ])
    def test_table_check_names_the_column(self, row, column, token):
        header = ("a", "b", "c")
        text = cli._csv_text(header, [(0.5, 2.0, "infinite"), row])
        with pytest.raises(cli.CliError) as raised:
            cli._require_finite_cells("cmd", header, text)
        assert str(raised.value) == (
            f"cmd: column {column} holds the non-finite value {token}; no file written")

    def test_table_check_reads_cells_only(self):
        # strings that spell a non-finite token in part, and comment lines
        header = ("inform", "status")
        text = cli._csv_text(header, [(1.0, "infinite"), (2.0, "nano")],
                             {"slope": float("nan"), "note": "a,nan,b"})
        cli._require_finite_cells("cmd", header, text)


# cells of every kind a table holds: floats at the edges of float64 and
# their numpy twins, integers, bools, None, and strings that spell a
# non-finite token in part or whole (no comma, newline or leading "#")
_EDGE_FLOATS = (0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.7976931348623157e308)
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats()
_WORDS = st.sampled_from(["infinite", "nano", "x-inf", "inf", "-nan", "completed", ""])
_CELLS = st.one_of(
    _FLOATS, _FLOATS.map(np.float64), st.integers(), st.integers(-2**63, 2**63 - 1).map(np.int64),
    st.booleans(), st.none(), _WORDS,
    st.text("abfinx-.# 0123456789", max_size=6).filter(lambda t: not t.startswith("#")),
)
_NAMES = st.sampled_from(["t", "energy", "inform", "nano", "status"])


@st.composite
def _tables(draw):
    """(header, rows, meta): rows are tuples or lists of one width, and meta
    values, which are comment lines and not cells, may be non-finite."""
    header = draw(st.lists(_NAMES, min_size=1, max_size=5))
    row = st.lists(_CELLS, min_size=len(header), max_size=len(header))
    rows = draw(st.lists(row.map(tuple) | row, max_size=6))
    meta = draw(st.none() | st.dictionaries(_NAMES, _FLOATS | st.none() | _WORDS, max_size=3))
    return header, rows, meta


class TestTableStage:
    """The rendered table and its non-finite check, held against the per-cell
    format and against the cell pattern run over every table."""

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(_tables())
    def test_render_and_check_match_their_oracles(self, table):
        header, rows, meta = table
        text = cli._csv_text(header, rows, meta)
        assert text == "\n".join(
            [",".join(header)]
            + [",".join(cli._fmt(cell) for cell in row) for row in rows]
            + [f"# {key} = {'none' if value is None else cli._fmt(value)}"
               for key, value in (meta or {}).items()]
        ) + "\n"
        end = text.find("\n#")
        cell = cli._NON_FINITE_CELL.search(text, 0, len(text) if end < 0 else end)
        if cell is None:
            cli._require_finite_cells("cmd", header, text)
            return
        column = header[text.count(",", text.rfind("\n", 0, cell.start()) + 1, cell.start())]
        with pytest.raises(cli.CliError) as raised:
            cli._require_finite_cells("cmd", header, text)
        assert str(raised.value) == (
            f"cmd: column {column} holds the non-finite value {cell.group()}; no file written")

    def test_clean_tables_skip_the_cell_pattern(self, script, tmp_path, monkeypatch):
        # simulate-k32's table and a table whose comment lines hold nan pass
        # without the pattern's scan
        class Unused:
            def search(self, *args):
                raise AssertionError("the cell pattern ran on a clean table")

        monkeypatch.setattr(cli, "_NON_FINITE_CELL", Unused())
        assert main(script.CASES["simulate-k32"] + ["--output-dir", str(tmp_path)]) == 0
        assert (tmp_path / "simulate.csv").exists()
        header = ("epsilon", "time", "status")
        text = cli._csv_text(header, [(0.2, None, "completed"), (0.1, 1.5, "blowup")],
                             {"slope": math.nan, "message": "too few crossings: nan"})
        assert "nan" in text
        cli._require_finite_cells("sweep", header, text)


def modules_loaded_by_importing_the_cli():
    """The names in sys.modules of a fresh interpreter after `import wavereg.cli`."""
    code = "import json, sys, wavereg.cli; print(json.dumps(sorted(sys.modules)))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(REPO_ROOT / "src"), os.environ.get("PYTHONPATH", "")])}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_importing_the_cli_loads_no_scipy():
    """scipy serves the tests only; the program must not pay for its import."""
    loaded = modules_loaded_by_importing_the_cli()
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_importing_the_cli_loads_no_process_pool():
    """The sweep's process pool is imported only when --jobs > 1 starts one."""
    loaded = modules_loaded_by_importing_the_cli()
    assert "wavereg.experiments" in loaded
    assert [m for m in loaded if m.split(".")[0] == "multiprocessing"] == []
    assert "concurrent.futures.process" not in loaded


def test_only_the_manifest_writer_reads_the_clock():
    """Each handler hands its perf_counter() start to _write_outputs, which
    takes the manifest's wall time: nothing else in cli.py subtracts a
    perf_counter() reading."""
    tree = ast.parse((REPO_ROOT / "src" / "wavereg" / "cli.py").read_text())

    def clock_differences(root):
        return [node for node in ast.walk(root)
                if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Sub)
                and any(isinstance(side, ast.Call)
                        and getattr(side.func, "attr", getattr(side.func, "id", None))
                        == "perf_counter" for side in (node.left, node.right))]

    (writer,) = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name == "_write_outputs"]
    assert len(clock_differences(writer)) == 1
    assert clock_differences(tree) == clock_differences(writer)


def test_cli_imports_no_private_name():
    """The CLI is an adapter over the library's public calls: no
    `from .<module> import` in cli.py brings in a name starting with '_'."""
    tree = ast.parse((REPO_ROOT / "src" / "wavereg" / "cli.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module]
    assert {node.module for node in imports} >= {"experiments", "integrate"}
    private = [f"{node.module}.{alias.name}" for node in imports
               for alias in node.names if alias.name.startswith("_")]
    assert private == []
