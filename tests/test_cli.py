"""Command-line behaviour: parsing, exit codes, CSV round-trips."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import marswpt
from marswpt import cli
from marswpt.cli import CSV_COLUMNS, main, rows_to_csv
from marswpt.harvester import HARVESTER_C, efficiency_percent, write_model_file
from marswpt.link import (
    LinkScenario, MonteCarloSettings, draw_channel, estimate_harvest, median_received_dbm,
)
from marswpt.harvester import harvester_preset, read_model_file
from marswpt.sweep import SweepSpec, run_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# link


def test_link_reports_median_budget(capsys):
    code, out, _ = run_cli(capsys, "link", "--n-samples", "200", "--harvester", "C")
    assert code == 0
    assert "median received power: -10.663 dBm" in out
    assert "path_loss_db" in out
    assert "harvester C:" in out


def test_link_json_matches_api(capsys):
    code, out, _ = run_cli(
        capsys, "link", "--json", "--n-samples", "500", "--seed", "9", "--harvester", "A"
    )
    assert code == 0
    report = json.loads(out)
    assert report["median_p_rx_dbm"] == median_received_dbm(LinkScenario())
    assert set(report["harvesters"]) == {"A"}

    expected = estimate_harvest(
        LinkScenario(), harvester_preset("A"), MonteCarloSettings(n_samples=500, seed=9)
    )
    mc_part = report["harvesters"]["A"]["monte_carlo"]
    assert mc_part["mean_uw"] == expected.mean_uw
    assert mc_part["median_uw"] == expected.median_uw
    assert mc_part["clamp_count"] == expected.clamp_count
    assert mc_part["seed"] == 9

    total = sum(report["budget_terms_db"].values())
    assert total == pytest.approx(report["median_p_rx_dbm"], abs=1e-9)


def test_link_draws_one_channel_for_all_harvesters(capsys, monkeypatch):
    draws = []

    def counting_draw(*args, **kwargs):
        draws.append(args)
        return draw_channel(*args, **kwargs)

    monkeypatch.setattr(cli, "draw_channel", counting_draw)
    code, out, _ = run_cli(capsys, "link", "--json", "--n-samples", "300", "--harvester", "all")
    assert code == 0
    assert sorted(json.loads(out)["harvesters"]) == ["A", "B", "C"]
    assert len(draws) == 1


def test_link_flag_overrides(capsys):
    code, out, _ = run_cli(
        capsys, "link", "--json", "--p-tx-w", "20", "--harvester", "none", "--n-samples", "10"
    )
    assert code == 0
    report = json.loads(out)
    assert report["median_p_rx_dbm"] == pytest.approx(-7.652835339008263, abs=1e-9)
    assert report["harvesters"] == {}

    code, out, _ = run_cli(
        capsys, "link", "--json", "--area", "area2", "--harvester", "none", "--n-samples", "10"
    )
    assert code == 0
    assert json.loads(out)["median_p_rx_dbm"] == pytest.approx(-19.93944842013488, abs=1e-9)


def test_link_requested_quantiles(capsys):
    code, out, _ = run_cli(
        capsys, "link", "--json", "--quantiles", "0.1,0.9",
        "--n-samples", "400", "--harvester", "C",
    )
    assert code == 0
    quantiles = json.loads(out)["harvesters"]["C"]["monte_carlo"]["quantiles_uw"]
    assert set(quantiles) == {"0.1", "0.9"}


def test_link_rejects_bad_values(capsys):
    code, _, err = run_cli(capsys, "link", "--distance-m", "-5")
    assert code == 2
    assert "distance_m" in err

    code, _, err = run_cli(capsys, "link", "--area", "area9")
    assert code == 2
    assert "area1" in err and "area2" in err

    code, _, err = run_cli(capsys, "link", "--sigma-s-m", "0.5")
    assert code == 2
    assert "beta_m" in err

    code, _, err = run_cli(capsys, "link", "--p-tx-w", "abc")
    assert code == 2
    assert "p_tx_w: could not parse 'abc' as a number" in err

    code, _, err = run_cli(capsys, "link", "--harvester", "X")
    assert code == 2
    assert "harvester must be one of A, B, C, all, or none; got 'X'" in err

    code, _, err = run_cli(capsys, "link", "--n-workers", "0")
    assert code == 2
    assert "n_workers must be at least 1, got 0" in err

    code, _, err = run_cli(capsys, "link", "--small-scale", "rician")
    assert code == 2
    assert "small_scale" in err


NUMERIC_SCENARIO_KEYS = (
    "p_tx_w", "distance_m", "frequency_hz", "g_t_db", "g_r_db", "alpha", "sigma_db",
    "n_t_per_m3", "rho_p_m", "eps_re", "eps_im", "beta_m", "sigma_s_m", "r_d_m",
)


def _not_json(constant):
    raise ValueError(f"{constant} is not JSON")


@settings(max_examples=150, deadline=None)
@given(
    values=st.fixed_dictionaries({}, optional={
        key: st.floats(allow_nan=False, allow_infinity=False) for key in NUMERIC_SCENARIO_KEYS
    }),
    harvester=st.sampled_from(["all", "none"]),
)
def test_link_gives_a_result_or_one_error_line_for_any_finite_input(values, harvester):
    # "--key=value" keeps argparse from reading a value such as -1e-300 as a flag.
    argv = ["link", "--json", "--n-samples", "8", "--harvester", harvester]
    argv += [f"--{key.replace('_', '-')}={value!r}" for key, value in values.items()]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 0:
        json.loads(out.getvalue(), parse_constant=_not_json)
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


def test_link_rejects_non_finite_values(capsys):
    for flag, value, name in (
        ("--g-t-db", "nan", "g_t_db"), ("--p-tx-w", "inf", "p_tx_w"),
        ("--sigma-db", "nan", "sigma_db"), ("--n-t-per-m3", "nan", "n_t_per_m3"),
        ("--sigma-s-m", "nan", "sigma_s_m"),
    ):
        code, out, err = run_cli(capsys, "link", "--beta-m", "0.5", flag, value, "--json")
        assert code == 2, flag
        assert name in err and out == ""


@pytest.mark.parametrize("gain_db", ["1050", "3000"])
def test_link_reports_a_harvester_overflow_as_an_input_error(capsys, gain_db):
    # Received power near 1e104 and 1e296 mW overflows the cubic, whose ratio
    # then reads 0 % or NaN.
    code, out, err = run_cli(
        capsys, "link", "--harvester", "C", "--n-samples", "1000", "--json", "--g-t-db", gain_db
    )
    assert code == 2
    assert out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: model 'C' overflows at received power")


@pytest.mark.parametrize("flags", [
    "--beta-m 0.5 --sigma-s-m 1e200",
    "--beta-m 1e-200 --r-d-m 1e200",
    "--rho-p-m 1e200 --n-t-per-m3 1",
    "--eps-re -2 --eps-im 1e-300 --n-t-per-m3 1",
    "--p-tx-w 1e308 --harvester none --json",
    "--frequency-hz 1e-300 --harvester none --json",
    "--g-t-db 1e308 --g-r-db 1e308 --harvester none --json",
    "--g-t-db 5000 --harvester none --json",
], ids=["jitter_squared", "waist_squared", "radius_cubed", "dust_pole", "tx_power",
        "frequency", "gain_sum", "median_mw"])
def test_link_budget_outside_float64_is_an_input_error(capsys, flags):
    code, out, err = run_cli(capsys, "link", "--n-samples", "100", *flags.split())
    assert code == 2
    assert out == ""
    assert err == "error: the median link budget lies outside the float64 range\n"


def test_link_lists_every_violation_at_once(capsys):
    code, _, err = run_cli(
        capsys, "link", "--distance-m", "-5", "--p-tx-w", "0", "--area", "areaX"
    )
    assert code == 2
    assert "distance_m" in err
    assert "p_tx_w" in err
    assert "areaX" in err


def test_link_model_file_with_a_pole_below_its_range_is_rejected_on_load(tmp_path, capsys):
    # p^3 - 1e-6 is positive on the certified range [0.1, 1] mW but not below
    # 0.01 mW, where shadowing sends some trials.
    path = tmp_path / "polar.model"
    path.write_text(
        "name = polar\na2 = 0\na1 = 1\na0 = 0\nb2 = 0\nb1 = 0\nb0 = -1e-6\n"
        "valid_min_mw = 0.1\nvalid_max_mw = 1.0\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(
        capsys, "link", "--harvester", "none", "--harvester-file", str(path), "--n-samples", "2000"
    )
    assert code == 2
    assert out == ""
    assert "'polar'" in err and "denominator" in err


def test_link_model_file_with_a_non_finite_coefficient_is_rejected(tmp_path, capsys):
    path = tmp_path / "nan.model"
    write_model_file(HARVESTER_C, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = ["a2 = nan" if line.startswith("a2 = ") else line for line in lines]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "link", "--json", "--harvester", "none", "--harvester-file", str(path),
        "--n-samples", "200",
    )
    assert code == 2
    assert out == ""
    assert "a2 must be finite" in err


def test_link_model_file_with_an_infinite_range_is_rejected(tmp_path, capsys):
    path = tmp_path / "wide.model"
    write_model_file(HARVESTER_C, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = ["valid_max_mw = inf" if line.startswith("valid_max_mw") else line for line in lines]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, out, err = run_cli(
        capsys, "link", "--json", "--harvester", "none", "--harvester-file", str(path),
        "--n-samples", "200",
    )
    assert code == 2
    assert out == ""
    assert "valid_range_mw must be finite" in err


def test_link_rejects_a_model_file_named_like_a_selected_builtin(tmp_path, capsys):
    path = tmp_path / "a.model"
    write_model_file(replace(HARVESTER_C, name="A"), path)
    for choice in ("all", "A"):
        code, out, err = run_cli(
            capsys, "link", "--json", "--harvester", choice, "--harvester-file", str(path),
            "--n-samples", "200",
        )
        assert code == 2
        assert out == ""
        assert "'A'" in err
    # Beside a built-in of another name, the file's model gets its own entry.
    code, out, _ = run_cli(
        capsys, "link", "--json", "--harvester", "B", "--harvester-file", str(path),
        "--n-samples", "200",
    )
    assert code == 0
    assert set(json.loads(out)["harvesters"]) == {"A", "B"}


def test_link_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# single point\np_tx_w = 20\nn_samples = 400\nseed = 7\nharvester = C\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "link", "--config", str(cfg), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["median_p_rx_dbm"] == pytest.approx(-7.652835339008263, abs=1e-9)
    mc_part = report["harvesters"]["C"]["monte_carlo"]
    assert mc_part["n_samples"] == 400 and mc_part["seed"] == 7

    # Flags override the file.
    code, out, _ = run_cli(capsys, "link", "--config", str(cfg), "--json", "--p-tx-w", "30")
    assert code == 0
    assert json.loads(out)["median_p_rx_dbm"] == pytest.approx(
        median_received_dbm(LinkScenario(p_tx_w=30.0)), abs=1e-12
    )


def test_link_config_rejects_unknown_keys(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_tx_w = 20\nbogus_key = 1\nanother = 2\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "link", "--config", str(cfg))
    assert code == 2
    assert "bogus_key" in err and "another" in err


def test_config_parse_errors_carry_line_numbers(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_tx_w = 20\njust words\np_tx_w = 30\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "link", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err
    assert "line 3" in err and "duplicate" in err


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rejects_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig9x")
    assert code == 2
    for name in ("fig3a", "fig3b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b"):
        assert name in err


def test_sweep_preset_writes_deterministic_csv(tmp_path, capsys):
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    threaded = tmp_path / "c.csv"
    base = ["sweep", "--preset", "fig6a", "--n-samples", "300"]
    assert run_cli(capsys, *base, "-o", str(first))[0] == 0
    assert run_cli(capsys, *base, "-o", str(second))[0] == 0
    assert run_cli(capsys, *base, "--n-workers", "3", "-o", str(threaded))[0] == 0
    assert first.read_bytes() == second.read_bytes()
    assert first.read_bytes() == threaded.read_bytes()

    lines = first.read_text(encoding="utf-8").splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 25 * 3

    reseeded = tmp_path / "d.csv"
    assert run_cli(capsys, *base, "--seed", "42", "-o", str(reseeded))[0] == 0
    assert reseeded.read_bytes() != first.read_bytes()


def test_sweep_config_round_trip(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "axis = p_tx\naxis_points = 1,5,10\nharvesters = A,C\n"
        "n_samples = 250\nseed = 11\n",
        encoding="utf-8",
    )
    out_path = tmp_path / "table.csv"
    code, _, _ = run_cli(capsys, "sweep", "--config", str(cfg), "-o", str(out_path))
    assert code == 0

    with open(out_path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        assert tuple(reader.fieldnames) == CSV_COLUMNS
        records = list(reader)
    assert len(records) == 3 * 2
    assert [float(r["axis_value"]) for r in records] == [1.0, 1.0, 5.0, 5.0, 10.0, 10.0]
    assert [r["harvester"] for r in records] == ["A", "C"] * 3

    spec = SweepSpec(
        base=LinkScenario(), harvesters=("A", "C"), axis="p_tx",
        points=(1.0, 5.0, 10.0), mc=MonteCarloSettings(n_samples=250, seed=11),
    )
    rows = run_sweep(spec)
    for record, row in zip(records, rows):
        assert float(record["p_h_mean_uw"]) == row.stats.mean_uw
        assert float(record["p_h_median_uw"]) == row.stats.median_uw
        assert float(record["p_h_p05_uw"]) == row.stats.quantiles_uw[0.05]
        assert float(record["p_h_p95_uw"]) == row.stats.quantiles_uw[0.95]
        assert float(record["p_rx_median_dbm"]) == row.p_rx_median_dbm
        assert int(record["seed"]) == row.stats.seed
        assert int(record["n_samples"]) == 250
        assert record["secondary"] == "" and record["secondary_value"] == ""
        assert record["area"] == "area1"
        assert int(record["clamp_count"]) == row.stats.clamp_count
        assert int(record["extrapolated_count"]) == row.stats.extrapolated_count


def test_sweep_writes_to_stdout_without_out_flag(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "axis = distance\naxis_min = 20\naxis_max = 60\naxis_count = 3\n"
        "harvesters = C\nn_samples = 100\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + 3


def test_sweep_config_lists_every_violation(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "axis = speed\nharvesters = A,Z\naxis_points = 3,2\nn_samples = 0\n",
        encoding="utf-8",
    )
    code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert "axis must be one of" in err
    assert "n_samples" in err
    assert "unknown harvester 'Z'" in err
    assert "strictly increasing" in err


def test_sweep_config_with_an_area_secondary(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "axis = p_tx\naxis_points = 1,10\nharvesters = C\nn_samples = 100\n"
        "secondary = area\nsecondary_values = area2, area1\n",
        encoding="utf-8",
    )
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 0
    records = list(csv.DictReader(out.splitlines()))
    assert [(r["secondary"], r["secondary_value"], r["area"]) for r in records] == [
        ("area", "area2", "area2"), ("area", "area1", "area1"),
    ] * 2


@pytest.mark.parametrize("text, message", [
    ("axis = p_tx\naxis_min = 1\naxis_max = 10\n", "(missing: axis_count)"),
    ("axis = p_tx\naxis_points = 1,10\nquantiles = 0.1,0.9\n", "unknown config key 'quantiles'"),
    ("axis = p_tx\naxis_points = 1,10\nn_workers = 0\n", "n_workers must be at least 1, got 0"),
], ids=["no_axis_count", "quantiles", "zero_workers"])
def test_sweep_config_problems_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert message in err


def test_sweep_unwritable_output_is_runtime_error(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--preset", "fig6a", "--n-samples", "10",
        "-o", "/nonexistent-dir/out.csv",
    )
    assert code == 1
    assert "error" in err


def test_rows_to_csv_is_stable(tmp_path):
    spec = SweepSpec(
        base=LinkScenario(), harvesters=("C",), axis="distance",
        points=(25.0, 75.0), mc=MonteCarloSettings(n_samples=150, seed=3),
    )
    text_one = rows_to_csv(run_sweep(spec))
    text_two = rows_to_csv(run_sweep(spec, n_workers=2))
    assert text_one == text_two


# ---------------------------------------------------------------------------
# fit


def write_samples_csv(path, n_points=30):
    lo, hi = HARVESTER_C.valid_range_mw
    powers = np.geomspace(lo, hi, n_points)
    lines = ["input_power_mw,efficiency_percent"]
    lines += [
        f"{p:.17g},{efficiency_percent(HARVESTER_C, float(p)):.17g}" for p in powers
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_fit_command_round_trip(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    model_path = tmp_path / "bench.model"
    write_samples_csv(samples)
    code, out, _ = run_cli(
        capsys, "fit", str(samples), "--name", "bench", "--out", str(model_path)
    )
    assert code == 0
    assert "fitted model 'bench'" in out
    assert "residual RMS" in out

    fitted = read_model_file(model_path)
    grid = np.geomspace(*HARVESTER_C.valid_range_mw, 300)
    deviation = np.abs(
        efficiency_percent(fitted, grid) - efficiency_percent(HARVESTER_C, grid)
    ).max()
    assert deviation < 0.1


def test_fit_has_no_refinement_switch(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples)
    with pytest.raises(SystemExit) as excinfo:
        main(["fit", str(samples), "--no-refine"])
    assert excinfo.value.code == 2
    assert "unrecognized arguments: --no-refine" in capsys.readouterr().err


def test_fit_rejects_underdetermined_input(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples, n_points=4)
    code, _, err = run_cli(capsys, "fit", str(samples))
    assert code == 2
    assert "6 distinct" in err


def test_fit_reports_malformed_line(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text(
        "input_power_mw,efficiency_percent\n1.0,50\nbroken,row\n", encoding="utf-8"
    )
    code, _, err = run_cli(capsys, "fit", str(samples))
    assert code == 2
    assert "line 3" in err


def test_fit_names_the_line_of_an_infinite_power(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples)
    with open(samples, "a", encoding="utf-8") as handle:
        handle.write("inf,30\n")
    code, out, err = run_cli(capsys, "fit", str(samples))
    assert code == 2
    assert out == ""
    assert err == "error: line 32: input_power_mw must be finite, got inf\n"


def test_fit_degenerate_curve_is_runtime_error(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    powers = np.geomspace(0.1, 10.0, 10)
    lines = ["input_power_mw,efficiency_percent"]
    lines += [f"{p:.17g},55.0" for p in powers]
    samples.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "fit", str(samples))
    assert code == 1
    assert "error" in err


# ---------------------------------------------------------------------------
# presets listing and entry point


def test_presets_listing(capsys):
    code, out, _ = run_cli(capsys, "presets")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 8
    assert any(line.startswith("fig5a:") and "150 rows" in line for line in lines)
    assert any(line.startswith("fig3a:") and "75 rows" in line for line in lines)


def test_flags_and_config_keys_are_the_documented_sets():
    scenario = {
        "p_tx_w", "distance_m", "frequency_hz", "g_t_db", "g_r_db", "area",
        "alpha", "sigma_db", "n_t_per_m3", "rho_p_m", "eps_re", "eps_im",
        "beta_m", "sigma_s_m", "r_d_m", "small_scale",
    }
    mc = {"n_samples", "seed", "quantiles", "n_workers"}
    sweep = {
        "axis", "axis_min", "axis_max", "axis_count", "axis_spacing",
        "axis_points", "secondary", "secondary_values", "harvesters",
    }
    assert set(cli._LINK_KEYS) == scenario | mc | {"harvester", "harvester_file"}
    assert set(cli._SWEEP_CONFIG_KEYS) == scenario | (mc - {"quantiles"}) | sweep

    subcommands = next(
        action for action in cli.build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ).choices

    def flags(name):
        return {opt for action in subcommands[name]._actions for opt in action.option_strings}

    def dashed(keys):
        return {"--" + key.replace("_", "-") for key in keys}

    assert flags("link") == (
        {"-h", "--help", "--config", "--json", "--harvester", "--harvester-file"}
        | dashed(scenario | mc)
    )
    assert flags("sweep") == {
        "-h", "--help", "--preset", "--config", "-o", "--out",
        "--seed", "--n-samples", "--n-workers",
    }


def test_console_script_is_installed(capsys, tmp_path):
    """The ``marswpt`` script that pyproject.toml declares resolves to ``cli.main`` and works."""
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    module_name, _, attr = scripts["marswpt"].partition(":")
    entry_point = getattr(importlib.import_module(module_name), attr)
    assert entry_point is cli.main

    assert entry_point(["presets"]) == 0
    assert "fig7b" in capsys.readouterr().out

    # The child imports the same marswpt as this process, whatever the cwd or installs.
    package_root = str(Path(marswpt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", module_name, "presets"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path, env=env,
    )
    assert result.returncode == 0
    assert "fig7b" in result.stdout


@pytest.mark.skipif(shutil.which("marswpt") is None, reason="marswpt console script is not on PATH")
def test_installed_console_script_runs(tmp_path):
    result = subprocess.run(
        [shutil.which("marswpt"), "presets"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert result.returncode == 0
    assert "fig7b" in result.stdout
