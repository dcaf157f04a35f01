"""Command-line behaviour: parsing, exit codes, CSV round-trips."""

import argparse
import contextlib
import csv
import importlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import marswpt
from marswpt import cli, link
from marswpt.cli import CSV_COLUMNS, main, rows_to_csv
from marswpt.harvester import HARVESTER_C, efficiency_percent, write_model_file
from marswpt.link import (
    SCENARIO_KEYS, LinkScenario, MonteCarloSettings, draw_channel, estimate_harvest, harvest_samples,
    median_received_dbm,
)
from marswpt.flatkeys import format_value, format_values, parse_values
from marswpt.harvester import harvester_preset, read_model_file
from marswpt.sweep import AXES, PRESETS, SweepSpec, builtin_presets, config_kinds, run_sweep
from marswpt.quantities import dbm_to_mw


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(cwd, *argv):
    """``python argv`` in a child that imports the same marswpt as this process, whatever the cwd or installs."""
    package_root = str(Path(marswpt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, timeout=120, cwd=cwd, env=env)


def run_module(cwd, module, *argv):
    """``python -m module argv`` in such a child."""
    return run_python(cwd, "-m", module, *argv)


def test_importing_the_cli_does_not_load_scipy_optimize(tmp_path):
    # Only ``fit`` uses scipy.optimize, so ``link`` and ``sweep`` skip its import time.
    result = run_python(tmp_path, "-c", "import sys, marswpt.cli; print('scipy.optimize' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False\n"


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


def test_link_json_order_statistics_are_numpys(capsys):
    code, out, _ = run_cli(
        capsys, "link", "--json", "--n-samples", "20001", "--seed", "7", "--quantiles", "0.01,0.5,0.99"
    )
    assert code == 0
    harvesters = json.loads(out)["harvesters"]
    assert sorted(harvesters) == ["A", "B", "C"]
    channel = draw_channel(LinkScenario(), MonteCarloSettings(n_samples=20_001, seed=7))
    for name, entry in harvesters.items():
        h = harvest_samples(harvester_preset(name), channel).p_h_uw
        mc_part = entry["monte_carlo"]
        assert mc_part["median_uw"] == np.median(h)
        assert mc_part["quantiles_uw"] == {
            key: np.quantile(h, float(key)) for key in ("0.01", "0.5", "0.99")
        }


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


def test_sweep_names_the_valid_presets(capsys):
    code, out, err = run_cli(capsys, "sweep", "--preset", "fig9a")
    assert (code, out) == (2, "")
    assert err == f"error: unknown preset 'fig9a'; valid names: {', '.join(sorted(PRESETS))}\n"


def test_link_matches_area_names_exactly(capsys):
    # As harvester names do: AREA2 is not area2.
    code, out, err = run_cli(capsys, "link", "--area", "AREA2")
    assert (code, out) == (2, "")
    assert err == "error: unknown area 'AREA2'; valid names: area1, area2\n"


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
    assert err == "error: unknown harvester 'X'; valid names: A, B, C, all, none\n"

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


BUDGET_OUTSIDE_FLOAT64 = "the link budget lies outside the float64 range"
# The default beam waist, seven wavelengths at 2.45 GHz, as a geometry error prints it.
DEFAULT_R_D = "r_d_m = 0.85654988"


def geometry_outside_float64(given: str) -> str:
    return f"pointing geometry {given} gives a fade model outside the float64 range"


@pytest.mark.parametrize("flags, message", [
    ("--beta-m 0.5 --sigma-s-m 1e200", geometry_outside_float64(f"beta_m = 0.5, sigma_s_m = 1e+200, {DEFAULT_R_D}")),
    ("--beta-m 1e-200 --r-d-m 1e200", geometry_outside_float64("beta_m = 1e-200, sigma_s_m = 0.0, r_d_m = 1e+200")),
    ("--rho-p-m 1e200 --n-t-per-m3 1", BUDGET_OUTSIDE_FLOAT64),
    ("--eps-re -2 --eps-im 1e-300 --n-t-per-m3 1", BUDGET_OUTSIDE_FLOAT64),
    ("--p-tx-w 1e308 --harvester none --json", BUDGET_OUTSIDE_FLOAT64),
    ("--frequency-hz 1e-300 --harvester none --json", BUDGET_OUTSIDE_FLOAT64),
    ("--g-t-db 1e308 --g-r-db 1e308 --harvester none --json", BUDGET_OUTSIDE_FLOAT64),
    ("--g-t-db 5000 --harvester none --json", BUDGET_OUTSIDE_FLOAT64),
    # The median is finite, but the constant every trial adds, path loss plus dust before the gain, is not.
    ("--g-t-db 1.7e308 --alpha 2.7e306 --sigma-db 0 --n-t-per-m3 4.08e304 --rho-p-m 1 --harvester none --json",
     BUDGET_OUTSIDE_FLOAT64),
    ("--beta-m 1e-200", geometry_outside_float64(f"beta_m = 1e-200, sigma_s_m = 0.0, {DEFAULT_R_D}")),
    ("--beta-m 1e-163 --r-d-m 1e-163", geometry_outside_float64("beta_m = 1e-163, sigma_s_m = 0.0, r_d_m = 1e-163")),
    ("--beta-m 1 --sigma-s-m 1e154", geometry_outside_float64(f"beta_m = 1.0, sigma_s_m = 1e+154, {DEFAULT_R_D}")),
    ("--beta-m 1 --sigma-s-m 1e155 --harvester none",
     geometry_outside_float64(f"beta_m = 1.0, sigma_s_m = 1e+155, {DEFAULT_R_D}")),
], ids=["jitter_squared", "waist_squared", "radius_cubed", "dust_pole", "tx_power",
        "frequency", "gain_sum", "median_mw", "trial_constant", "aligned_fraction", "beam_width", "shape_exponent",
        "jitter_squared_no_model"])
def test_link_budget_outside_float64_is_an_input_error(capsys, flags, message):
    # A geometry whose fade parameters leave float64 is named by its keys, whether or not a model runs.
    code, out, err = run_cli(capsys, "link", "--n-samples", "100", *flags.split())
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def test_link_lists_a_geometry_problem_with_the_other_problems(capsys):
    # The scenario checks its median budget, and with it the pointing geometry, when it is built.
    geometry = geometry_outside_float64(f"beta_m = 1.0, sigma_s_m = 1e+155, {DEFAULT_R_D}")
    seed = "seed must be a 64-bit unsigned integer, got -1"
    flags = ("--beta-m", "1", "--sigma-s-m", "1e155", "--seed", "-1")
    assert run_cli(capsys, "link", *flags) == (2, "", f"error: {geometry}; {seed}\n")


def test_link_lists_every_violation_at_once(capsys):
    code, _, err = run_cli(
        capsys, "link", "--distance-m", "-5", "--p-tx-w", "0", "--area", "areaX"
    )
    assert code == 2
    assert "distance_m" in err
    assert "p_tx_w" in err
    assert "areaX" in err


@pytest.mark.parametrize("flags, error", [
    (("--beta-m", "x", "--r-d-m", "0.8"), "beta_m: could not parse 'x' as a number"),
    (("--n-samples", "x", "--seed", "-3"), "n_samples: could not parse 'x' as an integer"),
], ids=["scenario", "monte_carlo"])
def test_link_reports_a_bad_value_once_and_nothing_it_stopped(capsys, flags, error):
    # As in sweep, a step whose key did not parse does not run, so its
    # placeholders cannot add problems that the flags do not have.
    assert run_cli(capsys, "link", *flags) == (2, "", f"error: {error}\n")
    if "--seed" in flags:
        assert run_cli(capsys, "sweep", "--preset", "fig3a", *flags) == (2, "", f"error: {error}\n")


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


def test_link_model_file_lists_missing_and_unknown_keys_with_the_bad_values(tmp_path, capsys):
    path = tmp_path / "odd.model"
    write_model_file(HARVESTER_C, path)
    lines = path.read_text(encoding="utf-8").splitlines()
    lines = ["a2 = x" if line.startswith("a2 = ") else line for line in lines if not line.startswith("b0 = ")]
    path.write_text("\n".join([*lines, "colour = red"]) + "\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "link", "--harvester", "none", "--harvester-file", str(path))
    assert (code, out) == (2, "")
    assert err == ("error: model file is missing keys: b0; model file has unknown keys: colour;"
                   " line 2: a2: could not parse 'x' as a number\n")


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


def test_link_report_is_the_same_at_any_worker_count(tmp_path, capsys, cpus):
    cpus(3)
    path = tmp_path / "d.model"
    write_model_file(replace(HARVESTER_C, name="D"), path)
    reports = set()
    for n_workers in ("1", "2", "3"):
        code, out, err = run_cli(
            capsys, "link", "--json", "--harvester-file", str(path), "--n-samples", "20001",
            "--small-scale", "rayleigh", "--n-workers", n_workers,
        )
        assert (code, err) == (0, "")
        reports.add(out)
    assert len(reports) == 1
    assert list(json.loads(reports.pop())["harvesters"]) == ["A", "B", "C", "D"]


def test_link_raises_the_first_model_error_at_any_worker_count(capsys, cpus):
    cpus(3)
    # At 1050 dB of gain every model overflows; a serial run stops at A.
    for n_workers in ("1", "3"):
        code, out, err = run_cli(
            capsys, "link", "--g-t-db", "1050", "--n-samples", "1000", "--n-workers", n_workers
        )
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.startswith("error: model 'A' overflows at received power")


def test_n_workers_runs_at_most_one_thread_per_cpu(capsys, monkeypatch, cpus):
    cpus(2)
    threads, counts = set(), set()

    def recording(thread_map):
        def wrapped(fn, items, n_workers):
            counts.add(n_workers)

            def run(item):
                threads.add(threading.get_ident())
                return fn(item)

            return thread_map(run, items, n_workers)

        return wrapped

    monkeypatch.setattr(link, "thread_map", recording(link.thread_map))
    # Four channel blocks, then for each model its four harvest blocks and its two sorted runs.
    argv = ["link", "--json", "--n-samples", str(3 * link._BLOCK_TRIALS + 1)]
    wide = run_cli(capsys, *argv, "--n-workers", "1000")
    # The CLI passes N on, and thread_map runs at most the caller and one helper.
    assert counts == {1000} and 1 <= len(threads) <= 2
    assert wide[0] == 0 and wide == run_cli(capsys, *argv, "--n-workers", "1")


# The link_1e6 benchmark scenario: every channel branch on.
EVERY_BRANCH_FLAGS = (
    "--area", "area2", "--p-tx-w", "20", "--distance-m", "50", "--n-t-per-m3", "1e4",
    "--rho-p-m", "1e-4", "--beta-m", "0.5", "--sigma-s-m", "0.3", "--small-scale", "rayleigh",
)


# A fig5a grid point whose median mW from Python's ** (libm's pow) is one ulp off numpy's AVX-512 power loop.
POW_SPLIT_FLAGS = ("--n-t-per-m3", "10000", "--rho-p-m", "0.005")


@pytest.mark.parametrize("flags", [(), EVERY_BRANCH_FLAGS, POW_SPLIT_FLAGS],
                         ids=["default", "every_branch", "pow_split"])
def test_link_median_channel_figures_are_the_engine_at_one_trial(tmp_path, capsys, monkeypatch, flags):
    # The deterministic block converts and harvests the median power with the
    # per-trial arithmetic, so it is, bit for bit, a one-trial channel at that
    # level. It does not depend on the trial count, so a short run gives the figures of a long one.
    path = tmp_path / "d.model"
    write_model_file(replace(HARVESTER_C, name="D", a2=120.0), path)
    scenarios = []
    monkeypatch.setattr(cli, "draw_channel", lambda s, *args: scenarios.append(s) or draw_channel(s, *args))
    code, out, err = run_cli(capsys, "link", *flags, "--n-samples", "3", "--harvester-file", str(path), "--json")
    assert (code, err) == (0, "")
    report = json.loads(out)
    median_mw = report["median_p_rx_mw"]
    trial_mw = dbm_to_mw(np.array([report["median_p_rx_dbm"]]))[0]
    assert median_mw.hex() == trial_mw.hex()
    channel = link.Channel(scenarios[0], 0, np.array([median_mw]), report["median_p_rx_dbm"])
    models = [harvester_preset(name) for name in "ABC"] + [read_model_file(path)]
    assert list(report["harvesters"]) == [model.name for model in models]
    for model in models:
        deterministic = report["harvesters"][model.name]["deterministic"]
        trial = harvest_samples(model, channel)
        assert deterministic["p_rx_mw"].hex() == median_mw.hex()
        assert deterministic["harvested_uw"].hex() == trial.p_h_uw[0].hex(), model.name
        assert deterministic["extrapolated"] == (trial.extrapolated_count == 1), model.name


def test_link_report_is_the_same_at_every_worker_count(capsys, cpus):
    cpus(3)
    argv = ["link", *EVERY_BRANCH_FLAGS, "--n-samples", "1000000", "--json"]
    serial = run_cli(capsys, *argv, "--n-workers", "1")
    assert serial[0] == 0
    for n_workers in ("2", "1000"):
        assert run_cli(capsys, *argv, "--n-workers", n_workers) == serial


def test_a_link_report_holds_the_channel_and_one_harvest_array(capsys, cpus):
    # The models reduce one at a time, so at 2 workers the report peaks at the
    # channel and one harvest array (16 B a trial) plus each thread's block
    # temporaries, not at two harvest arrays in flight.
    cpus(2)
    n = 1 << 20
    argv = ["link", *EVERY_BRANCH_FLAGS, "--n-samples", str(n), "--n-workers", "2", "--json"]
    tracemalloc.start()
    try:
        code = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and sorted(json.loads(capsys.readouterr().out)["harvesters"]) == ["A", "B", "C"]
    assert peak < 2.5 * 8 * n


def test_no_process_keeps_more_helpers_than_cpus_less_one(capsys):
    # Library maps of several sizes, then a CLI run, each asking for far more workers than CPUs.
    for n_items in (16, 3, 2):
        assert link.thread_map(lambda i: -i, range(n_items), 1000) == [-i for i in range(n_items)]
    assert run_cli(capsys, "link", "--json", "--n-samples", "1000", "--n-workers", "1000")[0] == 0
    helpers = [t for t in threading.enumerate() if t.name.startswith("marswpt-helper")]
    assert len(helpers) <= link._CPUS - 1


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


def test_link_config_lists_unknown_keys_with_the_bad_values(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_tx_w = abc\nbogus_key = 1\nn_samples = 0\n", encoding="utf-8")
    assert run_cli(capsys, "link", "--config", str(cfg)) == (2, "", (
        "error: unknown config key 'bogus_key'; line 1: p_tx_w: could not parse 'abc' as a number;"
        " n_samples must be at least 1, got 0\n"
    ))


def test_config_parse_errors_carry_line_numbers(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("p_tx_w = 20\njust words\np_tx_w = 30\n", encoding="utf-8")
    code, _, err = run_cli(capsys, "link", "--config", str(cfg))
    assert code == 2
    assert "line 2" in err
    assert "line 3" in err and "duplicate" in err


def test_a_bad_config_value_names_its_line_and_a_flag_value_does_not(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# run\np_tx_w = 20\nn_samples = many\n", encoding="utf-8")
    code, out, err = run_cli(capsys, "link", "--config", str(cfg), "--p-tx-w", "abc")
    assert (code, out) == (2, "")
    assert err == (
        "error: p_tx_w: could not parse 'abc' as a number; "
        "line 3: n_samples: could not parse 'many' as an integer\n"
    )


def test_config_files_ignore_a_byte_order_mark(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfp_tx_w = 30\n")
    code, out, _ = run_cli(capsys, "link", "--config", str(cfg), "--harvester", "none", "--json")
    assert code == 0
    assert json.loads(out)["median_p_rx_dbm"] == median_received_dbm(LinkScenario(p_tx_w=30.0))


def test_link_text_report_labels_each_quantile_apart(capsys):
    code, out, _ = run_cli(
        capsys, "link", "--harvester", "C", "--n-samples", "300",
        "--quantiles", "0.001,0.004,0.05,0.999,0.995,1e-320",
    )
    assert code == 0
    labels = re.findall(r"\b(p[0-9.E-]+) \S+ uW", out)
    assert labels == ["p0.1", "p0.4", "p05", "p99.9", "p99.5", "p1E-318"]


# ---------------------------------------------------------------------------
# sweep


def test_sweep_rejects_unknown_preset(capsys):
    code, _, err = run_cli(capsys, "sweep", "--preset", "fig9x")
    assert code == 2
    for name in ("fig3a", "fig3b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b"):
        assert name in err


@pytest.mark.parametrize("argv, config, noun, name, valid", [
    (["link", "--area", "area9"], None, "area", "area9", "area1, area2"),
    (["link", "--harvester", "a"], None, "harvester", "a", "A, B, C, all, none"),
    (["link", "--small-scale", "Rayleigh"], None, "small_scale", "Rayleigh", "off, rayleigh"),
    (["sweep", "--preset", "fig9"], None, "preset", "fig9", ", ".join(sorted(PRESETS))),
    (["sweep"], "axis = speed\naxis_points = 1,10\n", "axis", "speed",
     "distance, dust_density, jitter_sigma, p_tx"),
    (["sweep"], "axis = p_tx\naxis_min = 1\naxis_max = 10\naxis_count = 3\naxis_spacing = cubic\n",
     "axis_spacing", "cubic", "linear, log"),
    (["sweep"], "axis = p_tx\naxis_points = 1,10\nsecondary = gain\nsecondary_values = 1\n",
     "secondary", "gain", "area, beta_m, rho_p_m"),
], ids=["area", "harvester", "small_scale", "preset", "axis", "axis_spacing", "secondary"])
def test_every_named_choice_prints_the_lookup_line(tmp_path, capsys, argv, config, noun, name, valid):
    if config is not None:
        path = tmp_path / "sweep.cfg"
        path.write_text(config, encoding="utf-8")
        argv = [*argv, "--config", str(path)]
    assert run_cli(capsys, *argv, "--n-samples", "8") == (
        2, "", f"error: unknown {noun} {name!r}; valid names: {valid}\n"
    )


def test_sweep_lists_an_unknown_preset_with_the_other_problems(capsys):
    assert run_cli(capsys, "sweep", "--preset", "fig9", "--n-samples", "0") == (2, "", (
        "error: unknown preset 'fig9'; valid names: fig3a, fig3b, fig5a, fig5b, fig6a, fig6b, fig7a, fig7b;"
        " n_samples must be at least 1, got 0\n"
    ))


def test_sweep_preset_writes_deterministic_csv(tmp_path, capsys, cpus):
    cpus(3)
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
    # A NaN point is listed as out of order with the other problems.
    for points in ("3,2", "1,nan,3"):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(
            f"axis = speed\nharvesters = A,Z\naxis_points = {points}\nn_samples = 0\n",
            encoding="utf-8",
        )
        code, _, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert code == 2
        assert "unknown axis 'speed'; valid names: distance, dust_density, jitter_sigma, p_tx" in err
        assert "n_samples" in err
        assert "unknown harvester 'Z'" in err
        assert "strictly increasing" in err


def test_sweep_config_keeps_each_problem_whole(tmp_path, capsys):
    # A problem may hold the separator itself, as an unknown name's list of valid names does.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("axis = p_tx\naxis_points = 1,10\nharvesters = Y, Z\n", encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(cfg)) == (2, "", (
        "error: unknown harvester 'Y'; valid names: A, B, C; unknown harvester 'Z'; valid names: A, B, C\n"
    ))


@pytest.mark.parametrize("text, message", [
    ("axis = jitter_sigma\naxis_points = 0.1,1,1e155\nbeta_m = 1\nn_samples = 100\n",
     geometry_outside_float64(f"beta_m = 1.0, sigma_s_m = 1e+155, {DEFAULT_R_D}")),
    ("axis = dust_density\naxis_points = 1,1e10,1e308\nrho_p_m = 5e-3\nn_samples = 100\n",
     BUDGET_OUTSIDE_FLOAT64),
    # The largest point's trial constant leaves float64, though its median does not;
    # an unknown harvester is listed with it.
    ("axis = dust_density\naxis_points = 3e304,4.08e304\nn_t_per_m3 = 3e304\nrho_p_m = 1\ng_t_db = 1.7e308\n"
     "alpha = 2.7e306\nsigma_db = 0\nharvesters = Z\nn_samples = 100\n",
     f"unknown harvester 'Z'; valid names: A, B, C; {BUDGET_OUTSIDE_FLOAT64}"),
], ids=["pointing_geometry", "median_budget", "trial_constant"])
def test_sweep_config_checks_every_grid_point_before_the_first_row(tmp_path, capsys, monkeypatch, text, message):
    estimates = []

    def counting_estimate(*args, **kwargs):
        estimates.append(args)
        return estimate_harvest(*args, **kwargs)

    monkeypatch.setattr("marswpt.sweep.estimate_harvest", counting_estimate)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(cfg)) == (2, "", f"error: {message}\n")
    assert estimates == []


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


@pytest.mark.parametrize("terrain_key", ["alpha = 2.0", "sigma_db = 3"])
def test_sweep_config_rejects_a_custom_terrain_with_an_area_secondary(tmp_path, capsys, terrain_key):
    # Each grid point's area would replace the custom terrain without a word.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "axis = p_tx\naxis_points = 1,10\nharvesters = C\nn_samples = 100\n"
        f"secondary = area\nsecondary_values = area1, area2\n{terrain_key}\n",
        encoding="utf-8",
    )
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert err.startswith("error: secondary 'area' sets a preset terrain at every grid point")


BETA_SECONDARY = (
    "axis = jitter_sigma\naxis_points = 0.1,0.2\nharvesters = A,C\nn_samples = 100\n"
    "secondary = beta_m\nsecondary_values = 0.5, 1\nr_d_m = 0.8\n"
)


def test_sweep_config_takes_the_aperture_from_a_beta_secondary(tmp_path, capsys):
    # Every grid point sets beta_m, so r_d_m needs no beta_m key of its own.
    outputs = []
    for extra in ("", "beta_m = 7\n"):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(BETA_SECONDARY + extra, encoding="utf-8")
        code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
        assert (code, err) == (0, "")
        outputs.append(out)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + 2 * 2 * 2


def test_sweep_config_lists_a_bad_secondary_value_once(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(BETA_SECONDARY.replace("0.5, 1", "-1, 1"), encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: beta_m must be positive, got -1.0\n"


def test_sweep_config_parses_beta_secondary_values_as_numbers_and_names_their_line(tmp_path, capsys):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(BETA_SECONDARY.replace("0.5, 1", "0.5, wide"), encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err == "error: line 6: secondary_values: could not parse '0.5, wide' as comma-separated numbers\n"


@pytest.mark.parametrize("text, error", [
    ("axis = jitter_sigma\naxis_points = 0.1,0.2\nsecondary = beta_m\nsecondary_values = 0.5, wide\n"
     "r_d_m = 0.8\nn_samples = 0\n",
     "line 4: secondary_values: could not parse '0.5, wide' as comma-separated numbers; "
     "n_samples must be at least 1, got 0"),
    ("axis = distance\naxis_min = 10\naxis_max = 1e400\naxis_count = 3\n",
     "axis range and its width must be finite, got [10.0, inf]"),
    ("axis = p_tx\naxis_points = a,b\n", "line 2: axis_points: could not parse 'a,b' as comma-separated numbers"),
    ("axis = p_tx\naxis_points = 1,10\nbeta_m = wide\nr_d_m = 0.8\n",
     "line 3: beta_m: could not parse 'wide' as a number"),
    ("axis = p_tx\naxis_points = 1,10\np_tx_w = abc\nn_samples = 0\n",
     "line 3: p_tx_w: could not parse 'abc' as a number; n_samples must be at least 1, got 0"),
], ids=["bad_secondary_value", "infinite_axis_end", "bad_axis_points", "bad_aperture", "two_steps"])
def test_sweep_config_reports_a_bad_value_once_and_nothing_it_stopped(tmp_path, capsys, text, error):
    # A step whose key did not parse, or whose part failed, does not run, so
    # its placeholders cannot add problems that the config does not have.
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert run_cli(capsys, "sweep", "--config", str(cfg)) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_a_preset_and_its_keys_in_a_config_file_give_the_same_bytes(tmp_path, capsys, name):
    keys = PRESETS[name]
    cfg = tmp_path / f"{name}.cfg"
    kinds = config_kinds(cli._SWEEP_CONFIG_KEYS, keys.get("secondary"))
    cfg.write_text(format_values(keys, kinds), encoding="utf-8")
    from_file = run_cli(capsys, "sweep", "--config", str(cfg), "--n-samples", "40")
    from_preset = run_cli(capsys, "sweep", "--preset", name, "--n-samples", "40")
    assert from_file[0] == 0 and from_file[2] == ""
    assert len(from_file[1].splitlines()) == 1 + (75 if builtin_presets()[name].secondary is None else 150)
    assert from_file == from_preset


@pytest.mark.parametrize("name", ["fig3a", "fig7a"])
def test_link_reproduces_the_first_and_last_row_of_a_preset_bit_for_bit(capsys, name):
    code, table, _ = run_cli(capsys, "sweep", "--preset", name, "--n-samples", "3000")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(table)))
    for row in (rows[0], rows[-1]):
        # The row's seed is its own substream seed, so link draws the row's trials.
        flags = ["--seed", row["seed"], "--n-samples", row["n_samples"], "--area", row["area"],
                 "--harvester", row["harvester"], "--" + AXES[row["axis"]].replace("_", "-"), row["axis_value"]]
        if row["secondary"]:
            flags += ["--" + row["secondary"].replace("_", "-"), row["secondary_value"]]
        code, out, _ = run_cli(capsys, "link", "--json", *flags)
        assert code == 0
        report = json.loads(out)
        stats = report["harvesters"][row["harvester"]]["monte_carlo"]
        floats = {
            "p_rx_median_dbm": report["median_p_rx_dbm"], "p_h_mean_uw": stats["mean_uw"],
            "p_h_median_uw": stats["median_uw"], "p_h_p05_uw": stats["quantiles_uw"]["0.05"],
            "p_h_p95_uw": stats["quantiles_uw"]["0.95"],
        }
        cells = {key: format_value(value, "float") for key, value in floats.items()}
        cells |= {key: str(stats[key]) for key in ("clamp_count", "extrapolated_count")}
        assert cells == {key: row[key] for key in cells}, flags


@pytest.mark.parametrize("text, message", [
    ("axis = p_tx\naxis_min = 1\naxis_max = 10\n", "(missing: axis_count)"),
    ("axis = distance\naxis_min = 10\naxis_max = 1e400\naxis_count = 3\n",
     "error: axis range and its width must be finite, got [10.0, inf]"),
    ("axis = p_tx\naxis_points = 1,10\nquantiles = 0.1,0.9\n", "unknown config key 'quantiles'"),
    ("axis = p_tx\naxis_points = 1,10\nn_workers = 0\n", "n_workers must be at least 1, got 0"),
    ("axis = p_tx\naxis_points = 1,2\naxis_min = 1\naxis_max = 5\naxis_count = 3\n",
     "error: axis_points cannot be given with axis_min, axis_max, axis_count: give the points or the range\n"),
], ids=["no_axis_count", "infinite_axis_end", "quantiles", "zero_workers", "points_and_range"])
def test_sweep_config_problems_exit_2(tmp_path, capsys, text, message):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(text, encoding="utf-8")
    code, out, err = run_cli(capsys, "sweep", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert message in err


finite = st.floats(allow_nan=False, allow_infinity=False)
SECONDARIES = {
    "rho_p_m": finite.map(repr),
    "beta_m": finite.map(repr),
    "area": st.sampled_from(["area1", "area2", "area7", "dust"]),
}


@st.composite
def sweep_configs(draw):
    lo, hi = sorted(draw(st.lists(finite, min_size=2, max_size=2, unique=True)))
    lines = [f"axis = {draw(st.sampled_from(sorted(AXES)))}", f"axis_points = {lo!r},{hi!r}"]
    n_secondary = 1
    secondary = draw(st.none() | st.sampled_from(sorted(SECONDARIES)))
    if secondary is not None:
        values = draw(st.lists(SECONDARIES[secondary], min_size=1, max_size=2))
        lines += [f"secondary = {secondary}", f"secondary_values = {','.join(values)}"]
        n_secondary = len(values)
    return "\n".join(lines) + "\n", 2 * n_secondary


@settings(max_examples=60, deadline=None)
@given(config=sweep_configs())
def test_sweep_config_gives_a_table_or_one_error_line(tmp_path_factory, config):
    text, n_grid_points = config
    path = tmp_path_factory.mktemp("sweep") / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["sweep", "--config", str(path), "--n-samples", "8"])
    assert caught == []
    if code == 0:
        lines = out.getvalue().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 1 + n_grid_points * 3
        assert err.getvalue() == ""
    else:
        assert code == 2
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


# Text a user may give for any key: finite numbers, often of a workable size, the float64 edges, names and lists.
ANY_VALUE = st.one_of(
    finite.map(repr), st.floats(1e-3, 1e3).map(repr), st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["inf", "-inf", "nan", "5e-324", "-5e-324", "1e308", "-1e308", "", "text", "1,2", "0.5,0.5",
                     "0.05,0.95", "1e-320,0.999", "A", "B,C", "all", "none", "area1", "area2", "rayleigh", "off",
                     "p_tx", "distance", "jitter_sigma", "rho_p_m", "beta_m", "area", "log", "linear"]),
)
LIST_VALUE = st.lists(ANY_VALUE, min_size=1, max_size=3).map(",".join)
# axis_count is a grid dimension, so its integers stay small enough to run.
AXIS_COUNT_VALUE = ANY_VALUE.filter(lambda text: not text.lstrip("-").isdigit()) | st.integers(-1, 3).map(str)


def exit_code_of(argv: list[str]) -> int:
    """main's exit code for ``argv``, or argparse's own; stderr must hold no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            # argparse exits 2 on a usage error, such as a value like -inf that reads as a flag.
            assert exc.code == 2
            code = 2
    assert "Traceback" not in err.getvalue()
    return code


@settings(max_examples=120, deadline=None)
@given(flags=st.dictionaries(st.sampled_from(sorted({*SCENARIO_KEYS, "seed", "quantiles", "harvester"})),
                             ANY_VALUE | LIST_VALUE, max_size=4),
       n_samples=st.integers(1, 50))
def test_every_link_input_exits_0_1_or_2(flags, n_samples):
    argv = ["link", "--n-samples", str(n_samples)]
    for key, value in flags.items():
        argv += [f"--{key.replace('_', '-')}", value]
    assert exit_code_of(argv) in (0, 1, 2)


@pytest.fixture(scope="module")
def config_dir(tmp_path_factory):
    """One directory for the config files of a property, which a function-scoped tmp_path cannot give."""
    return tmp_path_factory.mktemp("configs")


@st.composite
def any_sweep_config(draw):
    lines = {}
    if draw(st.booleans()):
        # A runnable core, so that the other keys often reach the sweep itself.
        lines["axis"] = draw(st.sampled_from(sorted(AXES)))
        points = draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3, unique=True))
        lines["axis_points"] = ",".join(map(repr, sorted(points)))
    keys = sorted(cli._SWEEP_CONFIG_KEYS.keys() - {"n_workers", "n_samples"})
    for key in draw(st.lists(st.sampled_from(keys), max_size=4, unique=True)):
        lines[key] = draw(AXIS_COUNT_VALUE if key == "axis_count" else ANY_VALUE | LIST_VALUE)
    lines["n_samples"] = str(draw(st.integers(1, 5)))
    return "".join(f"{key} = {value}\n" for key, value in lines.items())


@settings(max_examples=120, deadline=None)
@given(text=any_sweep_config())
def test_every_sweep_config_exits_0_1_or_2(config_dir, text):
    path = config_dir / "sweep.cfg"
    path.write_text(text, encoding="utf-8")
    assert exit_code_of(["sweep", "--config", str(path)]) in (0, 1, 2)


@pytest.mark.parametrize("name", sorted(builtin_presets()))
def test_flat_config_and_sweep_grid_points_build_the_same_scenario(name):
    spec = builtin_presets()[name]
    spec = replace(spec, mc=replace(spec.mc, n_samples=8), harvesters=("C",))
    rows = run_sweep(spec)
    assert len(rows) == len(spec.points) * max(len(spec.secondary_values), 1)
    for row in rows:
        cfg = {AXES[spec.axis]: repr(row.axis_value), "area": spec.base.terrain.name}
        if spec.secondary is not None:
            cfg[spec.secondary] = repr(row.secondary_value)
        problems = []
        values = parse_values({key: (None, text) for key, text in cfg.items()}, cli._LINK_KEYS, problems)
        scenario = cli.build_scenario(values, problems)
        assert problems == []
        assert scenario == row.scenario
        assert row.p_rx_median_dbm == median_received_dbm(scenario)


@pytest.mark.parametrize("argv, config", [
    (["link", "--n-samples", str(10**15), "--harvester", "C"], None),
    (["sweep"], f"axis = p_tx\naxis_min = 1\naxis_max = 10\naxis_count = {10**15}\n"),
], ids=["link_trials", "sweep_axis_count"])
def test_an_allocation_that_cannot_succeed_is_a_runtime_error(tmp_path, capsys, argv, config):
    # 10**15 float64 values are 8e15 bytes, past a 47-bit address space, so
    # the allocation fails at once whatever the overcommit policy.
    if config is not None:
        path = tmp_path / "huge.cfg"
        path.write_text(config, encoding="utf-8")
        argv = argv + ["--config", str(path)]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.parametrize("argv", [["link", "--harvester", "C"], ["sweep", "--preset", "fig6a"]], ids=["link", "sweep"])
@pytest.mark.parametrize("n_samples", [str(10**23), str(2**63 - 1)])
def test_a_trial_count_no_array_can_index_is_an_input_error_that_names_n_samples(capsys, argv, n_samples):
    # numpy refused both counts only when the channel was allocated, with
    # "Maximum allowed dimension exceeded" or "array is too big".
    code, out, err = run_cli(capsys, *argv, "--n-samples", n_samples)
    limit = np.iinfo(np.intp).max // 8
    assert (code, out) == (2, "")
    assert err == (f"error: n_samples must be at most {limit}, the most float64 values an array can index,"
                   f" got {n_samples}\n")


def test_one_process_parses_each_call_as_a_fresh_process_does(tmp_path, capsys):
    # The parser is built once per process, so no call may leave a value on it for the next.
    link_argv = ["link", "--json", "--n-samples", "300", "--harvester", "B"]
    calls = [
        link_argv[:1] + ["--p-tx-w", "30"] + link_argv[1:],
        link_argv,
        ["sweep", "--preset", "fig6a", "--n-samples", "40", "--seed", "9"],
    ]
    outputs = []
    for argv in calls:
        fresh = run_module(tmp_path, "marswpt.cli", *argv)
        assert fresh.returncode == 0, fresh.stderr
        assert run_cli(capsys, *argv) == (0, fresh.stdout, "")
        outputs.append(fresh.stdout)
    # The first call's --p-tx-w changes its report, so a value kept for the second would show.
    assert len(set(outputs)) == len(calls)
    assert cli.build_parser() is cli.build_parser()


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


def test_the_numeric_path_reads_no_os_entropy(monkeypatch, cpus):
    # The module docstring's promise: nothing in the numeric path reads ambient entropy.
    def randbits(*args):
        raise AssertionError("the numeric path read OS entropy")

    monkeypatch.setattr(np.random.bit_generator, "randbits", randbits)
    # Every thread builds its generator afresh, so the build is checked too.
    monkeypatch.setattr(link, "_THREAD", threading.local())
    cpus(2)
    scenario = LinkScenario(small_scale="rayleigh")
    mc = MonteCarloSettings(n_samples=2 * link._BLOCK_TRIALS + 3, seed=5)
    for n_workers in (1, 2):
        draw_channel(scenario, mc, n_workers)
    spec = SweepSpec(base=scenario, harvesters=("A", "C"), axis="distance", points=(25.0, 75.0),
                     mc=MonteCarloSettings(n_samples=150, seed=3))
    run_sweep(spec, n_workers=2)
    assert main(["link", "--n-samples", "1000", "--n-workers", "2", "--json"]) == 0


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


@pytest.mark.parametrize("name", ["two\nlines", "  padded ", "trailing\t", "carriage\rreturn"])
def test_fit_refuses_a_model_name_that_would_not_read_back(tmp_path, capsys, name):
    samples = tmp_path / "samples.csv"
    model_path = tmp_path / "named.model"
    write_samples_csv(samples)
    code, out, err = run_cli(capsys, "fit", str(samples), "--name", name, "--out", str(model_path))
    assert (code, out) == (2, "")
    assert err == f"error: name: {name!r} would not read back as written\n"
    assert not model_path.exists()
    # Without a model file the name is only printed, as before.
    code, out, err = run_cli(capsys, "fit", str(samples), "--name", name)
    assert (code, err) == (0, "")
    assert out.startswith(f"fitted model {name!r} over [")


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


@pytest.mark.parametrize("power_mw", ["1e103", "1e300"])
def test_fit_refuses_a_power_whose_cube_overflows_in_one_line(tmp_path, power_mw):
    # LAPACK writes to the process's stderr below Python's streams, so the fit runs in a child.
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples, n_points=8)
    with open(samples, "a", encoding="utf-8") as handle:
        handle.write(f"{power_mw},30\n")
    result = run_module(tmp_path, "marswpt.cli", "fit", str(samples))
    assert (result.returncode, result.stdout) == (2, "")
    assert result.stderr == (
        f"error: line 10: input power {float(power_mw):g} mW is too large to fit: P^3 times the efficiency"
        " must stay within float64, below about 5.64e+102 mW\n"
    )


@pytest.mark.parametrize("power_mw, code, error", [
    # Just below the bound the sample is read, and the fit itself finds the points too far apart.
    ("5.64e102", 1, "error: linear stage is rank-deficient (rank 1 of 6); the input powers span 106.8 decades\n"),
    ("5.65e102", 2, "error: line 10: input power 5.65e+102 mW is too large to fit: P^3 times the efficiency"
                    " must stay within float64, below about 5.64e+102 mW\n"),
])
def test_fit_reads_a_power_just_below_the_cube_bound_and_refuses_one_just_above(tmp_path, capsys, power_mw,
                                                                                 code, error):
    samples = tmp_path / "samples.csv"
    write_samples_csv(samples, n_points=8)
    with open(samples, "a", encoding="utf-8") as handle:
        handle.write(f"{power_mw},1\n")
    assert run_cli(capsys, "fit", str(samples)) == (code, "", error)


def test_fit_lists_every_problem_of_every_line(tmp_path, capsys):
    samples = tmp_path / "samples.csv"
    samples.write_text("input_power_mw,efficiency_percent\n1,x\n2,3\n-3,200\n", encoding="utf-8")
    assert run_cli(capsys, "fit", str(samples)) == (2, "", (
        "error: line 2: efficiency_percent: could not parse 'x' as a number;"
        " line 4: input_power_mw must be positive, got -3.0;"
        " line 4: efficiency_percent must lie in [0, 100], got 200.0\n"
    ))
    # A row of the wrong width, and a --name that the model file could not give back, are listed with them.
    with open(samples, "a", encoding="utf-8") as handle:
        handle.write("4,5,6\n")
    model_path = tmp_path / "out.model"
    code, out, err = run_cli(capsys, "fit", str(samples), "--name", " x", "--out", str(model_path))
    assert (code, out) == (2, "")
    assert err.startswith("error: name: ' x' would not read back as written; line 2: ")
    assert err.endswith("; line 5: expected 2 columns, got 3\n")
    assert not model_path.exists()


SAMPLE_POWERS = st.floats(1e-6, 1e6)
SAMPLE_EFFICIENCIES = st.floats(0.0, 100.0)
BAD_CELLS = st.sampled_from(["x", "", "0", "-1", "101", "1e400"])


@st.composite
def samples_files(draw):
    """Sample CSV text: random or noisy built-in efficiencies, repeated powers, and now and then a bad cell."""
    powers = draw(st.lists(SAMPLE_POWERS, min_size=4, max_size=16))
    powers += draw(st.lists(st.sampled_from(powers), max_size=8))
    curve = draw(st.sampled_from([None, "A", "B", "C"]))
    rows = []
    for power in powers:
        eff = draw(SAMPLE_EFFICIENCIES)
        if curve is not None:
            eff = float(np.clip(efficiency_percent(harvester_preset(curve), power) + eff / 100.0 - 0.5, 0.0, 100.0))
        rows.append([repr(power), repr(eff)])
    if draw(st.integers(0, 4)) == 4:
        rows[draw(st.integers(0, len(rows) - 1))][draw(st.integers(0, 1))] = draw(BAD_CELLS)
    return "\n".join(["input_power_mw,efficiency_percent", *map(",".join, rows)]) + "\n"


@settings(max_examples=30, deadline=None, derandomize=True)
@given(text=samples_files())
def test_fit_gives_a_model_or_one_error_line_for_any_samples_file(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fit") / "samples.csv"
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["fit", str(path)])
    assert caught == []
    if code == 0:
        assert out.getvalue().startswith("fitted model 'fitted' over [")
        assert err.getvalue() == ""
    else:
        assert code in (1, 2) and out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().startswith("error: ")


# Efficiency curves a fit may be given: one level, two levels, noise, and both ends of the range.
EFFICIENCY_SHAPES = {
    "constant": lambda draw, n: [draw(SAMPLE_EFFICIENCIES)] * n,
    "step": lambda draw, n: [draw(SAMPLE_EFFICIENCIES)] * (n // 2) + [draw(SAMPLE_EFFICIENCIES)] * (n - n // 2),
    "random": lambda draw, n: draw(st.lists(SAMPLE_EFFICIENCIES, min_size=n, max_size=n)),
    "zero": lambda draw, n: [0.0] * n,
    "full": lambda draw, n: [100.0] * n,
}


@st.composite
def wide_samples_files(draw):
    """Sample CSV text of 6 to 40 powers spread over decades from 1e-300 to 1e50 mW, with one efficiency shape."""
    powers = sorted(10.0**x for x in draw(st.lists(st.floats(-300.0, 50.0), min_size=6, max_size=40, unique=True)))
    efficiencies = EFFICIENCY_SHAPES[draw(st.sampled_from(sorted(EFFICIENCY_SHAPES)))](draw, len(powers))
    return "input_power_mw,efficiency_percent\n" + "".join(f"{p!r},{e!r}\n" for p, e in zip(powers, efficiencies))


@settings(max_examples=300, deadline=None)
@given(text=wide_samples_files())
# A step weight 1/|den| past float64, which fed LAPACK inf and NaN.
@example(text="input_power_mw,efficiency_percent\n3.691359624375109e-276,65.78162194849139\n"
              "2.861152445760382e-260,1.0\n1.0,44.92180103097988\n1.0,42.18759454543025\n"
              "1.1220184543019633,1.0\n2.154434690031884,82.0561337776677\n12.589254117941675,95.3481511469753\n")
# A polish whose steps overflow inside scipy's least_squares.
@example(text="input_power_mw,efficiency_percent\n1e-21,2.0\n1e-14,0.0\n" + "1.0,0.0\n" * 9
              + "10.0,1.0\n100.0,1.0\n1000.0,0.0\n")
def test_every_samples_file_exits_0_1_or_2(config_dir, text):
    path = config_dir / "samples.csv"
    path.write_text(text, encoding="utf-8")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert exit_code_of(["fit", str(path)]) in (0, 1, 2)
    assert caught == []


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

    result = run_module(tmp_path, module_name, "presets")
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
