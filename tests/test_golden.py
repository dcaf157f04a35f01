"""Byte guard: the preset CSVs and the 1e6-trial link report match the recorded golden values.

``perfbench/golden.json`` holds the sha256 of each of the eight preset CSVs
at seed 12345 and the Monte Carlo block of each harvester in the ``link``
report of the benchmark's 1e6-trial scenario. These tests only read it.
After a declared change to the numbers, ``perfbench/record_golden.py``
re-records it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from marswpt import cli
from marswpt.sweep import builtin_presets

GOLDEN = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "golden.json").read_text(encoding="utf-8")
)
# The benchmark's link_1e6 scenario: every channel branch on.
LINK_FLAGS = (
    "--area", "area2", "--p-tx-w", "20", "--distance-m", "50",
    "--n-t-per-m3", "1e4", "--rho-p-m", "1e-4",
    "--beta-m", "0.5", "--sigma-s-m", "0.3", "--small-scale", "rayleigh",
)


def _numpy_build() -> str:
    """A failure message naming what the golden bytes depend on: numpy's version and float64 power loop."""
    try:
        from numpy.lib.introspect import opt_func_info

        target = opt_func_info(func_name="power", signature="d")["power"]["ddd"]["current"]
    except (ImportError, KeyError):
        target = "unknown (numpy.lib.introspect.opt_func_info is missing)"
    return (f"numpy {np.__version__}, float64 power loop dispatched to {target};"
            f" the golden bytes were recorded on numpy's X86_V4 (AVX-512) loops")


def test_golden_file_covers_every_preset():
    assert GOLDEN["seed"] == 12345
    assert sorted(GOLDEN["presets_sha256"]) == sorted(builtin_presets()), _numpy_build()


@pytest.mark.parametrize("table", sorted(GOLDEN["presets_sha256"]))
def test_preset_csv_matches_golden_hash(tmp_path, table):
    path = tmp_path / f"{table}.csv"
    assert cli.main(["sweep", "--preset", table, "--seed", str(GOLDEN["seed"]), "-o", str(path)]) == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN["presets_sha256"][table], _numpy_build()


@pytest.mark.parametrize("n_workers", [1, 2])
def test_link_1e6_report_matches_golden(capsys, n_workers):
    argv = ["link", *LINK_FLAGS, "--n-samples", "1000000", "--seed", str(GOLDEN["seed"]),
            "--n-workers", str(n_workers), "--json"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)["harvesters"]
    assert {name: entry["monte_carlo"] for name, entry in report.items()} == GOLDEN["link_1e6"], _numpy_build()
