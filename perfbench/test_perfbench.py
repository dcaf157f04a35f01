"""Self-tests of the benchmark. Run from the root of the repository::

    python3 -m pytest -q perfbench
"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.import_program()

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from marswpt import cli, harvester, link, sweep  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
DRIVEN = [w["name"] for w in BENCHMARK["workloads"]]

# Metrics each workload prints on ``metric`` lines, beyond its headline list.
EXTRA = {
    ("presets", 0): ("failed_frac",),
    ("link_1e6", 0): ("failed_frac",),
    ("fit", 0): ("failed_frac",),
    ("presets", 1): ("sweep.self_s", "sweep.parallel_eff", "sweep.rows", "link.seed_s",
                     "cli.csv_s", "cli.csv_bytes", "trace.trials_per_s_untraced",
                     "trace.trials_per_s_traced", "harvester.C.clamped_frac", "failed_frac"),
    ("link_1e6", 1): ("trace.trials_per_s_untraced", "trace.trials_per_s_traced",
                      "harvester.C.clamped_frac", "failed_frac"),
    ("fit", 1): ("trace.fits_per_s_untraced", "trace.fits_per_s_traced", "failed_frac"),
}


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["presets", "link_1e6", "fit"])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--tiny")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["attempted"] >= 1
    assert last["correct"] == (last["failed"] == 0)
    assert proc.returncode == (0 if last["failed"] == 0 else 1), proc.stderr
    if workload in DRIVEN:
        assert last["failed"] == 0, proc.stderr

    headline = run.HEADLINE[(workload, trace)]
    assert list(last["metrics"]) == list(headline)
    for name, metric in last["metrics"].items():
        assert metric["unit"] == run.UNITS[name]
        assert isinstance(metric["value"], (int, float))

    printed = {}
    for line in proc.stdout.splitlines():
        if line.startswith("metric "):
            _, name, _, _, unit, *_ = line.split()
            printed[name] = unit
    for name in (*headline, *EXTRA[(workload, trace)]):
        assert printed.get(name) == run.UNITS[name], name

    if trace == 1 and workload == "presets":
        assert last["metrics"]["trace.coverage"]["value"] >= 0.9


def test_benchmark_json_lists_the_headline_metrics_of_its_workloads():
    for workload in DRIVEN:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            listed = [(m["name"], m["unit"]) for m in BENCHMARK[key]]
            headline = [(name, run.UNITS[name]) for name in run.HEADLINE[(workload, trace)]]
            assert listed == headline, (workload, key)
    assert "fit" not in DRIVEN


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", "presets", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_corrupted_preset_row_counts_as_one_failed_op(tmp_path):
    wl = workloads.Presets(3, True, tmp_path)
    light = wl.tracer(full=False)
    assert run.run_pass(wl, light, 1)[2:] == (wl.rows_per_pass, 0)

    with light:
        codes = wl.run(2, light)
    path = tmp_path / "fig5b.csv"
    lines = path.read_text(encoding="utf-8").split("\n")
    cells = lines[7].split(",")
    cells[-1] = str(int(cells[-1]) + 1)
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines), encoding="utf-8")
    assert wl.check(2, codes) == (wl.rows_per_pass, 1)


def test_failing_sweep_fails_the_whole_run(monkeypatch, capsys):
    """A run whose nproc pass writes one wrong row exits 1 and reports the failed op."""
    original = cli.rows_to_csv
    calls = []

    def corrupting(rows):
        calls.append(len(rows))
        text = original(rows)
        if len(calls) == 9:
            head, first, rest = text.split("\n", 2)
            text = "\n".join([head, first.replace(",A,", ",B,", 1), rest])
        return text

    monkeypatch.setattr(cli, "rows_to_csv", corrupting)
    code = run.main(["--workload", "presets", "--seed", "4", "--seconds", "0", "--tiny"])
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert (last["correct"], last["failed"]) == (False, 1)


def test_golden_outputs_match_this_code_and_catch_a_changed_table(tmp_path):
    wl = workloads.Presets(workloads.GOLDEN_SEED, False, tmp_path)
    path = tmp_path / "fig3a.csv"
    assert cli.main(["sweep", "--preset", "fig3a", "-o", str(path)]) == 0
    text = path.read_text(encoding="utf-8")
    assert wl.bad_rows("fig3a", text) == set()

    wl = workloads.Presets(workloads.GOLDEN_SEED, False, tmp_path)
    changed = text.replace("\n", "\r\n", 1)
    assert wl.bad_rows("fig3a", changed) == set(range(len(wl.layout["fig3a"])))


def test_golden_link_estimates_match_and_a_changed_value_fails():
    wl = workloads.Link1e6(workloads.GOLDEN_SEED, False, ROOT)
    code, text = wl.run(1, tracing.Tracer())
    assert wl.bad_harvesters(code, text) == set()

    report = json.loads(text)
    report["harvesters"]["B"]["monte_carlo"]["mean_uw"] *= 1.0 + 1e-15
    assert wl.bad_harvesters(0, json.dumps(report)) == {"B"}


def test_fit_check_flags_a_poor_fit_and_a_lossy_round_trip():
    wl = workloads.Fit(5, True, ROOT)
    samples = wl.samples(0, "A")
    model = harvester.fit_model(samples, name="A")
    assert workloads.Fit.fit_ok("A", samples, (model, model))
    skewed = replace(model, a1=model.a1 * 1.5)
    assert not workloads.Fit.fit_ok("A", samples, (skewed, skewed))
    assert not workloads.Fit.fit_ok("A", samples, (model, skewed))
    assert not workloads.Fit.fit_ok("A", samples, None)


def test_tracer_restores_every_rebound_name_even_after_an_error(tmp_path):
    before = (sweep.estimate_harvest, cli.run_sweep, link.ndtri, link.harvest_samples)
    wl = workloads.Presets(3, True, tmp_path)
    full = wl.tracer(full=True)
    with pytest.raises(RuntimeError):
        with full:
            assert sweep.estimate_harvest is not before[0]
            raise RuntimeError("stop")
    assert (sweep.estimate_harvest, cli.run_sweep, link.ndtri, link.harvest_samples) == before
    assert sweep.estimate_harvest is link.estimate_harvest


class _Counter:
    @staticmethod
    def step(x):
        return x + 1


def test_tracer_keeps_every_span_from_many_threads():
    tracer = tracing.Tracer()
    tracer.rebind(_Counter, "step", "outer", op=True)
    calls = 4000
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with tracer, ThreadPoolExecutor(max_workers=6) as pool:
            assert sum(pool.map(_Counter.step, range(calls))) == calls * (calls + 1) // 2
    finally:
        sys.setswitchinterval(previous)
    spans = tracer.drain()
    assert len(spans) == calls
    assert len({s.span_id for s in spans}) == calls
    assert all(s.op_id == s.span_id and s.parent_id is None for s in spans)
    assert {s.thread_id for s in spans} != {threading.get_ident()}
    assert tracer.drain() == []


def test_self_time_subtracts_direct_children_and_totals_count_nesting_once():
    spans = [
        tracing.Span("root", 0, 100, 1, None, None, 7),
        tracing.Span("budget", 10, 40, 2, 1, None, 7),
        tracing.Span("budget", 15, 25, 3, 2, None, 7),
        tracing.Span("leaf", 50, 60, 4, 1, None, 7),
    ]
    assert tracing.self_s(spans, "root") == pytest.approx(60e-9)
    assert tracing.total_s(spans, {"budget"}) == pytest.approx(30e-9)
    assert tracing.total_s(spans, {"budget", "leaf"}) == pytest.approx(40e-9)
