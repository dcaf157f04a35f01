"""The benchmark's workloads: inputs made from the seed, one pass, output checks.

Each workload drives marswpt the way a user does and counts one op per
``estimate_harvest`` (``presets``, ``link_1e6``) or per ``fit_model``
(``fit``). A pass is the unit the runner times:

- ``presets``: the eight built-in tables, each through
  ``cli.main(["sweep", "--preset", ...])``;
- ``link_1e6``: one ``cli.main(["link", ..., "--json"])`` call, which
  estimates harvesters A, B and C at 1e6 trials each;
- ``fit``: one round of ``fit_model`` on fresh noisy samples of A, B and C,
  each followed by a ``write_model_file``/``read_model_file`` round trip.

``check`` returns (ops attempted, ops failed) for a pass. An op fails if it
raised, or if its output breaks an invariant, differs from the same op's
output in the run's first pass, or differs from ``golden.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import sys
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np

from marswpt import cli, harvester, link, sweep
from tracer import Span, Tracer, percentile_ms, self_s, total_s

GOLDEN_PATH = Path(__file__).with_name("golden.json")
GOLDEN_SEED = 12345

TINY_PRESET_TRIALS = 200
LINK_TRIALS = 1_000_000
TINY_LINK_TRIALS = 20_000
LINK_FLAGS = (
    "--area", "area2", "--p-tx-w", "20", "--distance-m", "50",
    "--n-t-per-m3", "1e4", "--rho-p-m", "1e-4",
    "--beta-m", "0.5", "--sigma-s-m", "0.3", "--small-scale", "rayleigh",
)
HARVESTERS = ("A", "B", "C")

FIT_POINTS = 40
FIT_NOISE_PCT = 0.5
# Twice the median RMS residual of 200 healthy fits per model at this noise
# level (A 0.46, B 1.61, C 0.46 pct-pts); the worst healthy fit stays below
# 0.6, 1.8 and 0.6. A bad C fit reads about 25.
FIT_RMS_BOUND_PCT = {"A": 0.92, "B": 3.2, "C": 0.92}

BUDGET_SPANS = {"link.budget_terms", "link.median_received_dbm", "pointing.derive_model"}


def link_argv(seed: int, n_samples: int, n_workers: int, which: str = "all") -> list[str]:
    """``marswpt link`` arguments for the link_1e6 scenario."""
    return ["link", *LINK_FLAGS, "--n-samples", str(n_samples), "--seed", str(seed),
            "--n-workers", str(n_workers), "--harvester", which, "--json"]


def load_golden() -> dict:
    with open(GOLDEN_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def report_failure(what: str) -> None:
    """An op raised: keep running, and show the traceback on stderr."""
    print(f"failed op: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _link_layers(spans: list[Span]) -> dict[str, float]:
    """Per-layer seconds for one serial pass, common to the Monte Carlo workloads."""
    estimate = total_s(spans, {"link.estimate_harvest"})
    samples = total_s(spans, {"link.harvest_samples"})
    ops = [s.seconds for s in spans if s.name == "link.estimate_harvest"]
    return {
        "cli.self_s": self_s(spans, "cli.main"),
        "link.estimate_s": estimate,
        "link.samples_s": samples,
        "link.reduce_s": estimate - samples,
        "link.channel_s": self_s(spans, "link.harvest_samples"),
        "link.ndtri_s": total_s(spans, {"link.ndtri"}),
        "link.budget_s": total_s(spans, BUDGET_SPANS),
        "harvester.eval_s": total_s(spans, {"harvester.raw_efficiency_percent"}),
        "harvester.range_s": total_s(spans, {"harvester.is_extrapolated"}),
        "link.estimate_ms_p50": percentile_ms(ops, 50),
        "link.estimate_ms_p99": percentile_ms(ops, 99),
    }


def _rebind_link_internals(tracer: Tracer) -> None:
    """Spans for the calls an estimate makes below ``estimate_harvest``."""
    tracer.rebind(link, "harvest_samples", "link.harvest_samples")
    tracer.rebind(link, "budget_terms", "link.budget_terms")
    tracer.rebind(link, "derive_model", "pointing.derive_model")
    tracer.rebind(link, "ndtri", "link.ndtri")
    tracer.rebind(link, "raw_efficiency_percent", "harvester.raw_efficiency_percent")
    tracer.rebind(link, "is_extrapolated", "harvester.is_extrapolated")


class Presets:
    """All eight preset tables through the CLI sweep path."""

    name = "presets"
    has_nproc = True

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.tiny = tiny
        self.workdir = workdir
        self.specs = sweep.builtin_presets()
        self.tables = sorted(self.specs)
        self.n_samples = TINY_PRESET_TRIALS if tiny else self.specs[self.tables[0]].mc.n_samples
        self.layout = {name: self._layout(self.specs[name]) for name in self.tables}
        longest = max(len(rows) for rows in self.layout.values())
        self.row_seeds = [link.derive_substream_seed(seed, i) for i in range(longest)]
        self.rows_per_pass = sum(len(rows) for rows in self.layout.values())
        self.trials_per_pass = self.rows_per_pass * self.n_samples
        self.golden = load_golden()["presets_sha256"] if seed == GOLDEN_SEED and not tiny else None
        self.reference: dict[str, list[str]] = {}
        self.reference_bad: dict[str, set[int]] = {}

    @staticmethod
    def _layout(spec) -> list[tuple[float, str]]:
        """(axis value, harvester) of every row, in the order the sweep emits them."""
        n_secondary = len(spec.secondary_values) if spec.secondary else 1
        return [
            (point, name)
            for point in spec.points
            for _ in range(n_secondary)
            for name in spec.harvesters
        ]

    def computed_sizes(self) -> dict[str, str]:
        return {
            "uniform_block_per_op": f"{self.n_samples * 3 * 8 / 1e3:g} KB ({self.n_samples} x 3 float64)",
            "temporary_per_op": f"{self.n_samples * 8 / 1e3:g} KB ({self.n_samples} float64)",
        }

    def warm_up(self) -> None:
        spec = self.specs[self.tables[0]]
        mc = replace(spec.mc, n_samples=self.n_samples, seed=self.row_seeds[0])
        link.estimate_harvest(spec.base, harvester.harvester_preset(spec.harvesters[0]), mc)

    def tracer(self, full: bool) -> Tracer:
        tracer = Tracer()
        tracer.rebind(sweep, "estimate_harvest", "link.estimate_harvest", op=True)
        if full:
            tracer.rebind(cli, "run_sweep", "sweep.run_sweep")
            tracer.rebind(cli, "rows_to_csv", "cli.rows_to_csv")
            tracer.rebind(sweep, "median_received_dbm", "link.median_received_dbm")
            tracer.rebind(sweep, "derive_substream_seed", "link.derive_substream_seed")
            _rebind_link_internals(tracer)
        return tracer

    def next_batch(self, n_workers: int) -> int:
        return n_workers

    def _path(self, table: str) -> Path:
        return self.workdir / f"{table}.csv"

    def run(self, n_workers: int, tracer: Tracer) -> dict[str, int | None]:
        codes: dict[str, int | None] = {}
        for table in self.tables:
            argv = ["sweep", "--preset", table, "--seed", str(self.seed),
                    "--n-workers", str(n_workers), "-o", str(self._path(table))]
            if self.tiny:
                argv += ["--n-samples", str(self.n_samples)]
            try:
                with tracer.span("cli.main"):
                    codes[table] = cli.main(argv)
            except Exception:
                report_failure(f"sweep --preset {table}")
                codes[table] = None
        return codes

    def check(self, n_workers: int, codes: dict[str, int | None]) -> tuple[int, int]:
        attempted = failed = 0
        for table in self.tables:
            n_rows = len(self.layout[table])
            attempted += n_rows
            text = None
            if codes[table] == 0:
                text = self._path(table).read_text(encoding="utf-8")
                self._path(table).unlink()
            failed += len(self.bad_rows(table, text))
        return attempted, failed

    def bad_rows(self, table: str, text: str | None) -> set[int]:
        """Indices of rows whose output fails a check."""
        every_row = set(range(len(self.layout[table])))
        if text is None:
            return every_row
        lines = text.split("\n")
        if (lines[0] != ",".join(cli.CSV_COLUMNS) or len(lines) != len(every_row) + 2
                or lines[-1] != ""):
            return every_row
        if table not in self.reference:
            bad = {i for i in every_row if not self._row_ok(table, i, lines[i + 1])}
            if self.golden is not None:
                if hashlib.sha256(text.encode("utf-8")).hexdigest() != self.golden[table]:
                    bad = every_row
            self.reference[table] = lines
            self.reference_bad[table] = bad
        reference = self.reference[table]
        return self.reference_bad[table] | {
            i for i in every_row if lines[i + 1] != reference[i + 1]
        }

    def _row_ok(self, table: str, index: int, line: str) -> bool:
        spec = self.specs[table]
        axis_value, name = self.layout[table][index]
        cells = line.split(",")
        if len(cells) != len(cli.CSV_COLUMNS):
            return False
        row = dict(zip(cli.CSV_COLUMNS, cells))
        try:
            floats = [float(row[key]) for key in (
                "axis_value", "p_tx_w", "distance_m", "p_rx_median_dbm",
                "p_h_mean_uw", "p_h_median_uw", "p_h_p05_uw", "p_h_p95_uw")]
            n = int(row["n_samples"])
            clamped, extrapolated = int(row["clamp_count"]), int(row["extrapolated_count"])
            seed = int(row["seed"])
        except ValueError:
            return False
        mean, median, p05, p95 = floats[4:]
        return (
            row["axis"] == spec.axis and row["harvester"] == name
            and floats[0] == axis_value and n == self.n_samples
            and seed == self.row_seeds[index] and _finite(*floats)
            and 0.0 <= p05 <= median <= p95 and mean >= 0.0
            and 0 <= clamped <= n and 0 <= extrapolated <= n
        )

    def outcome_fractions(self) -> dict[str, float]:
        """Clamped and extrapolated trials per harvester over the reference pass."""
        counts = {name: [0, 0, 0] for name in HARVESTERS}
        for lines in self.reference.values():
            for line in lines[1:-1]:
                row = dict(zip(cli.CSV_COLUMNS, line.split(",")))
                total = counts[row["harvester"]]
                total[0] += int(row["clamp_count"])
                total[1] += int(row["extrapolated_count"])
                total[2] += int(row["n_samples"])
        return _fractions(counts)

    def layer_metrics(self, spans: list[Span]) -> dict[str, float]:
        out = _link_layers(spans)
        out.update({
            "sweep.self_s": self_s(spans, "sweep.run_sweep"),
            "link.seed_s": total_s(spans, {"link.derive_substream_seed"}),
            "cli.csv_s": total_s(spans, {"cli.rows_to_csv"}),
        })
        return out

    def counts(self) -> dict[str, float]:
        csv_bytes = sum(len("\n".join(lines).encode("utf-8")) for lines in self.reference.values())
        return {"link.trials": float(self.trials_per_pass), "sweep.rows": float(self.rows_per_pass),
                "cli.csv_bytes": float(csv_bytes)}

    def parallel_metrics(self, spans: list[Span], n_workers: int, main_thread: int) -> dict[str, float]:
        """Row busy time over the sweep pool's capacity, in a pass at ``n_workers``."""
        wall = total_s(spans, {"sweep.run_sweep"})
        busy = sum(
            s.seconds for s in spans
            if s.thread_id != main_thread and s.parent_id is None
            and s.name in {"link.estimate_harvest", "link.median_received_dbm"}
        )
        return {"sweep.parallel_eff": busy / (wall * n_workers)}


class Link1e6:
    """One ``marswpt link --json`` report: harvesters A, B and C at 1e6 trials each."""

    name = "link_1e6"
    has_nproc = True

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.n_samples = TINY_LINK_TRIALS if tiny else LINK_TRIALS
        self.trials_per_pass = self.n_samples * len(HARVESTERS)
        self.golden = load_golden()["link_1e6"] if seed == GOLDEN_SEED and not tiny else None
        self.reference: dict[str, dict] = {}
        self.reference_bad: set[str] = set()

    def computed_sizes(self) -> dict[str, str]:
        return {
            "uniform_block_per_op": f"{self.n_samples * 3 * 8 / 1e6:g} MB ({self.n_samples} x 3 float64)",
            "temporary_per_op": f"{self.n_samples * 8 / 1e6:g} MB ({self.n_samples} float64)",
        }

    def warm_up(self) -> None:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(link_argv(self.seed, self.n_samples, 1, HARVESTERS[0]))

    def tracer(self, full: bool) -> Tracer:
        tracer = Tracer()
        tracer.rebind(cli, "estimate_harvest", "link.estimate_harvest", op=True)
        if full:
            tracer.rebind(cli, "budget_terms", "link.budget_terms")
            tracer.rebind(cli, "median_received_dbm", "link.median_received_dbm")
            _rebind_link_internals(tracer)
        return tracer

    def next_batch(self, n_workers: int) -> int:
        return n_workers

    def run(self, n_workers: int, tracer: Tracer) -> tuple[int | None, str]:
        buffer = io.StringIO()
        try:
            with contextlib.redirect_stdout(buffer), tracer.span("cli.main"):
                code = cli.main(link_argv(self.seed, self.n_samples, n_workers))
        except Exception:
            report_failure("link --json")
            code = None
        return code, buffer.getvalue()

    def check(self, n_workers: int, result: tuple[int | None, str]) -> tuple[int, int]:
        code, text = result
        return len(HARVESTERS), len(self.bad_harvesters(code, text))

    def bad_harvesters(self, code: int | None, text: str) -> set[str]:
        """Harvesters whose estimate fails a check."""
        try:
            report = json.loads(text)["harvesters"] if code == 0 else {}
        except (ValueError, KeyError):
            report = {}
        if not self.reference:
            if sorted(report) != list(HARVESTERS):
                return set(HARVESTERS)
            self.reference = report
            self.reference_bad = {name for name in HARVESTERS if not self._entry_ok(report[name])}
            if self.golden is not None:
                self.reference_bad |= {
                    name for name in HARVESTERS
                    if report[name]["monte_carlo"] != self.golden[name]
                }
        return self.reference_bad | {
            name for name in HARVESTERS if report.get(name) != self.reference[name]
        }

    def _entry_ok(self, entry: dict) -> bool:
        try:
            mc = entry["monte_carlo"]
            n = mc["n_samples"]
            p05, p95 = mc["quantiles_uw"]["0.05"], mc["quantiles_uw"]["0.95"]
            return (
                n == self.n_samples and mc["seed"] == self.seed
                and _finite(mc["mean_uw"], mc["median_uw"], p05, p95, mc["mean_p_rx_dbm"])
                and 0.0 <= p05 <= mc["median_uw"] <= p95 and mc["mean_uw"] >= 0.0
                and 0 <= mc["clamp_count"] <= n and 0 <= mc["extrapolated_count"] <= n
            )
        except (KeyError, TypeError):
            return False

    def outcome_fractions(self) -> dict[str, float]:
        counts = {
            name: [entry["monte_carlo"]["clamp_count"], entry["monte_carlo"]["extrapolated_count"],
                   entry["monte_carlo"]["n_samples"]]
            for name, entry in self.reference.items()
        }
        return _fractions(counts)

    def layer_metrics(self, spans: list[Span]) -> dict[str, float]:
        return _link_layers(spans)

    def counts(self) -> dict[str, float]:
        return {"link.trials": float(self.trials_per_pass)}

    def parallel_metrics(self, spans: list[Span], n_workers: int, main_thread: int) -> dict[str, float]:
        return {}


def _fractions(counts: dict[str, list[int]]) -> dict[str, float]:
    out = {}
    for name, (clamped, extrapolated, trials) in counts.items():
        out[f"harvester.{name}.clamped_frac"] = clamped / trials
        out[f"harvester.{name}.extrapolated_frac"] = extrapolated / trials
    return out


class Fit:
    """``fit_model`` on noisy samples of each built-in model, then a model-file round trip."""

    name = "fit"
    has_nproc = False
    trials_per_pass = None
    fits_per_pass = len(HARVESTERS)

    def __init__(self, seed: int, tiny: bool, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.curves = {}
        for name in HARVESTERS:
            model = harvester.harvester_preset(name)
            powers = np.geomspace(*model.valid_range_mw, FIT_POINTS)
            self.curves[name] = (powers, harvester.efficiency_percent(model, powers))
        self.rounds = 0

    def computed_sizes(self) -> dict[str, str]:
        return {"samples_per_fit": f"{FIT_POINTS} points; refinement grid 2048 + {FIT_POINTS} float64"}

    def samples(self, round_index: int, name: str) -> list[harvester.EfficiencySample]:
        """Noisy samples of model ``name``, seeded by (workload seed, round, model)."""
        powers, clean = self.curves[name]
        key = np.random.SeedSequence([self.seed, round_index, HARVESTERS.index(name)])
        noise = np.random.default_rng(key).normal(0.0, FIT_NOISE_PCT, powers.size)
        noisy = np.clip(clean + noise, 0.0, 100.0)
        return [harvester.EfficiencySample(float(p), float(y)) for p, y in zip(powers, noisy)]

    def warm_up(self) -> None:
        harvester.fit_model(self.samples(0, HARVESTERS[0]), name=HARVESTERS[0])

    def tracer(self, full: bool) -> Tracer:
        tracer = Tracer()
        if full:
            tracer.rebind(harvester, "least_squares", "harvester.least_squares")
        return tracer

    def next_batch(self, n_workers: int) -> list[tuple[str, list]]:
        batch = [(name, self.samples(self.rounds, name)) for name in HARVESTERS]
        self.rounds += 1
        return batch

    def run(self, batch: list[tuple[str, list]], tracer: Tracer) -> list:
        results = []
        path = self.workdir / "fitted.model"
        for name, samples in batch:
            try:
                with tracer.span("harvester.fit_model", op=True):
                    model = harvester.fit_model(samples, name=name)
                with tracer.span("harvester.write_model_file"):
                    harvester.write_model_file(model, path)
                with tracer.span("harvester.read_model_file"):
                    results.append((model, harvester.read_model_file(path)))
            except Exception:
                report_failure(f"fit_model on harvester {name} samples")
                results.append(None)
        return results

    def check(self, batch: list[tuple[str, list]], results: list) -> tuple[int, int]:
        failed = sum(
            not self.fit_ok(name, samples, result)
            for (name, samples), result in zip(batch, results)
        )
        return len(batch), failed

    @staticmethod
    def fit_ok(name: str, samples: list, result) -> bool:
        """RMS residual on the fit's own samples within bound, and an exact file round trip."""
        if result is None:
            return False
        model, read_back = result
        powers = np.array([s.input_power_mw for s in samples])
        measured = np.array([s.efficiency_percent for s in samples])
        try:
            residual = harvester.raw_efficiency_percent(model, powers) - measured
        except harvester.EvaluationError:
            return False
        rms = float(np.sqrt(np.mean(residual**2)))
        return read_back == model and rms <= FIT_RMS_BOUND_PCT[name]

    def outcome_fractions(self) -> dict[str, float]:
        return {}

    def layer_metrics(self, spans: list[Span]) -> dict[str, float]:
        return {
            "harvester.fit_s": total_s(spans, {"harvester.fit_model"}),
            "harvester.fit_refine_s": total_s(spans, {"harvester.least_squares"}),
            "harvester.model_io_s": total_s(
                spans, {"harvester.write_model_file", "harvester.read_model_file"}),
        }

    def counts(self) -> dict[str, float]:
        """Objective evaluations of ``least_squares`` over the first round's fits."""
        nfev: list[int] = []
        tracer = Tracer()
        tracer.rebind(harvester, "least_squares", "harvester.least_squares",
                      observe=lambda result: nfev.append(result.nfev))
        with tracer:
            for name in HARVESTERS:
                with contextlib.suppress(harvester.FitError, ValueError):
                    harvester.fit_model(self.samples(0, name), name=name)
        return {"harvester.fit_nfev": float(sum(nfev))}

    def parallel_metrics(self, spans: list[Span], n_workers: int, main_thread: int) -> dict[str, float]:
        return {}


WORKLOADS = {cls.name: cls for cls in (Presets, Link1e6, Fit)}
