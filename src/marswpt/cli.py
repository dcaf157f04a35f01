"""Command-line interface: single-point link reports, sweep tables, model fitting.

Subcommands: ``link`` (budget breakdown plus Monte Carlo stats for one
scenario), ``sweep`` (preset or configured parameter sweep to CSV), ``fit``
(rational efficiency model from a measurement CSV), ``presets`` (list the
built-in sweep tables). Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error.

Configuration is flat ``key = value`` text with units embedded in key names
(p_tx_w, distance_m, sigma_s_m, n_t_per_m3, ...). Flags override config file
values. ``flatkeys`` reads a value by the kind of its key, writes the CSV and
model file numbers, and skips a step whose keys did not parse. Each key table
sits beside the dataclass it fills: ``link`` owns the scenario and Monte Carlo
keys, and ``sweep`` owns the sweep keys, the presets and ``build_sweep_spec``,
which builds a config file's sweep and a preset alike. This module keeps only
its own keys (n_workers, harvester, harvester_file) and lists every violation
at once. A run is fully determined by (flags, config, seed): nothing in the
numeric path reads clocks or ambient entropy.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict

import numpy as np

from .flatkeys import format_value, format_values, parse_values, read_key_value_file, runs
from .harvester import (
    BUILTIN_HARVESTERS,
    COEFFICIENTS,
    MODEL_KINDS,
    FitError,
    HarvesterModel,
    efficiency_percent,
    fit_model,
    harvested_uw,
    is_extrapolated,
    raw_efficiency_percent,
    read_model_file,
    read_samples_csv,
    write_model_file,
)
from .link import (
    MC_KEYS,
    SCENARIO_KEYS,
    budget_terms,
    build_mc,
    build_scenario,
    draw_channel,
    estimate_harvest,
    median_received_dbm,
)
from .quantities import attempt, dbm_to_mw, lookup, raise_problems
from .sweep import (
    PRESETS, SECONDARY_KINDS, SWEEP_KEYS, SWEEP_QUANTILES, SweepRow,
    build_sweep_spec, builtin_presets, config_kinds, run_sweep,
)

CSV_COLUMNS = (
    "axis", "axis_value", "secondary", "secondary_value", "area", "harvester",
    "p_tx_w", "distance_m", "n_samples", "seed", "p_rx_median_dbm",
    "p_h_mean_uw", "p_h_median_uw", "p_h_p05_uw", "p_h_p95_uw",
    "clamp_count", "extrapolated_count",
)

# Every flat key and its kind (see flatkeys.VALUE_KINDS): the scenario and
# Monte Carlo keys of link, the sweep keys of sweep, and this module's own.
_MC_KEYS = {**MC_KEYS, "n_workers": "int"}
# The CSV has fixed p05 and p95 columns, so a sweep takes no quantiles.
_SWEEP_MC_KEYS = {key: kind for key, kind in _MC_KEYS.items() if key != "quantiles"}
_LINK_KEYS = {**SCENARIO_KEYS, **_MC_KEYS, "harvester": "str", "harvester_file": "str"}
_SWEEP_CONFIG_KEYS = {**SCENARIO_KEYS, **_SWEEP_MC_KEYS, **SWEEP_KEYS}


# ---------------------------------------------------------------------------
# configuration ingestion

def _merge_config(args: argparse.Namespace, kinds: dict[str, str], problems: list[str]) -> tuple[dict, set]:
    """The typed config file and flag values, flags overriding, and the keys whose text did not parse."""
    entries = read_key_value_file(args.config) if getattr(args, "config", None) else {}
    problems += [f"unknown config key {key!r}" for key in sorted(entries.keys() - kinds.keys())]
    entries = {key: entry for key, entry in entries.items() if key in kinds}
    entries.update({key: (None, flag) for key in kinds if (flag := getattr(args, key, None)) is not None})
    values = parse_values(entries, config_kinds(kinds, entries.get("secondary", (None, None))[1]), problems)
    return values, entries.keys() - values.keys()


def _n_workers(cfg: dict, problems: list[str]) -> int:
    """The n_workers value; thread_map caps the threads it runs at one per CPU."""
    if (n_workers := cfg.get("n_workers", 1)) < 1:
        problems.append(f"n_workers must be at least 1, got {n_workers}")
    return n_workers


# ---------------------------------------------------------------------------
# CSV serialization

def rows_to_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows with the pinned header; each cell is written as a flat value of its kind."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        stats = row.stats
        lines.append(",".join([
            row.axis,
            format_value(row.axis_value, "float"),
            row.secondary or "",
            "" if row.secondary is None else format_value(row.secondary_value, SECONDARY_KINDS[row.secondary]),
            row.scenario.terrain.name,
            row.harvester,
            format_value(row.scenario.p_tx_w, "float"),
            format_value(row.scenario.distance_m, "float"),
            str(stats.n_samples),
            str(stats.seed),
            format_value(row.p_rx_median_dbm, "float"),
            format_value(stats.mean_uw, "float"),
            format_value(stats.median_uw, "float"),
            *(format_value(stats.quantiles_uw[q], "float") for q in SWEEP_QUANTILES),
            str(stats.clamp_count),
            str(stats.extrapolated_count),
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

# What --harvester selects: one built-in model, every one, or none.
_HARVESTER_CHOICES = {**{name: (model,) for name, model in BUILTIN_HARVESTERS.items()},
                      "all": tuple(BUILTIN_HARVESTERS.values()), "none": ()}


def _select_harvesters(cfg: dict, problems: list[str]) -> tuple[HarvesterModel, ...]:
    models = attempt(problems, lookup, _HARVESTER_CHOICES, "harvester", cfg.get("harvester", "all")) or ()
    if "harvester_file" in cfg:
        loaded = attempt(problems, read_model_file, cfg["harvester_file"])
        # The report is keyed by model name, so a repeated name would hide a model.
        if loaded is not None and any(model.name == loaded.name for model in models):
            problems.append(
                f"harvester_file model {loaded.name!r} has the name of a selected built-in model"
            )
        models += (loaded,)
    return models


def _quantile_label(q: float) -> str:
    """``p05`` for a whole percent, else ``q``'s repr shifted two places, such as ``p99.5`` or ``p1E-318``.

    The shift keeps every digit of the repr, so distinct quantiles get distinct labels, and
    Decimal's own string writes a tiny percent with an exponent rather than hundreds of zeros.
    """
    from decimal import Decimal  # Imported on first call, so only a text report loads decimal.

    percent = Decimal(repr(q)).scaleb(2)
    return f"p{int(percent):02d}" if percent == int(percent) else f"p{percent.normalize()}"


def cmd_link(args: argparse.Namespace) -> int:
    problems: list[str] = []
    cfg, unparsed = _merge_config(args, _LINK_KEYS, problems)
    scenario = build_scenario(cfg, problems) if runs(unparsed, SCENARIO_KEYS) else None
    mc = build_mc(cfg, problems) if runs(unparsed, MC_KEYS) else None
    n_workers = _n_workers(cfg, problems)
    models = _select_harvesters(cfg, problems)
    raise_problems(problems)

    terms = budget_terms(scenario)
    median_dbm = median_received_dbm(scenario)
    # dbm_to_mw is the one dBm-to-mW conversion, so this is the mW of a trial at the median level.
    median_mw = dbm_to_mw(median_dbm)

    report: dict = {
        "median_p_rx_dbm": median_dbm,
        "median_p_rx_mw": median_mw,
        "budget_terms_db": terms,
    }
    # Every model sees the same trials, so the channel is drawn once; the
    # models then reduce it one at a time, each stage over the pool, so the
    # report holds one harvest array beside the channel.
    channel = draw_channel(scenario, mc, n_workers) if models else None
    report["harvesters"] = {}
    for model in models:
        # The median channel, harvested with the per-trial arithmetic.
        deterministic = {
            "p_rx_mw": median_mw,
            "efficiency_percent": (percent := efficiency_percent(model, median_mw)),
            "harvested_uw": harvested_uw(median_mw, percent),
            "extrapolated": bool(is_extrapolated(model, median_mw)),
        }
        stats = estimate_harvest(scenario, model, mc, channel=channel, n_workers=n_workers)
        # json writes the float quantile keys as their repr, such as "0.05".
        report["harvesters"][model.name] = {"deterministic": deterministic, "monte_carlo": asdict(stats)}

    if args.json:
        print(json.dumps(report, indent=2))
        return 0

    print(f"median received power: {median_dbm:.3f} dBm ({median_mw:.6g} mW)")
    print("budget terms (dB):")
    for name, value in terms.items():
        print(f"  {name:<14s} {value:+10.3f}")
    for model in models:
        entry = report["harvesters"][model.name]
        det = entry["deterministic"]
        mc_part = entry["monte_carlo"]
        flag = "yes" if det["extrapolated"] else "no"
        print(f"harvester {model.name}:")
        print(
            f"  median channel: efficiency {det['efficiency_percent']:.3f} %, "
            f"harvest {det['harvested_uw']:.4g} uW, extrapolated {flag}"
        )
        quantile_text = ", ".join(
            f"{_quantile_label(q)} {v:.4g} uW" for q, v in mc_part["quantiles_uw"].items()
        )
        print(
            f"  monte carlo (n={mc_part['n_samples']}, seed={mc_part['seed']}): "
            f"mean {mc_part['mean_uw']:.4g} uW, median {mc_part['median_uw']:.4g} uW, "
            f"{quantile_text}, clamped {mc_part['clamp_count']}, "
            f"extrapolated {mc_part['extrapolated_count']}"
        )
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    problems: list[str] = []
    # A preset is the flat keys of a config file; its run takes only Monte Carlo flags.
    preset = attempt(problems, lookup, PRESETS, "preset", args.preset) if args.preset is not None else {}
    cfg, unparsed = _merge_config(args, _SWEEP_CONFIG_KEYS, problems)
    n_workers = _n_workers(cfg, problems)
    if preset is None:
        # An unknown preset gives no sweep keys, so no step that reads them runs.
        preset, unparsed = {}, unparsed | set(SWEEP_KEYS)
    spec = build_sweep_spec({**preset, **cfg}, problems, unparsed)

    rows = run_sweep(spec, n_workers=n_workers)
    text = rows_to_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    problems: list[str] = []
    if args.out is not None:
        # The model file must read back as written, so a name that would not is refused before any output.
        attempt(problems, format_values, {"name": args.name}, MODEL_KINDS)
    samples = attempt(problems, read_samples_csv, args.samples)
    raise_problems(problems)
    model = fit_model(samples, name=args.name)
    powers = np.array([s.input_power_mw for s in samples])
    measured = np.array([s.efficiency_percent for s in samples])
    residual = raw_efficiency_percent(model, powers) - measured
    rms = float(np.sqrt(np.mean(residual**2)))
    lo, hi = (format_value(bound, "float") for bound in model.valid_range_mw)
    print(f"fitted model {model.name!r} over [{lo}, {hi}] mW")
    for key in COEFFICIENTS:
        print(f"  {key} = {format_value(getattr(model, key), 'float')}")
    print(f"residual RMS: {rms:.6g} % (over {len(samples)} samples)")
    if args.out is not None:
        write_model_file(model, args.out)
        print(f"wrote model file: {args.out}")
    return 0


def cmd_presets(args: argparse.Namespace) -> int:
    for name, spec in sorted(builtin_presets().items()):
        n_rows = len(spec.points) * max(len(spec.secondary_values), 1) * len(spec.harvesters)
        values = ", ".join(f"{v:g}" for v in spec.secondary_values)
        secondary = f", secondary {spec.secondary} in {{{values}}}" if spec.secondary else ""
        print(
            f"{name}: axis {spec.axis} [{spec.points[0]:g}, {spec.points[-1]:g}] "
            f"({len(spec.points)} points){secondary}; {spec.base.terrain.name}; "
            f"harvesters {','.join(spec.harvesters)}; {n_rows} rows"
        )
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_flags(parser: argparse.ArgumentParser, keys) -> None:
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parsing leaves nothing on it, so every call of ``main`` can share it."""
    parser = argparse.ArgumentParser(
        prog="marswpt",
        description="RF wireless power transfer simulator for the Martian surface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    link = sub.add_parser("link", help="single-point budget report and Monte Carlo stats")
    link.add_argument("--config", default=None, metavar="PATH")
    _add_flags(link, {**SCENARIO_KEYS, **_MC_KEYS})
    link.add_argument("--harvester", default=None, metavar="NAME",
                      help="A, B, C, all, or none (default all)")
    link.add_argument("--harvester-file", dest="harvester_file", default=None, metavar="PATH")
    link.add_argument("--json", action="store_true")
    link.set_defaults(func=cmd_link)

    sweep = sub.add_parser("sweep", help="run a parameter sweep and emit CSV")
    group = sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--preset", default=None, metavar="NAME")
    group.add_argument("--config", default=None, metavar="PATH")
    sweep.add_argument("-o", "--out", default=None, metavar="PATH")
    _add_flags(sweep, _SWEEP_MC_KEYS)
    sweep.set_defaults(func=cmd_sweep)

    fit = sub.add_parser("fit", help="fit a rational efficiency model to sample CSV")
    fit.add_argument("samples", metavar="SAMPLES.csv")
    fit.add_argument("--name", default="fitted", metavar="NAME")
    fit.add_argument("--out", default=None, metavar="PATH")
    fit.set_defaults(func=cmd_fit)

    presets = sub.add_parser("presets", help="list built-in sweep presets")
    presets.set_defaults(func=cmd_presets)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FitError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
