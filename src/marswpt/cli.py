"""Command-line interface: single-point link reports, sweep tables, model fitting.

Subcommands: ``link`` (budget breakdown plus Monte Carlo stats for one
scenario), ``sweep`` (preset or configured parameter sweep to CSV), ``fit``
(rational efficiency model from a measurement CSV), ``presets`` (list the
built-in sweep tables). Exit codes: 0 success, 1 runtime failure, 2 usage or
configuration error.

Configuration is flat ``key = value`` text with units embedded in key names
(p_tx_w, distance_m, sigma_s_m, n_t_per_m3, ...); the keys are the fields of
the scenario and Monte Carlo dataclasses. Flags override config file values.
Range rules live on the dataclasses: this module only turns strings into
numbers, passes the keys that were given to the constructors, and lists every
violation they reject at once. A run is fully determined by (flags, config,
seed): nothing in the numeric path reads clocks or ambient entropy.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, fields, replace

import numpy as np

from .harvester import (
    BUILTIN_HARVESTERS,
    COEFFICIENTS,
    FitError,
    HarvesterModel,
    efficiency_percent,
    fit_model,
    harvested_mw,
    is_extrapolated,
    raw_efficiency_percent,
    read_key_value_file,
    read_model_file,
    read_samples_csv,
    write_model_file,
)
from .link import (
    LinkScenario,
    MonteCarloSettings,
    budget_terms,
    draw_channel,
    estimate_harvest,
    median_received_dbm,
)
from .pointing import PointingGeometry, default_pointing
from .propagation import DustStorm, TerrainProfile, terrain_preset
from .quantities import RfCarrier, dbm_to_mw
from .sweep import (
    ConfigError,
    SweepRow,
    SweepSpec,
    axis_points,
    builtin_presets,
    run_sweep,
)

CSV_COLUMNS = (
    "axis", "axis_value", "secondary", "secondary_value", "area", "harvester",
    "p_tx_w", "distance_m", "n_samples", "seed", "p_rx_median_dbm",
    "p_h_mean_uw", "p_h_median_uw", "p_h_p05_uw", "p_h_p95_uw",
    "clamp_count", "extrapolated_count",
)

# How one config string becomes a value, keyed by the annotation of the
# dataclass field it fills.
_FLOATS = "tuple[float, ...]"
_PARSERS = {
    "float": (float, "a number"),
    "int": (int, "an integer"),
    "str": (str, "text"),
    _FLOATS: (lambda text: tuple(float(cell) for cell in text.split(",")),
              "comma-separated numbers"),
}
# The pieces of a LinkScenario whose numeric fields are flat config keys.
_PARTS = {
    "carrier": RfCarrier, "terrain": TerrainProfile, "dust": DustStorm,
    "pointing": PointingGeometry,
}


def _flat_fields(cls, kinds) -> dict[str, str]:
    return {f.name: f.type for f in fields(cls) if f.type in kinds}


_TOP_FIELDS = _flat_fields(LinkScenario, _PARSERS)
_PART_FIELDS = {part: _flat_fields(cls, ("float",)) for part, cls in _PARTS.items()}
_MC_FIELDS = _flat_fields(MonteCarloSettings, _PARSERS)

_SCENARIO_KEYS = (*_TOP_FIELDS, "area", *(key for keys in _PART_FIELDS.values() for key in keys))
_MC_KEYS = (*_MC_FIELDS, "n_workers")
# The CSV has fixed p05 and p95 columns, so a sweep takes no quantiles.
_SWEEP_MC_KEYS = tuple(key for key in _MC_KEYS if key != "quantiles")
_SWEEP_KEYS = (
    "axis", "axis_min", "axis_max", "axis_count", "axis_spacing",
    "axis_points", "secondary", "secondary_values", "harvesters",
)
_LINK_KEYS = _SCENARIO_KEYS + _MC_KEYS + ("harvester", "harvester_file")
_SWEEP_CONFIG_KEYS = _SCENARIO_KEYS + _SWEEP_MC_KEYS + _SWEEP_KEYS


# ---------------------------------------------------------------------------
# configuration ingestion

def _merge_config(args: argparse.Namespace, allowed: tuple[str, ...]) -> dict[str, str]:
    cfg: dict[str, str] = {}
    if getattr(args, "config", None):
        cfg.update({key: value for key, (_, value) in read_key_value_file(args.config).items()})
        unknown = sorted(key for key in cfg if key not in allowed)
        if unknown:
            raise ConfigError(
                "; ".join(f"unknown config key {key!r}" for key in unknown)
            )
    for key in allowed:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    return cfg


def _parse(cfg: dict[str, str], key: str, kind: str, problems: list[str]):
    """The value of ``key`` parsed as ``kind``; None when absent or unparseable."""
    if key not in cfg:
        return None
    parse, noun = _PARSERS[kind]
    try:
        return parse(cfg[key])
    except ValueError:
        problems.append(f"{key}: could not parse {cfg[key]!r} as {noun}")
        return None


def _parse_fields(cfg: dict[str, str], flat_fields: dict[str, str], problems: list[str]) -> dict:
    """The given, parseable values of ``flat_fields``, keyed by field name."""
    values = {key: _parse(cfg, key, kind, problems) for key, kind in flat_fields.items()}
    return {key: value for key, value in values.items() if value is not None}


def _attempt(problems: list[str], build, *args, **kwargs):
    """Return ``build(*args, **kwargs)``, or None after adding its ValueError to ``problems``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        problems.append(str(exc))
        return None


def build_scenario(cfg: dict[str, str], problems: list[str]) -> LinkScenario | None:
    """Assemble a LinkScenario from flat config, appending every violation found.

    Only the keys given reach the constructors, so every default and range
    rule is the dataclasses' own.
    """
    before = len(problems)
    for key in ("sigma_s_m", "r_d_m"):
        if key in cfg and "beta_m" not in cfg:
            problems.append(f"{key} was given but beta_m is missing; pointing needs an aperture radius")
    given = {part: _parse_fields(cfg, keys, problems) for part, keys in _PART_FIELDS.items()}
    defaults = LinkScenario()
    carrier = _attempt(problems, RfCarrier, **given["carrier"])
    terrain = _attempt(problems, terrain_preset, cfg["area"]) if "area" in cfg else defaults.terrain
    if terrain is not None and given["terrain"]:
        terrain = _attempt(problems, replace, terrain, name="custom", **given["terrain"])
    dust = _attempt(problems, DustStorm, **given["dust"]) if given["dust"] else None
    pointing = None
    if "beta_m" in given["pointing"]:
        pointing = _attempt(problems, default_pointing, carrier or defaults.carrier, **given["pointing"])
    scenario = _attempt(
        problems, LinkScenario, carrier=carrier, terrain=terrain, dust=dust, pointing=pointing,
        **_parse_fields(cfg, _TOP_FIELDS, problems),
    )
    return scenario if len(problems) == before else None


def build_mc(
    cfg: dict[str, str], problems: list[str], base: MonteCarloSettings = MonteCarloSettings()
) -> MonteCarloSettings | None:
    """``base`` with the Monte Carlo keys given in flat config, appending every violation."""
    return _attempt(problems, replace, base, **_parse_fields(cfg, _MC_FIELDS, problems))


def _parse_workers(cfg: dict[str, str], problems: list[str]) -> int:
    n_workers = _parse(cfg, "n_workers", "int", problems)
    if n_workers is None:
        return 1
    if n_workers < 1:
        problems.append(f"n_workers must be at least 1, got {n_workers}")
    return max(n_workers, 1)


def build_sweep_spec(cfg: dict[str, str], problems: list[str]) -> SweepSpec | None:
    """Assemble a SweepSpec from flat config keys, appending every violation found.

    The spec is built even after an earlier problem, with placeholders for
    the parts that failed, so that its own rules are reported too.
    """
    base = build_scenario(cfg, problems)
    mc = build_mc(cfg, problems)

    points = _parse(cfg, "axis_points", _FLOATS, problems)
    if "axis_points" not in cfg:
        missing = [key for key in ("axis_min", "axis_max", "axis_count") if key not in cfg]
        lo = _parse(cfg, "axis_min", "float", problems)
        hi = _parse(cfg, "axis_max", "float", problems)
        count = _parse(cfg, "axis_count", "int", problems)
        if missing:
            problems.append(
                "either axis_points or all of axis_min/axis_max/axis_count are required"
                f" (missing: {', '.join(missing)})"
            )
        elif None not in (lo, hi, count):
            points = _attempt(problems, axis_points, lo, hi, count, cfg.get("axis_spacing", "linear"))

    secondary = cfg.get("secondary")
    if secondary == "area":
        secondary_values = tuple(
            cell.strip() for cell in cfg.get("secondary_values", "").split(",") if cell.strip()
        )
    else:
        secondary_values = _parse(cfg, "secondary_values", _FLOATS, problems) or ()

    harvesters = tuple(cell.strip() for cell in cfg.get("harvesters", "A,B,C").split(",") if cell.strip())

    return _attempt(
        problems, SweepSpec, base=base or LinkScenario(), harvesters=harvesters,
        axis=cfg.get("axis"), points=points or (), secondary=secondary,
        secondary_values=secondary_values, mc=mc or MonteCarloSettings(),
    )


# ---------------------------------------------------------------------------
# CSV serialization

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def rows_to_csv(rows: list[SweepRow]) -> str:
    """Serialize sweep rows with the pinned header, 17 significant digits."""
    lines = [",".join(CSV_COLUMNS)]
    for row in rows:
        stats = row.stats
        if row.secondary_value is None:
            secondary_value = ""
        elif isinstance(row.secondary_value, str):
            secondary_value = row.secondary_value
        else:
            secondary_value = _fmt(row.secondary_value)
        lines.append(",".join([
            row.axis,
            _fmt(row.axis_value),
            row.secondary or "",
            secondary_value,
            row.area,
            row.harvester,
            _fmt(row.p_tx_w),
            _fmt(row.distance_m),
            str(stats.n_samples),
            str(stats.seed),
            _fmt(row.p_rx_median_dbm),
            _fmt(stats.mean_uw),
            _fmt(stats.median_uw),
            _fmt(stats.quantiles_uw[0.05]),
            _fmt(stats.quantiles_uw[0.95]),
            str(stats.clamp_count),
            str(stats.extrapolated_count),
        ]))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# subcommands

def _select_harvesters(cfg: dict[str, str], problems: list[str]) -> list[HarvesterModel]:
    choice = cfg.get("harvester", "all")
    models: list[HarvesterModel] = []
    if choice == "all":
        models = [BUILTIN_HARVESTERS[name] for name in sorted(BUILTIN_HARVESTERS)]
    elif choice == "none":
        models = []
    elif choice in BUILTIN_HARVESTERS:
        models = [BUILTIN_HARVESTERS[choice]]
    else:
        problems.append(
            f"harvester must be one of {', '.join(sorted(BUILTIN_HARVESTERS))}, all, or none; got {choice!r}"
        )
    if "harvester_file" in cfg:
        loaded = _attempt(problems, read_model_file, cfg["harvester_file"])
        # The report is keyed by model name, so a repeated name would hide a model.
        if loaded is not None and any(model.name == loaded.name for model in models):
            problems.append(
                f"harvester_file model {loaded.name!r} has the name of a selected built-in model"
            )
        models.append(loaded)
    return models


def cmd_link(args: argparse.Namespace) -> int:
    cfg = _merge_config(args, _LINK_KEYS)
    problems: list[str] = []
    scenario = build_scenario(cfg, problems)
    mc = build_mc(cfg, problems)
    n_workers = _parse_workers(cfg, problems)
    models = _select_harvesters(cfg, problems)
    if problems:
        raise ConfigError("; ".join(problems))

    terms = budget_terms(scenario)
    median_dbm = median_received_dbm(scenario)
    median_mw = dbm_to_mw(median_dbm)

    report: dict = {
        "median_p_rx_dbm": median_dbm,
        "median_p_rx_mw": median_mw,
        "budget_terms_db": terms,
        "harvesters": {},
    }
    # Every model sees the same trials, so the channel is drawn once.
    channel = draw_channel(scenario, mc, n_workers) if models else None
    for model in models:
        eta = efficiency_percent(model, median_mw)
        harvested_uw = harvested_mw(model, median_mw) * 1000.0
        stats = estimate_harvest(scenario, model, mc, channel=channel)
        report["harvesters"][model.name] = {
            "deterministic": {
                "p_rx_mw": median_mw,
                "efficiency_percent": eta,
                "harvested_uw": harvested_uw,
                "extrapolated": bool(is_extrapolated(model, median_mw)),
            },
            # json writes the float quantile keys as their repr, such as "0.05".
            "monte_carlo": asdict(stats),
        }

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
            f"p{int(round(float(q) * 100)):02d} {v:.4g} uW" for q, v in mc_part["quantiles_uw"].items()
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
    if args.preset is not None:
        presets = builtin_presets()
        if args.preset not in presets:
            raise ConfigError(
                f"unknown preset {args.preset!r}; valid presets: {', '.join(sorted(presets))}"
            )
        cfg = _merge_config(args, _SWEEP_MC_KEYS)
        spec = presets[args.preset]
        spec = replace(spec, mc=build_mc(cfg, problems, spec.mc) or spec.mc)
    else:
        cfg = _merge_config(args, _SWEEP_CONFIG_KEYS)
        spec = build_sweep_spec(cfg, problems)
    n_workers = _parse_workers(cfg, problems)
    if problems:
        raise ConfigError("; ".join(problems))

    rows = run_sweep(spec, n_workers=n_workers)
    text = rows_to_csv(rows)
    if args.out is None:
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
    return 0


def cmd_fit(args: argparse.Namespace) -> int:
    samples = read_samples_csv(args.samples)
    model = fit_model(samples, name=args.name)
    powers = np.array([s.input_power_mw for s in samples])
    measured = np.array([s.efficiency_percent for s in samples])
    residual = raw_efficiency_percent(model, powers) - measured
    rms = float(np.sqrt(np.mean(residual**2)))
    lo, hi = model.valid_range_mw
    print(f"fitted model {model.name!r} over [{lo:.17g}, {hi:.17g}] mW")
    for key in COEFFICIENTS:
        print(f"  {key} = {getattr(model, key):.17g}")
    print(f"residual RMS: {rms:.6g} % (over {len(samples)} samples)")
    if args.out is not None:
        write_model_file(model, args.out)
        print(f"wrote model file: {args.out}")
    return 0


def cmd_presets(args: argparse.Namespace) -> int:
    presets = builtin_presets()
    for name in sorted(presets):
        spec = presets[name]
        n_secondary = len(spec.secondary_values) if spec.secondary else 1
        n_rows = len(spec.points) * n_secondary * len(spec.harvesters)
        secondary = ""
        if spec.secondary:
            secondary = f", secondary {spec.secondary} in {{{', '.join(f'{v:g}' for v in spec.secondary_values)}}}"
        print(
            f"{name}: axis {spec.axis} [{spec.points[0]:g}, {spec.points[-1]:g}] "
            f"({len(spec.points)} points){secondary}; {spec.base.terrain.name}; "
            f"harvesters {','.join(spec.harvesters)}; {n_rows} rows"
        )
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_flags(parser: argparse.ArgumentParser, keys: tuple[str, ...]) -> None:
    for key in keys:
        parser.add_argument(f"--{key.replace('_', '-')}", dest=key, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marswpt",
        description="RF wireless power transfer simulator for the Martian surface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    link = sub.add_parser("link", help="single-point budget report and Monte Carlo stats")
    link.add_argument("--config", default=None, metavar="PATH")
    _add_flags(link, _SCENARIO_KEYS + _MC_KEYS)
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
    _add_flags(sweep, ("seed", "n_samples", "n_workers"))
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
    except (FitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
