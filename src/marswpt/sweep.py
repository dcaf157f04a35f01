"""Declarative parameter sweeps over the link model.

A sweep varies one axis (transmit power, distance, dust density, or pointing
jitter), optionally crossed with a secondary parameter (particle radius,
aperture radius, or terrain area), and runs the Monte Carlo estimator for
each requested harvester at every grid point. The sweep is point-major: each
grid point's scenario and median received power are computed once, and each
of its harvester rows carries that scenario. Rows are emitted axis-major,
then secondary, then harvester, and each row draws from its own substream
derived from (seed, row index), so tables are reproducible regardless of
execution order. Each axis sets one scenario key, a secondary kind is one,
and ``link.scenario_with`` turns the pair into a grid point's scenario, by
the same rule that builds a scenario from flat config.

``build_sweep_spec`` turns typed flat keys into a ``SweepSpec``, for a config
file and for each of the eight standard tables in ``PRESETS`` (fig3a/b,
fig5a/b, fig6a/b, fig7a/b: harvested power versus transmit power, dust
density, distance, and jitter deviation, for each of the two terrain areas).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .flatkeys import runs
from .harvester import BUILTIN_HARVESTERS, harvester_preset
from .link import (
    MC_KEYS,
    SCENARIO_KEYS,
    LinkScenario,
    MonteCarloSettings,
    HarvestStats,
    build_mc,
    build_scenario,
    derive_substream_seed,
    estimate_harvest,
    median_received_dbm,
    scenario_with,
    thread_map,
)
from .propagation import TERRAIN_PRESETS
from .quantities import attempt, lookup, raise_problems

# Each axis sets one scenario key; each secondary kind is a scenario key, and its values have that key's kind.
AXES = {"p_tx": "p_tx_w", "distance": "distance_m", "dust_density": "n_t_per_m3", "jitter_sigma": "sigma_s_m"}
SECONDARY_KINDS = {key: SCENARIO_KEYS[key] for key in ("rho_p_m", "beta_m", "area")}
# The flat keys of a sweep beside the scenario and Monte Carlo keys, and their kinds.
SWEEP_KEYS = {
    "axis": "str", "axis_min": "float", "axis_max": "float", "axis_count": "int",
    "axis_spacing": "str", "axis_points": "tuple[float, ...]", "secondary": "str",
    "secondary_values": "tuple[str, ...]", "harvesters": "tuple[str, ...]",
}
_AXIS_RANGE = ("axis_min", "axis_max", "axis_count")
_SPACINGS = {"linear": np.linspace, "log": np.geomspace}
# The quantiles of every sweep row: the table's p05 and p95 columns.
SWEEP_QUANTILES = (0.05, 0.95)


def config_kinds(kinds: dict[str, str], secondary) -> dict[str, str]:
    """``kinds``, with each secondary_values cell of the kind of the key that ``secondary`` names."""
    if secondary not in SECONDARY_KINDS:
        return kinds
    return {**kinds, "secondary_values": f"tuple[{SECONDARY_KINDS[secondary]}, ...]"}


def axis_points(lo: float, hi: float, count: int, spacing: str = "linear") -> tuple[float, ...]:
    """Evenly spaced axis grid, linear or logarithmic; one ConfigError lists every problem."""
    problems = [f"axis_count must be at least 2, got {count}"] if count < 2 else []
    # numpy would warn and fill the grid with NaN for an end or a width past float64.
    if not math.isfinite(hi - lo):
        problems.append(f"axis range and its width must be finite, got [{lo}, {hi}]")
    elif not lo < hi:
        problems.append(f"axis range must satisfy min < max, got [{lo}, {hi}]")
    space = attempt(problems, lookup, _SPACINGS, "axis_spacing", spacing)
    if spacing == "log" and not lo > 0.0:
        problems.append(f"log spacing needs a positive minimum, got {lo}")
    raise_problems(problems)
    return tuple(float(x) for x in space(lo, hi, count))


@dataclass(frozen=True, slots=True)
class SweepSpec:
    base: LinkScenario
    harvesters: tuple[str, ...]
    axis: str
    points: tuple[float, ...]
    secondary: str | None = None
    secondary_values: tuple = ()
    mc: MonteCarloSettings = MonteCarloSettings()

    def __post_init__(self) -> None:
        problems = []
        axis_known = attempt(problems, lookup, AXES, "axis", self.axis) is not None
        if not self.points:
            problems.append("points must be non-empty")
        elif any(not a < b for a, b in zip(self.points, self.points[1:])):
            # A NaN point compares false with its neighbours, so it fails here.
            problems.append("points must be strictly increasing")
        if not self.harvesters:
            problems.append("harvesters must be non-empty")
        if self.mc.quantiles != SWEEP_QUANTILES:
            problems.append(f"quantiles must be the table's {SWEEP_QUANTILES}, got {self.mc.quantiles}")
        # A repeated harvester or secondary value would write its rows twice, each with its own seed.
        for name, values in (("harvesters", self.harvesters), ("secondary_values", self.secondary_values)):
            if len(set(values)) < len(values):
                problems.append(f"{name} must not repeat, got {values}")
        for name in self.harvesters:
            attempt(problems, harvester_preset, name)
        secondary_known = (self.secondary is not None
                           and attempt(problems, lookup, SECONDARY_KINDS, "secondary", self.secondary) is not None)
        if self.secondary is None and self.secondary_values:
            problems.append("secondary_values given without a secondary kind")
        elif secondary_known and not self.secondary_values:
            problems.append(f"secondary {self.secondary!r} needs secondary_values")
        elif self.secondary == "area" and self.base.terrain not in TERRAIN_PRESETS.values():
            # A grid point's area would replace the custom terrain unseen.
            problems.append(
                "secondary 'area' sets a preset terrain at every grid point, so the base terrain must"
                f" be a preset, not {self.base.terrain.name!r}: alpha and sigma_db cannot be given with it"
            )
        # The scenario rules do the range checks, the median budget and the
        # pointing geometry among them. Each is an interval along every axis,
        # so the smallest and largest point, crossed with every secondary
        # value, break any rule that some grid point breaks.
        ends = (min(self.points), max(self.points)) if self.points and axis_known else (None,)
        for value in (self.secondary_values if secondary_known else ()) or (None,):
            for point in ends:
                attempt(problems, self.scenario_at, point, value)
        raise_problems(problems)

    def scenario_at(self, axis_value: float | None, secondary_value) -> LinkScenario:
        """The base scenario at one grid point; a None value leaves its key unset."""
        keys = {AXES.get(self.axis): axis_value, self.secondary: secondary_value}
        return scenario_with(self.base, **{key: value for key, value in keys.items() if value is not None})


@dataclass(frozen=True, slots=True)
class SweepRow:
    axis: str
    axis_value: float
    secondary: str | None
    secondary_value: float | str | None
    scenario: LinkScenario
    harvester: str
    p_rx_median_dbm: float
    stats: HarvestStats


def run_sweep(spec: SweepSpec, n_workers: int = 1) -> list[SweepRow]:
    """Run every grid point; rows ordered axis-major, then secondary, then harvester."""
    secondary_values = spec.secondary_values if spec.secondary is not None else (None,)
    jobs = []
    for axis_value, secondary_value in itertools.product(spec.points, secondary_values):
        scenario = spec.scenario_at(axis_value, secondary_value)
        point = (axis_value, secondary_value, scenario, median_received_dbm(scenario))
        jobs += [(point, name) for name in spec.harvesters]

    def run_job(index: int) -> SweepRow:
        (axis_value, secondary_value, scenario, median_dbm), name = jobs[index]
        # Each row hashes its own seed, on whichever thread runs it.
        mc_row = replace(spec.mc, seed=derive_substream_seed(spec.mc.seed, index))
        stats = estimate_harvest(scenario, harvester_preset(name), mc_row)
        return SweepRow(spec.axis, axis_value, spec.secondary, secondary_value, scenario, name, median_dbm, stats)

    return thread_map(run_job, range(len(jobs)), n_workers)


def build_sweep_spec(values: dict, problems: list[str], unparsed=frozenset()) -> SweepSpec:
    """The SweepSpec of typed flat ``values``: sweep, scenario and Monte Carlo keys.

    ``problems`` holds the violations found before, and ``unparsed`` names the
    keys whose text did not parse. A step runs only if every key it reads
    parsed and every part it needs was built, so one bad value is reported
    once. Appends every violation and raises one ConfigError that lists them.
    """
    secondary = values.get("secondary")
    secondary_values = values.get("secondary_values", ())
    # Every grid point sets the secondary's key, so the base takes the first
    # value; a beta_m secondary then gives the pointing part its aperture.
    first = {secondary: secondary_values[0]} if secondary in SECONDARY_KINDS and secondary_values else {}
    base = build_scenario(values | first, problems) if runs(unparsed, (*SCENARIO_KEYS, "secondary_values")) else None
    mc = build_mc(values, problems) if runs(unparsed, MC_KEYS) else None

    points = values.get("axis_points")
    if points is not None and (ranged := [key for key in (*_AXIS_RANGE, "axis_spacing") if key in values]):
        problems.append(f"axis_points cannot be given with {', '.join(ranged)}: give the points or the range")
    elif points is None and "axis_points" not in unparsed:
        if missing := [key for key in _AXIS_RANGE if key not in values and key not in unparsed]:
            problems.append("either axis_points or all of axis_min/axis_max/axis_count are required"
                            f" (missing: {', '.join(missing)})")
        elif runs(unparsed, _AXIS_RANGE):
            points = attempt(problems, axis_points, *(values[key] for key in _AXIS_RANGE),
                             values.get("axis_spacing", "linear"))

    spec = None
    if runs(unparsed, ("axis", "harvesters", "secondary", "secondary_values"), base, points):
        # The spec's own rules do not read the Monte Carlo settings, so they run even if those failed.
        spec = attempt(problems, SweepSpec, base, values.get("harvesters", tuple(BUILTIN_HARVESTERS)),
                       values.get("axis"), points, secondary, secondary_values, mc or MonteCarloSettings())
    raise_problems(problems)
    return spec


# The flat keys of each standard table; every table runs on both areas.
_FIGURES = {
    "fig3": {"axis": "p_tx", "axis_min": 1.0, "axis_max": 100.0, "axis_count": 25, "axis_spacing": "log"},
    "fig5": {"axis": "dust_density", "axis_min": 1e2, "axis_max": 1e5, "axis_count": 25,
             "axis_spacing": "log", "secondary": "rho_p_m", "secondary_values": (1e-4, 5e-3)},
    "fig6": {"axis": "distance", "axis_min": 10.0, "axis_max": 100.0, "axis_count": 25,
             "axis_spacing": "linear"},
    "fig7": {"axis": "jitter_sigma", "axis_min": 0.1, "axis_max": 1.0, "axis_count": 25,
             "axis_spacing": "linear", "secondary": "beta_m", "secondary_values": (0.5, 1.0)},
}
PRESETS = {
    f"{figure}{suffix}": {**keys, "area": area}
    for suffix, area in (("a", "area1"), ("b", "area2")) for figure, keys in _FIGURES.items()
}


def builtin_presets() -> dict[str, SweepSpec]:
    """The eight standard experiment tables keyed by name, each built from its flat keys."""
    return {name: build_sweep_spec(keys, []) for name, keys in PRESETS.items()}
