"""Declarative parameter sweeps over the link model.

A sweep varies one axis (transmit power, distance, dust density, or pointing
jitter), optionally crossed with a secondary parameter (particle radius,
aperture radius, or terrain area), and runs the Monte Carlo estimator for
each requested harvester at every grid point. Rows are emitted axis-major,
then secondary, then harvester, and each row draws from its own substream
derived from (seed, row index), so tables are reproducible regardless of
execution order.

``builtin_presets`` bundles the eight standard experiment tables (fig3a/b,
fig5a/b, fig6a/b, fig7a/b): harvested power versus transmit power, dust
density, distance, and jitter deviation, for each of the two terrain areas.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .harvester import harvester_preset
from .link import (
    LinkScenario,
    MonteCarloSettings,
    HarvestStats,
    derive_substream_seed,
    estimate_harvest,
    median_received_dbm,
    thread_map,
)
from .pointing import default_pointing
from .propagation import AREA1, AREA2, DustStorm, terrain_preset

AXES = ("p_tx", "distance", "dust_density", "jitter_sigma")
SECONDARY_KINDS = ("rho_p_m", "beta_m", "area")


class ConfigError(ValueError):
    """Invalid sweep or run configuration; the message lists every violation."""


def axis_points(lo: float, hi: float, count: int, spacing: str = "linear") -> tuple[float, ...]:
    """Evenly spaced axis grid, linear or logarithmic."""
    if count < 2:
        raise ConfigError(f"axis_count must be at least 2, got {count}")
    if not lo < hi:
        raise ConfigError(f"axis range must satisfy min < max, got [{lo}, {hi}]")
    if spacing == "linear":
        return tuple(float(x) for x in np.linspace(lo, hi, count))
    if spacing == "log":
        if not lo > 0.0:
            raise ConfigError(f"log spacing needs a positive minimum, got {lo}")
        return tuple(float(x) for x in np.geomspace(lo, hi, count))
    raise ConfigError(f"axis_spacing must be 'linear' or 'log', got {spacing!r}")


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
        object.__setattr__(self, "harvesters", tuple(self.harvesters))
        object.__setattr__(self, "points", tuple(float(x) for x in self.points))
        object.__setattr__(self, "secondary_values", tuple(self.secondary_values))
        problems = []
        if self.axis not in AXES:
            problems.append(f"axis must be one of {AXES}, got {self.axis!r}")
        if not self.points:
            problems.append("points must be non-empty")
        elif any(b <= a for a, b in zip(self.points, self.points[1:])):
            problems.append("points must be strictly increasing")
        if not self.harvesters:
            problems.append("harvesters must be non-empty")
        for name in self.harvesters:
            try:
                harvester_preset(name)
            except ValueError as exc:
                problems.append(str(exc))
        if self.secondary is None:
            if self.secondary_values:
                problems.append("secondary_values given without a secondary kind")
        elif self.secondary not in SECONDARY_KINDS:
            problems.append(f"secondary must be one of {SECONDARY_KINDS}, got {self.secondary!r}")
        elif not self.secondary_values:
            problems.append(f"secondary {self.secondary!r} needs secondary_values")
        # The scenario rules do the range checks. Each is an interval, so the
        # smallest and largest point, crossed with every secondary value,
        # break any rule that some grid point breaks.
        ends = (min(self.points), max(self.points)) if self.points and self.axis in AXES else ()
        kind = self.secondary if self.secondary in SECONDARY_KINDS and self.secondary_values else None
        for value in self.secondary_values if kind else (None,):
            try:
                scenario = _apply_secondary(self.base, kind, value)
            except ValueError as exc:
                problems.append(str(exc))
                continue
            for point in ends:
                try:
                    _apply_axis(scenario, self.axis, point)
                except ValueError as exc:
                    problems.append(str(exc))
        if problems:
            raise ConfigError("; ".join(dict.fromkeys(problems)))


@dataclass(frozen=True, slots=True)
class SweepRow:
    axis: str
    axis_value: float
    secondary: str | None
    secondary_value: float | str | None
    area: str
    harvester: str
    p_tx_w: float
    distance_m: float
    p_rx_median_dbm: float
    stats: HarvestStats


def _apply_secondary(base: LinkScenario, kind: str | None, value) -> LinkScenario:
    if kind is None:
        return base
    if kind == "area":
        return replace(base, terrain=terrain_preset(value))
    if kind == "rho_p_m":
        return replace(base, dust=replace(base.dust or DustStorm(), rho_p_m=float(value)))
    # SweepSpec has checked the kind, so this one is beta_m.
    if base.pointing is not None:
        geom = replace(base.pointing, beta_m=float(value))
    else:
        geom = default_pointing(base.carrier, float(value))
    return replace(base, pointing=geom)


def _apply_axis(scenario: LinkScenario, axis: str, value: float) -> LinkScenario:
    if axis == "p_tx":
        return replace(scenario, p_tx_w=value)
    if axis == "distance":
        return replace(scenario, distance_m=value)
    if axis == "dust_density":
        return replace(scenario, dust=replace(scenario.dust or DustStorm(), n_t_per_m3=value))
    # SweepSpec has checked the axis, so this one is jitter_sigma.
    if scenario.pointing is None:
        raise ConfigError("jitter_sigma axis needs base pointing geometry or a beta_m secondary")
    return replace(scenario, pointing=replace(scenario.pointing, sigma_s_m=value))


def run_sweep(spec: SweepSpec, n_workers: int = 1) -> list[SweepRow]:
    """Run every grid point; rows ordered axis-major, then secondary, then harvester."""
    secondary_values = spec.secondary_values if spec.secondary is not None else (None,)

    jobs = []
    row_index = 0
    for axis_value in spec.points:
        for secondary_value in secondary_values:
            scenario = _apply_secondary(spec.base, spec.secondary, secondary_value)
            scenario = _apply_axis(scenario, spec.axis, axis_value)
            for name in spec.harvesters:
                mc_row = replace(spec.mc, seed=derive_substream_seed(spec.mc.seed, row_index))
                jobs.append((axis_value, secondary_value, scenario, name, mc_row))
                row_index += 1

    def run_job(job) -> SweepRow:
        axis_value, secondary_value, scenario, name, mc_row = job
        stats = estimate_harvest(scenario, harvester_preset(name), mc_row)
        return SweepRow(
            axis=spec.axis,
            axis_value=axis_value,
            secondary=spec.secondary,
            secondary_value=secondary_value,
            area=scenario.terrain.name,
            harvester=name,
            p_tx_w=scenario.p_tx_w,
            distance_m=scenario.distance_m,
            p_rx_median_dbm=median_received_dbm(scenario),
            stats=stats,
        )

    return thread_map(run_job, jobs, n_workers)


def builtin_presets() -> dict[str, SweepSpec]:
    """The eight standard experiment tables keyed by name."""
    mc = MonteCarloSettings()
    harvesters = ("A", "B", "C")
    presets: dict[str, SweepSpec] = {}
    for suffix, terrain in (("a", AREA1), ("b", AREA2)):
        base = LinkScenario(terrain=terrain)
        presets[f"fig3{suffix}"] = SweepSpec(
            base=base,
            harvesters=harvesters,
            axis="p_tx",
            points=axis_points(1.0, 100.0, 25, "log"),
            mc=mc,
        )
        presets[f"fig5{suffix}"] = SweepSpec(
            base=base,
            harvesters=harvesters,
            axis="dust_density",
            points=axis_points(1e2, 1e5, 25, "log"),
            secondary="rho_p_m",
            secondary_values=(1e-4, 5e-3),
            mc=mc,
        )
        presets[f"fig6{suffix}"] = SweepSpec(
            base=base,
            harvesters=harvesters,
            axis="distance",
            points=axis_points(10.0, 100.0, 25, "linear"),
            mc=mc,
        )
        presets[f"fig7{suffix}"] = SweepSpec(
            base=base,
            harvesters=harvesters,
            axis="jitter_sigma",
            points=axis_points(0.1, 1.0, 25, "linear"),
            secondary="beta_m",
            secondary_values=(0.5, 1.0),
            mc=mc,
        )
    return presets
