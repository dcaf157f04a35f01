"""Sweep grids, row ordering, presets, and reproducibility."""

import math
from dataclasses import replace

import numpy as np
import pytest

from marswpt.cli import rows_to_csv
from marswpt.link import (
    LinkScenario,
    MonteCarloSettings,
    derive_substream_seed,
    estimate_harvest,
    median_received_dbm,
)
from marswpt.pointing import PointingGeometry, default_beam_waist, derive_model
from marswpt.propagation import AREA1, AREA2, DustStorm, dust_attenuation_db
from marswpt.harvester import harvester_preset
from marswpt.quantities import ConfigError
from marswpt import link, sweep
from marswpt.sweep import (
    AXES,
    PRESETS,
    SECONDARY_KINDS,
    SweepSpec,
    axis_points,
    build_sweep_spec,
    builtin_presets,
    run_sweep,
)

from oracles import assert_stats_match, emg_harvest_moments, gaussian_harvest_moments

SMALL_MC = MonteCarloSettings(n_samples=200, seed=12345)


# ---------------------------------------------------------------------------
# axis grids


def test_axis_points_linear():
    points = axis_points(10.0, 100.0, 25, "linear")
    assert len(points) == 25
    assert points[0] == 10.0 and points[-1] == 100.0
    np.testing.assert_allclose(np.diff(points), 3.75, rtol=1e-12)


def test_axis_points_log():
    points = axis_points(1.0, 100.0, 25, "log")
    assert points[0] == 1.0 and points[-1] == pytest.approx(100.0, rel=1e-12)
    ratios = np.array(points[1:]) / np.array(points[:-1])
    np.testing.assert_allclose(ratios, ratios[0], rtol=1e-12)


def test_axis_points_validation():
    with pytest.raises(ConfigError):
        axis_points(1.0, 10.0, 1)
    with pytest.raises(ConfigError):
        axis_points(10.0, 1.0, 5)
    with pytest.raises(ConfigError):
        axis_points(0.0, 1.0, 5, "log")
    with pytest.raises(ConfigError):
        axis_points(1.0, 10.0, 5, "cubic")


def test_axis_points_lists_every_problem():
    with pytest.raises(ConfigError) as excinfo:
        axis_points(10.0, 1.0, 1, "cubic")
    assert excinfo.value.problems == [
        "axis_count must be at least 2, got 1",
        "axis range must satisfy min < max, got [10.0, 1.0]",
        "unknown axis_spacing 'cubic'; valid names: linear, log",
    ]
    with pytest.raises(ConfigError) as excinfo:
        axis_points(-1.0, -2.0, 3, "log")
    assert excinfo.value.problems == [
        "axis range must satisfy min < max, got [-1.0, -2.0]", "log spacing needs a positive minimum, got -1.0",
    ]


@pytest.mark.parametrize("lo, hi", [(10.0, math.inf), (-math.inf, 10.0), (math.nan, 10.0), (-1e308, 1e308)])
def test_axis_points_rejects_an_end_or_a_width_past_float64(lo, hi):
    # Every warning fails a test, so numpy's overflow warning would fail this too.
    for spacing in ("linear", "log"):
        with pytest.raises(ConfigError, match=r"^axis range and its width must be finite"):
            axis_points(lo, hi, 3, spacing)


# ---------------------------------------------------------------------------
# spec validation


def test_spec_rejects_unknown_axis():
    with pytest.raises(ConfigError) as excinfo:
        SweepSpec(LinkScenario(), ("A",), "speed", (1.0, 2.0))
    assert excinfo.value.problems == ["unknown axis 'speed'; valid names: distance, dust_density, jitter_sigma, p_tx"]


def test_spec_rejects_unknown_harvester():
    with pytest.raises(ConfigError, match="unknown harvester"):
        SweepSpec(LinkScenario(), ("A", "Z"), "p_tx", (1.0, 2.0))
    with pytest.raises(ConfigError, match="unknown harvester 'a'; valid names: A, B, C"):
        SweepSpec(LinkScenario(), ("a",), "p_tx", (1.0, 2.0))


def test_spec_rejects_unsorted_points():
    # A NaN is not larger than the point before it, though min() and max() skip it.
    for points in ((2.0, 1.0), (1.0, 1.0), (1.0, math.nan, 3.0)):
        with pytest.raises(ConfigError, match="strictly increasing"):
            SweepSpec(LinkScenario(), ("A",), "p_tx", points)


@pytest.mark.parametrize("keys, problem", [
    ({"harvesters": ("A", "C", "A")}, "harvesters must not repeat, got ('A', 'C', 'A')"),
    ({"secondary": "rho_p_m", "secondary_values": (1e-4, 1e-4)},
     "secondary_values must not repeat, got (0.0001, 0.0001)"),
], ids=["harvesters", "secondary_values"])
def test_spec_rejects_repeats(keys, problem):
    # A repeated name or value would write its rows twice, each with its own seed and numbers.
    with pytest.raises(ConfigError) as excinfo:
        SweepSpec(LinkScenario(), **{"harvesters": ("A",), "axis": "p_tx", "points": (1.0, 2.0), **keys})
    assert excinfo.value.problems == [problem]


def test_spec_rejects_secondary_mismatches():
    with pytest.raises(ConfigError, match="secondary_values given without"):
        SweepSpec(LinkScenario(), ("A",), "p_tx", (1.0, 2.0), secondary_values=(1.0,))
    with pytest.raises(ConfigError, match="needs secondary_values"):
        SweepSpec(LinkScenario(), ("A",), "p_tx", (1.0, 2.0), secondary="rho_p_m")
    with pytest.raises(ConfigError) as excinfo:
        SweepSpec(LinkScenario(), ("A",), "p_tx", (1.0, 2.0), secondary="gain", secondary_values=(1.0,))
    assert excinfo.value.problems == ["unknown secondary 'gain'; valid names: area, beta_m, rho_p_m"]
    with pytest.raises(ConfigError, match="unknown area"):
        SweepSpec(
            LinkScenario(), ("A",), "p_tx", (1.0, 2.0),
            secondary="area", secondary_values=("area1", "area9"),
        )


def test_spec_range_rules_come_from_the_scenario():
    with pytest.raises(ConfigError, match="p_tx_w must be positive, got -1.0"):
        SweepSpec(LinkScenario(), ("A",), "p_tx", (-1.0, 2.0))
    with pytest.raises(ConfigError, match="rho_p_m must be positive, got 0.0"):
        SweepSpec(
            LinkScenario(), ("A",), "dust_density", (1.0, 2.0),
            secondary="rho_p_m", secondary_values=(0.0, 1e-4),
        )
    # An end point that breaks a rule is reported once, not once per secondary value.
    with pytest.raises(ConfigError, match="n_t_per_m3 must be non-negative, got -5.0") as excinfo:
        SweepSpec(
            LinkScenario(), ("A",), "dust_density", (-5.0, 1.0),
            secondary="rho_p_m", secondary_values=(1e-4, 5e-3),
        )
    assert str(excinfo.value).count("n_t_per_m3") == 1
    # So is each violation of a grid point that breaks two rules at once.
    with pytest.raises(ConfigError) as excinfo:
        SweepSpec(
            LinkScenario(), ("A",), "dust_density", (-5.0, 1.0),
            secondary="rho_p_m", secondary_values=(0.0, 1e-4),
        )
    assert str(excinfo.value) == "n_t_per_m3 must be non-negative, got -5.0; rho_p_m must be positive, got 0.0"


def test_spec_jitter_axis_needs_pointing_context():
    with pytest.raises(ConfigError, match="sigma_s_m needs beta_m"):
        SweepSpec(LinkScenario(), ("A",), "jitter_sigma", (0.1, 0.5))
    # Either a base pointing geometry or a collector-radius secondary works.
    SweepSpec(
        LinkScenario(pointing=PointingGeometry(0.5, 0.5, 1.0)),
        ("A",), "jitter_sigma", (0.1, 0.5),
    )
    SweepSpec(
        LinkScenario(), ("A",), "jitter_sigma", (0.1, 0.5),
        secondary="beta_m", secondary_values=(0.5, 1.0),
    )


def test_integer_secondary_values_give_the_bytes_of_floats():
    # The spec keeps the values it is given; only the config parser types them.
    def table(values):
        spec = SweepSpec(
            LinkScenario(), ("C",), "jitter_sigma", (0.1, 0.5),
            secondary="beta_m", secondary_values=values, mc=SMALL_MC,
        )
        assert spec.secondary_values is values
        return rows_to_csv(run_sweep(spec))

    assert table((1, 2)) == table((1.0, 2.0))
    with pytest.raises(ConfigError) as excinfo:
        SweepSpec(LinkScenario(), ("C", "Z"), "p_tx", (1.0, 2.0), secondary="rho_p_m", secondary_values=("x",))
    assert str(excinfo.value) == "unknown harvester 'Z'; valid names: A, B, C; rho_p_m must be a number, got 'x'"


def test_spec_quantiles_are_the_table_columns():
    # The CSV writes a p05 and a p95 column, so any other quantiles are refused with the other problems.
    with pytest.raises(ConfigError) as excinfo:
        SweepSpec(LinkScenario(), ("A",), "p_tx", (2.0, 1.0), mc=MonteCarloSettings(quantiles=(0.5,)))
    assert excinfo.value.problems == [
        "points must be strictly increasing", "quantiles must be the table's (0.05, 0.95), got (0.5,)",
    ]


def test_spec_collects_every_violation():
    with pytest.raises(ConfigError) as excinfo:
        SweepSpec(LinkScenario(), (), "speed", (2.0, 1.0))
    message = str(excinfo.value)
    assert "unknown axis 'speed'; valid names: " in message
    assert "strictly increasing" in message
    assert "harvesters must be non-empty" in message
    with pytest.raises(ConfigError, match="points must be non-empty"):
        SweepSpec(LinkScenario(), ("A",), "p_tx", points=())


# ---------------------------------------------------------------------------
# row structure


def make_small_spec():
    return SweepSpec(
        base=LinkScenario(),
        harvesters=("A", "C"),
        axis="p_tx",
        points=(1.0, 10.0),
        secondary="area",
        secondary_values=("area1", "area2"),
        mc=SMALL_MC,
    )


def test_rows_are_axis_major():
    rows = run_sweep(make_small_spec())
    assert len(rows) == 2 * 2 * 2
    observed = [(r.axis_value, r.secondary_value, r.harvester) for r in rows]
    assert observed == [
        (1.0, "area1", "A"), (1.0, "area1", "C"),
        (1.0, "area2", "A"), (1.0, "area2", "C"),
        (10.0, "area1", "A"), (10.0, "area1", "C"),
        (10.0, "area2", "A"), (10.0, "area2", "C"),
    ]
    assert [r.scenario.terrain.name for r in rows[:4]] == ["area1", "area1", "area2", "area2"]
    assert all(r.axis == "p_tx" for r in rows)
    assert all(r.scenario.distance_m == 50.0 for r in rows)
    assert [r.scenario.p_tx_w for r in rows] == [1.0] * 4 + [10.0] * 4


def test_run_sweep_computes_one_median_per_grid_point(monkeypatch):
    medians = []

    def counting_median(scenario):
        medians.append(scenario)
        return median_received_dbm(scenario)

    monkeypatch.setattr(sweep, "median_received_dbm", counting_median)
    spec = make_small_spec()
    rows = run_sweep(spec, n_workers=2)
    assert len(rows) == 2 * 2 * len(spec.harvesters)
    # One call per grid point, in row order, each for the scenario its rows carry.
    assert medians == [row.scenario for row in rows[::len(spec.harvesters)]]
    for row in rows:
        assert row.p_rx_median_dbm == median_received_dbm(row.scenario)


def test_each_scenario_derives_its_budget_once_and_no_row_derives_one(monkeypatch):
    built, derived, per_row = [], [], []
    post_init, derive, estimate = LinkScenario.__post_init__, link._derive_budget, sweep.estimate_harvest

    def counting_post_init(scenario):
        built.append(scenario)
        post_init(scenario)

    def counting_derive(scenario):
        derived.append(scenario)
        return derive(scenario)

    def counting_estimate(*args, **kwargs):
        before = len(derived)
        stats = estimate(*args, **kwargs)
        per_row.append(len(derived) - before)
        return stats

    monkeypatch.setattr(LinkScenario, "__post_init__", counting_post_init)
    monkeypatch.setattr(link, "_derive_budget", counting_derive)
    monkeypatch.setattr(sweep, "estimate_harvest", counting_estimate)
    spec = build_sweep_spec({**PRESETS["fig7a"], "n_samples": 50}, [])
    # The base scenario, then both ends of the axis at every secondary value.
    n_ends = 2 * len(spec.secondary_values)
    assert derived == built and len(built) > n_ends
    built.clear()
    derived.clear()
    rows = run_sweep(spec)
    assert derived == built
    assert len(built) == len(spec.points) * len(spec.secondary_values)
    assert built == [row.scenario for row in rows[::len(spec.harvesters)]]
    assert per_row == [0] * len(rows)


def test_each_row_uses_its_derived_substream():
    spec = make_small_spec()
    # Each row derives its seed in its own job, so a pool must number the rows as a serial run does.
    for n_workers in (1, 2):
        rows = run_sweep(spec, n_workers)
        for index, row in enumerate(rows):
            assert row.stats.seed == derive_substream_seed(spec.mc.seed, index)
        assert len({row.stats.seed for row in rows}) == len(rows)


def test_rows_match_hand_built_scenarios():
    spec = make_small_spec()
    rows = run_sweep(spec)
    # Row 7: p_tx 10 W, area2, harvester C.
    scenario = LinkScenario(p_tx_w=10.0, terrain=AREA2)
    expected_mc = replace(spec.mc, seed=derive_substream_seed(spec.mc.seed, 7))
    assert rows[7].stats == estimate_harvest(scenario, harvester_preset("C"), expected_mc)
    assert rows[7].p_rx_median_dbm == median_received_dbm(scenario)


def test_dust_axis_creates_storm_with_secondary_radius():
    spec = SweepSpec(
        base=LinkScenario(),
        harvesters=("C",),
        axis="dust_density",
        points=(1e3, 1e5),
        secondary="rho_p_m",
        secondary_values=(1e-4, 5e-3),
        mc=SMALL_MC,
    )
    rows = run_sweep(spec)
    assert len(rows) == 4
    scenario = LinkScenario(dust=DustStorm(n_t_per_m3=1e5, rho_p_m=5e-3))
    assert rows[3].p_rx_median_dbm == median_received_dbm(scenario)
    expected_mc = replace(spec.mc, seed=derive_substream_seed(spec.mc.seed, 3))
    assert rows[3].stats == estimate_harvest(scenario, harvester_preset("C"), expected_mc)


def test_jitter_axis_creates_pointing_with_default_beam():
    spec = SweepSpec(
        base=LinkScenario(),
        harvesters=("C",),
        axis="jitter_sigma",
        points=(0.1, 1.0),
        secondary="beta_m",
        secondary_values=(0.5,),
        mc=SMALL_MC,
    )
    rows = run_sweep(spec)
    geometry = PointingGeometry(
        beta_m=0.5, sigma_s_m=1.0, r_d_m=default_beam_waist(LinkScenario().carrier)
    )
    scenario = LinkScenario(pointing=geometry)
    assert rows[1].p_rx_median_dbm == median_received_dbm(scenario)
    expected_mc = replace(spec.mc, seed=derive_substream_seed(spec.mc.seed, 1))
    assert rows[1].stats == estimate_harvest(scenario, harvester_preset("C"), expected_mc)


def test_beta_secondary_keeps_the_base_jitter_and_waist():
    base = LinkScenario(pointing=PointingGeometry(0.5, 0.3, 1.0))
    spec = SweepSpec(
        base=base, harvesters=("C",), axis="p_tx", points=(1.0, 10.0),
        secondary="beta_m", secondary_values=(0.7,), mc=SMALL_MC,
    )
    rows = run_sweep(spec)
    scenario = LinkScenario(p_tx_w=10.0, pointing=PointingGeometry(0.7, 0.3, 1.0))
    assert rows[1].p_rx_median_dbm == median_received_dbm(scenario)
    expected_mc = replace(spec.mc, seed=derive_substream_seed(spec.mc.seed, 1))
    assert rows[1].stats == estimate_harvest(scenario, harvester_preset("C"), expected_mc)


def test_run_sweep_is_reproducible_across_workers(cpus):
    cpus(3)
    spec = make_small_spec()
    rows_one = run_sweep(spec)
    rows_again = run_sweep(spec)
    rows_threaded = run_sweep(spec, n_workers=3)
    assert rows_one == rows_again
    assert rows_one == rows_threaded


def test_run_sweep_rejects_bad_worker_count():
    with pytest.raises(ValueError):
        run_sweep(make_small_spec(), n_workers=0)


# ---------------------------------------------------------------------------
# presets


def test_preset_catalog():
    presets = builtin_presets()
    assert set(presets) == {
        "fig3a", "fig3b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b",
    }
    for name, spec in presets.items():
        assert spec.harvesters == ("A", "B", "C")
        assert spec.mc == MonteCarloSettings(n_samples=20_000, seed=12345)
        expected_area = AREA1 if name.endswith("a") else AREA2
        assert spec.base.terrain == expected_area
        assert len(spec.points) == 25


def test_preset_axis_definitions():
    presets = builtin_presets()
    assert presets["fig3a"].axis == "p_tx"
    assert presets["fig3a"].points[0] == 1.0
    assert presets["fig3a"].points[-1] == pytest.approx(100.0, rel=1e-12)
    assert presets["fig3a"].secondary is None

    assert presets["fig5a"].axis == "dust_density"
    assert presets["fig5a"].points[0] == 1e2
    assert presets["fig5a"].points[-1] == pytest.approx(1e5, rel=1e-12)
    assert presets["fig5a"].secondary == "rho_p_m"
    assert presets["fig5a"].secondary_values == (1e-4, 5e-3)

    assert presets["fig6a"].axis == "distance"
    assert presets["fig6a"].points[0] == 10.0 and presets["fig6a"].points[-1] == 100.0
    assert presets["fig6a"].secondary is None

    assert presets["fig7b"].axis == "jitter_sigma"
    assert presets["fig7b"].points[0] == pytest.approx(0.1, rel=1e-12)
    assert presets["fig7b"].points[-1] == 1.0
    assert presets["fig7b"].secondary == "beta_m"
    assert presets["fig7b"].secondary_values == (0.5, 1.0)


def test_preset_bases_take_the_first_secondary_value():
    # Every grid point sets the secondary's key, so this changes no row.
    presets = builtin_presets()
    assert presets["fig3a"].base == LinkScenario()
    assert presets["fig5b"].base == LinkScenario(terrain=AREA2, dust=DustStorm(0.0, 1e-4))
    waist = default_beam_waist(LinkScenario().carrier)
    assert presets["fig7a"].base == LinkScenario(pointing=PointingGeometry(0.5, 0.0, waist))


def test_preset_row_counts():
    presets = builtin_presets()
    fig3a = replace(presets["fig3a"], mc=SMALL_MC)
    fig5a = replace(presets["fig5a"], mc=SMALL_MC)
    assert len(run_sweep(fig3a)) == 25 * 3
    assert len(run_sweep(fig5a)) == 25 * 2 * 3


# ---------------------------------------------------------------------------
# dust sweep behaviour at full preset fidelity


@pytest.fixture(scope="module")
def fig5a_rows():
    return run_sweep(builtin_presets()["fig5a"], n_workers=4)


def harvester_series(rows, rho, name):
    series = [r for r in rows if r.secondary_value == rho and r.harvester == name]
    return [r.axis_value for r in series], [r.stats.median_uw for r in series]


def test_storm_grade_dust_collapses_harvest(fig5a_rows):
    for name in ("A", "B", "C"):
        _, medians = harvester_series(fig5a_rows, 5e-3, name)
        assert medians[-1] < 0.01 * medians[0]


def test_storm_grade_dust_median_strictly_decreases(fig5a_rows):
    carrier = LinkScenario().carrier
    for name in ("A", "B", "C"):
        densities, medians = harvester_series(fig5a_rows, 5e-3, name)
        attens = [
            dust_attenuation_db(DustStorm(n_t_per_m3=n_t, rho_p_m=5e-3), 50.0, carrier)
            for n_t in densities
        ]
        for j in range(len(medians) - 1):
            if attens[j] <= 1.0:
                continue
            if medians[j] == 0.0:
                assert medians[j + 1] == 0.0
            else:
                assert medians[j + 1] < medians[j]


def test_haze_grade_dust_is_negligible(fig5a_rows):
    for name in ("A", "B", "C"):
        _, medians = harvester_series(fig5a_rows, 1e-4, name)
        assert medians[-1] > 0.5 * medians[0]
        assert min(medians) > 0.0


# ---------------------------------------------------------------------------
# every row of the presets against a quadrature oracle

def assert_rows_match(name, rows, moments):
    """Each row's statistics against its oracle ``moments(row)``, by ``assert_stats_match``."""
    for row in rows:
        where = f"{name} {row.axis}={row.axis_value:g} {row.secondary_value} {row.harvester}"
        assert_stats_match(row.stats, moments(row), where)


@pytest.mark.parametrize("name", ["fig3a", "fig3b", "fig5a", "fig5b", "fig6a", "fig6b"])
def test_gaussian_preset_rows_match_the_quadrature_oracle(name):
    # No pointing and no small-scale fading: each trial's received power is
    # N(p_rx_median_dbm, sigma_db) in dBm, so a row's moments are 1-D integrals.
    spec = builtin_presets()[name]
    assert spec.base.pointing is None and spec.base.small_scale == "off"
    rows = run_sweep(spec, n_workers=2)
    assert len(rows) in (75, 150)
    assert_rows_match(name, rows, lambda row: gaussian_harvest_moments(
        harvester_preset(row.harvester), row.p_rx_median_dbm, row.scenario.terrain.sigma_db
    ))


@pytest.mark.parametrize("name", ["fig7a", "fig7b"])
def test_pointing_preset_rows_match_the_quadrature_oracle(name):
    # The pointing fade in dB is -(10 / ln 10) 2 r^2 / w_eq^2 below the aligned
    # beam, with r^2 exponential, so it is an exponential of mean
    # (10 / ln 10) / xi; shadowing minus it is an exponentially modified Gaussian.
    spec = builtin_presets()[name]
    assert spec.base.small_scale == "off"
    rows = run_sweep(spec, n_workers=2)
    assert len(rows) == 150

    def moments(row):
        fade = derive_model(row.scenario.pointing)
        return emg_harvest_moments(
            harvester_preset(row.harvester), row.p_rx_median_dbm, row.scenario.terrain.sigma_db,
            10.0 / np.log(10.0) / fade.xi,
        )

    assert_rows_match(name, rows, moments)
