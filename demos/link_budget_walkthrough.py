#!/usr/bin/env python3
"""Walk through a single link budget, term by term.

Builds the default scenario (10 W transmitter, 50 m range, flat terrain),
prints every dB contribution, then compares the deterministic median-channel
harvest with a Monte Carlo estimate over shadowing.
"""

from marswpt.harvester import BUILTIN_HARVESTERS, efficiency_percent, harvested_uw
from marswpt.link import (
    LinkScenario,
    MonteCarloSettings,
    budget_terms,
    estimate_harvest,
    median_received_dbm,
)
from marswpt.quantities import dbm_to_mw

N_SAMPLES = 50_000
SEED = 12345


def main() -> None:
    scenario = LinkScenario()

    print("link budget, default scenario")
    print(f"  transmit power : {scenario.p_tx_w:g} W")
    print(f"  distance       : {scenario.distance_m:g} m")
    print(f"  carrier        : {scenario.carrier.frequency_hz / 1e9:g} GHz")
    print(f"  terrain        : {scenario.terrain.name}")
    print()

    terms = budget_terms(scenario)
    for name, value in terms.items():
        print(f"  {name:<14s} {value:+9.3f} dB")
    median_dbm = median_received_dbm(scenario)
    print(f"  {'total':<14s} {median_dbm:+9.3f} dBm (median channel)")
    print()

    median_mw = dbm_to_mw(median_dbm)
    print("deterministic harvest on the median channel:")
    for name, model in BUILTIN_HARVESTERS.items():
        uw = harvested_uw(median_mw, efficiency_percent(model, median_mw))
        print(f"  harvester {name}: {uw:8.2f} uW")
    print()

    mc = MonteCarloSettings(n_samples=N_SAMPLES, seed=SEED)
    print(f"Monte Carlo over shadowing ({N_SAMPLES} trials, seed {SEED}):")
    for name, model in BUILTIN_HARVESTERS.items():
        stats = estimate_harvest(scenario, model, mc)
        lo, hi = stats.quantiles_uw.values()
        print(
            f"  harvester {name}: mean {stats.mean_uw:8.2f} uW, "
            f"median {stats.median_uw:8.2f} uW, "
            f"5-95% [{lo:.2f}, {hi:.2f}] uW, "
            f"{stats.clamp_count} clamped, {stats.extrapolated_count} extrapolated"
        )


if __name__ == "__main__":
    main()
