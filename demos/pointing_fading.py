#!/usr/bin/env python3
"""Misalignment fading: from collector geometry to harvested microwatts.

Derives the fade model for a small collector centred in the default beam,
checks the mean intercept fraction the Monte Carlo engine draws against the
closed form, then shows how jitter drags the mean harvest down.
"""

import numpy as np

from marswpt.harvester import HARVESTER_C
from marswpt.link import (
    LinkScenario,
    MonteCarloSettings,
    draw_channel,
    estimate_harvest,
    median_received_dbm,
)
from marswpt.pointing import PointingGeometry, default_beam_waist, derive_model
from marswpt.propagation import AREA1, TerrainProfile
from marswpt.quantities import dbm_to_mw

BETA_M = 0.5
N_DRAWS = 200_000
SEED = 7


def main() -> None:
    r_d = default_beam_waist(LinkScenario().carrier)
    print(f"beam waist at the collector plane: {r_d:.3f} m")
    print()

    geometry = PointingGeometry(beta_m=BETA_M, sigma_s_m=0.4, r_d_m=r_d)
    model = derive_model(geometry)
    print(f"collector radius {BETA_M} m, jitter sigma 0.4 m:")
    print(f"  a0 (aligned intercept fraction) : {model.a0:.4f}")
    print(f"  equivalent beam width           : {model.w_eq_m:.3f} m")
    print(f"  fade shape parameter xi         : {model.xi:.3f}")
    print()

    # Without shadowing or small-scale fading, each trial's received power
    # is m / a0 times the aligned-beam median.
    calm = TerrainProfile("calm", alpha=AREA1.alpha, sigma_db=0.0)
    scenario = LinkScenario(terrain=calm, pointing=geometry)
    channel = draw_channel(scenario, MonteCarloSettings(N_DRAWS, SEED))
    fades = model.a0 * channel.p_mw / dbm_to_mw(median_received_dbm(scenario))
    sampled = float(np.mean(fades))
    # Under Rayleigh jitter the mean fade has the closed form a0 xi / (xi + 1).
    closed = model.a0 * model.xi / (model.xi + 1.0)
    print(
        f"mean intercept fraction: engine {sampled:.5f} vs closed form "
        f"{closed:.5f} ({N_DRAWS} trials on calm terrain)"
    )
    print()

    print("mean harvest (model C, 20000 trials) as jitter grows:")
    mc = MonteCarloSettings(n_samples=20_000, seed=SEED)
    print(f"  {'sigma_s (m)':>12s} {'mean (uW)':>10s} {'median (uW)':>12s}")
    for sigma in np.linspace(0.1, 1.0, 10):
        scenario = LinkScenario(
            pointing=PointingGeometry(beta_m=BETA_M, sigma_s_m=float(sigma), r_d_m=r_d)
        )
        stats = estimate_harvest(scenario, HARVESTER_C, mc)
        print(f"  {sigma:12.1f} {stats.mean_uw:10.3f} {stats.median_uw:12.3f}")


if __name__ == "__main__":
    main()
