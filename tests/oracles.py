"""Closed-form references for the pointing fade, and the engine's fade draws.

The package samples the fade only inside the Monte Carlo engine, so the
tests read it back from ``harvest_samples`` and compare it with these
formulas.
"""

import numpy as np

from marswpt.harvester import HARVESTER_C
from marswpt.link import LinkScenario, MonteCarloSettings, harvest_samples, median_received_dbm
from marswpt.propagation import TerrainProfile

CALM = TerrainProfile("calm", alpha=2.12, sigma_db=0.0)


def fraction_at_offset(model, r_m):
    """Collected fraction at radial offset r: a0 exp(-2 r^2 / w_eq^2)."""
    return model.a0 * np.exp(-2.0 * np.asarray(r_m, dtype=float) ** 2 / model.w_eq_m**2)


def fade_cdf(model, zeta):
    """CDF of the fade under Rayleigh jitter: (zeta / a0)^xi on (0, a0]."""
    return np.clip(np.asarray(zeta, dtype=float) / model.a0, 0.0, 1.0) ** model.xi


def engine_fade_db(geometry, n, seed):
    """Per-trial pointing fade of the Monte Carlo engine, 10 log10(m / a0).

    On calm terrain with small-scale fading off, the fade is the only random
    term, so it is the received power minus the aligned-beam median.
    """
    scenario = LinkScenario(terrain=CALM, pointing=geometry)
    draws = harvest_samples(scenario, HARVESTER_C, MonteCarloSettings(n_samples=n, seed=seed))
    return draws.p_rx_dbm - median_received_dbm(scenario)
