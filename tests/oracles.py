"""Closed-form references for the pointing fade, and the engine's fade draws,
and a quadrature oracle for Monte Carlo rows whose channel is Gaussian in dB.

The package samples the fade only inside the Monte Carlo engine, so the
tests read it back from ``draw_channel`` and compare it with these
formulas.
"""

import numpy as np
from scipy.special import ndtr

from marswpt.link import LinkScenario, MonteCarloSettings, draw_channel, median_received_dbm
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
    channel = draw_channel(scenario, MonteCarloSettings(n_samples=n, seed=seed))
    return channel.p_rx_dbm - median_received_dbm(scenario)


def gaussian_harvest_moments(model, median_dbm, sigma_db, n_grid=4001):
    """Mean and variance of one trial's harvested power in uW, and the
    probability that it lies outside ``model``'s certified range, when the
    received power in dBm is N(``median_dbm``, ``sigma_db``).

    The moments are a trapezoid rule in the standard normal variable over
    [-9, 9]; the model's output is bounded, so the tails beyond add nothing
    visible. The range probability is two normal tails.
    """
    z = np.linspace(-9.0, 9.0, n_grid)
    weight = np.exp(-0.5 * z * z) * (z[1] - z[0]) / np.sqrt(2.0 * np.pi)
    weight[[0, -1]] *= 0.5
    p = 10.0 ** ((median_dbm + sigma_db * z) / 10.0)
    eta = (model.a2 * p**2 + model.a1 * p + model.a0) / (p**3 + model.b2 * p**2 + model.b1 * p + model.b0)
    h_uw = p * np.clip(eta, 0.0, 100.0) * 10.0
    mean = weight @ h_uw
    variance = weight @ (h_uw - mean) ** 2
    lo_dbm, hi_dbm = 10.0 * np.log10(model.valid_range_mw)
    p_out = ndtr((lo_dbm - median_dbm) / sigma_db) + ndtr((median_dbm - hi_dbm) / sigma_db)
    return mean, variance, p_out
