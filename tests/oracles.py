"""Closed-form references for the pointing fade, and the engine's fade draws,
and quadrature oracles for Monte Carlo rows whose channel in dB is Gaussian,
or Gaussian minus an exponential pointing fade, either with or without Rayleigh fading.

The package samples the fade only inside the Monte Carlo engine, so the
tests read it back from ``draw_channel`` and compare it with these
formulas.
"""

import math

import numpy as np
from scipy.special import log_ndtr, ndtr
from scipy.stats import binom

from marswpt.link import LinkScenario, MonteCarloSettings, draw_channel, median_received_dbm
from marswpt.propagation import TerrainProfile

CALM = TerrainProfile("calm", alpha=2.12, sigma_db=0.0)

# Fixed before looking at any result: k = 5 standard errors, and its
# two-sided normal tail for the exact binomial test of the range counts.
K_SE = 5.0
MIN_TAIL = 5.7e-7


def fraction_at_offset(model, r_m):
    """Collected fraction at radial offset r: a0 exp(-2 r^2 / w_eq^2)."""
    return model.a0 * np.exp(-2.0 * np.asarray(r_m, dtype=float) ** 2 / model.w_eq_m**2)


def mean_fraction(model):
    """Closed-form mean fade E[m] = a0 xi / (xi + 1); a0 when jitter is zero."""
    if math.isinf(model.xi):
        return model.a0
    return model.a0 * model.xi / (model.xi + 1.0)


def fade_cdf(model, zeta):
    """CDF of the fade under Rayleigh jitter: (zeta / a0)^xi on (0, a0]."""
    return np.clip(np.asarray(zeta, dtype=float) / model.a0, 0.0, 1.0) ** model.xi


def engine_fade_db(geometry, n, seed):
    """Per-trial pointing fade of the Monte Carlo engine, 10 log10(m / a0).

    On calm terrain with small-scale fading off, the fade is the only random
    term, so it is the received power in dB minus the aligned-beam median.
    """
    scenario = LinkScenario(terrain=CALM, pointing=geometry)
    channel = draw_channel(scenario, MonteCarloSettings(n_samples=n, seed=seed))
    return 10.0 * np.log10(channel.p_mw) - median_received_dbm(scenario)


def _harvest_uw(model, p_dbm):
    """One trial's harvested power in uW at received power ``p_dbm``, clamped as the engine does."""
    p = 10.0 ** (p_dbm / 10.0)
    eta = (model.a2 * p**2 + model.a1 * p + model.a0) / (p**3 + model.b2 * p**2 + model.b1 * p + model.b0)
    return p * np.clip(eta, 0.0, 100.0) * 10.0


def _trapezoid_moments(weight, h_uw):
    weight[[0, -1]] *= 0.5
    mean = weight @ h_uw
    return mean, weight @ (h_uw - mean) ** 2


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
    mean, variance = _trapezoid_moments(weight, _harvest_uw(model, median_dbm + sigma_db * z))
    lo_dbm, hi_dbm = 10.0 * np.log10(model.valid_range_mw)
    p_out = ndtr((lo_dbm - median_dbm) / sigma_db) + ndtr((median_dbm - hi_dbm) / sigma_db)
    return mean, variance, p_out


def emg_harvest_moments(model, median_dbm, sigma_db, fade_mean_db, n_grid=40_001):
    """As ``gaussian_harvest_moments``, when the received power in dBm is
    ``median_dbm + sigma_db Z - E`` with E exponential of mean ``fade_mean_db``.

    The offset x = sigma_db Z - E has the exponentially modified Gaussian
    density lam exp(lam x + lam^2 sigma^2 / 2) Phi(-x / sigma - lam sigma),
    lam = 1 / fade_mean_db, and the CDF Phi(x / sigma) plus that density over
    lam. Both are written with ``log_ndtr``: an ``erfcx`` product is 0 * inf in
    the tails. The trapezoid grid spans 9 sigma above the median and 9 sigma
    plus 40 fade means below it.
    """
    lam = 1.0 / fade_mean_db

    def density_over_lam(x):
        return np.exp(lam * x + 0.5 * (lam * sigma_db) ** 2 + log_ndtr(-x / sigma_db - lam * sigma_db))

    x = np.linspace(-9.0 * sigma_db - 40.0 * fade_mean_db, 9.0 * sigma_db, n_grid)
    weight = lam * density_over_lam(x) * (x[1] - x[0])
    mean, variance = _trapezoid_moments(weight, _harvest_uw(model, median_dbm + x))
    lo, hi = 10.0 * np.log10(model.valid_range_mw) - median_dbm
    # 1 - CDF at hi: the normal upper tail less the fade term, floored at 0 against rounding.
    above = max(ndtr(-hi / sigma_db) - density_over_lam(hi), 0.0)
    p_out = ndtr(lo / sigma_db) + density_over_lam(lo) + above
    return mean, variance, p_out


def rayleigh_harvest_moments(inner, median_dbm, n_u=601):
    """As ``inner(median_dbm)``, an oracle's (mean, variance, range
    probability) at a median in dBm, when Rayleigh small-scale fading adds
    10 log10 g to the received power in dBm, with g ~ Exp(1).

    With u = ln g the density of u is exp(u - e^u). A trapezoid rule over
    u in [-40, 4] mixes the moments at each shifted median: the mean by total
    expectation, the variance by total variance, and the range probability
    as a weighted sum. The density beyond that interval is below e^-40.
    """
    u = np.linspace(-40.0, 4.0, n_u)
    weight = np.exp(u - np.exp(u)) * (u[1] - u[0])
    weight[[0, -1]] *= 0.5
    parts = np.array([inner(median_dbm + 10.0 * np.log10(np.e) * ui) for ui in u])
    mean = weight @ parts[:, 0]
    return mean, weight @ (parts[:, 1] + (parts[:, 0] - mean) ** 2), weight @ parts[:, 2]


def assert_stats_match(stats, moments, where):
    """``stats``' mean within K_SE standard errors of the oracle's (mean, variance,
    range probability) ``moments``, and its extrapolated count inside the
    binomial tail of that probability."""
    n = stats.n_samples
    mean, variance, p_out = moments
    assert abs(stats.mean_uw - mean) <= K_SE * np.sqrt(variance / n), where
    k = stats.extrapolated_count
    tail = 2.0 * min(binom.cdf(k, n, p_out), binom.sf(k - 1, n, p_out))
    assert tail >= MIN_TAIL, where
