"""End-to-end link budget and the Monte Carlo harvested-power estimator.

The received power of one trial composes in dB:

    P_RX = P_TX(dBm) + G_T + G_R - PL_median - chi - P_DS
           + 10 log10(m) + 10 log10(g)

where ``chi`` is the log-normal shadowing draw, ``m`` the misalignment fade
(when pointing is enabled), and ``g`` a unit-mean exponential power gain
(when Rayleigh small-scale fading is enabled). The dBm value converts to mW
exactly once, at the harvester boundary.

Determinism contract
--------------------
Every trial consumes a fixed budget of three uniforms from one counter-based
Philox stream keyed by the seed, whether or not pointing and small-scale
fading are enabled. Trial ``i`` owns draws ``3i..3i+2``, so a scalar-call
loop, the vectorized path, and any worker count all produce bit-identical
results. Uniforms are remapped once to the open interval so the inverse-CDF
transforms stay finite.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.special import ndtri

from .harvester import HarvesterModel, is_extrapolated, raw_efficiency_percent
from .pointing import MisalignmentModel, PointingGeometry, derive_model
from .propagation import AREA1, DustStorm, TerrainProfile, dust_attenuation_db, path_loss_db
from .quantities import RfCarrier, field_problems, watts_to_dbm

SMALL_SCALE_MODES = ("off", "rayleigh")

_DB_PER_LN = 10.0 / math.log(10.0)
_OPEN_INTERVAL_EPS = 1e-16


@dataclass(frozen=True, slots=True)
class LinkScenario:
    """One transmitter-receiver configuration. Defaults: 10 W, 50 m, Area 1."""

    p_tx_w: float = 10.0
    distance_m: float = 50.0
    g_t_db: float = 28.0
    g_r_db: float = 0.0
    carrier: RfCarrier = RfCarrier()
    terrain: TerrainProfile = AREA1
    dust: DustStorm | None = None
    pointing: PointingGeometry | None = None
    small_scale: str = "off"

    def __post_init__(self) -> None:
        problems = field_problems(self, p_tx_w="positive", distance_m="positive")
        if self.small_scale not in SMALL_SCALE_MODES:
            problems.append(
                f"small_scale must be one of {SMALL_SCALE_MODES}, got {self.small_scale!r}"
            )
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True, slots=True)
class MonteCarloSettings:
    n_samples: int = 20_000
    seed: int = 12345
    quantiles: tuple[float, ...] = (0.05, 0.95)

    def __post_init__(self) -> None:
        problems = []
        if not self.n_samples >= 1:
            problems.append(f"n_samples must be at least 1, got {self.n_samples}")
        if not 0 <= self.seed < 2**64:
            problems.append(f"seed must be a 64-bit unsigned integer, got {self.seed}")
        if any(not 0.0 < q < 1.0 for q in self.quantiles):
            problems.append(f"quantiles must lie strictly inside (0, 1), got {self.quantiles}")
        if problems:
            raise ValueError("; ".join(problems))


@dataclass(frozen=True, slots=True)
class HarvestStats:
    """Monte Carlo summary of harvested power, all power figures in microwatts."""

    mean_uw: float
    median_uw: float
    quantiles_uw: dict[float, float]
    mean_p_rx_dbm: float
    clamp_count: int
    extrapolated_count: int
    n_samples: int
    seed: int


@dataclass(frozen=True, slots=True)
class HarvestSamples:
    """Raw per-trial draws behind a HarvestStats summary."""

    p_rx_dbm: np.ndarray
    p_h_uw: np.ndarray
    clamped: np.ndarray
    extrapolated: np.ndarray


def budget_terms(s: LinkScenario) -> dict[str, float]:
    """Signed dB terms of the median budget; their ordered sum is the median P_RX."""
    if s.dust is not None:
        dust_db = -dust_attenuation_db(s.dust, s.distance_m, s.carrier)
    else:
        dust_db = 0.0
    if s.pointing is not None:
        pointing_db = 10.0 * math.log10(derive_model(s.pointing).a0)
    else:
        pointing_db = 0.0
    return {
        "p_tx_dbm": watts_to_dbm(s.p_tx_w),
        "g_t_db": s.g_t_db,
        "g_r_db": s.g_r_db,
        "path_loss_db": -path_loss_db(s.distance_m, s.carrier, s.terrain),
        "dust_db": dust_db,
        "pointing_db": pointing_db,
    }


def median_received_dbm(s: LinkScenario) -> float:
    """Median received power: zero shadowing, aligned beam (m = a0), fading off."""
    total = 0.0
    for term in budget_terms(s).values():
        total += term
    return total


def derive_substream_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for substream ``index`` of a run seed."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def _open_uniforms(u: np.ndarray) -> np.ndarray:
    return u * (1.0 - 2.0 * _OPEN_INTERVAL_EPS) + _OPEN_INTERVAL_EPS


def _received_dbm_from_uniforms(
    s: LinkScenario, fade: MisalignmentModel | None, base_dbm: float, u: np.ndarray
) -> np.ndarray:
    """Map a (n, 3) open-interval uniform block to received power in dBm."""
    x = base_dbm + s.terrain.sigma_db * ndtri(u[:, 0])
    if fade is not None:
        if fade.sigma_s_m > 0.0:
            # Rayleigh offset squared via inverse CDF; fade stays in the log
            # domain so huge offsets cannot underflow to zero mW.
            r_sq = -2.0 * fade.sigma_s_m**2 * np.log(u[:, 1])
            x = x + _DB_PER_LN * (math.log(fade.a0) - 2.0 * r_sq / fade.w_eq_m**2)
        else:
            x = x + 10.0 * math.log10(fade.a0)
    if s.small_scale == "rayleigh":
        x = x + _DB_PER_LN * np.log(-np.log(u[:, 2]))
    return x


def _harvest_chunk(
    s: LinkScenario,
    model: HarvesterModel,
    fade: MisalignmentModel | None,
    base_dbm: float,
    u: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    x_dbm = _received_dbm_from_uniforms(s, fade, base_dbm, u)
    p_mw = 10.0 ** (x_dbm / 10.0)
    raw = raw_efficiency_percent(model, p_mw)
    eta = np.clip(raw, 0.0, 100.0)
    p_h_uw = p_mw * eta * (1000.0 / 100.0)
    return x_dbm, p_h_uw, raw != eta, is_extrapolated(model, p_mw)


def _pointing_base_dbm(s: LinkScenario) -> tuple[MisalignmentModel | None, float]:
    """Split the budget into the deterministic base (no pointing) and the fade model."""
    terms = budget_terms(s)
    base = terms["p_tx_dbm"] + terms["g_t_db"] + terms["g_r_db"]
    base += terms["path_loss_db"] + terms["dust_db"]
    fade = derive_model(s.pointing) if s.pointing is not None else None
    return fade, base


def sample_harvest_uw(s: LinkScenario, model: HarvesterModel, rng: np.random.Generator) -> float:
    """One Monte Carlo trial: harvested power in microwatts.

    Consumes exactly three uniforms from ``rng``, so a loop over this function
    on a fresh Philox(seed) generator reproduces ``harvest_samples`` bit for
    bit.
    """
    fade, base_dbm = _pointing_base_dbm(s)
    u = _open_uniforms(rng.random(3)).reshape(1, 3)
    _, p_h_uw, _, _ = _harvest_chunk(s, model, fade, base_dbm, u)
    return float(p_h_uw[0])


def harvest_samples(
    s: LinkScenario,
    model: HarvesterModel,
    mc: MonteCarloSettings,
    n_workers: int = 1,
) -> HarvestSamples:
    """All per-trial draws for a scenario, bit-identical for any worker count."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    fade, base_dbm = _pointing_base_dbm(s)
    gen = np.random.Generator(np.random.Philox(key=mc.seed))
    u = _open_uniforms(gen.random((mc.n_samples, 3)))

    if n_workers == 1 or mc.n_samples < 4 * n_workers:
        parts = [_harvest_chunk(s, model, fade, base_dbm, u)]
    else:
        chunks = np.array_split(u, n_workers)
        with ThreadPoolExecutor(max_workers=n_workers) as pool:
            parts = list(pool.map(lambda c: _harvest_chunk(s, model, fade, base_dbm, c), chunks))

    x_dbm = np.concatenate([part[0] for part in parts])
    p_h_uw = np.concatenate([part[1] for part in parts])
    clamped = np.concatenate([part[2] for part in parts])
    extrapolated = np.concatenate([part[3] for part in parts])
    return HarvestSamples(x_dbm, p_h_uw, clamped, extrapolated)


def estimate_harvest(
    s: LinkScenario,
    model: HarvesterModel,
    mc: MonteCarloSettings,
    n_workers: int = 1,
) -> HarvestStats:
    """Monte Carlo summary over ``mc.n_samples`` trials."""
    draws = harvest_samples(s, model, mc, n_workers)
    h = draws.p_h_uw
    return HarvestStats(
        mean_uw=float(np.mean(h)),
        median_uw=float(np.median(h)),
        quantiles_uw={q: float(np.quantile(h, q)) for q in mc.quantiles},
        mean_p_rx_dbm=float(np.mean(draws.p_rx_dbm)),
        clamp_count=int(np.count_nonzero(draws.clamped)),
        extrapolated_count=int(np.count_nonzero(draws.extrapolated)),
        n_samples=mc.n_samples,
        seed=mc.seed,
    )
