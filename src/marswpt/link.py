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
fading are enabled. Trial ``i`` owns draws ``3i..3i+2`` (row ``i`` of
``Philox(key=seed).random((n, 3))``), so a run of ``n`` trials begins with
the run of any shorter length. The trials are drawn in blocks; each block
draws from its own Philox advanced to the block's first trial, which gives
exactly that slice of the stream, so any worker count produces bit-identical
results. Uniforms are remapped once to the open interval so the inverse-CDF
transforms stay finite.

Stages
------
``draw_channel(s, mc)`` makes the ``Channel``: every draw up to received
power in dBm and mW. It does not depend on the harvester.
``harvest_samples(model, channel)`` evaluates one model on it, trial by
trial, and ``estimate_harvest`` reduces those trials to a ``HarvestStats``.
Callers that compare models draw the channel once and pass it to
``estimate_harvest`` for each, with the same result as a fresh draw.
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
from .quantities import RfCarrier, dbm_to_mw, field_problems, watts_to_dbm

SMALL_SCALE_MODES = ("off", "rayleigh")

_DB_PER_LN = 10.0 / math.log(10.0)
_OPEN_INTERVAL_EPS = 1e-16
# Trials per block: a multiple of 4, so that a block starts on a Philox
# counter step, and small enough that its uniforms and temporaries stay in L2.
_BLOCK_TRIALS = 1 << 14


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
        if len(set(self.quantiles)) < len(self.quantiles):
            problems.append(f"quantiles must not repeat, got {self.quantiles}")
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
    """Per-trial outcomes of one model on a channel, behind a HarvestStats summary."""

    p_h_uw: np.ndarray
    clamped: np.ndarray
    extrapolated: np.ndarray


@dataclass(frozen=True, slots=True, eq=False)
class Channel:
    """Per-trial received power of one scenario and seed; read-only, shared by models."""

    scenario: LinkScenario
    seed: int
    n: int
    p_rx_dbm: np.ndarray
    p_mw: np.ndarray


def _ordered_sum(terms: dict[str, float]) -> float:
    total = 0.0
    for term in terms.values():
        total += term
    return total


def budget_terms(s: LinkScenario) -> dict[str, float]:
    """Signed dB terms of the median budget; their ordered sum is the median P_RX.

    Raises ValueError unless every term, their sum and its mW value are finite.
    """
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            terms = {
                "p_tx_dbm": watts_to_dbm(s.p_tx_w),
                "g_t_db": s.g_t_db,
                "g_r_db": s.g_r_db,
                "path_loss_db": -path_loss_db(s.distance_m, s.carrier, s.terrain),
                "dust_db": -dust_attenuation_db(s.dust, s.distance_m, s.carrier) if s.dust else 0.0,
                "pointing_db": 10.0 * math.log10(derive_model(s.pointing).a0) if s.pointing else 0.0,
            }
            total = _ordered_sum(terms)
            finite = all(map(math.isfinite, (*terms.values(), total, dbm_to_mw(total))))
    except ArithmeticError:
        finite = False
    if not finite:
        raise ValueError("the median link budget lies outside the float64 range")
    return terms


def median_received_dbm(s: LinkScenario) -> float:
    """Median received power: zero shadowing, aligned beam (m = a0), fading off."""
    return _ordered_sum(budget_terms(s))


def derive_substream_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for substream ``index`` of a run seed."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


def thread_map(fn, items, n_workers: int) -> list:
    """``[fn(item) for item in items]``, on a pool of up to ``n_workers`` threads."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    items = list(items)
    if n_workers == 1 or len(items) < 2:
        return [fn(item) for item in items]
    with ThreadPoolExecutor(max_workers=min(n_workers, len(items))) as pool:
        return list(pool.map(fn, items))


def _received_dbm(s: LinkScenario, fade: MisalignmentModel | None, terms: dict[str, float],
                  u: np.ndarray, x: np.ndarray) -> None:
    """Map a (k, 3) block of open-interval uniforms to received dBm in ``x``, in place."""
    ndtri(u[:, 0], out=x)
    x *= s.terrain.sigma_db
    # Every budget term but pointing is the same for all trials; pointing
    # enters per trial through the fade model.
    base_dbm = terms["p_tx_dbm"] + terms["g_t_db"] + terms["g_r_db"]
    x += base_dbm + (terms["path_loss_db"] + terms["dust_db"])
    if fade is not None and fade.sigma_s_m > 0.0:
        # Rayleigh offset squared via inverse CDF; fade stays in the log
        # domain so huge offsets cannot underflow to zero mW.
        t = np.log(u[:, 1])
        t *= -2.0 * fade.sigma_s_m**2
        t *= 2.0
        t /= fade.w_eq_m**2
        np.subtract(math.log(fade.a0), t, out=t)
        t *= _DB_PER_LN
        x += t
    elif fade is not None:
        x += 10.0 * math.log10(fade.a0)
    if s.small_scale == "rayleigh":
        t = np.log(u[:, 2])
        np.negative(t, out=t)
        np.log(t, out=t)
        t *= _DB_PER_LN
        x += t


def draw_channel(s: LinkScenario, mc: MonteCarloSettings, n_workers: int = 1) -> Channel:
    """The per-trial channel of ``s`` at ``mc``, bit-identical for any worker count."""
    terms = budget_terms(s)
    fade = derive_model(s.pointing) if s.pointing is not None else None
    n = mc.n_samples
    p_rx_dbm, p_mw = np.empty(n), np.empty(n)

    def fill(start: int) -> None:
        # Twelve draws are three Philox counter steps, so a block that starts
        # on a multiple of 4 trials begins exactly at row ``start``.
        bitgen = np.random.Philox(key=mc.seed)
        bitgen.advance(3 * start // 4)
        stop = min(start + _BLOCK_TRIALS, n)
        u = np.random.Generator(bitgen).random((stop - start, 3))
        u *= 1.0 - 2.0 * _OPEN_INTERVAL_EPS
        u += _OPEN_INTERVAL_EPS
        # The error state is per thread, so each block sets its own.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                _received_dbm(s, fade, terms, u, p_rx_dbm[start:stop])
                np.divide(p_rx_dbm[start:stop], 10.0, out=p_mw[start:stop])
                np.power(10.0, p_mw[start:stop], out=p_mw[start:stop])
            except ArithmeticError:
                median = median_received_dbm(s)
                raise ValueError(f"received power overflows float64 in a trial (median {median:.6g} dBm)") from None

    thread_map(fill, range(0, n, _BLOCK_TRIALS), n_workers)
    p_rx_dbm.flags.writeable = p_mw.flags.writeable = False
    return Channel(s, mc.seed, n, p_rx_dbm, p_mw)


def harvest_samples(model: HarvesterModel, channel: Channel) -> HarvestSamples:
    """Every trial's harvested power, clamp and range flag for ``model`` on ``channel``."""
    n = channel.n
    p_h_uw, clamped, extrapolated = np.empty(n), np.empty(n, bool), np.empty(n, bool)
    # One thread: a model block is a few short ufuncs, and handing the GIL
    # over after each one costs more than a second core saves.
    for start in range(0, n, _BLOCK_TRIALS):
        block = slice(start, start + _BLOCK_TRIALS)
        p_mw = channel.p_mw[block]
        raw = raw_efficiency_percent(model, p_mw)
        eta = np.clip(raw, 0.0, 100.0, out=p_h_uw[block])
        np.not_equal(raw, eta, out=clamped[block])
        extrapolated[block] = is_extrapolated(model, p_mw)
        eta *= p_mw
        eta *= 1000.0 / 100.0
    return HarvestSamples(p_h_uw, clamped, extrapolated)


def _order_statistics(h: np.ndarray, quantiles: tuple[float, ...]) -> tuple[float, dict[float, float]]:
    """``np.median(h)`` and ``np.quantile(h, q)`` per q, bit for bit, from one partition.

    The formulas are numpy's: the mean of the middle one or two values, and
    linear interpolation that takes its ``t >= 0.5`` branch from the upper value.
    Equal values must be identical; with both signed zeros, the sign of a zero
    result depends on the partition's arrangement, in numpy's calls too.
    """
    last = h.size - 1
    spots = {}
    for q in quantiles:
        virtual = last * q
        lo = math.floor(virtual)
        # numpy reads index -1 (the last value) at or past the end; t follows.
        spots[q] = (lo, lo + 1, virtual - lo) if virtual < last else (last, last, virtual + 1)
    kth = {last // 2, h.size // 2, last, *(i for lo, hi, _ in spots.values() for i in (lo, hi))}
    part = np.partition(h, sorted(kth))
    if math.isnan(part[last]):  # numpy sorts NaN last, and then reports NaN
        return math.nan, dict.fromkeys(quantiles, math.nan)
    out = {}
    for q, (lo, hi, t) in spots.items():
        a, b = part[lo], part[hi]
        out[q] = float(b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t)
    return float(np.mean(part[last // 2 : h.size // 2 + 1])), out


def estimate_harvest(s: LinkScenario, model: HarvesterModel, mc: MonteCarloSettings,
                     *, channel: Channel | None = None) -> HarvestStats:
    """Monte Carlo summary over ``mc.n_samples`` trials, on ``channel`` when given."""
    if channel is None:
        channel = draw_channel(s, mc)
    elif (channel.scenario, channel.seed, channel.n) != (s, mc.seed, mc.n_samples):
        raise ValueError(f"channel (seed {channel.seed}, n {channel.n}) was not drawn for {s} at {mc}")
    draws = harvest_samples(model, channel)
    median_uw, quantiles_uw = _order_statistics(draws.p_h_uw, mc.quantiles)
    # Each trial is finite, but the sum behind a mean of huge dBm values may not be.
    with np.errstate(over="raise"):
        try:
            mean_p_rx_dbm = float(np.mean(channel.p_rx_dbm))
        except FloatingPointError:
            raise ValueError("the mean received power in dBm overflows float64") from None
    return HarvestStats(
        mean_uw=float(np.mean(draws.p_h_uw)),
        median_uw=median_uw,
        quantiles_uw=quantiles_uw,
        mean_p_rx_dbm=mean_p_rx_dbm,
        clamp_count=int(np.count_nonzero(draws.clamped)),
        extrapolated_count=int(np.count_nonzero(draws.extrapolated)),
        n_samples=mc.n_samples,
        seed=mc.seed,
    )
