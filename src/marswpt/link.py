"""End-to-end link budget and the Monte Carlo harvested-power estimator.

The received power of one trial composes in dB:

    P_RX = P_TX(dBm) + G_T + G_R - PL_median - chi - P_DS
           + 10 log10(m) + 10 log10(g)

where ``chi`` is the log-normal shadowing draw, ``m`` the misalignment fade
(when pointing is enabled), and ``g`` a unit-mean exponential power gain
(when Rayleigh small-scale fading is enabled). The dBm value converts to mW
exactly once, at the harvester boundary, by ``dbm_to_mw``, the one conversion,
which a report's median channel takes too. Every pointing trial computes
``10 log10(m) = (10 / ln 10)(ln a0 - 2 r^2 / w_eq^2)``; zero jitter is the
``sigma_s = 0`` case of that one expression, with every offset term +0.

Determinism contract
--------------------
Every trial owns a fixed budget of three 64-bit words from one counter-based
Philox stream keyed by the seed, whether or not pointing and small-scale
fading are enabled. Trial ``i`` owns words ``3i..3i+2``: word ``3i + j``
feeds shadowing (``j = 0``), the pointing offset (``j = 1``) and the
small-scale fade (``j = 2``). So a run of ``n`` trials begins with the run
of any shorter length. A word becomes a uniform only where the scenario
reads it, and then it is the double of row ``i``, column ``j`` of
``Generator(Philox(key=seed)).random((n, 3))``, remapped once to the open
interval so the inverse-CDF transforms stay finite. The trials are drawn in
blocks. Each thread keeps one Philox, and for each block re-keys it with the
seed and sets its counter to the block's first trial, which gives exactly that
slice of the stream, so any worker count produces bit-identical results.
Nothing here reads OS entropy.

Stages
------
A ``LinkScenario`` derives its budget terms, their sum (the median received
dBm), the constant every trial adds, ``(p_tx + g_t + g_r) + (path loss +
dust)``, and its pointing fade model once, when it is built, checks each sum
against float64, and carries them; ``budget_terms``, ``median_received_dbm``
and ``draw_channel`` read them. ``draw_channel(s, mc)`` makes the ``Channel``:
every draw up to received power in mW, and the mean received dBm, computed
once. It holds one float64 per trial. A first pass writes each block's
received dBm into that array: the unit stage, ``_unit_draw``, turns a column
of the block's Philox words into z = ndtri(u0), ln u1 or ln(-ln u2), with no
scenario value, and the scenario stage, ``_received_dbm``, adds the columns
the scenario reads to that constant. A second pass, ``dbm_to_mw``, turns them
into mW in place, so the dBm values live only until their mean is taken. It
does not depend on the harvester, and raises ValueError when a trial or,
after every trial, the mean overflows.
``harvest_samples(model, channel, n_workers)`` evaluates one model on it
block by block, over ``thread_map``, straight into the one n-sized array an
estimate owns; each thread keeps one float and one boolean scratch for the
blocks it runs, so a block allocates nothing. ``raw_efficiency_percent``
refuses a negative or NaN power there, so every harvest is finite and >= 0.
It counts the trials that the clip moved, and the extrapolated ones.
``estimate_harvest`` draws the channel, or checks that the one given was
drawn for its scenario and settings, calls ``harvest_samples``, then
``_reduce``, which takes the mean of that array in trial order, then sorts it
in two runs over ``thread_map`` and reads the median and quantiles. It
returns a ``HarvestStats`` with the channel's mean dBm. Callers that compare
models draw the channel once and pass it to ``estimate_harvest`` for each,
with the same result as a fresh draw; ``link`` reduces the models one at a
time, each stage over the pool, so a report holds the channel and one harvest
array: 16 B per trial at any worker count.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
import os
import threading
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.special import ndtri

from .flatkeys import field_kinds
from .harvester import HarvesterModel, harvested_uw, is_extrapolated, raw_efficiency_percent
from .pointing import MisalignmentModel, PointingGeometry, default_pointing, derive_model
from .propagation import AREA1, DustStorm, TerrainProfile, dust_attenuation_db, path_loss_db, terrain_preset
from .quantities import RfCarrier, attempt, dbm_to_mw, field_problems, lookup, raise_problems, watts_to_dbm

# What small_scale selects: whether each trial draws a Rayleigh power gain.
SMALL_SCALE_MODES = {"off": False, "rayleigh": True}

_DB_PER_LN = 10.0 / math.log(10.0)
_OPEN_INTERVAL_EPS = 1e-16
# A word w becomes numpy's Philox double (w >> 11) * 2^-53, then the
# open-interval remap u * (1 - 2 eps) + eps. Scaling by 2^-53 is exact, so
# one multiply of w >> 11 by this product rounds as those two multiplies do.
_WORD_TO_OPEN_UNIFORM = 2.0**-53 * (1.0 - 2.0 * _OPEN_INTERVAL_EPS)
# Trials per block: a multiple of 4, so that a block starts on a Philox counter step. A block's
# words, channel slice and scratch take 2.5 MB, more than a 2 MB L2; of 2^14 to 2^18, 2^16 was
# the fastest at 2 workers and tied at 1.
_BLOCK_TRIALS = 1 << 16


@dataclass(frozen=True, slots=True)
class _Budget:
    """What a scenario derives from its fields: the signed dB terms of its median budget, their
    ordered sum (the median P_RX), the constant dB term every trial adds, and the pointing fade model."""

    terms: dict[str, float]
    median_dbm: float
    offset_dbm: float
    fade: MisalignmentModel | None


@dataclass(frozen=True, slots=True)
class LinkScenario:
    """One transmitter-receiver configuration. Defaults: 10 W, 50 m, Area 1.

    A scenario derives its budget once, when it is built, and carries it in a
    field that is not a parameter and takes no part in its repr, equality or hash.
    """

    p_tx_w: float = 10.0
    distance_m: float = 50.0
    g_t_db: float = 28.0
    g_r_db: float = 0.0
    carrier: RfCarrier = RfCarrier()
    terrain: TerrainProfile = AREA1
    dust: DustStorm | None = None
    pointing: PointingGeometry | None = None
    small_scale: str = "off"
    _budget: _Budget = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        problems = field_problems(self, p_tx_w="positive", distance_m="positive")
        attempt(problems, lookup, SMALL_SCALE_MODES, "small_scale", self.small_scale)
        # The budget derives the fade model, so this also checks the pointing geometry.
        budget = None if problems else attempt(problems, _derive_budget, self)
        raise_problems(problems)
        object.__setattr__(self, "_budget", budget)


# The parts of a LinkScenario whose float fields are flat keys of scenario_with.
_SCENARIO_PARTS = {
    "carrier": RfCarrier, "terrain": TerrainProfile, "dust": DustStorm, "pointing": PointingGeometry,
}
# Every flat key of scenario_with and its kind (see flatkeys.VALUE_KINDS):
# the scenario's own fields, area, and the float fields of its parts.
SCENARIO_KEYS = {
    **field_kinds(LinkScenario), "area": "str",
    **{key: "float" for cls in _SCENARIO_PARTS.values() for key in field_kinds(cls, ("float",))},
}


def scenario_with(s: LinkScenario, **values) -> LinkScenario:
    """``s`` with flat keys set: its own fields, ``area``, and the float fields of its parts.

    An existing part is replaced. A missing dust part starts from ``DustStorm()``,
    and a missing pointing part from ``default_pointing`` on the new carrier, so
    it needs ``beta_m``. ``area`` picks a terrain preset, which ``alpha`` or
    ``sigma_db`` then make a "custom" terrain. Raises one ValueError that lists
    every violation.
    """
    given = {
        part: {key: values.pop(key) for key in field_kinds(cls, ("float",)) if key in values}
        for part, cls in _SCENARIO_PARTS.items()
    }
    problems: list[str] = []
    new = {}
    if given["carrier"]:
        new["carrier"] = attempt(problems, replace, s.carrier, **given["carrier"])
    new["terrain"] = attempt(problems, terrain_preset, values.pop("area")) if "area" in values else s.terrain
    if new["terrain"] is not None and given["terrain"]:
        new["terrain"] = attempt(problems, replace, new["terrain"], name="custom", **given["terrain"])
    if given["dust"]:
        new["dust"] = attempt(problems, replace, s.dust or DustStorm(), **given["dust"])
    pointing = given["pointing"]
    if pointing and s.pointing is not None:
        new["pointing"] = attempt(problems, replace, s.pointing, **pointing)
    elif "beta_m" in pointing:
        new["pointing"] = attempt(problems, default_pointing, new.get("carrier") or s.carrier, **pointing)
    else:
        problems += [f"{key} needs beta_m, the aperture radius of the pointing geometry" for key in pointing]
    # A part that failed keeps its old value, so the scenario's own rules still run.
    scenario = attempt(problems, replace, s, **{k: v for k, v in new.items() if v is not None}, **values)
    raise_problems(problems)
    return scenario


def build_scenario(values: dict, problems: list[str]) -> LinkScenario | None:
    """The default scenario with the scenario keys among typed flat ``values``; appends every violation."""
    given = {key: value for key, value in values.items() if key in SCENARIO_KEYS}
    return attempt(problems, scenario_with, LinkScenario(), **given)


def _integer(value) -> int | None:
    """``value`` as an int, or None unless it is an integer other than a bool; numpy integers pass."""
    try:
        return None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        return None


# The most trials whose float64 array numpy can index: its byte count must fit an intp.
_MAX_SAMPLES = np.iinfo(np.intp).max // 8


@dataclass(frozen=True, slots=True)
class MonteCarloSettings:
    n_samples: int = 20_000
    seed: int = 12345
    quantiles: tuple[float, ...] = (0.05, 0.95)

    def __post_init__(self) -> None:
        problems = []
        n, seed = _integer(self.n_samples), _integer(self.seed)
        if n is None:
            problems.append(f"n_samples must be an integer, got {self.n_samples!r}")
        elif n < 1:
            problems.append(f"n_samples must be at least 1, got {n}")
        elif n > _MAX_SAMPLES:
            problems.append(f"n_samples must be at most {_MAX_SAMPLES}, the most float64 values an array"
                            f" can index, got {n}")
        if seed is None:
            problems.append(f"seed must be an integer, got {self.seed!r}")
        elif not 0 <= seed < 2**64:
            problems.append(f"seed must be a 64-bit unsigned integer, got {seed}")
        q = self.quantiles
        if not (isinstance(q, tuple) and all(isinstance(v, numbers.Real) for v in q)):
            problems.append(f"quantiles must be a tuple of numbers, got {q!r}")
        else:
            if any(not 0.0 < v < 1.0 for v in q):
                problems.append(f"quantiles must lie strictly inside (0, 1), got {q}")
            if len(set(q)) < len(q):
                problems.append(f"quantiles must not repeat, got {q}")
        raise_problems(problems)


# Every flat key of MonteCarloSettings and its kind.
MC_KEYS = field_kinds(MonteCarloSettings)


def build_mc(values: dict, problems: list[str]) -> MonteCarloSettings | None:
    """Monte Carlo settings from the Monte Carlo keys among typed flat ``values``; appends every violation."""
    return attempt(problems, MonteCarloSettings, **{key: values[key] for key in MC_KEYS if key in values})


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
    """Per-trial harvested power of one model on a channel, and how many trials it clamped or extrapolated."""

    p_h_uw: np.ndarray
    clamp_count: int
    extrapolated_count: int


@dataclass(frozen=True, slots=True, eq=False)
class Channel:
    """Per-trial received power in mW (no dBm: 8 bytes a trial) of one scenario and seed, and its mean
    in dBm; read-only, shared by models."""

    scenario: LinkScenario
    seed: int
    p_mw: np.ndarray
    mean_p_rx_dbm: float


def _derive_budget(s: LinkScenario) -> _Budget:
    """The budget of ``s``; ValueError unless every term, their sum, its mW and the trials' constant are finite."""
    fade = None
    try:
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            terms = {
                "p_tx_dbm": watts_to_dbm(s.p_tx_w),
                "g_t_db": s.g_t_db,
                "g_r_db": s.g_r_db,
                "path_loss_db": -path_loss_db(s.distance_m, s.carrier, s.terrain),
                "dust_db": -dust_attenuation_db(s.dust, s.distance_m, s.carrier) if s.dust else 0.0,
                "pointing_db": 10.0 * math.log10((fade := derive_model(s.pointing)).a0) if s.pointing else 0.0,
            }
            # Not sum(): since CPython 3.12 it adds floats with compensation (gh-100425), which would
            # change the median dBm's last bits, and one golden.json pins every Python that CI runs.
            total = 0.0
            for term in terms.values():
                total += term
            # Every term but pointing, which enters per trial through the fade model, is the same for all
            # trials. They add this constant, in its own association, so its last bit may differ from total's.
            base_dbm = terms["p_tx_dbm"] + terms["g_t_db"] + terms["g_r_db"]
            offset = base_dbm + (terms["path_loss_db"] + terms["dust_db"])
            finite = all(map(math.isfinite, (*terms.values(), total, dbm_to_mw(total), offset)))
    except ArithmeticError:
        finite = False
    if not finite:
        raise ValueError("the link budget lies outside the float64 range")
    return _Budget(terms, total, offset, fade)


def budget_terms(s: LinkScenario) -> dict[str, float]:
    """Signed dB terms of the median budget, as a fresh dict; their ordered sum is the median P_RX."""
    return dict(s._budget.terms)


def median_received_dbm(s: LinkScenario) -> float:
    """Median received power: zero shadowing, aligned beam (m = a0), fading off."""
    return s._budget.median_dbm


def derive_substream_seed(seed: int, index: int) -> int:
    """Stable 64-bit child seed for substream ``index`` of a run seed."""
    if index < 0:
        raise ValueError(f"index must be non-negative, got {index}")
    return int(np.random.SeedSequence([seed, index]).generate_state(1, np.uint64)[0])


# The CPUs this process may run on, and the one pool of helper threads that
# serves every thread_map call. A helper lives for the rest of the process
# and reuses its malloc arena, where a fresh thread would keep one more.
_CPUS = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
_HELPERS = ThreadPoolExecutor(max(_CPUS - 1, 1), thread_name_prefix="marswpt-helper")


def thread_map(fn, items, n_workers: int) -> list:
    """``[fn(item) for item in items]``, on the calling thread and ``min(n_workers, CPUs) - 1`` helpers.

    The helpers come from the process's one pool, so a process never has more
    than CPUs - 1 of them, whatever count its callers pass. Every thread takes
    the next item index from one shared counter, and stops taking them once an
    item has failed. Every index below a failing one was taken before it and
    runs, so the exception raised is the one of the lowest failing index, as
    in a serial run. When this returns or raises, no helper runs one of its
    items: a helper task that has started is waited on, and one that has not
    is cancelled, so a nested call cannot deadlock.
    """
    if n_workers < 1:
        raise ValueError(f"n_workers must be at least 1, got {n_workers}")
    items = list(items)
    n_helpers = min(n_workers, len(items), _CPUS) - 1
    if n_helpers <= 0:
        # No helper: a serial run, with no pool or shared counter.
        return [fn(item) for item in items]
    results = [None] * len(items)
    errors: dict[int, BaseException] = {}
    # next() on a count is one atomic step under the GIL.
    indices = itertools.count()

    def work() -> None:
        while not errors:
            i = next(indices)
            if i >= len(items):
                return
            try:
                results[i] = fn(items[i])
            except BaseException as exc:
                errors[i] = exc

    tasks = [_HELPERS.submit(work) for _ in range(n_helpers)]
    try:
        work()
    finally:
        # wait() would block on a cancelled task until a helper dequeued it.
        wait([task for task in tasks if not task.cancel()])
        fn = items = None  # A helper drops ``work`` after this returns: it must not keep the caller's arrays.
    if errors:
        raise errors[min(errors)]
    return results


# Each thread's one Philox, re-keyed for every block it draws.
_THREAD = threading.local()


def _philox_words(seed: int, start: int, k: int) -> np.ndarray:
    """The 3k words of trials ``start..start + k`` in stream order, shifted right by 11."""
    bitgen = getattr(_THREAD, "philox", None)
    if bitgen is None:
        # A Philox built from a key draws OS entropy it then ignores; one built from a seed reads none.
        bitgen = _THREAD.philox = np.random.Philox(0)
    # The state of Philox(key=seed) advanced to trial ``start`` with an empty buffer. Twelve words
    # are three counter steps, so a block that starts on a multiple of 4 trials begins exactly there.
    bitgen.state = {"bit_generator": "Philox", "state": {"counter": (3 * start // 4, 0, 0, 0), "key": (seed, 0)},
                    "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    words = bitgen.random_raw(3 * k)
    words >>= 11
    # No int64 view or (k, 3) reshape, though int64 converts a little faster:
    # a view's shape, allocated above the block and kept in numpy's cache,
    # can stop a helper thread from reusing the freed block (+1.4 MB RSS).
    return words


def _unit_draw(words: np.ndarray, j: int, out: np.ndarray) -> np.ndarray:
    """The unit stage: column ``j`` of a block's Philox words shifted right by 11, as unit draws in ``out``.
    Word ``3i + j`` is trial i's uniform u_j, drawn as z = ndtri(u0), ln u1 or ln(-ln u2): no scenario value."""
    # Each word is below 2^53, so the cast is exact. Casting on assignment
    # needs no buffer, where a multiply straight from the words would cast
    # through one, and the two passes take less time than that one.
    out[...] = words[j::3]
    out *= _WORD_TO_OPEN_UNIFORM
    out += _OPEN_INTERVAL_EPS
    if j == 0:
        return ndtri(out, out=out)
    # The log loops read the contiguous uniforms; on a strided column they are 3x slower.
    np.log(out, out=out)
    return np.log(np.negative(out, out=out), out=out) if j == 2 else out


def _received_dbm(s: LinkScenario, draw, x: np.ndarray) -> None:
    """The scenario stage: a block's received dBm in ``x`` from the unit draws ``draw(j)`` returns.

    It asks, in turn, only for the columns ``s`` reads: ``j = 0`` always, 1 with pointing, 2 with
    Rayleigh fading. It forms each term in its draw's row, so one row can hold both in turn.
    """
    np.multiply(draw(0), s.terrain.sigma_db, out=x)
    x += s._budget.offset_dbm
    fade = s._budget.fade
    if fade is not None:
        # Rayleigh offset squared via inverse CDF; fade stays in the log
        # domain so huge offsets cannot underflow to zero mW. Zero jitter
        # makes every offset +0, so its fade is this law's sigma -> 0 limit.
        t = draw(1)
        t *= -2.0 * s.pointing.sigma_s_m**2
        t *= 2.0
        t /= fade.w_eq_m**2
        np.subtract(math.log(fade.a0), t, out=t)
        x += np.multiply(t, _DB_PER_LN, out=t)
    if SMALL_SCALE_MODES[s.small_scale]:
        t = draw(2)
        x += np.multiply(t, _DB_PER_LN, out=t)


def draw_channel(s: LinkScenario, mc: MonteCarloSettings, n_workers: int = 1) -> Channel:
    """The per-trial channel of ``s`` at ``mc``, bit-identical for any worker count."""
    n = mc.n_samples
    # One array: each block's received dBm, until their mean is taken; then its mW, in place.
    p_mw = np.empty(n)

    def draw(x: np.ndarray, start: int) -> None:
        # z goes straight into x; ln u1 and ln(-ln u2) take turns in the thread's float scratch.
        words = _philox_words(mc.seed, start, x.size)
        _received_dbm(s, lambda j: _unit_draw(words, j, _block_scratch(x.size)[0] if j else x), x)

    def in_block(step, start: int) -> None:
        # The error state is per thread, so each block sets its own.
        with np.errstate(divide="raise", over="raise", invalid="raise"):
            try:
                step(p_mw[start:start + _BLOCK_TRIALS], start)
            except ArithmeticError:
                median = median_received_dbm(s)
                raise ValueError(f"received power overflows float64 in a trial (median {median:.6g} dBm)") from None

    starts = range(0, n, _BLOCK_TRIALS)
    thread_map(lambda start: in_block(draw, start), starts, n_workers)
    # Each trial is finite, but the sum behind a mean of huge dBm values may
    # not be. A trial whose mW overflows is the error to report first. The
    # mean is np.mean's arithmetic, without its Python wrapper.
    with np.errstate(over="ignore", invalid="ignore"):
        mean_p_rx_dbm = float(np.add.reduce(p_mw)) / n
    thread_map(lambda start: in_block(lambda x, _: dbm_to_mw(x, out=x), start), starts, n_workers)
    if not math.isfinite(mean_p_rx_dbm):
        raise ValueError("the mean received power in dBm overflows float64")
    p_mw.flags.writeable = False
    return Channel(s, mc.seed, p_mw, mean_p_rx_dbm)


def _block_scratch(k: int) -> tuple[np.ndarray, np.ndarray]:
    """This thread's float and boolean scratch, cut to ``k`` trials; grown only when a block needs more."""
    scratch = getattr(_THREAD, "scratch", None)
    if scratch is None or scratch.size < k:
        scratch = _THREAD.scratch = np.empty(k)
        _THREAD.mask = np.empty(k, dtype=bool)
    return scratch[:k], _THREAD.mask[:k]


def harvest_samples(model: HarvesterModel, channel: Channel, n_workers: int = 1) -> HarvestSamples:
    """Every trial's harvested power for ``model`` on ``channel``, and its clamp and range counts."""
    n = channel.p_mw.size
    p_h_uw = np.empty(n)

    def harvest(start: int) -> tuple[int, int]:
        block = slice(start, start + _BLOCK_TRIALS)
        p_mw = channel.p_mw[block]
        eta, flags = _block_scratch(p_mw.size)
        # The block's output holds the denominator until the clipped percent
        # replaces it, so the harvest runs in place.
        out = p_h_uw[block]
        raw_efficiency_percent(model, p_mw, out=eta, den=out)
        clipped = np.clip(eta, 0.0, 100.0, out=out)
        # raw_efficiency_percent refuses a NaN power and raises on an invalid operation,
        # so no eta is NaN and the clip moved exactly the trials it clamped.
        clamped = int(np.count_nonzero(np.not_equal(eta, clipped, out=flags)))
        extrapolated = int(np.count_nonzero(is_extrapolated(model, p_mw, out=flags)))
        harvested_uw(p_mw, clipped, out=clipped)
        return clamped, extrapolated

    clamped, extrapolated = map(sum, zip(*thread_map(harvest, range(0, n, _BLOCK_TRIALS), n_workers)))
    return HarvestSamples(p_h_uw, clamped, extrapolated)


def _kth_smallest(a: np.ndarray, b: np.ndarray, k: int) -> float:
    """The ``k``-th smallest (from 0) of the sorted harvest runs ``a`` and ``b`` together, all finite and >= 0."""
    # The k + 1 smallest are the first i of a and the first k + 1 - i of b,
    # for the least i at which a[i] is not below b[k - i]; binary search finds it.
    # Conditionals, not max and min, bound i: this runs a few times per sweep row.
    lo = k + 1 - len(b) if k >= len(b) else 0
    hi = k + 1 if k < len(a) else len(a)
    while lo < hi:
        i = (lo + hi) // 2
        if a.item(i) < b.item(k - i):
            lo = i + 1
        else:
            hi = i
    if lo == 0:
        return b.item(k)
    if lo == k + 1:
        return a.item(k)
    return max(a.item(lo - 1), b.item(k - lo))


def _reduce(h: np.ndarray, quantiles: tuple[float, ...],
            n_workers: int = 1) -> tuple[float, float, dict[float, float]]:
    """The mean, median and linear quantiles of the harvest ``h``, which this sorts in two runs in place.

    Above one block the runs are the two halves of ``h``, and ``thread_map`` sorts both; up to one
    block the first run is empty, since there one sort read directly costs less than a split.
    Order statistics are values, not positions, so the split changes none of them. Both are
    numpy's definitions (``np.median``, and ``np.quantile`` with ``method="linear"``, type 7 of
    Hyndman and Fan, 1996), read off the k-th smallest trials with numpy's own arithmetic: the mean
    of the middle pair, and the two-sided lerp between the neighbours of ``(n - 1) q``. ``h`` is
    finite and >= 0; with both signed zeros, a zero's sign may vary.
    """
    n, mid = h.size, h.size // 2
    # The mean sums the trials in their own order, before the sort, with np.mean's arithmetic.
    mean = float(np.add.reduce(h)) / n
    runs = (h[:mid], h[mid:]) if n > _BLOCK_TRIALS else (h[:0], h)
    thread_map(np.ndarray.sort, runs, n_workers)
    kth = functools.partial(_kth_smallest, *runs)
    median = kth(mid) if n % 2 else (kth(mid - 1) + kth(mid)) / 2
    by_q = {}
    for q in quantiles:
        v = (n - 1) * q
        lo = math.floor(v)
        a, b, t = kth(lo), kth(min(lo + 1, n - 1)), v - lo
        by_q[q] = b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t
    return mean, median, by_q


def estimate_harvest(s: LinkScenario, model: HarvesterModel, mc: MonteCarloSettings,
                     *, channel: Channel | None = None, n_workers: int = 1) -> HarvestStats:
    """Monte Carlo summary over ``mc.n_samples`` trials, on ``channel`` when given, each stage over the pool."""
    if channel is None:
        channel = draw_channel(s, mc, n_workers)
    elif (channel.scenario, channel.seed, channel.p_mw.size) != (s, mc.seed, mc.n_samples):
        raise ValueError(f"channel (seed {channel.seed}, n {channel.p_mw.size}) was not drawn for {s} at {mc}")
    draws = harvest_samples(model, channel, n_workers)
    mean_uw, median_uw, quantiles_uw = _reduce(draws.p_h_uw, mc.quantiles, n_workers)
    return HarvestStats(
        mean_uw=mean_uw,
        median_uw=median_uw,
        quantiles_uw=quantiles_uw,
        mean_p_rx_dbm=channel.mean_p_rx_dbm,
        clamp_count=draws.clamp_count,
        extrapolated_count=draws.extrapolated_count,
        n_samples=mc.n_samples,
        seed=mc.seed,
    )
