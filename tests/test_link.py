"""Link budget composition and the Monte Carlo harvested-power estimator."""

import hashlib
import itertools
import json
import math
import os
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from marswpt.harvester import (
    COEFFICIENTS,
    HARVESTER_A,
    HARVESTER_B,
    HARVESTER_C,
    HarvesterModel,
    denominator_minimum,
    efficiency_percent,
    harvested_uw,
    _rational,
    is_extrapolated,
    raw_efficiency_percent,
)
from marswpt import link, quantities
from marswpt.link import (
    SMALL_SCALE_MODES,
    HarvestStats,
    LinkScenario,
    MonteCarloSettings,
    budget_terms,
    derive_substream_seed,
    draw_channel,
    estimate_harvest,
    harvest_samples,
    median_received_dbm,
)
from marswpt.pointing import PointingGeometry, default_beam_waist, derive_model
from marswpt.propagation import AREA1, AREA2, DustStorm, TerrainProfile, dust_attenuation_db, path_loss_db
from marswpt.quantities import RfCarrier, dbm_to_mw, watts_to_dbm
from oracles import (
    assert_stats_match, emg_harvest_moments, gaussian_harvest_moments, mean_fraction, rayleigh_harvest_moments,
)

CARRIER = RfCarrier(2.45e9)
R_D = default_beam_waist(CARRIER)
CALM_AREA1 = TerrainProfile("area1-calm", alpha=2.12, sigma_db=0.0)

# Near-constant efficiency: eta = 5e9 / (p^3 + 1e9) is 5% to within 1e-12
# relative for p below 0.1 mW, which makes harvested power proportional to
# received power in the tests that isolate the fading statistics.
FLAT_5PCT = HarvesterModel(
    "flat5", a2=0.0, a1=0.0, a0=5e9, b2=0.0, b1=0.0, b0=1e9, valid_range_mw=(1e-9, 10.0)
)


# ---------------------------------------------------------------------------
# median budget


def test_median_received_reference_values():
    assert median_received_dbm(LinkScenario()) == pytest.approx(-10.663135295648075, abs=1e-9)
    assert median_received_dbm(LinkScenario(p_tx_w=20.0)) == pytest.approx(
        -7.652835339008263, abs=1e-9
    )
    assert median_received_dbm(LinkScenario(terrain=AREA2)) == pytest.approx(
        -19.93944842013488, abs=1e-9
    )


def test_median_received_with_heavy_dust():
    scenario = LinkScenario(dust=DustStorm(n_t_per_m3=1e5, rho_p_m=5e-3))
    assert median_received_dbm(scenario) == pytest.approx(-41.27370947875254, abs=1e-9)


def test_budget_terms_match_component_models():
    storm = DustStorm(n_t_per_m3=1e5, rho_p_m=5e-3)
    pointing = PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D)
    scenario = LinkScenario(dust=storm, pointing=pointing)
    terms = budget_terms(scenario)

    assert terms["p_tx_dbm"] == watts_to_dbm(10.0)
    assert terms["g_t_db"] == 28.0
    assert terms["g_r_db"] == 0.0
    assert terms["path_loss_db"] == -path_loss_db(50.0, CARRIER, scenario.terrain)
    assert terms["dust_db"] == -dust_attenuation_db(storm, 50.0, CARRIER)
    assert terms["pointing_db"] == 10.0 * math.log10(derive_model(pointing).a0)

    total = 0.0
    for value in terms.values():
        total += value
    assert median_received_dbm(scenario) == total


@pytest.mark.parametrize("scenario", [
    LinkScenario(),
    LinkScenario(dust=DustStorm(n_t_per_m3=1e4), pointing=PointingGeometry(0.5, 0.2, R_D)),
], ids=["default", "dust_and_pointing"])
def test_budget_terms_are_plain_floats(scenario):
    terms = budget_terms(scenario)
    assert all(type(value) is float for value in terms.values()), terms
    assert type(median_received_dbm(scenario)) is float


def test_a_scenario_carries_its_budget_and_hands_out_fresh_copies():
    storm = DustStorm(n_t_per_m3=1e4, rho_p_m=1e-4)
    scenario = LinkScenario(dust=storm, pointing=PointingGeometry(0.5, 0.3, R_D))
    first = budget_terms(scenario)
    first["p_tx_dbm"] = 1e9
    first.clear()
    again = budget_terms(scenario)
    assert again is not budget_terms(scenario)
    assert again["p_tx_dbm"] == watts_to_dbm(10.0) and len(again) == 6
    assert median_received_dbm(scenario) == link._derive_budget(scenario).median_dbm

    # The stored budget is derived, not a parameter: no key, repr, equality or hash sees it.
    stored = next(f for f in fields(LinkScenario) if f.name == "_budget")
    assert (stored.init, stored.repr, stored.compare) == (False, False, False)
    assert not any(key.startswith("_") for key in link.SCENARIO_KEYS)
    twin = LinkScenario(dust=storm, pointing=PointingGeometry(0.5, 0.3, R_D))
    object.__setattr__(twin, "_budget", link._derive_budget(LinkScenario()))
    assert twin == scenario and hash(twin) == hash(scenario) and repr(twin) == repr(scenario)
    assert "budget" not in repr(scenario)

    # A changed copy derives its own budget, by replace and by flat keys alike.
    for changed in (replace(scenario, p_tx_w=20.0), link.scenario_with(scenario, p_tx_w=20.0)):
        assert budget_terms(changed)["p_tx_dbm"] == watts_to_dbm(20.0)
        assert median_received_dbm(changed) == median_received_dbm(LinkScenario(
            p_tx_w=20.0, dust=storm, pointing=PointingGeometry(0.5, 0.3, R_D)))
    wider = link.scenario_with(scenario, beta_m=1.0)
    assert budget_terms(wider)["pointing_db"] == 10.0 * math.log10(derive_model(wider.pointing).a0)
    assert budget_terms(wider)["pointing_db"] != budget_terms(scenario)["pointing_db"]


def test_huge_collector_removes_pointing_penalty():
    wide = LinkScenario(pointing=PointingGeometry(beta_m=50.0, sigma_s_m=0.5, r_d_m=R_D))
    assert median_received_dbm(wide) == pytest.approx(
        median_received_dbm(LinkScenario()), abs=1e-12
    )


# ---------------------------------------------------------------------------
# deterministic limits


def test_zero_shadowing_collapses_to_deterministic_harvest():
    scenario = LinkScenario(terrain=CALM_AREA1)
    mc = MonteCarloSettings(n_samples=500, seed=1)
    stats = estimate_harvest(scenario, HARVESTER_C, mc)
    assert stats.mean_uw == pytest.approx(42.76039698105052, rel=1e-9)
    assert stats.median_uw == pytest.approx(stats.mean_uw, rel=1e-12)
    assert stats.quantiles_uw[0.05] == stats.median_uw
    assert stats.quantiles_uw[0.95] == stats.median_uw
    assert stats.clamp_count == 0
    assert stats.extrapolated_count == 0
    assert stats.mean_p_rx_dbm == pytest.approx(median_received_dbm(scenario), abs=1e-12)


def test_every_calm_trial_adds_the_budget_constant_in_its_own_association():
    # A trial adds (p_tx + g_t + g_r) + (path loss + dust), which the scenario forms when it is built; the
    # median adds the same terms left to right. The two roundings can differ in the last bit, so
    # test_zero_shadowing_collapses_to_deterministic_harvest compares the mean dBm with the median to 1e-12.
    mc = MonteCarloSettings(n_samples=50, seed=3)
    last_bit_differs = []
    for p_tx_w, distance_m, n_t_per_m3 in itertools.product((0.1, 10.0, 333.0), (1.0, 50.0, 1234.5),
                                                           (None, 1e2, 3.3e5)):
        dust = None if n_t_per_m3 is None else DustStorm(n_t_per_m3=n_t_per_m3, rho_p_m=1e-4)
        scenario = LinkScenario(p_tx_w=p_tx_w, distance_m=distance_m, terrain=CALM_AREA1, dust=dust)
        terms = budget_terms(scenario)
        constant = (terms["p_tx_dbm"] + terms["g_t_db"] + terms["g_r_db"]) + (terms["path_loss_db"] + terms["dust_db"])
        dbm = _replayed_dbm(scenario, mc)
        assert dbm.tobytes() == np.full(mc.n_samples, constant).tobytes()
        last_bit_differs.append(constant != median_received_dbm(scenario))
    assert any(last_bit_differs)


def test_zero_jitter_pointing_is_static_a0_penalty():
    pointing = PointingGeometry(beta_m=0.5, sigma_s_m=0.0, r_d_m=R_D)
    scenario = LinkScenario(terrain=CALM_AREA1, pointing=pointing)
    p_mw = draw_channel(scenario, MonteCarloSettings(n_samples=100, seed=3)).p_mw
    assert np.all(p_mw == p_mw[0])
    assert 10.0 * math.log10(p_mw[0]) == pytest.approx(median_received_dbm(scenario), abs=1e-12)


@pytest.mark.parametrize("beta_m, r_d_m", [(0.5, R_D), (0.05, R_D), (0.2, 2.0), (0.3, 0.5)])
def test_zero_jitter_is_the_jitter_fade_at_sigma_zero_bit_for_bit(beta_m, r_d_m):
    # A jitter whose square underflows is zero jitter, and both run the one
    # fade expression with every offset +0, so the trials match byte for byte.
    mc = MonteCarloSettings(n_samples=1000, seed=7)
    zero, tiny = (
        draw_channel(LinkScenario(pointing=PointingGeometry(beta_m, sigma_s_m, r_d_m), small_scale="rayleigh"),
                     mc).p_mw
        for sigma_s_m in (0.0, 1e-200)
    )
    assert zero.tobytes() == tiny.tobytes()


# ---------------------------------------------------------------------------
# determinism contract


def test_scalar_loop_reproduces_vectorized_samples():
    # Trial i owns row i of the Philox block: one trial at a time, row i
    # gives trial i's shadowing. The engine's open-interval remap moves each
    # uniform by at most 1e-16, far inside the tolerance.
    scenario = LinkScenario()
    mc = MonteCarloSettings(n_samples=50, seed=2024)
    vectorized = draw_channel(scenario, mc).p_mw
    rows = np.random.Generator(np.random.Philox(key=mc.seed)).random((mc.n_samples, 3))
    median = median_received_dbm(scenario)
    looped_dbm = np.array([median + scenario.terrain.sigma_db * float(ndtri(row[0])) for row in rows])
    looped = np.power(np.full(mc.n_samples, 10.0), looped_dbm / 10.0)
    # 1e-12 dB, as a relative error in mW.
    np.testing.assert_allclose(vectorized, looped, rtol=1e-12 * math.log(10.0) / 10.0, atol=0.0)

    # With every channel branch on, a shorter run is the prefix of a longer
    # one, bit for bit.
    full = LinkScenario(
        dust=DustStorm(n_t_per_m3=1e4, rho_p_m=1e-3),
        pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D),
        small_scale="rayleigh",
    )
    long_channel = draw_channel(full, mc)
    short_channel = draw_channel(full, MonteCarloSettings(n_samples=17, seed=mc.seed))
    np.testing.assert_array_equal(long_channel.p_mw[:17], short_channel.p_mw)
    long = harvest_samples(HARVESTER_C, long_channel)
    short = harvest_samples(HARVESTER_C, short_channel)
    np.testing.assert_array_equal(long.p_h_uw[:17], short.p_h_uw)
    for channel, draws in ((long_channel, long), (short_channel, short)):
        assert (draws.clamp_count, draws.extrapolated_count) == _recount(HARVESTER_C, channel)


def _recount(model, channel):
    """(clamped, extrapolated) trials of ``model`` on ``channel``, over all trials at once."""
    raw = raw_efficiency_percent(model, channel.p_mw)
    clamped = np.count_nonzero(~((raw >= 0.0) & (raw <= 100.0)))
    return int(clamped), int(np.count_nonzero(is_extrapolated(model, channel.p_mw)))


def test_fixed_uniform_budget_keeps_features_independent():
    # Each trial owns three uniforms whether or not a feature is enabled, so
    # toggling one impairment never reshuffles the draws behind another.
    mc = MonteCarloSettings(n_samples=1000, seed=5)
    pointing = PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D)

    plain, pointed, faded, both = (
        10.0 * np.log10(draw_channel(scenario, mc).p_mw)
        for scenario in (
            LinkScenario(), LinkScenario(pointing=pointing), LinkScenario(small_scale="rayleigh"),
            LinkScenario(pointing=pointing, small_scale="rayleigh"),
        )
    )

    # The pointing fade never exceeds its aligned-beam ceiling ...
    fade_db = pointed - plain
    assert np.all(fade_db <= 10.0 * math.log10(derive_model(pointing).a0) + 1e-12)
    # ... and the small-scale term extracted with or without pointing enabled
    # comes from the same underlying draws.
    np.testing.assert_allclose(both - pointed, faded - plain, rtol=0.0, atol=1e-9)


def test_worker_count_does_not_change_results(cpus):
    # Three blocks, so that 4 and 8 workers split the draw among real threads.
    cpus(8)
    scenario = LinkScenario(small_scale="rayleigh")
    mc = MonteCarloSettings(n_samples=2 * link._BLOCK_TRIALS + 7, seed=99)
    serial = estimate_harvest(scenario, HARVESTER_A, mc, channel=draw_channel(scenario, mc, 1))
    threaded = estimate_harvest(scenario, HARVESTER_A, mc, channel=draw_channel(scenario, mc, 4))
    assert serial == threaded

    serial_channel = draw_channel(scenario, mc, n_workers=1)
    threaded_channel = draw_channel(scenario, mc, n_workers=8)
    np.testing.assert_array_equal(
        harvest_samples(HARVESTER_A, serial_channel).p_h_uw,
        harvest_samples(HARVESTER_A, threaded_channel).p_h_uw,
    )
    np.testing.assert_array_equal(serial_channel.p_mw, threaded_channel.p_mw)


EVERY_BRANCH = LinkScenario(
    terrain=AREA2,
    dust=DustStorm(n_t_per_m3=1e4, rho_p_m=1e-4),
    pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.3, r_d_m=R_D),
    small_scale="rayleigh",
)


@pytest.mark.parametrize("block_trials", [4, 12])
def test_block_size_and_worker_count_do_not_change_samples(monkeypatch, cpus, block_trials):
    cpus(3)
    sizes = [1, 3, 4, 5, 17, 50]
    if block_trials == 12:
        # Around the default block's edges: one short, exact, one over, and a part third block.
        block = link._BLOCK_TRIALS
        sizes += [block - 1, block, block + 1, 2 * block + 3]
    cases = [(n, MonteCarloSettings(n_samples=n, seed=31 + n)) for n in sizes]

    def outcomes(mc, n_workers=1):
        channel = draw_channel(EVERY_BRANCH, mc, n_workers)
        draws = harvest_samples(HARVESTER_B, channel)
        counts = draws.clamp_count, draws.extrapolated_count
        assert counts == _recount(HARVESTER_B, channel)
        return channel.p_mw, draws.p_h_uw, counts

    default = {n: outcomes(mc) for n, mc in cases}
    monkeypatch.setattr(link, "_BLOCK_TRIALS", block_trials)
    for n, mc in cases:
        for n_workers in (1, 2, 3):
            for got, want in zip(outcomes(mc, n_workers), default[n]):
                np.testing.assert_array_equal(got, want)


def test_estimate_is_the_same_at_every_worker_count(cpus):
    # Harvest blocks and the two sorted runs of the reduce spread over the
    # pool: one trial, one block short, exact and over, a part third block,
    # and 16 blocks and a bit, whose runs split 8 + 9 blocks.
    cpus(3)
    block = link._BLOCK_TRIALS
    for n in (1, block - 1, block, block + 1, 2 * block + 3, (1 << 20) + 5):
        mc = MonteCarloSettings(n_samples=n, seed=n)
        for model in (HARVESTER_A, HARVESTER_B, HARVESTER_C):
            serial = estimate_harvest(EVERY_BRANCH, model, mc)
            for n_workers in (2, 3):
                assert estimate_harvest(EVERY_BRANCH, model, mc, n_workers=n_workers) == serial


def test_shared_channel_gives_the_per_model_result():
    mc = MonteCarloSettings(n_samples=20_001, seed=12345, quantiles=(0.01, 0.5, 0.95))
    channel = draw_channel(EVERY_BRANCH, mc, n_workers=2)
    for model in (HARVESTER_A, HARVESTER_B, HARVESTER_C):
        shared = estimate_harvest(EVERY_BRANCH, model, mc, channel=channel)
        assert shared == estimate_harvest(EVERY_BRANCH, model, mc)
        # Every model reports the channel's own mean, computed once when it was drawn.
        assert _bits(shared.mean_p_rx_dbm) == _bits(channel.mean_p_rx_dbm)
    # The channel's mW are its received dBm, as a replay of the first pass writes them, converted in place.
    dbm = _replayed_dbm(EVERY_BRANCH, mc)
    assert _bits(channel.mean_p_rx_dbm) == _bits(float(np.mean(dbm)))
    np.testing.assert_array_equal(channel.p_mw, np.power(np.full(dbm.size, 10.0), dbm / 10.0))


def _replayed_dbm(scenario, mc):
    """Every trial's received dBm, from all of its Philox words at once through the engine's own two stages."""
    words = np.random.Philox(key=mc.seed).random_raw(3 * mc.n_samples) >> np.uint64(11)
    dbm, row = np.empty(mc.n_samples), np.empty(mc.n_samples)
    link._received_dbm(scenario, lambda j: link._unit_draw(words, j, row if j else dbm), dbm)
    return dbm


def test_channel_must_match_scenario_seed_and_count():
    mc = MonteCarloSettings(n_samples=100, seed=5)
    channel = draw_channel(EVERY_BRANCH, mc)
    for scenario, other in (
        (EVERY_BRANCH, replace(mc, seed=6)),
        (EVERY_BRANCH, replace(mc, n_samples=99)),
        (LinkScenario(), mc),
    ):
        with pytest.raises(ValueError, match="channel"):
            estimate_harvest(scenario, HARVESTER_C, other, channel=channel)


def test_channel_arrays_are_read_only():
    channel = draw_channel(EVERY_BRANCH, MonteCarloSettings(n_samples=10, seed=1))
    with pytest.raises(ValueError, match="read-only"):
        channel.p_mw[0] = 0.0


ZERO_JITTER = LinkScenario(pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.0, r_d_m=R_D))
# The sha256 of draw_channel's p_mw bytes and the hex of its mean dBm at seed
# 12345, as the draw gave them before it was split into a unit and a scenario
# stage: one trial, a part block, one past a block and a part fourth block,
# which golden.json's 2e4-trial rows and 1e6 report do not reach. Like
# golden.json, they hold where numpy runs its X86_V4 (AVX-512) float64 loops.
PINNED_CHANNELS = {
    ("default", 1): ("f79ce381e83e34135f3e589997cf0f469370f482e5d6d24ec48217fbdb20b4e0", "-0x1.982ff90c6d613p+2"),
    ("default", 5): ("54f8d44f96e39d0769b7126bbf6bf1d2975e049e1b38111607da674f580aa41a", "-0x1.a325274d15caap+2"),
    ("default", 65537): ("80078ca4011c5a7d2c61565eae9aed529c4f1a9773b0fdfb50589aef3d0c5a9f", "-0x1.550ce0f7a2fa6p+3"),
    ("default", 200003): ("e393fc02cdb6b946640f3e48930ca2039b8e1f8f54799d9012beb3c3363a92c2", "-0x1.55e93c4c39a11p+3"),
    ("every_branch", 1): ("48946b05050e55f957fd5af29c632d4b02806808a0a7720692730e8329f39a77", "-0x1.8a364b4c3328bp+4"),
    ("every_branch", 5): ("ecd488c692bf3e936b9b569b74ec4326cb9d7bccd64960fd21d489b612507d92", "-0x1.e94eac07fec6ap+4"),
    ("every_branch", 65537): ("12a31352ecdb78802c0015301fa9636654305b4db18319f89419a868f737f019", "-0x1.aff628d9f1515p+4"),
    ("every_branch", 200003): ("36c11e72ee1566eb0b776eba5d34e7306fa93f364e774bc379bc405b8612e551", "-0x1.b1025b05c2cf8p+4"),
    ("zero_jitter", 1): ("e8e5d3a93b724289070f88a8d4f15ddc15cffb13378084a506f8bf322c4e0500", "-0x1.2f8feb93552e0p+3"),
    ("zero_jitter", 5): ("8d92fea3c0db180799f6c0877b62acf1f69c99804298d1c9869db67ce2b6325b", "-0x1.350a82b3a962bp+3"),
    ("zero_jitter", 65537): ("0949bffc4957e0938aab0e6b933c670ac5748691198c0620dcbf82b1b25d0137", "-0x1.b884d004c177cp+3"),
    ("zero_jitter", 200003): ("c4e7c2bbd05eea8095b1403e5601793412946fcfa1ac733d9bad79488a7f36aa", "-0x1.b9612b59581e7p+3"),
}


@pytest.mark.parametrize(("name", "n"), sorted(PINNED_CHANNELS))
def test_channel_bytes_and_mean_dbm_are_pinned(cpus, name, n):
    cpus(2)
    scenario = {"default": LinkScenario(), "every_branch": EVERY_BRANCH, "zero_jitter": ZERO_JITTER}[name]
    for n_workers in (1, 2):
        channel = draw_channel(scenario, MonteCarloSettings(n_samples=n, seed=12345), n_workers=n_workers)
        got = hashlib.sha256(channel.p_mw.tobytes()).hexdigest(), channel.mean_p_rx_dbm.hex()
        assert got == PINNED_CHANNELS[name, n], f"{n_workers} workers"


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# Ties and zeros (B clamps about half its trials to 0); no NaN, which
# raw_efficiency_percent refuses, so a harvest never holds one. Zeros are
# +0.0, as the engine's are: where +0.0 and -0.0 both occur, the sign of a
# zero order statistic depends on how a sort or partition arranged them, in
# numpy's own calls too.
ORDER_VALUES = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5]) | st.floats(
    -1e3, 1e3, allow_subnormal=False
).map(lambda v: v + 0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ORDER_VALUES, min_size=1, max_size=60),
    st.lists(st.sampled_from([0.05, 0.95, 1e-9, 1 - 1e-9, 0.25, 0.01]) | st.floats(1e-9, 1 - 1e-9),
             max_size=4),
    st.sampled_from([4, link._BLOCK_TRIALS]),
)
# With blocks of 4 trials: up to 4 trials the first run is empty; 5 split 2 + 3,
# 12 split 6 + 6 and 13 split 6 + 7. Zeros tie across the split.
@example([0.0, 1.0, 0.0, 2.5, 0.0], [0.25], 4)
@example([0.0] * 6 + [1.0] * 6, [0.5, 0.75], 4)
@example([2.5, 0.0, 0.0, 1.0, 0.0, 0.0, 2.5, 2.5, 0.0, 1.0, 0.0, 0.0, 7.0], [], 4)
def test_order_statistics_match_numpy_median_and_quantile(values, extra, block_trials):
    h = np.array(values)
    before = h.copy()
    quantiles = (0.5, 1e-9, 1 - 1e-9, *extra)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "_BLOCK_TRIALS", block_trials)
        mean, median, by_q = link._reduce(h, quantiles)
    assert _bits(mean) == _bits(float(np.add.reduce(before)) / before.size)
    assert _bits(median) == _bits(float(np.median(before)))
    for q in quantiles:
        assert _bits(by_q[q]) == _bits(float(np.quantile(before, q)))


@pytest.mark.parametrize("a, b", [
    ([], [3.0]),
    ([], [0.0, 0.0, 1.0, 2.0]),
    ([0.0, 1.0, 2.0, 3.0], [4.0]),
    ([5.0], [0.0, 1.0, 2.0, 3.0]),
    ([2.0], [2.0]),
    ([0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 1.0, 1.0]),
    ([1.0, 3.0, 5.0, 7.0], [2.0, 4.0, 6.0]),
    ([1.0, 2.0, 3.0], []),
])
def test_kth_smallest_of_two_sorted_runs(a, b):
    # Every k from 0 to n - 1, so the first and last trial too; one run may be
    # a single trial or empty, and an empty run is never read.
    a, b = np.array(a), np.array(b)
    merged = np.sort(np.concatenate([a, b]))
    for k in range(merged.size):
        assert _bits(link._kth_smallest(a, b, k)) == _bits(float(merged[k]))


# 65,537 and 100,003 are the first sizes split at the middle, into 32,768 + 32,769 and 50,001 + 50,002.
@pytest.mark.parametrize("n", [1, 2, 7, 19_999, 20_000, 65_537, 100_003, 1_000_000])
def test_order_statistics_match_numpy_at_engine_sizes(n):
    rng = np.random.default_rng(n)
    h = rng.lognormal(0.0, 3.0, n)
    h[rng.random(n) < 0.1] = 0.0
    before = h.copy()
    # At n = 1e6, (n - 1) q for the largest q below 1 lands on or next to the last index.
    quantiles = (0.05, 0.95, 0.01, 1e-9, 1 - 1e-9, 0.5, float(np.nextafter(1.0, 0.0)))
    mean, median, by_q = link._reduce(h, quantiles)
    # The reduce sorts its argument in place, so that it needs no copy: the
    # trials are all still there, in another order.
    assert np.sort(h).tobytes() == np.sort(before).tobytes()
    # Above one block the two sorted runs are the halves of the trials; up to one block, one run.
    split = n // 2 if n > link._BLOCK_TRIALS else 0
    assert all(np.all(run[:-1] <= run[1:]) for run in (h[:split], h[split:]))
    assert _bits(mean) == _bits(float(np.add.reduce(before)) / before.size)
    assert _bits(median) == _bits(float(np.median(before)))
    for q in quantiles:
        assert _bits(by_q[q]) == _bits(float(np.quantile(before, q)))


@pytest.mark.parametrize("n, q", [
    # (n - 1) q = 0.5 and 1.5: the interpolation weight is exactly 0.5, numpy's
    # lerp from the upper neighbour.
    (3, 0.25),
    (5, 0.375),
    # One trial has no upper neighbour; two have an even-sized median.
    (1, 0.25),
    (1, 0.5),
    (2, 0.25),
    (2, 0.5),
    (2, 0.75),
])
def test_order_statistics_match_numpy_at_the_lerp_edges(n, q):
    rng = np.random.default_rng(n)
    # Halving each of two subnormals before the sum would lose them.
    for values in (rng.lognormal(0.0, 3.0, n), np.array([1e300, -1e300, 3.0, 0.0, 7.0])[:n], np.full(n, 5e-324)):
        before = values.copy()
        mean, median, by_q = link._reduce(values, (q,))
        assert _bits(mean) == _bits(float(np.add.reduce(before)) / before.size)
        assert _bits(median) == _bits(float(np.median(before)))
        assert _bits(by_q[q]) == _bits(float(np.quantile(before, q)))


def test_mean_sums_the_trials_in_their_own_order():
    # Summation order changes the last bits of a mean, so it must be taken
    # before the reduce sorts the trials.
    mc = MonteCarloSettings(n_samples=100_003, seed=17)
    channel = draw_channel(EVERY_BRANCH, mc)
    p_h_uw = harvest_samples(HARVESTER_A, channel).p_h_uw
    stats = estimate_harvest(EVERY_BRANCH, HARVESTER_A, mc, channel=channel)
    assert _bits(stats.mean_uw) == _bits(float(np.mean(p_h_uw)))
    assert _bits(float(np.mean(np.sort(p_h_uw)))) != _bits(float(np.mean(p_h_uw)))


def test_one_estimate_owns_one_trial_array():
    mc = MonteCarloSettings(n_samples=1_000_000, seed=3)
    channel = draw_channel(EVERY_BRANCH, mc)
    tracemalloc.start()
    try:
        estimate_harvest(EVERY_BRANCH, HARVESTER_B, mc, channel=channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The 8 MB of harvested power, plus one block's temporaries.
    assert peak < 10e6


@pytest.mark.parametrize("n_workers", [1, 2])
def test_a_channel_holds_one_float64_per_trial(n_workers):
    # The link_1e6 scenario. Each trial's dBm lives in the channel's one
    # array until their mean is taken, then becomes its mW in place, so the
    # draw peaks at that array plus each thread's block of temporaries.
    n = 1 << 20
    scenario = replace(EVERY_BRANCH, p_tx_w=20.0)
    tracemalloc.start()
    try:
        channel = draw_channel(scenario, MonteCarloSettings(n_samples=n, seed=3), n_workers)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert channel.p_mw.nbytes == 8 * n
    assert abs(held - 8 * n) < 8 * link._BLOCK_TRIALS
    assert peak < 2 * 8 * n


def test_same_seed_reproduces_and_new_seed_differs():
    mc = MonteCarloSettings(n_samples=2000, seed=42)
    first = estimate_harvest(LinkScenario(), HARVESTER_C, mc)
    second = estimate_harvest(LinkScenario(), HARVESTER_C, mc)
    assert first == second
    other = estimate_harvest(LinkScenario(), HARVESTER_C, MonteCarloSettings(2000, 43))
    assert other.mean_uw != first.mean_uw


def test_substream_seed_derivation():
    assert derive_substream_seed(12345, 0) == derive_substream_seed(12345, 0)
    seeds = {derive_substream_seed(12345, i) for i in range(200)}
    assert len(seeds) == 200
    assert derive_substream_seed(1, 2) != derive_substream_seed(2, 1)
    with pytest.raises(ValueError):
        derive_substream_seed(12345, -1)


# ---------------------------------------------------------------------------
# statistical behaviour


def test_pointing_fade_matches_closed_form_mean():
    pointing = PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D)
    scenario = LinkScenario(terrain=CALM_AREA1, pointing=pointing)
    channel = draw_channel(scenario, MonteCarloSettings(n_samples=1_000_000, seed=777))
    draws = harvest_samples(FLAT_5PCT, channel)

    aligned_mw = dbm_to_mw(median_received_dbm(scenario))
    aligned_uw = harvested_uw(aligned_mw, efficiency_percent(FLAT_5PCT, aligned_mw))
    ratio = draws.p_h_uw / aligned_uw
    model = derive_model(pointing)
    expected = mean_fraction(model) / model.a0
    stderr = float(np.std(ratio)) / math.sqrt(ratio.size)
    assert abs(float(np.mean(ratio)) - expected) < 3.0 * stderr


def test_small_scale_gain_has_unit_mean():
    mc = MonteCarloSettings(n_samples=1_000_000, seed=31337)
    plain = draw_channel(LinkScenario(), mc)
    faded = draw_channel(LinkScenario(small_scale="rayleigh"), mc)
    paired_diff = faded.p_mw - plain.p_mw
    stderr = float(np.std(paired_diff)) / math.sqrt(paired_diff.size)
    assert abs(float(np.mean(paired_diff))) < 3.0 * stderr


def test_rayleigh_link_matches_the_mixture_oracle():
    # The link_1e6 scenario: shadowing, dust, jittered pointing and Rayleigh
    # fading all on. Received dBm is the median plus an exponentially
    # modified Gaussian plus 10 log10 g, so its moments are a mixture over g.
    scenario = LinkScenario(
        p_tx_w=20.0, distance_m=50.0, terrain=AREA2, dust=DustStorm(n_t_per_m3=1e4, rho_p_m=1e-4),
        pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.3, r_d_m=R_D), small_scale="rayleigh",
    )
    fade_mean_db = 10.0 / math.log(10.0) / derive_model(scenario.pointing).xi
    median_dbm = median_received_dbm(scenario)
    for model in (HARVESTER_A, HARVESTER_B, HARVESTER_C):
        moments = rayleigh_harvest_moments(
            lambda median: emg_harvest_moments(model, median, AREA2.sigma_db, fade_mean_db, n_grid=8001),
            median_dbm,
        )
        for seed in (1, 2, 3):
            stats = estimate_harvest(scenario, model, MonteCarloSettings(n_samples=200_000, seed=seed))
            assert_stats_match(stats, moments, f"{model.name} seed {seed}")


@st.composite
def link_cases(draw, jitter, small_scale):
    """A scenario on pointing branch ``jitter`` ("off", "zero" or "positive") and ``small_scale``,
    a built-in model, and a seed."""
    pointing = None if jitter == "off" else PointingGeometry(
        draw(st.floats(0.2, 2.0)), draw(st.floats(0.05, 1.0)) if jitter == "positive" else 0.0, R_D,
    )
    scenario = LinkScenario(
        p_tx_w=draw(st.floats(1.0, 100.0)), distance_m=draw(st.floats(10.0, 100.0)),
        terrain=draw(st.sampled_from([AREA1, AREA2])),
        dust=draw(st.none() | st.builds(DustStorm, n_t_per_m3=st.floats(1e2, 1e5), rho_p_m=st.floats(1e-4, 5e-3))),
        pointing=pointing, small_scale=small_scale,
    )
    model = draw(st.sampled_from([HARVESTER_A, HARVESTER_B, HARVESTER_C]))
    return scenario, model, draw(st.integers(0, 2**64 - 1))


# Each example holds one case of every branch, so every branch runs in every example.
@settings(max_examples=6, derandomize=True, deadline=None)
@given(st.tuples(*(link_cases(jitter, mode) for jitter in ("off", "zero", "positive")
                   for mode in SMALL_SCALE_MODES)))
def test_every_link_branch_matches_its_quadrature_oracle(cases):
    # The aligned-beam fraction a0 is part of the median, so without jitter
    # the channel in dB is Gaussian; with it, exponentially modified
    # Gaussian; Rayleigh fading mixes either over the gain g. 6 examples of
    # 6 cases, each with two checks at the fixed K_SE and MIN_TAIL, keep the
    # family-wise false-alarm rate near 72 * 5.7e-7, below 1e-3.
    for scenario, model, seed in cases:
        sigma_db = scenario.terrain.sigma_db
        if scenario.pointing is not None and scenario.pointing.sigma_s_m > 0.0:
            fade_mean_db = 10.0 / math.log(10.0) / derive_model(scenario.pointing).xi

            def inner(median_dbm):
                return emg_harvest_moments(model, median_dbm, sigma_db, fade_mean_db, n_grid=8001)
        else:
            def inner(median_dbm):
                return gaussian_harvest_moments(model, median_dbm, sigma_db)

        median_dbm = median_received_dbm(scenario)
        rayleigh = scenario.small_scale == "rayleigh"
        moments = rayleigh_harvest_moments(inner, median_dbm) if rayleigh else inner(median_dbm)
        stats = estimate_harvest(scenario, model, MonteCarloSettings(n_samples=100_000, seed=seed))
        assert_stats_match(stats, moments, f"{scenario} {model.name} seed {seed}")


def test_harvested_power_bounded_by_received_power():
    scenario = LinkScenario(
        dust=DustStorm(n_t_per_m3=1e4, rho_p_m=1e-3),
        pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D),
        small_scale="rayleigh",
    )
    channel = draw_channel(scenario, MonteCarloSettings(n_samples=5000, seed=8))
    received_uw = channel.p_mw * 1e3
    for model in (HARVESTER_A, HARVESTER_B, HARVESTER_C):
        draws = harvest_samples(model, channel)
        assert np.all(draws.p_h_uw <= received_uw * (1.0 + 1e-12))


def test_clamp_and_extrapolation_counters():
    # Heavy dust pushes much of the distribution below model A's useful floor.
    scenario = LinkScenario(dust=DustStorm(n_t_per_m3=1e5, rho_p_m=5e-3))
    stats = estimate_harvest(scenario, HARVESTER_A, MonteCarloSettings(n_samples=4000, seed=2))
    assert stats.clamp_count > 0
    assert stats.extrapolated_count > 0
    assert stats.n_samples == 4000
    assert stats.seed == 2


def test_requested_quantiles_are_reported_in_order():
    mc = MonteCarloSettings(n_samples=4000, seed=6, quantiles=(0.1, 0.5, 0.9))
    stats = estimate_harvest(LinkScenario(), HARVESTER_C, mc)
    assert set(stats.quantiles_uw) == {0.1, 0.5, 0.9}
    assert stats.quantiles_uw[0.1] <= stats.quantiles_uw[0.5] <= stats.quantiles_uw[0.9]
    assert stats.quantiles_uw[0.5] == stats.median_uw


# ---------------------------------------------------------------------------
# monotone responses under common random numbers


def median_at(scenario, model=HARVESTER_C, seed=12345, n=20_000):
    return estimate_harvest(scenario, model, MonteCarloSettings(n, seed)).median_uw


def test_median_harvest_decreases_with_distance():
    medians = [median_at(LinkScenario(distance_m=d)) for d in (30.0, 50.0, 80.0)]
    assert medians[0] > medians[1] > medians[2]


def test_median_harvest_increases_with_transmit_power():
    medians = [median_at(LinkScenario(p_tx_w=p)) for p in (2.0, 10.0, 50.0)]
    assert medians[0] < medians[1] < medians[2]


def test_median_harvest_decreases_with_dust_density():
    medians = [
        median_at(LinkScenario(dust=DustStorm(n_t_per_m3=n_t, rho_p_m=5e-3)))
        for n_t in (1.0, 1e4, 3e4)
    ]
    assert medians[0] > medians[1] > medians[2]


def test_median_harvest_decreases_with_jitter():
    medians = [
        median_at(LinkScenario(pointing=PointingGeometry(0.5, sigma, R_D)))
        for sigma in (0.2, 0.5, 0.9)
    ]
    assert medians[0] > medians[1] > medians[2]


def test_median_harvest_increases_with_collector_radius():
    narrow = median_at(LinkScenario(pointing=PointingGeometry(0.5, 0.5, R_D)))
    wide = median_at(LinkScenario(pointing=PointingGeometry(1.0, 0.5, R_D)))
    assert wide > narrow


def test_rough_terrain_harvests_less():
    assert median_at(LinkScenario(terrain=AREA2)) < median_at(LinkScenario())


def test_ensemble_mean_and_median_disagree_about_model_b():
    # The heavy upper tail of the shadowing distribution dominates the mean,
    # where model B's wide dynamic range wins; typical (median) conditions
    # sit far below model B's useful input range.
    mc = MonteCarloSettings(n_samples=20_000, seed=12345)
    stats = {m.name: estimate_harvest(LinkScenario(), m, mc) for m in
             (HARVESTER_A, HARVESTER_B, HARVESTER_C)}
    assert stats["B"].mean_uw > stats["A"].mean_uw
    assert stats["B"].mean_uw > stats["C"].mean_uw
    assert stats["B"].median_uw < stats["A"].median_uw
    assert stats["B"].median_uw < stats["C"].median_uw


# ---------------------------------------------------------------------------
# validation


def test_scenario_validation():
    with pytest.raises(ValueError):
        LinkScenario(p_tx_w=0.0)
    with pytest.raises(ValueError):
        LinkScenario(distance_m=-1.0)
    with pytest.raises(ValueError):
        LinkScenario(small_scale="rician")
    with pytest.raises(ValueError, match="g_t_db must be finite"):
        LinkScenario(g_t_db=math.nan)
    with pytest.raises(ValueError, match="p_tx_w must be finite"):
        LinkScenario(p_tx_w=math.inf)
    with pytest.raises(ValueError) as excinfo:
        LinkScenario(p_tx_w=0.0, distance_m=-1.0, small_scale="rician")
    for name in ("p_tx_w", "distance_m", "small_scale"):
        assert name in str(excinfo.value)


def test_a_float_field_given_a_non_number_is_listed_with_the_other_problems():
    with pytest.raises(ValueError) as excinfo:
        LinkScenario(p_tx_w="10", distance_m=-1.0)
    assert str(excinfo.value) == "p_tx_w must be a number, got '10'; distance_m must be positive, got -1.0"
    # numpy scalars are real numbers, integers too.
    assert LinkScenario(p_tx_w=np.float32(10.0), distance_m=np.int64(50)).p_tx_w == 10.0


def test_monte_carlo_settings_validation():
    with pytest.raises(ValueError):
        MonteCarloSettings(n_samples=0)
    with pytest.raises(ValueError):
        MonteCarloSettings(seed=-1)
    with pytest.raises(ValueError):
        MonteCarloSettings(seed=2**64)
    with pytest.raises(ValueError):
        MonteCarloSettings(quantiles=(0.0, 0.5))
    with pytest.raises(ValueError, match="n_samples.*; seed.*; quantiles"):
        MonteCarloSettings(n_samples=0, seed=-1, quantiles=(0.5, float("nan")))
    # A report keyed by quantile would merge a repeated one.
    with pytest.raises(ValueError, match=r"n_samples.*; quantiles must not repeat, got \(0.5, 0.1, 0.5\)"):
        MonteCarloSettings(n_samples=0, quantiles=(0.5, 0.1, 0.5))


def test_monte_carlo_settings_bound_n_samples_by_what_an_array_can_index():
    limit = np.iinfo(np.intp).max // 8
    assert MonteCarloSettings(n_samples=limit).n_samples == limit
    for n in (limit + 1, 2**63 - 1, 10**23):
        with pytest.raises(ValueError) as excinfo:
            MonteCarloSettings(n_samples=n, seed=-1)
        assert str(excinfo.value) == (
            f"n_samples must be at most {limit}, the most float64 values an array can index, got {n}; "
            "seed must be a 64-bit unsigned integer, got -1"
        )


def test_monte_carlo_settings_take_integer_counts_and_a_tuple_of_numbers():
    # A float seed would run the stream of its integer part and report the float.
    with pytest.raises(ValueError) as excinfo:
        MonteCarloSettings(n_samples=10.5, seed=5.5, quantiles=("a",))
    assert str(excinfo.value) == (
        "n_samples must be an integer, got 10.5; seed must be an integer, got 5.5; "
        "quantiles must be a tuple of numbers, got ('a',)"
    )
    with pytest.raises(ValueError, match=r"^n_samples must be an integer, got True; seed must be an integer, got False$"):
        MonteCarloSettings(n_samples=True, seed=False)
    with pytest.raises(ValueError, match=r"^quantiles must be a tuple of numbers, got 0\.5$"):
        MonteCarloSettings(quantiles=0.5)
    with pytest.raises(ValueError, match=r"^quantiles must be a tuple of numbers, got \[0\.5\]$"):
        MonteCarloSettings(quantiles=[0.5])
    # numpy integers pass.
    mc = MonteCarloSettings(n_samples=np.int32(7), seed=np.uint64(2**64 - 1), quantiles=(np.float64(0.5),))
    assert estimate_harvest(LinkScenario(), HARVESTER_A, mc).seed == 2**64 - 1


# ---------------------------------------------------------------------------
# thread_map


@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
def test_thread_map_keeps_item_order(cpus, n_workers):
    cpus(4)
    for n in range(41):
        assert link.thread_map(lambda i: i * i, range(n), n_workers) == [i * i for i in range(n)]


def test_thread_map_runs_each_item_once_under_frequent_switches(cpus):
    # More threads than cores, switching every microsecond: a lost update of
    # the shared index would run an item twice or skip it.
    cpus(8)
    calls, lock = [], threading.Lock()

    def fn(i):
        with lock:
            calls.append(i)
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            calls.clear()
            assert link.thread_map(fn, range(500), 8) == [-i for i in range(500)]
            assert sorted(calls) == list(range(500))
    finally:
        sys.setswitchinterval(interval)


class ItemError(Exception):
    pass


@pytest.mark.parametrize("n_workers", [1, 2, 3, 8])
def test_thread_map_raises_the_lowest_failing_index_and_leaves_nothing_running(cpus, n_workers):
    cpus(8)
    # Item 1 fails last, after a pause in which later items fail on other threads.
    running, lock = set(), threading.Lock()

    def fn(i):
        with lock:
            running.add(i)
        try:
            if i == 1:
                time.sleep(0.05)
            if i in (1, 2, 3, 5, 30):
                raise ItemError(i)
            return i
        finally:
            with lock:
                running.discard(i)

    with pytest.raises(ItemError) as raised:
        link.thread_map(fn, range(40), n_workers)
    assert raised.value.args == (1,)
    assert running == set()


@pytest.mark.parametrize("n_items, n_workers", [(1, 1), (1, 4), (5, 1), (0, 3)])
def test_thread_map_without_helpers_runs_inline(monkeypatch, n_items, n_workers):
    # No helper to share the items with: they run on the calling thread, and
    # no helper task is submitted or waited on.
    def no_pool(*args):
        raise AssertionError("thread_map touched the helper pool")

    monkeypatch.setattr(link._HELPERS, "submit", no_pool)
    monkeypatch.setattr(link, "wait", no_pool)
    helpers = {t for t in threading.enumerate() if t.name.startswith("marswpt-helper")}
    caller = threading.current_thread()
    threads = []

    def fn(i):
        threads.append(threading.current_thread())
        if i in (1, 3):
            raise ItemError(i)
        return i

    if n_items > 1:
        with pytest.raises(ItemError) as raised:
            link.thread_map(fn, range(n_items), n_workers)
        assert raised.value.args == (1,)
        assert len(threads) == 2
    else:
        assert link.thread_map(fn, range(n_items), n_workers) == list(range(n_items))
    assert set(threads) <= {caller}
    assert {t for t in threading.enumerate() if t.name.startswith("marswpt-helper")} == helpers


NESTED_THREAD_MAP = """
import json
from marswpt import link, quantities

def outer(i):
    return sum(link.thread_map(lambda j: i * j, range(6), 2))

print(json.dumps([link.thread_map(outer, range(8), 2)]))
"""


def test_thread_map_nested_in_an_item_finishes():
    # Outer items hold every helper while inner calls queue helper tasks. The
    # calls run in a child process: interpreter exit joins every helper, so a
    # deadlocked one would keep this process from ever exiting.
    package_root = str(Path(link.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [package_root, env.get("PYTHONPATH")]))
    try:
        child = subprocess.run([sys.executable, "-c", NESTED_THREAD_MAP],
                               capture_output=True, text=True, timeout=30, env=env)
    except subprocess.TimeoutExpired:
        child = None
    assert child is not None, "nested thread_map did not finish"
    assert child.returncode == 0, child.stderr
    results = json.loads(child.stdout)
    assert results == [[15 * i for i in range(8)]]


def test_thread_map_holds_no_item_or_fn_once_it_returns(cpus):
    # With the helper busy, the call runs every item itself and cancels its
    # helper task, which stays in the pool's queue until the helper is free.
    # That task must not keep the caller's arrays alive: a harvest array that
    # outlived its estimate was one 8 MB step more in peak RSS at 1e6 trials.
    cpus(2)
    gate = threading.Event()
    link._HELPERS.submit(gate.wait)
    try:
        h, scale = np.arange(1000.0), np.full(500, 2.0)
        refs = weakref.ref(h), weakref.ref(scale)
        products = link.thread_map(scale.__mul__, (h[:500], h[500:]), 2)
        assert [p.sum() for p in products] == [2 * sum(range(500)), 2 * sum(range(500, 1000))]
        del h, scale, products
        assert [ref() is None for ref in refs] == [True, True]
    finally:
        gate.set()


def test_draw_channel_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="n_workers must be at least 1, got 0"):
        draw_channel(LinkScenario(), MonteCarloSettings(10, 1), n_workers=0)


def test_draw_channel_rejects_a_received_power_past_float64():
    # 10^(P/10) mW overflows past about 3083 dBm; pool threads must raise too.
    # The median, 3061 dBm, is finite, so only single trials overflow.
    mc = MonteCarloSettings(n_samples=40_000, seed=1)
    for n_workers in (1, 2):
        with pytest.raises(ValueError, match="received power overflows"):
            draw_channel(LinkScenario(g_t_db=3100.0), mc, n_workers)


def test_a_trial_constant_past_float64_is_refused_when_the_scenario_is_built():
    # The ordered sum adds the gain before dust and stays finite, but the trials'
    # constant adds path loss and dust (each near -1e308 dB) first, and that sum
    # is not. It depends on no random draw, so it is an input error. With a
    # little less dust, the constant stays finite and the scenario builds.
    terrain = TerrainProfile("steep", alpha=2.7e306, sigma_db=0.0)
    thinner = LinkScenario(g_t_db=1.7e308, terrain=terrain, dust=DustStorm(n_t_per_m3=3e304, rho_p_m=1.0))
    assert math.isfinite(median_received_dbm(thinner))
    with pytest.raises(ValueError, match="^the link budget lies outside the float64 range$"):
        link.scenario_with(thinner, n_t_per_m3=4.08e304)
    with pytest.raises(ValueError, match="^the link budget lies outside the float64 range$"):
        LinkScenario(g_t_db=1.7e308, terrain=terrain, dust=DustStorm(n_t_per_m3=4.08e304, rho_p_m=1.0))


def test_a_mean_received_power_past_float64_is_an_input_error():
    # Every trial sits near -3.7e307 dBm, a finite value, but eight of them sum past float64.
    steep = LinkScenario(terrain=TerrainProfile("steep", alpha=1e306, sigma_db=0.0))
    assert math.isfinite(median_received_dbm(steep))
    mc = MonteCarloSettings(n_samples=8, seed=1)
    # The channel refuses itself, so no model is evaluated on it.
    for n_workers in (1, 2):
        with pytest.raises(ValueError, match="mean received power in dBm overflows float64"):
            draw_channel(steep, mc, n_workers)
    with pytest.raises(ValueError, match="mean received power in dBm overflows float64"):
        estimate_harvest(steep, HARVESTER_C, mc)


def test_a_trial_past_float64_is_reported_before_a_mean_past_it():
    # Shadowing of 1e307 dB: single trials overflow in mW, and the sum behind their mean in dBm overflows too.
    wild = LinkScenario(terrain=TerrainProfile("wild", alpha=2.0, sigma_db=1e307))
    mc = MonteCarloSettings(n_samples=1000, seed=1)
    dbm = _replayed_dbm(wild, mc)
    with np.errstate(over="ignore"):
        assert np.all(np.isfinite(dbm)) and not np.isfinite(np.mean(dbm))
        assert not np.all(np.isfinite(np.power(10.0, dbm / 10.0)))
    for n_workers in (1, 2):
        with pytest.raises(ValueError, match="received power overflows float64 in a trial"):
            draw_channel(wild, mc, n_workers)


# ---------------------------------------------------------------------------
# properties over random scenarios

DYADIC = st.integers(-800, 800).map(lambda k: k / 8.0)
# Any model the domain rule accepts, not only the built-in three.
ACCEPTED_MODELS = st.tuples(DYADIC, DYADIC, DYADIC, DYADIC, DYADIC, DYADIC).filter(
    lambda c: denominator_minimum(*c[3:]) > 0.0
).map(lambda c: HarvesterModel("random", *c, valid_range_mw=(0.1, 10.0)))
SCENARIOS = st.builds(
    LinkScenario,
    p_tx_w=st.floats(0.1, 1000.0),
    distance_m=st.floats(1.0, 1000.0),
    terrain=st.sampled_from([AREA1, AREA2]),
    dust=st.none() | st.builds(
        DustStorm, n_t_per_m3=st.floats(0.0, 1e6), rho_p_m=st.floats(1e-6, 1e-2)
    ),
    pointing=st.none() | st.builds(
        PointingGeometry, beta_m=st.floats(0.05, 2.0), sigma_s_m=st.floats(0.0, 2.0),
        r_d_m=st.just(R_D),
    ),
    small_scale=st.sampled_from(sorted(SMALL_SCALE_MODES)),
)


@settings(max_examples=30, deadline=None)
@given(
    SCENARIOS,
    st.sampled_from([HARVESTER_A, HARVESTER_B, HARVESTER_C]) | ACCEPTED_MODELS,
    st.integers(0, 2**64 - 1),
)
def test_harvest_is_at_most_received_power_and_counters_lie_in_range(scenario, model, seed):
    mc = MonteCarloSettings(n_samples=200, seed=seed)
    channel = draw_channel(scenario, mc)
    draws = harvest_samples(model, channel)
    received_uw = 1e3 * channel.p_mw
    assert np.all(draws.p_h_uw >= 0.0)
    assert np.all(draws.p_h_uw <= received_uw * (1.0 + 1e-12))
    stats = estimate_harvest(scenario, model, mc)
    assert 0 <= stats.clamp_count <= mc.n_samples
    assert 0 <= stats.extrapolated_count <= mc.n_samples


# Powers a channel can carry: zero, subnormal, tiny, inside and far past every certified range.
CHANNEL_POWERS = st.sampled_from([0.0, 5e-324, 1e-300, 1e-12]) | st.floats(0.0, 1e6)
# Below 0 % near 0 mW and near 5,000 % at 1 mW.
SWINGING = HarvesterModel("swing", a2=0.0, a1=1e4, a0=-1.0, b2=0.0, b1=0.0, b0=1.0, valid_range_mw=(0.1, 10.0))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([HARVESTER_A, HARVESTER_B, HARVESTER_C]) | ACCEPTED_MODELS,
    st.lists(CHANNEL_POWERS, min_size=1, max_size=40),
    st.sampled_from([1, 3, 4, 12, link._BLOCK_TRIALS]),
)
@example(SWINGING, [0.0, 1e-6, 1.0, 1e3, 0.5], 4)
@example(SWINGING, [1e3, 0.0, 1e-6, 1.0, 0.5, 20.0, 1e-6], 3)
def test_block_kernel_equals_the_whole_array_harvest(model, powers, block_trials):
    # The accepted models go below 0 % and above 100 %, so clamping is
    # exercised too; built-in C never clamps. Blocks of a few trials reuse
    # the scratch that the block before them wrote, and a last short block
    # uses only the front of it.
    p_mw = np.array(powers)
    p_mw.flags.writeable = False
    channel = link.Channel(LinkScenario(), 0, p_mw, 0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "_BLOCK_TRIALS", block_trials)
        draws = harvest_samples(model, channel)
    raw = raw_efficiency_percent(model, p_mw)
    assert draws.p_h_uw.tobytes() == (p_mw * np.clip(raw, 0.0, 100.0) * 10.0).tobytes()
    # The engine harvests with the one public formula, so the two agree bit for bit.
    assert draws.p_h_uw.tobytes() == harvested_uw(p_mw, efficiency_percent(model, p_mw)).tobytes()
    lo, hi = model.valid_range_mw
    assert draws.clamp_count == sum(not 0.0 <= eta <= 100.0 for eta in raw.tolist())
    assert draws.extrapolated_count == sum(not lo <= p <= hi for p in powers)
    # The invariant the reduce relies on: every harvest is finite and >= 0.
    assert np.all(np.isfinite(draws.p_h_uw)) and draws.p_h_uw.min() >= 0.0


@pytest.mark.parametrize("block_trials", [4, link._BLOCK_TRIALS])
def test_a_channel_holding_a_nan_trial_is_refused(block_trials):
    # One NaN among ordinary trials, in the second of two blocks of 4 too: no
    # statistic is NaN and no count is wrong, the harvest raises instead.
    p_mw = np.array([0.5, 1.0, 2.0, 0.1, 3.0, math.nan, 0.2])
    p_mw.flags.writeable = False
    scenario, mc = LinkScenario(), MonteCarloSettings(n_samples=p_mw.size, seed=0)
    channel = link.Channel(scenario, mc.seed, p_mw, 0.0)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(link, "_BLOCK_TRIALS", block_trials)
        for model in (HARVESTER_A, HARVESTER_B, HARVESTER_C):
            with pytest.raises(ValueError, match="p_rx_mw must be a non-negative number"):
                harvest_samples(model, channel, n_workers=2)
            with pytest.raises(ValueError, match="p_rx_mw must be a non-negative number"):
                estimate_harvest(scenario, model, mc, channel=channel, n_workers=2)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([HARVESTER_A, HARVESTER_B, HARVESTER_C]) | ACCEPTED_MODELS,
    st.lists(CHANNEL_POWERS, min_size=1, max_size=40),
)
def test_the_fitter_evaluates_a_model_with_the_engines_arithmetic(model, powers):
    # fit_model scores and polishes its candidates with _rational, so a fitted
    # model's sample errors are those its trials would give, bit for bit,
    # wherever _rational's guard against a vanishing denominator does not act.
    p_mw = np.array(powers)
    coef = np.array([getattr(model, key) for key in COEFFICIENTS])
    den = ((p_mw + model.b2) * p_mw + model.b1) * p_mw + model.b0
    kept = np.abs(den) >= 1e-300
    assert _rational(coef, p_mw)[kept].tobytes() == raw_efficiency_percent(model, p_mw)[kept].tobytes()


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from([HARVESTER_A, HARVESTER_B, HARVESTER_C]) | ACCEPTED_MODELS,
    st.lists(CHANNEL_POWERS | st.sampled_from([1e100, 1e104, 1e300]), min_size=1, max_size=20),
)
def test_raw_efficiency_into_out_matches_the_allocating_call(model, powers):
    p_mw = np.array(powers)
    out = np.full_like(p_mw, np.nan)
    try:
        want = raw_efficiency_percent(model, p_mw)
    except ValueError as exc:
        with pytest.raises(ValueError) as caught:
            raw_efficiency_percent(model, p_mw, out=out)
        assert str(caught.value) == str(exc)
        return
    assert raw_efficiency_percent(model, p_mw, out=out) is out
    assert out.tobytes() == want.tobytes()


def test_numpy_loops_behind_the_channel_give_the_same_bits():
    # dbm_to_mw raises 10 to the dBm / 10 with an array base, and draw_channel
    # takes the log of contiguous uniform columns, because those loops are the
    # faster ones. The golden hashes hold only while they give the bits of a scalar
    # base and a strided column; a numpy build where they differ fails here.
    rng = np.random.default_rng(7)
    exponents = np.concatenate([
        np.linspace(-330.0, 308.25, 1 << 16),
        rng.uniform(-45.0, 20.0, 1 << 16),
        [-np.inf, -324.0, -323.31, -307.5, -0.0, 0.0, 1e-300, 308.25],
    ])
    for y in np.array_split(exponents, 3):
        scalar_base = np.power(10.0, y)
        array_base = np.power(quantities._TENS[: y.size], y)
        assert scalar_base.tobytes() == array_base.tobytes(), (
            "numpy's power loop with an array base differs from a scalar base; draw_channel's mW would change"
        )
    eps = link._OPEN_INTERVAL_EPS
    u = rng.random((1 << 16, 3))
    u[:4] = [[0.0] * 3, [1.0 - 2.0**-53] * 3, [2.0**-53] * 3, [0.5] * 3]
    u *= 1.0 - 2.0 * eps
    u += eps
    assert u.min() == eps and u.max() < 1.0
    for k in (1, 2):
        strided = np.log(u[:, k])
        contiguous = np.log(np.ascontiguousarray(u[:, k]))
        assert strided.tobytes() == contiguous.tobytes(), (
            f"numpy's log on a strided column differs from a contiguous copy (column {k}); draw_channel would change"
        )


@pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
def test_the_columns_the_engine_converts_are_numpys_philox_uniforms(seed):
    # draw_channel's unit stage turns a block's raw Philox words into uniforms
    # itself, with numpy's own conversion (w >> 11) * 2^-53 and the open-interval
    # remap fused into one multiply, and then into its draws. The golden hashes
    # hold only while those are the draws of Generator.random's bits; a numpy
    # build where they differ fails here.
    eps = link._OPEN_INTERVAL_EPS
    for start in (0, 4, 1 << 16):
        for k in (1, 3, 65535, 65537):
            u = np.random.Generator(np.random.Philox(key=seed)).random((start + k, 3))[start:]
            u *= 1.0 - 2.0 * eps
            u += eps
            words = link._philox_words(seed, start, k)
            for j in range(3):
                got = link._unit_draw(words, j, np.empty(k))
                assert got.tobytes() == _unit_draws_of(u[:, j], j).tobytes(), (
                    f"uniform column {j} of trials {start}..{start + k} (seed {seed}) differs from numpy's"
                )
    # Each thread re-keys its one Philox for every block. Seeds that
    # alternate on two threads, and blocks that leave its 4-word buffer part
    # used, must still give a fresh Philox(key=seed)'s words.
    def fresh_words(s, start, k):
        bitgen = np.random.Philox(key=s)
        bitgen.advance(3 * start // 4)
        return bitgen.random_raw(3 * k) >> np.uint64(11)

    with ThreadPoolExecutor(1) as helper:
        for start in (0, 4, 1 << 16):
            for k in (1, 3, 65537):
                for s in (seed, 7):
                    want = fresh_words(s, start, k).tobytes()
                    assert link._philox_words(s, start, k).tobytes() == want
                    assert helper.submit(link._philox_words, s, start, k).result().tobytes() == want
    # The stream's ends too: the fused multiply rounds as numpy's double times the remap factor.
    ends = np.array([0, 1, 2, 3, 2**52 - 1, 2**52, 2**52 + 1, 2**53 - 2, 2**53 - 1], dtype=np.uint64)
    want = ends * 2.0**-53
    want *= 1.0 - 2.0 * eps
    want += eps
    for j in range(3):
        got = link._unit_draw(np.repeat(ends, 3), j, np.empty(ends.size))
        assert got.tobytes() == _unit_draws_of(want, j).tobytes()


def _unit_draws_of(u, j):
    """The unit stage's draws of column ``j`` from its open-interval uniforms ``u``, by numpy's and scipy's own calls."""
    return ndtri(u) if j == 0 else np.log(u) if j == 1 else np.log(-np.log(u))


@settings(max_examples=50, deadline=None)
@given(SCENARIOS)
def test_median_budget_is_the_ordered_sum_of_its_terms(scenario):
    total = 0.0
    for term in budget_terms(scenario).values():
        total += term
    assert median_received_dbm(scenario) == total


# Each knob: its values, the scenario with the knob set, and whether every
# trial's received power rises (+1) or falls (-1) as the knob grows. Trials
# reuse their uniforms, so this holds exactly, not only on average.
MONOTONE_KNOBS = {
    "p_tx_w": (st.floats(0.1, 1000.0), lambda s, v: replace(s, p_tx_w=v), +1),
    "distance_m": (st.floats(1.0, 1000.0), lambda s, v: replace(s, distance_m=v), -1),
    "n_t_per_m3": (
        st.floats(0.0, 1e6),
        lambda s, v: replace(s, dust=replace(s.dust or DustStorm(), n_t_per_m3=v)),
        -1,
    ),
    "sigma_s_m": (
        st.floats(0.0, 2.0),
        lambda s, v: replace(
            s, pointing=replace(s.pointing or PointingGeometry(0.5, 0.0, R_D), sigma_s_m=v)
        ),
        -1,
    ),
}


@pytest.mark.parametrize("knob", sorted(MONOTONE_KNOBS))
@settings(max_examples=25, deadline=None)
@given(scenario=SCENARIOS, seed=st.integers(0, 2**64 - 1), data=st.data())
def test_each_trial_is_monotone_in_power_distance_dust_and_jitter(knob, scenario, seed, data):
    values, with_knob, direction = MONOTONE_KNOBS[knob]
    lo, hi = sorted((data.draw(values, label="lo"), data.draw(values, label="hi")))
    mc = MonteCarloSettings(n_samples=64, seed=seed)
    at_lo, at_hi = (
        draw_channel(with_knob(scenario, v), mc).p_mw for v in (lo, hi)
    )
    if direction > 0:
        assert np.all(at_hi >= at_lo)
    else:
        assert np.all(at_hi <= at_lo)


@pytest.mark.parametrize("knob", sorted(MONOTONE_KNOBS))
@settings(max_examples=25, deadline=None)
@given(scenario=SCENARIOS, seed=st.integers(0, 2**64 - 1), data=st.data())
def test_the_scenario_stage_is_monotone_on_one_block_of_unit_draws(knob, scenario, seed, data):
    # The scenario stage alone, on unit draws made once for both values. It
    # compares dBm, not mW: numpy's AVX-512 power loop is not guaranteed
    # monotone to the last ulp.
    values, with_knob, direction = MONOTONE_KNOBS[knob]
    lo, hi = sorted((data.draw(values, label="lo"), data.draw(values, label="hi")))
    k = 64
    words = link._philox_words(seed, 0, k)
    draws = [link._unit_draw(words, j, np.empty(k)) for j in range(3)]
    at_lo, at_hi = np.empty(k), np.empty(k)
    for value, dbm in ((lo, at_lo), (hi, at_hi)):
        # The stage forms its terms in the rows it is given, so each run gets copies.
        link._received_dbm(with_knob(scenario, value), lambda j: draws[j].copy(), dbm)
    if direction > 0:
        assert np.all(at_hi >= at_lo)
    else:
        assert np.all(at_hi <= at_lo)
