"""Link budget composition and the Monte Carlo harvested-power estimator."""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from marswpt.harvester import (
    HARVESTER_A,
    HARVESTER_B,
    HARVESTER_C,
    HarvesterModel,
    denominator_minimum,
    harvested_mw,
)
from marswpt import link
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
from marswpt.pointing import PointingGeometry, default_beam_waist, derive_model, mean_fraction
from marswpt.propagation import AREA1, AREA2, DustStorm, TerrainProfile, dust_attenuation_db, path_loss_db
from marswpt.quantities import RfCarrier, dbm_to_mw, watts_to_dbm

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


def test_zero_jitter_pointing_is_static_a0_penalty():
    pointing = PointingGeometry(beta_m=0.5, sigma_s_m=0.0, r_d_m=R_D)
    scenario = LinkScenario(terrain=CALM_AREA1, pointing=pointing)
    p_rx_dbm = draw_channel(scenario, MonteCarloSettings(n_samples=100, seed=3)).p_rx_dbm
    assert np.all(p_rx_dbm == p_rx_dbm[0])
    assert p_rx_dbm[0] == pytest.approx(median_received_dbm(scenario), abs=1e-12)


# ---------------------------------------------------------------------------
# determinism contract


def test_scalar_loop_reproduces_vectorized_samples():
    # Trial i owns row i of the Philox block: one trial at a time, row i
    # gives trial i's shadowing. The engine's open-interval remap moves each
    # uniform by at most 1e-16, far inside the tolerance.
    scenario = LinkScenario()
    mc = MonteCarloSettings(n_samples=50, seed=2024)
    vectorized = draw_channel(scenario, mc).p_rx_dbm
    rows = np.random.Generator(np.random.Philox(key=mc.seed)).random((mc.n_samples, 3))
    median = median_received_dbm(scenario)
    looped = np.array([median + scenario.terrain.sigma_db * float(ndtri(row[0])) for row in rows])
    np.testing.assert_allclose(vectorized, looped, rtol=0.0, atol=1e-12)

    # With every channel branch on, a shorter run is the prefix of a longer
    # one, bit for bit.
    full = LinkScenario(
        dust=DustStorm(n_t_per_m3=1e4, rho_p_m=1e-3),
        pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D),
        small_scale="rayleigh",
    )
    long_channel = draw_channel(full, mc)
    short_channel = draw_channel(full, MonteCarloSettings(n_samples=17, seed=mc.seed))
    np.testing.assert_array_equal(long_channel.p_rx_dbm[:17], short_channel.p_rx_dbm)
    long = harvest_samples(HARVESTER_C, long_channel)
    short = harvest_samples(HARVESTER_C, short_channel)
    for name in ("p_h_uw", "clamped", "extrapolated"):
        np.testing.assert_array_equal(getattr(long, name)[:17], getattr(short, name))


def test_fixed_uniform_budget_keeps_features_independent():
    # Each trial owns three uniforms whether or not a feature is enabled, so
    # toggling one impairment never reshuffles the draws behind another.
    mc = MonteCarloSettings(n_samples=1000, seed=5)
    pointing = PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D)

    plain = draw_channel(LinkScenario(), mc).p_rx_dbm
    pointed = draw_channel(LinkScenario(pointing=pointing), mc).p_rx_dbm
    faded = draw_channel(LinkScenario(small_scale="rayleigh"), mc).p_rx_dbm
    both = draw_channel(LinkScenario(pointing=pointing, small_scale="rayleigh"), mc).p_rx_dbm

    # The pointing fade never exceeds its aligned-beam ceiling ...
    fade_db = pointed - plain
    assert np.all(fade_db <= 10.0 * math.log10(derive_model(pointing).a0) + 1e-12)
    # ... and the small-scale term extracted with or without pointing enabled
    # comes from the same underlying draws.
    np.testing.assert_allclose(both - pointed, faded - plain, rtol=0.0, atol=1e-9)


def test_worker_count_does_not_change_results():
    scenario = LinkScenario(small_scale="rayleigh")
    mc = MonteCarloSettings(n_samples=10_007, seed=99)
    serial = estimate_harvest(scenario, HARVESTER_A, mc, channel=draw_channel(scenario, mc, 1))
    threaded = estimate_harvest(scenario, HARVESTER_A, mc, channel=draw_channel(scenario, mc, 4))
    assert serial == threaded

    serial_channel = draw_channel(scenario, mc, n_workers=1)
    threaded_channel = draw_channel(scenario, mc, n_workers=8)
    np.testing.assert_array_equal(
        harvest_samples(HARVESTER_A, serial_channel).p_h_uw,
        harvest_samples(HARVESTER_A, threaded_channel).p_h_uw,
    )
    np.testing.assert_array_equal(serial_channel.p_rx_dbm, threaded_channel.p_rx_dbm)


EVERY_BRANCH = LinkScenario(
    terrain=AREA2,
    dust=DustStorm(n_t_per_m3=1e4, rho_p_m=1e-4),
    pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.3, r_d_m=R_D),
    small_scale="rayleigh",
)


@pytest.mark.parametrize("block_trials", [4, 12])
def test_block_size_and_worker_count_do_not_change_samples(monkeypatch, block_trials):
    cases = [(n, MonteCarloSettings(n_samples=n, seed=31 + n)) for n in (1, 3, 4, 5, 17, 50)]

    def outcomes(mc, n_workers=1):
        channel = draw_channel(EVERY_BRANCH, mc, n_workers)
        draws = harvest_samples(HARVESTER_B, channel)
        return channel.p_rx_dbm, channel.p_mw, draws.p_h_uw, draws.clamped, draws.extrapolated

    default = {n: outcomes(mc) for n, mc in cases}
    monkeypatch.setattr(link, "_BLOCK_TRIALS", block_trials)
    for n, mc in cases:
        for n_workers in (1, 2, 3):
            for got, want in zip(outcomes(mc, n_workers), default[n]):
                np.testing.assert_array_equal(got, want)


def test_shared_channel_gives_the_per_model_result():
    mc = MonteCarloSettings(n_samples=20_001, seed=12345, quantiles=(0.01, 0.5, 0.95))
    channel = draw_channel(EVERY_BRANCH, mc, n_workers=2)
    for model in (HARVESTER_A, HARVESTER_B, HARVESTER_C):
        shared = estimate_harvest(EVERY_BRANCH, model, mc, channel=channel)
        assert shared == estimate_harvest(EVERY_BRANCH, model, mc)


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
    for values in (channel.p_rx_dbm, channel.p_mw):
        with pytest.raises(ValueError, match="read-only"):
            values[0] = 0.0


def _bits(value: float) -> bytes:
    return struct.pack("<d", value)


# Ties, zeros (B clamps about half its trials to 0) and the odd NaN. Zeros
# are +0.0, as the engine's are: where +0.0 and -0.0 both occur, the sign of
# a zero order statistic depends on how the partition arranged them, in
# numpy's own calls too.
ORDER_VALUES = st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.5, math.nan]) | st.floats(
    -1e3, 1e3, allow_subnormal=False
).map(lambda v: v + 0.0)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(ORDER_VALUES, min_size=1, max_size=60),
    st.lists(st.sampled_from([0.05, 0.95, 1e-9, 1 - 1e-9, 0.25, 0.01]) | st.floats(1e-9, 1 - 1e-9),
             max_size=4),
)
def test_one_partition_matches_numpy_median_and_quantile(values, extra):
    h = np.array(values)
    quantiles = (0.5, 1e-9, 1 - 1e-9, *extra)
    median, by_q = link._order_statistics(h, quantiles)
    assert _bits(median) == _bits(float(np.median(h)))
    for q in quantiles:
        assert _bits(by_q[q]) == _bits(float(np.quantile(h, q)))


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

    aligned_uw = harvested_mw(FLAT_5PCT, dbm_to_mw(median_received_dbm(scenario))) * 1e3
    ratio = draws.p_h_uw / aligned_uw
    model = derive_model(pointing)
    expected = mean_fraction(model) / model.a0
    stderr = float(np.std(ratio)) / math.sqrt(ratio.size)
    assert abs(float(np.mean(ratio)) - expected) < 3.0 * stderr


def test_small_scale_gain_has_unit_mean():
    mc = MonteCarloSettings(n_samples=1_000_000, seed=31337)
    plain = draw_channel(LinkScenario(), mc)
    faded = draw_channel(LinkScenario(small_scale="rayleigh"), mc)
    lin_plain = 10.0 ** (plain.p_rx_dbm / 10.0)
    lin_faded = 10.0 ** (faded.p_rx_dbm / 10.0)
    paired_diff = lin_faded - lin_plain
    stderr = float(np.std(paired_diff)) / math.sqrt(paired_diff.size)
    assert abs(float(np.mean(paired_diff))) < 3.0 * stderr


def test_harvested_power_bounded_by_received_power():
    scenario = LinkScenario(
        dust=DustStorm(n_t_per_m3=1e4, rho_p_m=1e-3),
        pointing=PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=R_D),
        small_scale="rayleigh",
    )
    channel = draw_channel(scenario, MonteCarloSettings(n_samples=5000, seed=8))
    received_uw = 10.0 ** (channel.p_rx_dbm / 10.0) * 1e3
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


def test_draw_channel_rejects_bad_worker_count():
    with pytest.raises(ValueError, match="n_workers must be at least 1, got 0"):
        draw_channel(LinkScenario(), MonteCarloSettings(10, 1), n_workers=0)


def test_draw_channel_rejects_a_received_power_past_float64():
    # 10^(P/10) mW overflows past about 3083 dBm; pool threads must raise too.
    # The median, 3061 dBm, is finite, so only single trials overflow.
    mc = MonteCarloSettings(n_samples=40_000, seed=1)
    # The budget's ordered sum is finite, but the trials add path loss and
    # dust (each near -1e308 dB) before the gain, and that sum is not.
    steep_and_dusty = LinkScenario(
        g_t_db=1.7e308, terrain=TerrainProfile("steep", alpha=2.7e306, sigma_db=0.0),
        dust=DustStorm(n_t_per_m3=4.08e304, rho_p_m=1.0),
    )
    for scenario in (LinkScenario(g_t_db=3100.0), steep_and_dusty):
        for n_workers in (1, 2):
            with pytest.raises(ValueError, match="received power overflows"):
                draw_channel(scenario, mc, n_workers)


def test_a_mean_received_power_past_float64_is_an_input_error():
    # Every trial sits near -3.7e307 dBm, a finite value, but eight of them sum past float64.
    steep = LinkScenario(terrain=TerrainProfile("steep", alpha=1e306, sigma_db=0.0))
    assert math.isfinite(median_received_dbm(steep))
    with pytest.raises(ValueError, match="mean received power in dBm overflows float64"):
        estimate_harvest(steep, HARVESTER_C, MonteCarloSettings(n_samples=8, seed=1))


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
    small_scale=st.sampled_from(SMALL_SCALE_MODES),
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
    received_uw = 1e3 * 10.0 ** (channel.p_rx_dbm / 10.0)
    assert np.all(draws.p_h_uw >= 0.0)
    assert np.all(draws.p_h_uw <= received_uw * (1.0 + 1e-12))
    stats = estimate_harvest(scenario, model, mc)
    assert 0 <= stats.clamp_count <= mc.n_samples
    assert 0 <= stats.extrapolated_count <= mc.n_samples


@settings(max_examples=50, deadline=None)
@given(SCENARIOS)
def test_median_budget_is_the_ordered_sum_of_its_terms(scenario):
    total = 0.0
    for term in budget_terms(scenario).values():
        total += term
    assert median_received_dbm(scenario) == total


# Each knob: its values, the scenario with the knob set, and whether every
# trial's received power rises (+1) or falls (-1) as the knob grows. Trials
# reuse their uniforms, so this holds exactly, not only on average. Jitter
# starts above zero: zero jitter takes the static branch 10 log10(a0), which
# can sit one rounding step below the jitter branch's (10 / ln 10) ln(a0).
MONOTONE_KNOBS = {
    "p_tx_w": (st.floats(0.1, 1000.0), lambda s, v: replace(s, p_tx_w=v), +1),
    "distance_m": (st.floats(1.0, 1000.0), lambda s, v: replace(s, distance_m=v), -1),
    "n_t_per_m3": (
        st.floats(0.0, 1e6),
        lambda s, v: replace(s, dust=replace(s.dust or DustStorm(), n_t_per_m3=v)),
        -1,
    ),
    "sigma_s_m": (
        st.floats(0.0, 2.0, exclude_min=True),
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
        draw_channel(with_knob(scenario, v), mc).p_rx_dbm for v in (lo, hi)
    )
    if direction > 0:
        assert np.all(at_hi >= at_lo)
    else:
        assert np.all(at_hi <= at_lo)
