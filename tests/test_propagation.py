"""Path loss, log-normal shadowing, and suspended-dust attenuation."""

import math

import numpy as np
import pytest
from scipy import stats

from marswpt.propagation import (
    AREA1,
    AREA2,
    TERRAIN_PRESETS,
    DustStorm,
    TerrainProfile,
    dust_attenuation_db,
    dust_extinction_coefficient,
    free_space_factor,
    path_loss_db,
    terrain_preset,
)
from marswpt.link import LinkScenario, MonteCarloSettings, draw_channel, median_received_dbm
from marswpt.quantities import RfCarrier

CARRIER = RfCarrier(2.45e9)


# ---------------------------------------------------------------------------
# terrain profiles


def test_builtin_terrain_profiles():
    assert AREA1.alpha == 2.12
    assert AREA1.sigma_db == 11.41
    assert AREA2.alpha == 2.37
    assert AREA2.sigma_db == 13.26
    assert terrain_preset("area1") is AREA1
    assert terrain_preset("area2") is AREA2
    assert set(TERRAIN_PRESETS) == {"area1", "area2"}


def test_terrain_preset_rejects_unknown_name():
    with pytest.raises(ValueError, match="area1"):
        terrain_preset("area9")
    # Names match exactly, as harvester names do.
    with pytest.raises(ValueError, match="unknown area 'AREA2'"):
        terrain_preset("AREA2")


def test_terrain_profile_validation():
    with pytest.raises(ValueError):
        TerrainProfile("flat", alpha=0.0, sigma_db=1.0)
    with pytest.raises(ValueError):
        TerrainProfile("flat", alpha=2.0, sigma_db=-0.1)
    with pytest.raises(ValueError, match="sigma_db must be finite"):
        TerrainProfile("x", 2.0, math.nan)
    with pytest.raises(ValueError, match="alpha must be positive.*; sigma_db must be non-negative"):
        TerrainProfile("flat", alpha=0.0, sigma_db=-0.1)


# ---------------------------------------------------------------------------
# geometric spreading


def test_free_space_factor_reference_value():
    # 4*pi*50 / lambda at 2.45 GHz, frozen from an independent evaluation.
    assert free_space_factor(50.0, CARRIER) == pytest.approx(5134.82030378162, rel=1e-12)


def test_free_space_factor_is_one_at_lambda_over_four_pi():
    d0 = CARRIER.wavelength_m / (4.0 * math.pi)
    assert free_space_factor(d0, CARRIER) == pytest.approx(1.0, rel=1e-12)


def test_free_space_factor_linear_in_distance():
    assert free_space_factor(100.0, CARRIER) == pytest.approx(
        2.0 * free_space_factor(50.0, CARRIER), rel=1e-12
    )


def test_path_loss_reference_values():
    assert path_loss_db(50.0, CARRIER, AREA1) == pytest.approx(78.66313529564808, abs=1e-9)
    assert path_loss_db(50.0, CARRIER, AREA2) == pytest.approx(87.93944842013488, abs=1e-9)


def test_path_loss_zero_at_reference_distance():
    d0 = CARRIER.wavelength_m / (4.0 * math.pi)
    assert path_loss_db(d0, CARRIER, AREA1) == pytest.approx(0.0, abs=1e-9)


def test_path_loss_increases_with_distance_and_exponent():
    distances = np.geomspace(1.0, 500.0, 40)
    losses = [path_loss_db(d, CARRIER, AREA1) for d in distances]
    assert all(b > a for a, b in zip(losses, losses[1:]))

    for d in (5.0, 50.0, 200.0):
        assert path_loss_db(d, CARRIER, AREA2) > path_loss_db(d, CARRIER, AREA1)


def test_path_loss_rejects_non_positive_distance():
    with pytest.raises(ValueError):
        path_loss_db(0.0, CARRIER, AREA1)
    with pytest.raises(ValueError):
        path_loss_db(-10.0, CARRIER, AREA1)


# ---------------------------------------------------------------------------
# shadowing, as the Monte Carlo engine draws it


def engine_shadowing_db(terrain, n, seed):
    """Per-trial shadowing of the engine: received power in dB minus the median."""
    scenario = LinkScenario(terrain=terrain)
    channel = draw_channel(scenario, MonteCarloSettings(n_samples=n, seed=seed))
    return 10.0 * np.log10(channel.p_mw) - median_received_dbm(scenario)


def test_shadowing_zero_sigma_is_deterministic():
    calm = TerrainProfile("calm", alpha=2.0, sigma_db=0.0)
    assert np.all(engine_shadowing_db(calm, 100, seed=1) == 0.0)


def test_shadowing_matches_declared_moments():
    draws = engine_shadowing_db(AREA1, 1_000_000, seed=2024)
    assert abs(float(np.mean(draws))) < 0.05
    assert float(np.std(draws)) == pytest.approx(11.41, rel=0.01)


def test_shadowing_is_reproducible_for_fixed_seed():
    a = engine_shadowing_db(AREA1, 1000, seed=7)
    b = engine_shadowing_db(AREA1, 1000, seed=7)
    np.testing.assert_array_equal(a, b)


def test_shadowing_is_normal_by_ks():
    draws = engine_shadowing_db(AREA2, 100_000, seed=99)
    result = stats.kstest(draws, stats.norm(loc=0.0, scale=13.26).cdf)
    assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# dust


def test_dust_extinction_coefficient_reference_value():
    storm = DustStorm(n_t_per_m3=1.0)
    assert dust_extinction_coefficient(storm, CARRIER) == pytest.approx(
        48.97691869296714, rel=1e-12
    )


def test_dust_attenuation_reference_values():
    heavy = DustStorm(n_t_per_m3=1e5, rho_p_m=5e-3)
    light = DustStorm(n_t_per_m3=1e5, rho_p_m=1e-4)
    assert dust_attenuation_db(heavy, 50.0, CARRIER) == pytest.approx(
        30.610574183104468, abs=1e-9
    )
    assert dust_attenuation_db(light, 50.0, CARRIER) == pytest.approx(
        2.448845934648357e-4, rel=1e-9
    )


def test_dust_attenuation_vanishes_without_particles():
    clear = DustStorm(n_t_per_m3=0.0)
    assert dust_attenuation_db(clear, 50.0, CARRIER) == 0.0


def test_dust_attenuation_scalings():
    base = DustStorm(n_t_per_m3=2e4, rho_p_m=1e-3)
    ref = dust_attenuation_db(base, 50.0, CARRIER)

    doubled_density = DustStorm(n_t_per_m3=4e4, rho_p_m=1e-3)
    assert dust_attenuation_db(doubled_density, 50.0, CARRIER) == pytest.approx(
        2.0 * ref, rel=1e-12
    )

    doubled_distance = dust_attenuation_db(base, 100.0, CARRIER)
    assert doubled_distance == pytest.approx(2.0 * ref, rel=1e-12)

    doubled_radius = DustStorm(n_t_per_m3=2e4, rho_p_m=2e-3)
    assert dust_attenuation_db(doubled_radius, 50.0, CARRIER) == pytest.approx(
        8.0 * ref, rel=1e-12
    )


def test_dust_attenuation_rejects_non_positive_distance():
    storm = DustStorm(n_t_per_m3=1e4)
    with pytest.raises(ValueError):
        dust_attenuation_db(storm, 0.0, CARRIER)


def test_dust_storm_validation():
    with pytest.raises(ValueError):
        DustStorm(n_t_per_m3=-1.0)
    with pytest.raises(ValueError):
        DustStorm(n_t_per_m3=1e4, rho_p_m=0.0)
    with pytest.raises(ValueError):
        DustStorm(n_t_per_m3=1e4, eps_im=0.0)
    with pytest.raises(ValueError, match="n_t_per_m3 must be finite"):
        DustStorm(math.nan)
    with pytest.raises(ValueError) as excinfo:
        DustStorm(n_t_per_m3=-1.0, rho_p_m=0.0, eps_re=math.inf)
    for name in ("n_t_per_m3", "rho_p_m", "eps_re"):
        assert name in str(excinfo.value)
    # Defaults describe clear air over basalt-like grains.
    assert DustStorm().n_t_per_m3 == 0.0
    storm = DustStorm(n_t_per_m3=1e4)
    assert storm.rho_p_m == 1e-4
    assert storm.eps_re == 4.56
    assert storm.eps_im == 0.251
