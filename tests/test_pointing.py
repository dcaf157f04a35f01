"""Pointing-error geometry, collected fraction, and misalignment fading."""

import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad
from scipy.special import i0e

from marswpt.pointing import (
    MisalignmentModel,
    PointingGeometry,
    default_beam_waist,
    derive_model,
    mean_fraction,
)
from marswpt.quantities import RfCarrier
from oracles import engine_fade_db, fade_cdf, fraction_at_offset

CARRIER = RfCarrier(2.45e9)
R_D = default_beam_waist(CARRIER)


def make_model(beta_m, sigma_s_m, r_d_m=R_D):
    return derive_model(PointingGeometry(beta_m=beta_m, sigma_s_m=sigma_s_m, r_d_m=r_d_m))


def engine_fractions(sigma_s_m, n, seed, beta_m=0.5):
    """The engine's fade m per trial."""
    fade_db = engine_fade_db(PointingGeometry(beta_m, sigma_s_m, R_D), n, seed)
    return make_model(beta_m, sigma_s_m).a0 * 10.0 ** (fade_db / 10.0)


def engine_offsets(sigma_s_m, n, seed, beta_m=0.5):
    """The radial offset behind each engine fade, by inverting m(r)."""
    fade_db = engine_fade_db(PointingGeometry(beta_m, sigma_s_m, R_D), n, seed)
    log_ratio = fade_db * (math.log(10.0) / 10.0)
    # A fade a rounding error above a0 is an offset of zero.
    return make_model(beta_m, sigma_s_m).w_eq_m * np.sqrt(np.maximum(-0.5 * log_ratio, 0.0))


# ---------------------------------------------------------------------------
# derived model parameters


def test_default_beam_waist_is_seven_wavelengths():
    assert R_D == pytest.approx(7.0 * CARRIER.wavelength_m, rel=1e-15)


def test_derived_model_reference_values_narrow_collector():
    model = make_model(beta_m=0.5, sigma_s_m=0.5)
    assert model.a0 == pytest.approx(0.4888335042331958, rel=1e-12)
    assert model.w_eq_m == pytest.approx(1.0301589134349962, rel=1e-12)
    assert model.xi == pytest.approx(1.0612273869295719, rel=1e-12)
    assert model.sigma_s_m == 0.5


def test_derived_model_reference_values_wide_collector():
    model = make_model(beta_m=1.0, sigma_s_m=0.5)
    assert model.a0 == pytest.approx(0.9244467307577878, rel=1e-12)
    assert model.w_eq_m == pytest.approx(1.9065664593757101, rel=1e-12)
    assert model.xi == pytest.approx(3.634995664016431, rel=1e-12)


def test_jitter_scale_only_rescales_xi():
    tight = make_model(beta_m=0.5, sigma_s_m=0.1)
    loose = make_model(beta_m=0.5, sigma_s_m=1.0)
    assert tight.xi == pytest.approx(26.530684673239293, rel=1e-12)
    assert loose.xi == pytest.approx(0.26530684673239296, rel=1e-12)
    assert tight.a0 == loose.a0
    assert tight.w_eq_m == loose.w_eq_m


def test_zero_jitter_yields_infinite_shape_parameter():
    model = make_model(beta_m=0.5, sigma_s_m=0.0)
    assert math.isinf(model.xi)
    assert mean_fraction(model) == model.a0
    # A jitter whose square underflows to zero is zero jitter, not a division by zero.
    assert math.isinf(make_model(beta_m=0.5, sigma_s_m=3e-195).xi)


def test_peak_fraction_saturates_for_huge_collector():
    model = make_model(beta_m=50.0, sigma_s_m=0.5)
    assert model.a0 == pytest.approx(1.0, abs=1e-12)


def test_model_monotone_in_collector_radius():
    betas = np.linspace(0.1, 3.0, 25)
    models = [make_model(b, 0.5) for b in betas]
    a0s = [m.a0 for m in models]
    weqs = [m.w_eq_m for m in models]
    assert all(b > a for a, b in zip(a0s, a0s[1:]))
    assert all(b > a for a, b in zip(weqs, weqs[1:]))
    # Collected fraction at a fixed offset grows with the collector too.
    at_half_meter = [fraction_at_offset(m, 0.5) for m in models]
    assert all(b > a for a, b in zip(at_half_meter, at_half_meter[1:]))


def test_equivalent_width_not_smaller_than_beam():
    for beta in (0.2, 0.5, 1.0, 2.0):
        model = make_model(beta, 0.5)
        assert model.w_eq_m >= R_D


def test_geometry_validation():
    with pytest.raises(ValueError):
        PointingGeometry(beta_m=0.0, sigma_s_m=0.5, r_d_m=R_D)
    with pytest.raises(ValueError):
        PointingGeometry(beta_m=0.5, sigma_s_m=-0.1, r_d_m=R_D)
    with pytest.raises(ValueError):
        PointingGeometry(beta_m=0.5, sigma_s_m=0.5, r_d_m=0.0)
    with pytest.raises(ValueError, match="sigma_s_m must be finite"):
        PointingGeometry(0.5, math.nan, 1.0)
    with pytest.raises(ValueError):
        MisalignmentModel(a0=1.2, w_eq_m=1.0, xi=1.0, sigma_s_m=0.5)
    with pytest.raises(ValueError):
        MisalignmentModel(a0=0.5, w_eq_m=-1.0, xi=1.0, sigma_s_m=0.5)


# ---------------------------------------------------------------------------
# collected fraction vs. direct quadrature of the beam overlap


def exact_fraction(beta_m, r_d_m, r_m):
    """Integrate the normalized Gaussian beam profile over the collector disk."""

    def integrand(s):
        return (
            (4.0 / r_d_m**2)
            * s
            * i0e(4.0 * r_m * s / r_d_m**2)
            * math.exp(-2.0 * (r_m - s) ** 2 / r_d_m**2)
        )

    value, _ = quad(integrand, 0.0, beta_m, limit=200)
    return value


def test_fraction_matches_quadrature_near_axis():
    for beta in (0.5, 1.0):
        model = make_model(beta, 0.5)
        for r in (0.0, 0.25 * R_D, 0.5 * R_D):
            assert fraction_at_offset(model, r) == pytest.approx(
                exact_fraction(beta, R_D, r), rel=0.02
            )


def test_fraction_matches_quadrature_at_beam_edge_for_narrow_collector():
    model = make_model(0.5, 0.5)
    assert fraction_at_offset(model, R_D) == pytest.approx(
        exact_fraction(0.5, R_D, R_D), rel=0.05
    )


def test_fraction_profile_shape():
    model = make_model(0.5, 0.5)
    assert fraction_at_offset(model, 0.0) == model.a0
    expected = model.a0 * math.exp(-1.0)
    assert fraction_at_offset(model, model.w_eq_m / math.sqrt(2.0)) == pytest.approx(
        expected, rel=1e-12
    )
    assert fraction_at_offset(model, 50.0) < 1e-12

    radii = np.linspace(0.0, 3.0, 50)
    values = fraction_at_offset(model, radii)
    assert np.all(np.diff(values) < 0.0)


# ---------------------------------------------------------------------------
# radial offsets behind the engine's fades


def test_offset_sampling_zero_jitter():
    assert np.all(engine_fade_db(PointingGeometry(0.5, 0.0, R_D), 50, seed=3) == 0.0)
    assert np.all(engine_offsets(0.0, 50, seed=3) == 0.0)


def test_offset_sampling_matches_rayleigh_moments():
    draws = engine_offsets(0.5, 1_000_000, seed=11)
    assert float(np.mean(draws)) == pytest.approx(0.5 * math.sqrt(math.pi / 2.0), rel=0.01)
    assert float(np.mean(draws**2)) == pytest.approx(2.0 * 0.5**2, rel=0.01)


def test_offset_sampling_matches_rayleigh_cdf():
    draws = engine_offsets(0.8, 100_000, seed=17)
    result = stats.kstest(draws, stats.rayleigh(scale=0.8).cdf)
    assert result.pvalue > 0.01


# ---------------------------------------------------------------------------
# fade distribution


def test_fade_cdf_reference_shape():
    model = make_model(0.5, 0.5)
    assert fade_cdf(model, model.a0) == pytest.approx(1.0, rel=1e-12)
    assert fade_cdf(model, 0.5 * model.a0) == pytest.approx(
        0.5**model.xi, rel=1e-12
    )
    grid = np.linspace(1e-6, model.a0, 100)
    values = fade_cdf(model, grid)
    assert np.all(np.diff(values) > 0.0)


def test_mean_fraction_closed_form():
    model = make_model(0.5, 0.5)
    assert mean_fraction(model) == pytest.approx(0.25167698897780333, rel=1e-12)
    wide = make_model(1.0, 0.5)
    assert mean_fraction(wide) == pytest.approx(0.7249974113259087, rel=1e-12)
    tight = make_model(0.5, 0.1)
    assert mean_fraction(tight) == pytest.approx(0.47107755264553486, rel=1e-12)
    loose = make_model(0.5, 1.0)
    assert mean_fraction(loose) == pytest.approx(0.1024975688072635, rel=1e-12)


def test_mean_fraction_decreases_with_jitter():
    sigmas = np.linspace(0.05, 1.5, 20)
    means = [mean_fraction(make_model(0.5, s)) for s in sigmas]
    assert all(b < a for a, b in zip(means, means[1:]))


def test_sampled_fraction_matches_closed_form_mean():
    model = make_model(0.5, 0.5)
    fractions = engine_fractions(0.5, 1_000_000, seed=2025)
    expected = mean_fraction(model)
    stderr = float(np.std(fractions)) / math.sqrt(fractions.size)
    assert abs(float(np.mean(fractions)) - expected) < 3.0 * stderr


def test_sampled_fraction_matches_fade_cdf():
    model = make_model(0.5, 0.5)
    fractions = engine_fractions(0.5, 100_000, seed=31)
    result = stats.kstest(fractions, lambda z: fade_cdf(model, z))
    assert result.pvalue > 0.01
