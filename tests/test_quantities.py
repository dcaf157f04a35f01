"""Unit conversions and carrier constants."""

import numpy as np
import pytest

from marswpt.quantities import (
    SPEED_OF_LIGHT_M_S,
    RfCarrier,
    dbm_to_mw,
    mw_to_dbm,
    watts_to_dbm,
)


def test_dbm_to_mw_reference_points():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(40.0) == pytest.approx(10_000.0, rel=1e-12)
    assert dbm_to_mw(-10.66) == pytest.approx(0.0859, abs=5e-5)


def test_mw_to_dbm_reference_points():
    assert mw_to_dbm(1.0) == 0.0
    assert mw_to_dbm(10_000.0) == pytest.approx(40.0, rel=1e-12)
    assert watts_to_dbm(10.0) == pytest.approx(40.0, rel=1e-12)


def test_mw_to_dbm_rejects_non_positive_power():
    with pytest.raises(ValueError):
        mw_to_dbm(0.0)
    with pytest.raises(ValueError):
        mw_to_dbm(-3.0)


def test_round_trip_is_exact_inverse():
    powers = np.concatenate([np.geomspace(1e-12, 1e6, 121), [1.0, 0.0859]])
    for p in powers:
        assert dbm_to_mw(mw_to_dbm(p)) == pytest.approx(p, rel=1e-12)


def test_adding_db_multiplies_linear_power():
    for x_db in np.linspace(-120.0, 60.0, 37):
        base_dbm = 3.7
        shifted = dbm_to_mw(base_dbm + x_db)
        assert shifted == pytest.approx(dbm_to_mw(base_dbm) * 10.0 ** (x_db / 10.0), rel=1e-12)


def test_wavelength_reference_points():
    assert RfCarrier(2.45e9).wavelength_m == pytest.approx(0.122364, abs=1e-6)
    assert RfCarrier(SPEED_OF_LIGHT_M_S).wavelength_m == 1.0
    assert RfCarrier(1.0).wavelength_m == SPEED_OF_LIGHT_M_S


def test_wavelength_rejects_non_positive_frequency():
    # A carrier only exists with a positive frequency, so its wavelength is defined.
    with pytest.raises(ValueError, match="frequency_hz must be positive"):
        RfCarrier(0.0)
    with pytest.raises(ValueError, match="frequency_hz must be positive"):
        RfCarrier(-1e9)


def test_carrier_wavelength_property():
    carrier = RfCarrier(2.45e9)
    assert carrier.wavelength_m == pytest.approx(0.12236426857142857, rel=1e-15)
    with pytest.raises(ValueError):
        RfCarrier(0.0)
    with pytest.raises(ValueError, match="frequency_hz must be finite"):
        RfCarrier(float("inf"))


def test_conversions_accept_arrays():
    levels = np.array([-10.0, 0.0, 10.0])
    powers = dbm_to_mw(levels)
    assert isinstance(powers, np.ndarray)
    np.testing.assert_allclose(mw_to_dbm(powers), levels, rtol=1e-12)
