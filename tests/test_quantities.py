"""Unit conversions and carrier constants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marswpt.link import median_received_dbm
from marswpt.quantities import (
    SPEED_OF_LIGHT_M_S,
    ConfigError,
    RfCarrier,
    attempt,
    dbm_to_mw,
    lookup,
    mw_to_dbm,
    raise_problems,
    watts_to_dbm,
)
from marswpt.sweep import builtin_presets


def test_dbm_to_mw_reference_points():
    assert dbm_to_mw(0.0) == 1.0
    assert dbm_to_mw(40.0) == pytest.approx(10_000.0, rel=1e-12)
    assert dbm_to_mw(-10.66) == pytest.approx(0.0859, abs=5e-5)


# Preset grid medians whose mW from Python's ** (libm's pow) is one ulp off numpy's power
# where numpy runs its AVX-512 power loop; where it falls back to libm, the two agree.
POW_SPLIT_DBM = (-9.829801962314747, -13.724192713958523, -19.939450868980813)


def test_the_levels_above_are_preset_medians():
    presets = builtin_presets()
    points = [("fig3a", 12.115276586285882, None), ("fig5a", 1e4, 5e-3), ("fig5b", 1e3, 1e-4)]
    for level, (name, axis_value, secondary_value) in zip(POW_SPLIT_DBM, points, strict=True):
        assert median_received_dbm(presets[name].scenario_at(axis_value, secondary_value)) == level


@settings(max_examples=60, deadline=None)
@given(st.floats(-400.0, 3000.0))
@example(POW_SPLIT_DBM[0])
@example(POW_SPLIT_DBM[1])
@example(POW_SPLIT_DBM[2])
def test_dbm_to_mw_gives_a_level_the_same_bits_in_every_form(level):
    # One conversion for the median channel and for every trial: a float, a
    # 0-d array and a one-element array get the bits of the level inside a
    # channel block (65,536 levels) and inside a longer array.
    mw = dbm_to_mw(level)
    assert type(mw) is float
    assert dbm_to_mw(np.array(level)).hex() == mw.hex()
    assert dbm_to_mw(np.array([level]))[0].hex() == mw.hex()
    for n in (1 << 16, 70_000):
        levels = np.linspace(-400.0, 3000.0, n)
        levels[[0, n // 2, -1]] = level
        fresh = dbm_to_mw(levels)
        assert dbm_to_mw(levels, out=levels) is levels
        for p_mw in (fresh, levels):
            assert [p_mw[i].hex() for i in (0, n // 2, -1)] == [mw.hex()] * 3


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


def test_a_problem_list_travels_whole():
    # A problem may hold the separator itself; repeats are dropped as whole problems.
    unknown = "unknown harvester 'Y'; valid names: A, B, C"
    raise_problems([])
    with pytest.raises(ConfigError) as excinfo:
        raise_problems([unknown, "x must be positive", unknown])
    assert excinfo.value.problems == [unknown, "x must be positive"]
    assert str(excinfo.value) == f"{unknown}; x must be positive"
    # attempt adds a ConfigError's problems one by one, and any other ValueError as one problem.
    problems = ["earlier"]
    assert attempt(problems, raise_problems, [unknown, "x must be positive"]) is None
    assert attempt(problems, RfCarrier, 0.0) is None
    assert attempt(problems, float, "x") is None
    assert attempt(problems, float, "2") == 2.0
    assert problems == [
        "earlier", unknown, "x must be positive", "frequency_hz must be positive, got 0.0",
        "could not convert string to float: 'x'",
    ]


@pytest.mark.parametrize("name", ["c", ["A"], None])
def test_lookup_names_every_valid_name_for_any_unknown_name(name):
    with pytest.raises(ValueError) as excinfo:
        lookup({"B": 2, "A": 1}, "harvester", name)
    assert str(excinfo.value) == f"unknown harvester {name!r}; valid names: A, B"
