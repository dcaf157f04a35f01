"""Rational efficiency models: evaluation, clamping, fitting, persistence."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from marswpt.harvester import (
    BUILTIN_HARVESTERS,
    HARVESTER_A,
    HARVESTER_B,
    HARVESTER_C,
    EfficiencySample,
    FitError,
    HarvesterModel,
    denominator_minimum,
    efficiency_percent,
    fit_model,
    harvested_uw,
    harvester_preset,
    is_extrapolated,
    raw_efficiency_percent,
    read_model_file,
    read_samples_csv,
    write_model_file,
)
from marswpt.link import Channel, LinkScenario, harvest_samples
from marswpt.quantities import ConfigError

MEDIAN_RX_10W_MW = 0.08583935989573008


def sample_curve(model, n_points, noise_pp=0.0, seed=0):
    lo, hi = model.valid_range_mw
    powers = np.geomspace(lo, hi, n_points)
    eta = efficiency_percent(model, powers)
    if noise_pp > 0.0:
        rng = np.random.default_rng(seed)
        eta = np.clip(eta + rng.normal(0.0, noise_pp, eta.shape), 0.0, 100.0)
    return [EfficiencySample(float(p), float(e)) for p, e in zip(powers, eta)]


def max_curve_deviation_pp(fitted, reference):
    lo, hi = reference.valid_range_mw
    grid = np.geomspace(lo, hi, 400)
    return float(np.abs(efficiency_percent(fitted, grid) - efficiency_percent(reference, grid)).max())


# ---------------------------------------------------------------------------
# built-in models


def test_builtin_coefficients_and_ranges():
    assert HARVESTER_A.a2 == 100.1 and HARVESTER_A.b1 == 3.185
    assert HARVESTER_B.a1 == 9.46e5 and HARVESTER_B.b0 == 9874.0
    assert HARVESTER_C.a2 == 114.6 and HARVESTER_C.b0 == 4.5e-3
    assert HARVESTER_A.valid_range_mw == (0.03, 10.0)
    assert HARVESTER_B.valid_range_mw == (1.0, 300.0)
    assert HARVESTER_C.valid_range_mw == (1e-4, 3.0)
    assert set(BUILTIN_HARVESTERS) == {"A", "B", "C"}
    assert harvester_preset("B") is HARVESTER_B


def test_harvester_preset_rejects_unknown_name():
    with pytest.raises(ValueError, match="A, B, C"):
        harvester_preset("D")
    # Names match exactly, as in a sweep config and the link --harvester flag.
    with pytest.raises(ValueError, match="unknown harvester 'a'"):
        harvester_preset("a")


def test_efficiency_reference_values():
    assert efficiency_percent(HARVESTER_A, 1.0) == pytest.approx(66.67038828047217, rel=1e-12)
    assert efficiency_percent(HARVESTER_B, 50.0) == pytest.approx(84.27742634293995, rel=1e-12)
    assert efficiency_percent(HARVESTER_B, 1.0) == pytest.approx(40.64227800250834, rel=1e-12)
    assert efficiency_percent(HARVESTER_C, 1e-9) == pytest.approx(1.7022218600556112, rel=1e-12)
    # Zero input is a valid query: the low-power limit of the rational form.
    assert efficiency_percent(HARVESTER_C, 0.0) == pytest.approx(
        HARVESTER_C.a0 / HARVESTER_C.b0, rel=1e-12
    )


def test_negative_low_power_raw_value_is_clamped():
    assert raw_efficiency_percent(HARVESTER_A, 1e-9) == pytest.approx(
        -0.4386120534952525, rel=1e-9
    )
    assert efficiency_percent(HARVESTER_A, 1e-9) == 0.0
    assert efficiency_percent(HARVESTER_A, 0.0) == 0.0


def test_efficiency_stays_in_percent_band():
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 500)])
    for model in BUILTIN_HARVESTERS.values():
        eta = efficiency_percent(model, grid)
        assert np.all(eta >= 0.0)
        assert np.all(eta <= 100.0)


def test_efficiency_rolls_off_at_high_power():
    for model in BUILTIN_HARVESTERS.values():
        lo, hi = model.valid_range_mw
        grid = np.geomspace(lo, hi, 400)
        eta = efficiency_percent(model, grid)
        peak = int(np.argmax(eta))
        assert peak < eta.size - 1
        assert np.all(np.diff(eta[peak:]) <= 0.0)
        assert eta[-1] < eta[peak]


def test_model_b_is_least_efficient_below_one_milliwatt():
    grid = np.geomspace(0.01, 1.0, 50)
    eta_a = efficiency_percent(HARVESTER_A, grid)
    eta_b = efficiency_percent(HARVESTER_B, grid)
    eta_c = efficiency_percent(HARVESTER_C, grid)
    assert np.all(eta_b < eta_a)
    assert np.all(eta_b < eta_c)


def test_model_b_clamps_to_zero_inside_its_certified_range():
    # B's numerator -5.28e3 P^2 + 9.46e5 P - 2.04e4 turns negative above its
    # larger root, 179.1 mW, well inside B's certified 1-300 mW. PAPER.md has
    # no coefficient table, so whether the coefficients or the range were
    # transcribed wrongly cannot be told; this pins what the model does.
    a2, a1, a0 = HARVESTER_B.a2, HARVESTER_B.a1, HARVESTER_B.a0
    root = (-a1 - math.sqrt(a1 * a1 - 4.0 * a2 * a0)) / (2.0 * a2)
    assert root == pytest.approx(179.145, abs=1e-3)
    lo, hi = HARVESTER_B.valid_range_mw
    assert np.all(raw_efficiency_percent(HARVESTER_B, np.geomspace(lo, 179.1, 10_001)) > 0.0)
    above = np.linspace(179.2, hi, 10_001)
    assert np.all(raw_efficiency_percent(HARVESTER_B, above) < 0.0)
    assert np.all(harvested_uw(above, efficiency_percent(HARVESTER_B, above)) == 0.0)
    # On a channel, those trials count as clamped and as certified, not extrapolated.
    channel = Channel(LinkScenario(), 0, above, float(np.mean(above)))
    draws = harvest_samples(HARVESTER_B, channel)
    assert (draws.clamp_count, draws.extrapolated_count) == (above.size, 0)
    assert np.all(draws.p_h_uw == 0.0)


@pytest.mark.parametrize("model", [HARVESTER_A, HARVESTER_C], ids=lambda m: m.name)
def test_models_a_and_c_never_clamp_inside_their_certified_ranges(model):
    lo, hi = model.valid_range_mw
    eta = raw_efficiency_percent(model, np.geomspace(lo, hi, 100_001))
    assert np.all((eta >= 0.0) & (eta <= 100.0))


def harvest_uw(model, p_mw):
    return harvested_uw(p_mw, efficiency_percent(model, p_mw))


def test_harvested_power_reference_values():
    assert harvest_uw(HARVESTER_A, MEDIAN_RX_10W_MW) == pytest.approx(37.23728285979588, rel=1e-12)
    assert harvest_uw(HARVESTER_B, MEDIAN_RX_10W_MW) == pytest.approx(4.749654388711213, rel=1e-12)
    assert harvest_uw(HARVESTER_C, MEDIAN_RX_10W_MW) == pytest.approx(42.76039698105052, rel=1e-12)


def test_harvested_power_never_exceeds_input():
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 300)])
    for model in BUILTIN_HARVESTERS.values():
        out = harvest_uw(model, grid)
        # At 100 % the formula gives back the input power in µW.
        assert np.all(out <= harvested_uw(grid, 100.0))
        assert out[0] == 0.0


def test_harvested_power_peaks_where_the_readme_says():
    # On a log grid from 1e-6 to 1e6 mW, each point 0.005 % above the last, A's and
    # B's harvested power rises to one peak and never rises after it; C's never falls.
    grid = np.geomspace(1e-6, 1e6, 600_001)
    peaks = {}
    for name, model in BUILTIN_HARVESTERS.items():
        out = harvest_uw(model, grid)
        i = int(np.argmax(out))
        assert np.all(np.diff(out[: i + 1]) >= 0.0) and np.all(np.diff(out[i:]) <= 0.0), name
        peaks[name] = grid[i], out[i]
    # A peaks inside its 0.03-10 mW range, then falls towards its top.
    assert peaks["A"] == (pytest.approx(4.18, abs=0.005), pytest.approx(1229.0, abs=0.5))
    assert harvest_uw(HARVESTER_A, 10.0) == pytest.approx(1153.0, abs=0.5)
    assert peaks["B"] == (pytest.approx(82.6, abs=0.05), pytest.approx(56.7e3, abs=50.0))
    assert peaks["C"][0] == grid[-1]


def test_extrapolation_flags():
    assert is_extrapolated(HARVESTER_A, 0.02)
    assert not is_extrapolated(HARVESTER_A, 0.03)
    assert not is_extrapolated(HARVESTER_A, 10.0)
    assert is_extrapolated(HARVESTER_A, 10.5)
    flags = is_extrapolated(HARVESTER_B, np.array([0.5, 1.0, 300.0, 301.0]))
    np.testing.assert_array_equal(flags, [True, False, False, True])


def test_evaluation_rejects_negative_power():
    # NaN is refused as a negative is: every harvest is finite and >= 0.
    for power in (-0.1, math.nan):
        with pytest.raises(ValueError, match="p_rx_mw must be a non-negative number"):
            efficiency_percent(HARVESTER_A, power)


@pytest.mark.parametrize("model", [HARVESTER_A, HARVESTER_B, HARVESTER_C], ids=lambda m: m.name)
def test_evaluation_past_the_float64_range_is_an_error(model):
    # The cubic overflows near 5.6e102 mW; beyond it the ratio would read 0 or NaN.
    assert np.isfinite(raw_efficiency_percent(model, 1e100))
    for power in (1e104, np.array([1.0, 1e296])):
        with pytest.raises(ValueError, match=f"model '{model.name}' overflows at received power 1e\\+"):
            raw_efficiency_percent(model, power)


def test_denominator_guardrails():
    # Denominator p^3 - 3 p^2 + 2 p + 0.1 is positive on (0.05, 1.0) but dips
    # negative near p = 1.8, where shadowing sends trials, so the model is
    # rejected when it is built, whatever its certified range.
    for valid_range_mw in ((0.05, 1.0), (0.05, 2.5)):
        with pytest.raises(ValueError, match="denominator"):
            HarvesterModel(
                "dippy", a2=0.0, a1=0.0, a0=50.0, b2=-3.0, b1=2.0, b0=0.1,
                valid_range_mw=valid_range_mw,
            )
    assert denominator_minimum(-3.0, 2.0, 0.1) < 0.0

    # A pole at P = 0 itself is outside the domain too.
    with pytest.raises(ValueError, match="denominator"):
        HarvesterModel("x", 0.0, 0.0, 1.0, 1.0, 1.0, 0.0, valid_range_mw=(0.1, 1.0))

    # Every built-in model is positive for all P >= 0.
    for model in BUILTIN_HARVESTERS.values():
        assert denominator_minimum(model.b2, model.b1, model.b0) > 0.0


def test_near_double_pole_inside_the_range_is_rejected():
    # Roots 1.6e-6 mW apart fall between the points of any practical grid.
    _, b2, b1, b0 = np.poly([0.4999992, 0.5000008, -1.0])
    assert denominator_minimum(b2, b1, b0) < 0.0
    with pytest.raises(ValueError, match="denominator"):
        HarvesterModel("twin", 0.0, 0.0, 1.0, b2, b1, b0, valid_range_mw=(0.1, 1.0))


def test_denominator_minimum_reference_values():
    # Rising on P >= 0: the minimum is the value at zero.
    assert denominator_minimum(1.0, 1.0, 0.5) == 0.5
    # (P - 1)^2 (P + 1) = P^3 - P^2 - P + 1 touches zero at P = 1.
    assert denominator_minimum(-1.0, -1.0, 1.0) == 0.0
    # Local minimum at P = 2 of P^3 - 3 P^2 + 5: 8 - 12 + 5 = 1.
    assert denominator_minimum(-3.0, 0.0, 5.0) == 1.0
    # A minimizer of 1e-20 is not lost to cancellation: the minimum of
    # P^3 + P^2 - 2e-20 P + 2e-40 is 2e-40 - (2e-20)^2 / 4, not b0.
    assert denominator_minimum(1.0, -2e-20, 2e-40) == pytest.approx(1e-40, rel=1e-12, abs=0.0)


def test_model_validation_lists_every_violation():
    with pytest.raises(ValueError) as info:
        HarvesterModel(
            "x", a2=float("nan"), a1=1.0, a0=1.0, b2=float("inf"), b1=1.0, b0=1.0,
            valid_range_mw=(1.0, 0.5),
        )
    message = str(info.value)
    assert "a2 must be finite" in message
    assert "b2 must be finite" in message
    assert "valid_range_mw" in message

    # Each problem names its model.
    with pytest.raises(ValueError, match="^model 'x': denominator .*; model 'x': valid_range_mw") as info:
        HarvesterModel("x", 0.0, 0.0, 1.0, -3.0, 2.0, 0.1, valid_range_mw=(1.0, 0.5))
    assert [problem.split(": ")[0] for problem in info.value.problems] == ["model 'x'", "model 'x'"]


def test_model_validation_rejects_bad_range():
    with pytest.raises(ValueError):
        HarvesterModel("x", 1, 1, 1, 1, 1, 1, valid_range_mw=(1.0, 1.0))
    with pytest.raises(ValueError):
        HarvesterModel("x", 1, 1, 1, 1, 1, 1, valid_range_mw=(0.0, 1.0))


def test_sample_validation():
    with pytest.raises(ValueError):
        EfficiencySample(0.0, 50.0)
    with pytest.raises(ValueError):
        EfficiencySample(1.0, -0.5)
    with pytest.raises(ValueError):
        EfficiencySample(1.0, 100.5)
    # Every field is checked, a field that is not a number too.
    with pytest.raises(ConfigError) as excinfo:
        EfficiencySample(-1.0, "50")
    assert excinfo.value.problems == [
        "input_power_mw must be positive, got -1.0", "efficiency_percent must be a number, got '50'",
    ]


# P^3 overflows float64 between 5.64e102 and 5.65e102 mW; an efficiency above 1 % divides the bound by its cube root.
@pytest.mark.parametrize("power_mw, eff, fits", [
    (5.64e102, 1.0, True), (5.65e102, 1.0, False), (5.64e102, 0.5, True), (5.65e102, 0.5, False),
    (1.5e102, 50.0, True), (1.6e102, 50.0, False),
])
def test_sample_power_cube_times_efficiency_must_stay_within_float64(power_mw, eff, fits):
    if fits:
        assert EfficiencySample(power_mw, eff).input_power_mw == power_mw
        return
    with pytest.raises(ConfigError) as excinfo:
        EfficiencySample(power_mw, eff)
    assert excinfo.value.problems == [
        f"input power {power_mw:g} mW is too large to fit: P^3 times the efficiency must stay within float64,"
        " below about 5.64e+102 mW"
    ]


# ---------------------------------------------------------------------------
# fitting


def test_fit_round_trips_clean_curves():
    for reference in (HARVESTER_A, HARVESTER_C):
        fitted = fit_model(sample_curve(reference, 30))
        assert max_curve_deviation_pp(fitted, reference) < 0.1


def test_fit_handles_moderate_noise():
    cases = [
        (HARVESTER_A, 60, 0.2, 42),
        (HARVESTER_C, 60, 0.2, 7),
        (HARVESTER_A, 40, 0.3, 1),
        (HARVESTER_C, 40, 0.3, 3),
        (HARVESTER_A, 30, 0.5, 5),
        (HARVESTER_C, 30, 0.5, 11),
    ]
    # Regression draws of the benchmark's fit recipe (40 points, 0.5 pp, seeded
    # by (seed, round, model index)). No linear step of the last two has a
    # positive denominator, so their fits start from the lifted b0.
    for reference, seed, round_index in [
        (HARVESTER_C, 1, 3), (HARVESTER_C, 1, 26), (HARVESTER_C, 1, 61), (HARVESTER_A, 3, 92),
        (HARVESTER_A, 12345, 9), (HARVESTER_A, 12345, 134),
    ]:
        index = "ABC".index(reference.name)
        cases.append((reference, 40, 0.5, np.random.SeedSequence([seed, round_index, index])))
    for reference, n_points, noise_pp, seed in cases:
        fitted = fit_model(sample_curve(reference, n_points, noise_pp=noise_pp, seed=seed))
        assert max_curve_deviation_pp(fitted, reference) < 2.0, (
            reference.name, n_points, noise_pp, seed,
        )


def test_fitted_model_records_sample_range():
    fitted = fit_model(sample_curve(HARVESTER_C, 30), name="bench")
    assert fitted.name == "bench"
    assert fitted.valid_range_mw == HARVESTER_C.valid_range_mw


def test_fit_requires_six_distinct_powers():
    samples = sample_curve(HARVESTER_A, 5)
    with pytest.raises(ValueError, match="6 distinct"):
        fit_model(samples)
    # Duplicated powers do not count twice.
    with pytest.raises(ValueError, match="6 distinct"):
        fit_model(samples + samples)


def test_fit_rejects_degenerate_constant_curve():
    powers = np.geomspace(0.1, 10.0, 12)
    samples = [EfficiencySample(float(p), 55.0) for p in powers]
    with pytest.raises(FitError):
        fit_model(samples)


# ---------------------------------------------------------------------------
# sample CSV ingestion


def write_text(path, text):
    path.write_text(text, encoding="utf-8")


def test_read_samples_csv(tmp_path):
    path = tmp_path / "samples.csv"
    write_text(path, "input_power_mw,efficiency_percent\n1.0,66.7\n\n2.5,70.1\n")
    samples = read_samples_csv(path)
    assert samples == [EfficiencySample(1.0, 66.7), EfficiencySample(2.5, 70.1)]


def test_read_samples_csv_rejects_bad_header(tmp_path):
    path = tmp_path / "samples.csv"
    write_text(path, "power,eta\n1.0,66.7\n")
    # The header is the EfficiencySample fields, in their order.
    with pytest.raises(ValueError, match="^line 1: expected header input_power_mw,efficiency_percent, got power,eta$"):
        read_samples_csv(path)


def test_read_samples_csv_reports_offending_line(tmp_path):
    path = tmp_path / "samples.csv"
    write_text(path, "input_power_mw,efficiency_percent\n1.0,66.7\nnope,1\n")
    with pytest.raises(ValueError, match="line 3"):
        read_samples_csv(path)

    write_text(path, "input_power_mw,efficiency_percent\n1.0,66.7\n-2.0,10.0\n")
    with pytest.raises(ValueError, match="line 3"):
        read_samples_csv(path)

    write_text(path, "input_power_mw,efficiency_percent\n1.0,66.7,extra\n")
    with pytest.raises(ValueError, match="line 2"):
        read_samples_csv(path)


def test_read_samples_csv_numbers_a_record_by_the_line_it_starts_on(tmp_path):
    # A quoted cell that spans two lines makes one record of two physical lines.
    path = tmp_path / "samples.csv"
    write_text(path, 'input_power_mw,efficiency_percent\n"1.0\n",66.7\nnope,1\n"x\ny",2\n5,7\n')
    with pytest.raises(ValueError) as excinfo:
        read_samples_csv(path)
    assert str(excinfo.value) == (
        "line 4: input_power_mw: could not parse 'nope' as a number;"
        " line 5: input_power_mw: could not parse 'x\\ny' as a number"
    )


def test_read_samples_csv_names_the_column_that_does_not_parse(tmp_path):
    path = tmp_path / "samples.csv"
    for line, error in (
        ("x,1", "line 3: input_power_mw: could not parse 'x' as a number"),
        ("0.5,high", "line 3: efficiency_percent: could not parse 'high' as a number"),
    ):
        write_text(path, f"input_power_mw,efficiency_percent\n1.0,66.7\n{line}\n")
        with pytest.raises(ValueError) as excinfo:
            read_samples_csv(path)
        assert str(excinfo.value) == error


def test_read_samples_csv_rejects_non_finite_values(tmp_path):
    path = tmp_path / "samples.csv"
    for line, field in (("inf,30", "input_power_mw"), ("0.5,nan", "efficiency_percent")):
        write_text(path, f"input_power_mw,efficiency_percent\n1.0,66.7\n{line}\n")
        with pytest.raises(ValueError, match=f"^line 3: {field} must be finite"):
            read_samples_csv(path)


def test_read_samples_csv_empty_file(tmp_path):
    path = tmp_path / "samples.csv"
    write_text(path, "")
    with pytest.raises(ValueError, match="^line 1: empty file, expected header input_power_mw,efficiency_percent$"):
        read_samples_csv(path)


# ---------------------------------------------------------------------------
# model persistence


def test_model_file_round_trip(tmp_path):
    fitted = fit_model(sample_curve(HARVESTER_C, 30), name="bench")
    path = tmp_path / "bench.model"
    write_model_file(fitted, path)
    reloaded = read_model_file(path)
    assert reloaded == fitted
    grid = np.geomspace(*fitted.valid_range_mw, 200)
    np.testing.assert_array_equal(
        efficiency_percent(reloaded, grid), efficiency_percent(fitted, grid)
    )


def test_model_file_text_is_pinned(tmp_path):
    # Name, the coefficients in field order, then the certified range, each float in 17 digits.
    path = tmp_path / "a.model"
    write_model_file(HARVESTER_A, path)
    assert path.read_bytes() == (
        b"name = A\n"
        b"a2 = 100.09999999999999\n"
        b"a1 = 181.19999999999999\n"
        b"a0 = -0.044299999999999999\n"
        b"b2 = -0.067400000000000002\n"
        b"b1 = 3.1850000000000001\n"
        b"b0 = 0.10100000000000001\n"
        b"valid_min_mw = 0.029999999999999999\n"
        b"valid_max_mw = 10\n"
    )


def test_write_model_file_refuses_a_name_that_would_not_read_back(tmp_path):
    path = tmp_path / "named.model"
    for name in ("two\nlines", " padded", ""):
        model = replace(HARVESTER_A, name=name)
        if name:
            with pytest.raises(ValueError, match="^name: .* would not read back as written$"):
                write_model_file(model, path)
            assert not path.exists()
        else:
            write_model_file(model, path)
            assert read_model_file(path) == model


def test_read_model_file_rejects_missing_and_unknown_keys(tmp_path):
    path = tmp_path / "bad.model"
    write_text(path, "name = x\na2 = 1\n")
    with pytest.raises(ValueError, match="missing"):
        read_model_file(path)

    write_model_file(HARVESTER_A, path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("mystery = 3\n")
    with pytest.raises(ValueError, match="unknown"):
        read_model_file(path)


def test_read_model_file_rejects_malformed_line(tmp_path):
    path = tmp_path / "bad.model"
    write_text(path, "name = x\njust words\n")
    with pytest.raises(ValueError, match="line 2"):
        read_model_file(path)


def test_read_model_file_rejects_duplicate_keys_and_names_a_bad_value(tmp_path):
    path = tmp_path / "bad.model"
    write_model_file(HARVESTER_A, path)
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("a2 = 5\n")
    with pytest.raises(ValueError, match="line 10: duplicate key 'a2'"):
        read_model_file(path)

    write_model_file(HARVESTER_A, path)
    text = path.read_text(encoding="utf-8").replace("b1 = ", "b1 = abc # ")
    write_text(path, text)
    with pytest.raises(ValueError, match="line 6: b1: could not parse"):
        read_model_file(path)


def test_read_model_file_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "bom.model"
    write_model_file(HARVESTER_A, path)
    path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    assert read_model_file(path) == HARVESTER_A


def test_read_model_file_rejects_an_infinite_range_with_the_other_violations(tmp_path):
    path = tmp_path / "wide.model"
    write_model_file(HARVESTER_A, path)
    replacements = {"a2": "a2 = nan", "valid_max_mw": "valid_max_mw = inf"}
    lines = path.read_text(encoding="utf-8").splitlines()
    write_text(path, "\n".join(replacements.get(line.split(" = ")[0], line) for line in lines))
    with pytest.raises(ValueError) as info:
        read_model_file(path)
    assert "a2 must be finite" in str(info.value)
    assert "valid_range_mw must be finite" in str(info.value)


# ---------------------------------------------------------------------------
# domain rule properties

# Coefficients this small keep every real root below 11 mW (Cauchy's bound).
COEFFICIENT = st.floats(-10.0, 10.0)
# Multiples of 1/8 are exact in binary, so exact double roots such as
# (P - 1)^2 (P + 1) are drawn often and b0 is never nearly zero.
DYADIC = st.integers(-800, 800).map(lambda k: k / 8.0)
DENSE_GRID = np.concatenate([np.linspace(0.0, 12.0, 120_001), np.geomspace(12.0, 1e6, 2_000)])


def term_scale(b2, b1, b0):
    """Size of the cubic's terms where its roots can lie."""
    return 1.0 + abs(b2) ** 3 + abs(b1) ** 1.5 + abs(b0)


@settings(max_examples=60, deadline=None)
@given(COEFFICIENT, COEFFICIENT, COEFFICIENT)
def test_denominator_minimum_is_the_minimum_over_a_dense_grid(b2, b1, b0):
    minimum = denominator_minimum(b2, b1, b0)
    den = ((DENSE_GRID + b2) * DENSE_GRID + b1) * DENSE_GRID + b0
    assert minimum <= den.min() + 1e-12 * term_scale(b2, b1, b0)
    # The grid step is 1e-4, so the grid minimum overshoots by at most ~1e-7.
    assert den.min() - minimum <= 1e-6 * term_scale(b2, b1, b0)


@settings(max_examples=200, deadline=None)
@given(COEFFICIENT, COEFFICIENT, COEFFICIENT)
def test_denominator_minimum_sign_matches_the_roots(b2, b1, b0):
    minimum = denominator_minimum(b2, b1, b0)
    assume(abs(minimum) > 1e-9 * term_scale(b2, b1, b0))
    roots = np.roots([1.0, b2, b1, b0])
    # Away from a double root, a real root's computed imaginary part is far
    # below 1e-6 and a complex pair's is far above it.
    root_at_or_above_zero = np.any((np.abs(roots.imag) <= 1e-6) & (roots.real >= 0.0))
    assert (minimum > 0.0) == (not root_at_or_above_zero)


@settings(max_examples=100, deadline=None)
@given(DYADIC, DYADIC, DYADIC, DYADIC, DYADIC, DYADIC)
def test_accepted_models_are_finite_at_every_power(a2, a1, a0, b2, b1, b0):
    try:
        model = HarvesterModel("h", a2, a1, a0, b2, b1, b0, valid_range_mw=(0.1, 10.0))
    except ValueError:
        assert not denominator_minimum(b2, b1, b0) > 0.0
        return
    eta = raw_efficiency_percent(model, np.array([0.0, 1e-12, 1e6]))
    assert np.all(np.isfinite(eta))
