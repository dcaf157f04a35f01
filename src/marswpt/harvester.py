"""Nonlinear RF-to-DC conversion models and coefficient fitting.

Each harvester is a rational efficiency surface in the input power P (mW):

    eta(P) = (a2 P^2 + a1 P + a0) / (P^3 + b2 P^2 + b1 P + b0)

whose output is a PERCENTAGE, clamped to [0, 100] before use; ``harvested_uw``,
clip(eta) * P * (1000 / 100) µW, is the one formula for harvested power. Three
built-in coefficient sets (A, B, C) describe published rectifier designs, each
with the input-power range its fit is trusted over; outside it the model still
evaluates, but callers can flag the result as extrapolated.

Domain rule: the monic cubic denominator must be positive for every P >= 0,
not only inside the certified range, because shadowing sends Monte Carlo
trials orders of magnitude beyond it. ``denominator_minimum`` computes the
exact minimum over P >= 0; ``HarvesterModel`` rejects a model whose minimum is
not positive when it is built, so every model that exists can be evaluated at
any non-negative power up to about 5e102 mW. Past that the cubic overflows a
float64, and ``raw_efficiency_percent`` raises ValueError rather than return a
wrong number.

``fit_model`` recovers coefficients from measured (power, efficiency) points.
Sanathanan-Koerner steps reweight a linear least-squares solve of the
relinearized identity eta*(P^3+b2 P^2+b1 P+b0) = a2 P^2+a1 P+a0, and one
nonlinear polish of the true residual starts from the best step. One objective,
the sum of squared sample errors, ranks every candidate; one rule,
``denominator_minimum``, both rejects candidates and penalizes the polish.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .flatkeys import field_kinds, format_values, parse_values, read_key_value_file
from .quantities import attempt, field_problems, lookup, raise_problems


class FitError(RuntimeError):
    """Raised when no acceptable rational model can be fitted."""


# Sanathanan-Koerner reweighting steps of the fit's linear stage.
_SK_STEPS = 30


@dataclass(frozen=True, slots=True)
class EfficiencySample:
    """One measured operating point: input power in mW, efficiency in percent."""

    input_power_mw: float
    efficiency_percent: float

    def __post_init__(self) -> None:
        power, eff = self.input_power_mw, self.efficiency_percent
        problems = field_problems(self, input_power_mw="positive", efficiency_percent="percent")
        # The fit's linear stage holds P^3 and P^3 times the efficiency; numpy warns and LAPACK fails past float64.
        if not problems and math.isinf(power * power * power * max(eff, 1.0)):
            problems.append(f"input power {power:g} mW is too large to fit: P^3 times the efficiency must stay"
                            f" within float64, below about {np.finfo(float).max ** (1 / 3):.3g} mW")
        raise_problems(problems)


@dataclass(frozen=True, slots=True)
class HarvesterModel:
    """Rational efficiency model with a certified input-power range (mW)."""

    name: str
    a2: float
    a1: float
    a0: float
    b2: float
    b1: float
    b0: float
    valid_range_mw: tuple[float, float]

    def __post_init__(self) -> None:
        problems = field_problems(self)
        if not problems and not denominator_minimum(self.b2, self.b1, self.b0) > 0.0:
            problems.append(
                "denominator P^3 + b2 P^2 + b1 P + b0 must be positive for every P >= 0"
            )
        lo, hi = self.valid_range_mw
        if not 0.0 < lo < hi < math.inf:
            problems.append(
                f"valid_range_mw must be finite with 0 < min < max, got {self.valid_range_mw}"
            )
        raise_problems([f"model {self.name!r}: {problem}" for problem in problems])


# The name and coefficient fields of HarvesterModel and their kinds, in model-file order.
_MODEL_FIELDS = field_kinds(HarvesterModel)
# The coefficient fields of HarvesterModel, in model-file and report order.
COEFFICIENTS = tuple(field_kinds(HarvesterModel, ("float",)))
# The flat keys of a model file and their kinds: the fields above, then valid_range_mw as two keys.
MODEL_KINDS = {**_MODEL_FIELDS, "valid_min_mw": "float", "valid_max_mw": "float"}


def denominator_minimum(b2: float, b1: float, b0: float) -> float:
    """Exact minimum of P^3 + b2 P^2 + b1 P + b0 over P >= 0.

    The cubic's only local minimum sits at the larger root of its derivative
    3 P^2 + 2 b2 P + b1; when that root is not positive the cubic rises on
    P >= 0 and the minimum is b0.
    """
    disc = b2 * b2 - 3.0 * b1
    if disc <= 0.0:
        return b0
    root = math.sqrt(disc)
    # The form without cancellation, so a tiny positive minimizer is not lost.
    p = (root - b2) / 3.0 if b2 <= 0.0 else -b1 / (b2 + root)
    return min(b0, ((p + b2) * p + b1) * p + b0) if p > 0.0 else b0


HARVESTER_A = HarvesterModel(
    "A", a2=100.1, a1=181.2, a0=-4.43e-2, b2=-6.74e-2, b1=3.185, b0=10.1e-2,
    valid_range_mw=(0.03, 10.0),
)
HARVESTER_B = HarvesterModel(
    "B", a2=-5.28e3, a1=9.46e5, a0=-2.04e4, b2=-150.6, b1=1.292e4, b0=9874.0,
    valid_range_mw=(1.0, 300.0),
)
HARVESTER_C = HarvesterModel(
    "C", a2=114.6, a1=-1.613, a0=7.66e-3, b2=1.133, b1=9.84e-3, b0=4.5e-3,
    valid_range_mw=(1e-4, 3.0),
)

BUILTIN_HARVESTERS = {"A": HARVESTER_A, "B": HARVESTER_B, "C": HARVESTER_C}


def harvester_preset(name: str) -> HarvesterModel:
    """Look up a built-in harvester by its exact name: "A", "B", or "C"."""
    return lookup(BUILTIN_HARVESTERS, "harvester", name)


def _polynomials(p, a2, a1, a0, b2, b1, b0, num=None, den=None):
    """Numerator (a2 P + a1) P + a0 and denominator ((P + b2) P + b1) P + b0, into ``num`` and ``den`` if given."""
    den = np.add(p, b2, out=den)
    den *= p
    den += b1
    den *= p
    den += b0
    num = np.multiply(a2, p, out=num)
    num += a1
    num *= p
    num += a0
    return num, den


def raw_efficiency_percent(model: HarvesterModel, p_rx_mw, out=None, den=None):
    """Unclamped rational efficiency in percent, written into ``out`` when given; a numpy scalar for a scalar input.

    ``den``, when given, is an array of ``p_rx_mw``'s shape that the denominator is computed in.
    Every caller's power is checked here, in one reduction: a negative or NaN power raises ValueError,
    and a non-negative one gives a finite efficiency or raises ValueError for the overflow.
    """
    p = np.asarray(p_rx_mw, dtype=float)
    if p.size and not p.min() >= 0.0:
        raise ValueError("p_rx_mw must be a non-negative number")
    with np.errstate(over="raise", invalid="raise"):
        try:
            out, den = _polynomials(p, model.a2, model.a1, model.a0, model.b2, model.b1, model.b0, out, den)
            out /= den
        except FloatingPointError:
            raise ValueError(f"model {model.name!r} overflows at received power {np.max(p):.6g} mW") from None
    return out


def efficiency_percent(model: HarvesterModel, p_rx_mw):
    """Conversion efficiency in percent, clamped to [0, 100]."""
    return np.clip(raw_efficiency_percent(model, p_rx_mw), 0.0, 100.0)


def harvested_uw(p_rx_mw, percent, out=None):
    """µW harvested from ``p_rx_mw`` of RF power at the clamped efficiency ``percent``, into ``out`` when given."""
    return np.multiply(np.multiply(percent, p_rx_mw, out=out), 1000.0 / 100.0, out=out)


def is_extrapolated(model: HarvesterModel, p_rx_mw, out=None):
    """Whether a power ``raw_efficiency_percent`` accepted is outside the certified range, into ``out`` if given."""
    lo, hi = model.valid_range_mw
    p = np.asarray(p_rx_mw, dtype=float)
    return np.logical_or(np.less(p, lo, out=out), p > hi, out=out)


def _rational(coef: np.ndarray, p: np.ndarray) -> np.ndarray:
    num, den = _polynomials(p, *coef)
    return num / np.where(np.abs(den) < 1e-300, 1e-300, den)


def least_squares(*args, **kwargs):
    """scipy's ``least_squares``, imported on first call, so only ``fit`` loads ``scipy.optimize``."""
    from scipy.optimize import least_squares as scipy_least_squares

    return scipy_least_squares(*args, **kwargs)


def fit_model(samples: list[EfficiencySample], *, name: str = "fitted") -> HarvesterModel:
    """Fit a rational efficiency model to measured samples.

    Each linear step weights its rows by 1/|den| of the previous step. If no
    step's denominator is positive for every P >= 0, the last step's b0 is
    lifted past its minimum and the numerator re-solved. The polish is kept
    only if it lowers the sum of squared sample errors.

    Requires at least 6 distinct input powers. Raises FitError when the
    linear stage is rank-deficient, naming the decades the powers span, or
    no candidate keeps the denominator positive for every P >= 0.
    """
    p = np.array([s.input_power_mw for s in samples], dtype=float)
    y = np.array([s.efficiency_percent for s in samples], dtype=float)
    if np.unique(p).size < 6:
        raise ValueError(
            f"need at least 6 distinct input powers to fit, got {np.unique(p).size}"
        )

    def score(coef: np.ndarray) -> float:
        if not denominator_minimum(*coef[3:]) > 0.0:
            return math.inf
        return float(np.sum((_rational(coef, p) - y) ** 2))

    design = np.column_stack([p**2, p, np.ones_like(p), -y * p**2, -y * p, -y])
    weights = np.ones_like(p)
    candidates = []
    for _ in range(_SK_STEPS):
        coef, _, rank, _ = np.linalg.lstsq(design * weights[:, None], y * p**3 * weights, rcond=None)
        if rank < 6 and not candidates:
            decades = math.log10(p.max()) - math.log10(p.min())
            raise FitError(f"linear stage is rank-deficient (rank {rank} of 6);"
                           f" the input powers span {decades:.1f} decades")
        candidates.append(coef)
        den = _polynomials(p, *coef)[1]
        if np.any(den == 0.0):
            break
        weights = 1.0 / np.abs(den)

    start = min(candidates, key=score)
    if score(start) == math.inf:
        start = candidates[-1].copy()
        start[5] += 1e-4 * (p.max() ** 3 + 1.0) - denominator_minimum(*start[3:])
        start[:3] = np.linalg.lstsq(design[:, :3], y * _polynomials(p, *start)[1], rcond=None)[0]
        if score(start) == math.inf:
            raise FitError("no candidate keeps the denominator positive for every P >= 0")

    floor = 1e-3 * denominator_minimum(*start[3:])

    def residuals(coef: np.ndarray) -> np.ndarray:
        penalty = min(denominator_minimum(*coef[3:]) - floor, 0.0) * 1e6
        return np.append(_rational(coef, p) - y, penalty)

    polished = least_squares(residuals, start, method="trf", ftol=1e-9, max_nfev=1400).x
    best = min((start, polished), key=score)
    return HarvesterModel(
        name, **{key: float(value) for key, value in zip(COEFFICIENTS, best)},
        valid_range_mw=(float(p.min()), float(p.max())),
    )


# The columns of a samples CSV, in header order, and their kinds.
_SAMPLE_KINDS = field_kinds(EfficiencySample)


def read_samples_csv(path) -> list[EfficiencySample]:
    """Load efficiency samples from a two-column CSV.

    The header must be ``input_power_mw,efficiency_percent``. One ConfigError
    lists every problem of every line, each with its 1-based line number.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"line 1: empty file, expected header {','.join(_SAMPLE_KINDS)}") from None
        names = [cell.strip().lower() for cell in header]
        if names != list(_SAMPLE_KINDS):
            raise ValueError(f"line 1: expected header {','.join(_SAMPLE_KINDS)}, got {','.join(header)}")
        samples: list[EfficiencySample] = []
        problems: list[str] = []
        # A quoted cell may span lines, so a record starts on the line after the last one read.
        start = reader.line_num + 1
        for row in reader:
            lineno, start = start, reader.line_num + 1
            if not row or all(not cell.strip() for cell in row):
                continue
            found: list[str] = []
            if len(row) != 2:
                found.append(f"expected 2 columns, got {len(row)}")
            else:
                entries = {key: (None, cell) for key, cell in zip(_SAMPLE_KINDS, row)}
                values = parse_values(entries, _SAMPLE_KINDS, found)
                if not found:
                    samples.append(attempt(found, EfficiencySample, **values))
            problems += [f"line {lineno}: {problem}" for problem in found]
    raise_problems(problems)
    return samples


def write_model_file(model: HarvesterModel, path) -> None:
    """Persist a model as text that ``read_model_file`` gives back bit for bit, or raise before opening the file."""
    values = {key: getattr(model, key) for key in _MODEL_FIELDS}
    values["valid_min_mw"], values["valid_max_mw"] = model.valid_range_mw
    text = format_values(values, MODEL_KINDS)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def read_model_file(path) -> HarvesterModel:
    """Load a model previously written by ``write_model_file``."""
    entries = read_key_value_file(path)
    problems: list[str] = []
    if missing := [key for key in MODEL_KINDS if key not in entries]:
        problems.append(f"model file is missing keys: {', '.join(missing)}")
    if unknown := sorted(entries.keys() - MODEL_KINDS.keys()):
        problems.append(f"model file has unknown keys: {', '.join(unknown)}")
    values = parse_values({k: v for k, v in entries.items() if k in MODEL_KINDS}, MODEL_KINDS, problems)
    raise_problems(problems)
    return HarvesterModel(
        **{key: values[key] for key in _MODEL_FIELDS},
        valid_range_mw=(values["valid_min_mw"], values["valid_max_mw"]),
    )
