"""Nonlinear RF-to-DC conversion models and coefficient fitting.

Each harvester is a rational efficiency surface in the input power P (mW):

    eta(P) = (a2 P^2 + a1 P + a0) / (P^3 + b2 P^2 + b1 P + b0)

whose output is a PERCENTAGE, clamped to [0, 100] before use. Three built-in
coefficient sets (A, B, C) describe published rectifier designs; each carries
the input-power range over which its fit is trusted. Outside that range the
model still evaluates but callers can flag the result as extrapolated.

Domain rule: the monic cubic denominator must be positive for every P >= 0,
not only inside the certified range, because shadowing sends Monte Carlo
trials orders of magnitude beyond it. ``denominator_minimum`` computes the
exact minimum over P >= 0; ``HarvesterModel`` rejects a model whose minimum is
not positive when it is built, so every model that exists can be evaluated at
any non-negative power up to about 5e102 mW. Past that the cubic overflows a
float64, and ``raw_efficiency_percent`` raises ValueError rather than return a
wrong number.

``fit_model`` recovers coefficients from measured (power, efficiency) points:
a linear least-squares stage on the relinearized identity
eta*(P^3+b2 P^2+b1 P+b0) = a2 P^2+a1 P+a0, then a nonlinear refinement of
the true residual, which always runs and is penalized against denominator
sign changes inside the sample range. Only candidates that obey the domain
rule are kept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares

from .quantities import field_problems


class FitError(RuntimeError):
    """Raised when no acceptable rational model can be fitted."""


_DEN_GRID_SIZE = 2048
# The coefficient fields of HarvesterModel, in model-file and report order.
COEFFICIENTS = ("a2", "a1", "a0", "b2", "b1", "b0")


@dataclass(frozen=True, slots=True)
class EfficiencySample:
    """One measured operating point: input power in mW, efficiency in percent."""

    input_power_mw: float
    efficiency_percent: float

    def __post_init__(self) -> None:
        problems = field_problems(self, input_power_mw="positive")
        if math.isfinite(self.efficiency_percent) and not 0.0 <= self.efficiency_percent <= 100.0:
            problems.append(f"efficiency_percent must lie in [0, 100], got {self.efficiency_percent}")
        if problems:
            raise ValueError("; ".join(problems))


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
        if problems:
            raise ValueError(f"model {self.name!r}: " + "; ".join(problems))


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
    try:
        return BUILTIN_HARVESTERS[name]
    except KeyError:
        valid = ", ".join(sorted(BUILTIN_HARVESTERS))
        raise ValueError(f"unknown harvester {name!r}; valid names: {valid}") from None


def raw_efficiency_percent(model: HarvesterModel, p_rx_mw):
    """Unclamped rational efficiency in percent; a numpy scalar for a scalar input."""
    p = np.asarray(p_rx_mw, dtype=float)
    if np.any(p < 0.0):
        raise ValueError("p_rx_mw must be non-negative")
    with np.errstate(over="raise", invalid="raise"):
        try:
            den = ((p + model.b2) * p + model.b1) * p + model.b0
            out = ((model.a2 * p + model.a1) * p + model.a0) / den
        except FloatingPointError:
            raise ValueError(f"model {model.name!r} overflows at received power {np.max(p):.6g} mW") from None
    return out


def efficiency_percent(model: HarvesterModel, p_rx_mw):
    """Conversion efficiency in percent, clamped to [0, 100]."""
    return np.clip(raw_efficiency_percent(model, p_rx_mw), 0.0, 100.0)


def harvested_mw(model: HarvesterModel, p_rx_mw):
    """DC power harvested from ``p_rx_mw`` of incident RF power."""
    return np.asarray(p_rx_mw, dtype=float) * efficiency_percent(model, p_rx_mw) / 100.0


def is_extrapolated(model: HarvesterModel, p_rx_mw):
    """Whether the power sits outside the model's certified range."""
    lo, hi = model.valid_range_mw
    p = np.asarray(p_rx_mw, dtype=float)
    return (p < lo) | (p > hi)


def _stage1_coefficients(p: np.ndarray, y: np.ndarray) -> np.ndarray:
    design = np.column_stack([p**2, p, np.ones_like(p), -y * p**2, -y * p, -y])
    coef, _, rank, _ = np.linalg.lstsq(design, y * p**3, rcond=None)
    if rank < 6:
        raise FitError(f"linear stage is rank-deficient (rank {rank} of 6)")
    return coef


def _rational(coef: np.ndarray, p: np.ndarray) -> np.ndarray:
    num = (coef[0] * p + coef[1]) * p + coef[2]
    den = ((p + coef[3]) * p + coef[4]) * p + coef[5]
    den = np.where(np.abs(den) < 1e-300, 1e-300, den)
    return num / den


def fit_model(samples: list[EfficiencySample], *, name: str = "fitted") -> HarvesterModel:
    """Fit a rational efficiency model to measured samples.

    Requires at least 6 distinct input powers. Raises FitError when the
    linear stage is rank-deficient or no candidate keeps the denominator
    positive for every P >= 0.
    """
    p = np.array([s.input_power_mw for s in samples], dtype=float)
    y = np.array([s.efficiency_percent for s in samples], dtype=float)
    if np.unique(p).size < 6:
        raise ValueError(
            f"need at least 6 distinct input powers to fit, got {np.unique(p).size}"
        )

    grid = np.unique(np.concatenate([p, np.geomspace(p.min(), p.max(), _DEN_GRID_SIZE)]))
    grid_scale = ((grid + 1.0) * grid + 1.0) * grid + 1.0

    def den_on_grid(coef: np.ndarray) -> np.ndarray:
        return ((grid + coef[3]) * grid + coef[4]) * grid + coef[5]

    stage1 = _stage1_coefficients(p, y)
    candidates = [stage1]

    start = stage1
    min_den = den_on_grid(stage1).min()
    if min_den <= 0.0:
        # Lift the constant term past the worst dip, then re-solve the
        # numerator for that now-positive denominator.
        start = stage1.copy()
        start[5] += -min_den + 1e-6 * grid_scale.max()
        den_fixed = ((p + start[3]) * p + start[4]) * p + start[5]
        numer_design = np.column_stack([p**2, p, np.ones_like(p)])
        start[:3] = np.linalg.lstsq(numer_design, y * den_fixed, rcond=None)[0]
        candidates.insert(0, start)

    def residuals_with_margin(margin: float):
        def residuals(coef: np.ndarray) -> np.ndarray:
            penalty = np.minimum(den_on_grid(coef) / grid_scale - margin, 0.0) * 1e6
            return np.concatenate([_rational(coef, p) - y, penalty])

        return residuals

    # Two refinements: one barely constrained, one that keeps the
    # denominator well clear of zero. Noisy data can lure the first into
    # a near-pole basin; the second stays smooth at a small cost in
    # sample residual, and the ranking below arbitrates.
    for margin in (1e-6, 1e-3):
        solution = least_squares(
            residuals_with_margin(margin), start, method="trf", ftol=1e-9, max_nfev=1400
        )
        candidates.insert(0, solution.x)

    # Rank by the worst sample error; the domain rule keeps poles out of the range.
    best: np.ndarray | None = None
    best_score = np.inf
    for coef in candidates:
        if not denominator_minimum(*coef[3:]) > 0.0:
            continue
        score = float(np.abs(_rational(coef, p) - y).max())
        if score < best_score:
            best, best_score = coef, score
    if best is None:
        raise FitError("no candidate keeps the denominator positive for every P >= 0")

    return HarvesterModel(
        name, **{key: float(value) for key, value in zip(COEFFICIENTS, best)},
        valid_range_mw=(float(p.min()), float(p.max())),
    )


def read_samples_csv(path) -> list[EfficiencySample]:
    """Load efficiency samples from a two-column CSV.

    The header must be ``input_power_mw,efficiency_percent``. Errors carry the
    offending 1-based line number.
    """
    with open(path, newline="", encoding="utf-8-sig") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("line 1: empty file, expected header "
                             "input_power_mw,efficiency_percent") from None
        names = [cell.strip().lower() for cell in header]
        if names != ["input_power_mw", "efficiency_percent"]:
            raise ValueError(
                f"line 1: expected header input_power_mw,efficiency_percent, got {','.join(header)}"
            )
        samples: list[EfficiencySample] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != 2:
                raise ValueError(f"line {lineno}: expected 2 columns, got {len(row)}")
            try:
                power, eta = float(row[0]), float(row[1])
            except ValueError:
                raise ValueError(f"line {lineno}: could not parse {row!r} as numbers") from None
            try:
                samples.append(EfficiencySample(power, eta))
            except ValueError as exc:
                raise ValueError(f"line {lineno}: {exc}") from None
    return samples


_MODEL_KEYS = (*COEFFICIENTS, "valid_min_mw", "valid_max_mw")


def write_model_file(model: HarvesterModel, path) -> None:
    """Persist a model as flat key=value text, 17 significant digits."""
    lines = [f"name = {model.name}"]
    values = (*(getattr(model, key) for key in COEFFICIENTS), *model.valid_range_mw)
    lines += [f"{key} = {value:.17g}" for key, value in zip(_MODEL_KEYS, values)]
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")


def read_key_value_file(path) -> dict[str, tuple[int, str]]:
    """Parse flat ``key = value`` text into {key: (line number, value)}.

    Blank lines and # comments are skipped. A line without ``=`` and a
    repeated key are errors; one ValueError lists every such line.
    """
    entries: dict[str, tuple[int, str]] = {}
    problems: list[str] = []
    with open(path, encoding="utf-8") as handle:
        for lineno, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                problems.append(f"line {lineno}: expected key = value, got {line!r}")
                continue
            key, _, value = line.partition("=")
            key = key.strip()
            if key in entries:
                problems.append(f"line {lineno}: duplicate key {key!r}")
                continue
            entries[key] = (lineno, value.strip())
    if problems:
        raise ValueError("; ".join(problems))
    return entries


def read_model_file(path) -> HarvesterModel:
    """Load a model previously written by ``write_model_file``."""
    entries = read_key_value_file(path)
    missing = [key for key in ("name", *_MODEL_KEYS) if key not in entries]
    if missing:
        raise ValueError(f"model file is missing keys: {', '.join(missing)}")
    unknown = [key for key in entries if key not in ("name", *_MODEL_KEYS)]
    if unknown:
        raise ValueError(f"model file has unknown keys: {', '.join(sorted(unknown))}")
    numbers: dict[str, float] = {}
    problems: list[str] = []
    for key in _MODEL_KEYS:
        lineno, text = entries[key]
        try:
            numbers[key] = float(text)
        except ValueError:
            problems.append(f"line {lineno}: {key}: could not parse {text!r} as a number")
    if problems:
        raise ValueError("; ".join(problems))
    return HarvesterModel(
        entries["name"][1], **{key: numbers[key] for key in COEFFICIENTS},
        valid_range_mw=(numbers["valid_min_mw"], numbers["valid_max_mw"]),
    )
