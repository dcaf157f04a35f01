"""Unit-safe power conversions, RF carrier constants, and the input rules
shared by every module: the field check, the problem list and the name lookup.

All link arithmetic happens in dB/dBm; the single dB-to-mW conversion sits at
the harvester boundary, where the efficiency model wants milliwatts.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0
# What joins the problems of one error message.
PROBLEM_SEPARATOR = "; "


def field_problems(obj, **rules: str) -> list[str]:
    """Every violation among the float fields of dataclass ``obj``.

    Each float field must hold a finite real number; ``rules`` names the
    fields that must also be "positive", "non-negative" or a "percent" in [0, 100].
    """
    problems = []
    for field in fields(obj):
        if field.type != "float":
            continue
        value = getattr(obj, field.name)
        rule = rules.get(field.name)
        if not isinstance(value, numbers.Real):
            problems.append(f"{field.name} must be a number, got {value!r}")
        elif not math.isfinite(value):
            problems.append(f"{field.name} must be finite, got {value}")
        elif rule == "positive" and not value > 0.0:
            problems.append(f"{field.name} must be positive, got {value}")
        elif rule == "non-negative" and not value >= 0.0:
            problems.append(f"{field.name} must be non-negative, got {value}")
        elif rule == "percent" and not 0.0 <= value <= 100.0:
            problems.append(f"{field.name} must lie in [0, 100], got {value}")
    return problems


class ConfigError(ValueError):
    """Invalid input; ``problems`` lists each violation once, as a sweep's grid points may share one."""

    def __init__(self, problems: list[str]) -> None:
        self.problems = list(dict.fromkeys(problems))
        super().__init__(PROBLEM_SEPARATOR.join(self.problems))


def raise_problems(problems: list[str]) -> None:
    """Raise one ConfigError that lists every problem, if there is one."""
    if problems:
        raise ConfigError(problems)


def lookup(registry: dict, noun: str, name: str):
    """``registry[name]``, or a ValueError that names every valid name, for an unhashable name too."""
    try:
        return registry[name]
    except (KeyError, TypeError):
        raise ValueError(f"unknown {noun} {name!r}; valid names: {', '.join(sorted(registry))}") from None


def attempt(problems: list[str], build, *args, **kwargs):
    """Return ``build(*args, **kwargs)``, or None after adding the problems of its ValueError to ``problems``."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        problems.extend(exc.problems if isinstance(exc, ConfigError) else [str(exc)])
        return None


@dataclass(frozen=True, slots=True)
class RfCarrier:
    """Continuous-wave carrier pinned by its frequency."""

    frequency_hz: float = 2.45e9

    def __post_init__(self) -> None:
        raise_problems(field_problems(self, frequency_hz="positive"))

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz


def dbm_to_mw(p_dbm):
    """Power in mW for a level in dBm. Accepts scalars or arrays."""
    return 10.0 ** (p_dbm / 10.0)


def mw_to_dbm(p_mw):
    """Level in dBm for a power in mW. Positive powers only."""
    if np.any(np.asarray(p_mw) <= 0.0):
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * np.log10(p_mw)


def watts_to_dbm(p_w: float) -> float:
    """Level in dBm for a power in watts."""
    return float(mw_to_dbm(p_w * 1e3))
