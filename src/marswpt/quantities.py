"""Unit-safe power conversions, RF carrier constants and the field-rule check
shared by every module.

All link arithmetic happens in dB/dBm; the single dB-to-mW conversion sits at
the harvester boundary, where the efficiency model wants milliwatts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

SPEED_OF_LIGHT_M_S = 299_792_458.0


def field_problems(obj, **rules: str) -> list[str]:
    """Every violation among the float fields of dataclass ``obj``.

    Each float field must be finite; ``rules`` names the fields that must also
    be "positive" or "non-negative".
    """
    problems = []
    for field in fields(obj):
        if field.type != "float":
            continue
        value = getattr(obj, field.name)
        rule = rules.get(field.name)
        if not math.isfinite(value):
            problems.append(f"{field.name} must be finite, got {value}")
        elif rule == "positive" and not value > 0.0:
            problems.append(f"{field.name} must be positive, got {value}")
        elif rule == "non-negative" and not value >= 0.0:
            problems.append(f"{field.name} must be non-negative, got {value}")
    return problems


@dataclass(frozen=True, slots=True)
class RfCarrier:
    """Continuous-wave carrier pinned by its frequency."""

    frequency_hz: float = 2.45e9

    def __post_init__(self) -> None:
        if problems := field_problems(self, frequency_hz="positive"):
            raise ValueError("; ".join(problems))

    @property
    def wavelength_m(self) -> float:
        return SPEED_OF_LIGHT_M_S / self.frequency_hz


def dbm_to_mw(p_dbm):
    """Power in mW for a level in dBm. Accepts scalars or arrays."""
    return 10.0 ** (np.asarray(p_dbm, dtype=float) / 10.0) if isinstance(p_dbm, np.ndarray) else 10.0 ** (p_dbm / 10.0)


def mw_to_dbm(p_mw):
    """Level in dBm for a power in mW. Positive powers only."""
    if np.any(np.asarray(p_mw) <= 0.0):
        raise ValueError("power must be positive to express in dBm")
    return 10.0 * np.log10(p_mw)


def watts_to_dbm(p_w: float) -> float:
    """Level in dBm for a power in watts."""
    return mw_to_dbm(p_w * 1e3)
