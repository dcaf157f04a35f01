"""Large-scale channel losses for a Mars surface link.

Three effects are modeled:

* log-distance path loss with exponent ``alpha`` over the free-space factor
  ``K = 4*pi*d/lambda``,
* log-normal shadowing, a zero-mean Gaussian term in dB of deviation
  ``sigma_db`` (``link`` draws it per trial),
* dust-storm extinction, linear in particle density, particle volume, and
  path length.

Terrain presets carry the fitted (alpha, sigma) pairs for two Gale Crater
areas; Area 2 is the rougher of the two.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quantities import RfCarrier, field_problems, lookup, raise_problems


@dataclass(frozen=True, slots=True)
class TerrainProfile:
    """Path-loss exponent and shadowing spread for one terrain class."""

    name: str
    alpha: float
    sigma_db: float

    def __post_init__(self) -> None:
        raise_problems(field_problems(self, alpha="positive", sigma_db="non-negative"))


AREA1 = TerrainProfile("area1", alpha=2.12, sigma_db=11.41)
AREA2 = TerrainProfile("area2", alpha=2.37, sigma_db=13.26)

TERRAIN_PRESETS = {"area1": AREA1, "area2": AREA2}


def terrain_preset(name: str) -> TerrainProfile:
    """Look up a built-in terrain by its exact name, "area1" or "area2"."""
    return lookup(TERRAIN_PRESETS, "area", name)


@dataclass(frozen=True, slots=True)
class DustStorm:
    """Suspended-dust population: density, mean particle radius, permittivity.

    The default permittivity 4.56 + i0.251 is the 2.45 GHz value for Martian
    dust; attenuation grows with the cube of the particle radius.
    """

    n_t_per_m3: float = 0.0
    rho_p_m: float = 1e-4
    eps_re: float = 4.56
    eps_im: float = 0.251

    def __post_init__(self) -> None:
        raise_problems(field_problems(self, n_t_per_m3="non-negative", rho_p_m="positive", eps_im="positive"))


def free_space_factor(distance_m: float, carrier: RfCarrier) -> float:
    """Dimensionless free-space factor K = 4*pi*d/lambda."""
    if not distance_m > 0.0:
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    return 4.0 * np.pi * distance_m / carrier.wavelength_m


def path_loss_db(distance_m: float, carrier: RfCarrier, terrain: TerrainProfile) -> float:
    """Median log-distance path loss in dB, without shadowing."""
    k = free_space_factor(distance_m, carrier)
    return float(10.0 * terrain.alpha * np.log10(k))


def dust_extinction_coefficient(storm: DustStorm, carrier: RfCarrier) -> float:
    """Extinction coefficient in dB per (particles/m^3 * m^3 * m).

    For the default permittivity at 2.45 GHz this evaluates to about 48.98.
    """
    eps_re, eps_im = storm.eps_re, storm.eps_im
    return 1.029e3 * eps_im / (carrier.wavelength_m * ((eps_re + 2.0) ** 2 + eps_im**2))


def dust_attenuation_db(storm: DustStorm, distance_m: float, carrier: RfCarrier) -> float:
    """Dust-storm attenuation in dB over a path of ``distance_m`` meters."""
    if not distance_m > 0.0:
        raise ValueError(f"distance_m must be positive, got {distance_m}")
    coef = dust_extinction_coefficient(storm, carrier)
    return coef * storm.n_t_per_m3 * storm.rho_p_m**3 * distance_m
