"""Misalignment (pointing-error) fading for a Gaussian power beam.

A transmitter illuminates a circular receiver aperture of radius ``beta``
with a Gaussian beam of waist ``r_d`` at the receiver plane. Mechanical
jitter displaces the beam center by a radial offset ``r`` whose per-axis
components are independent zero-mean Gaussians with deviation ``sigma_s``,
so ``r`` is Rayleigh distributed.

The collected power fraction is approximated by the standard far-field
expression

    m(r) = a0 * exp(-2 r^2 / w_eq^2)

where ``a0 = erf(v)^2`` with ``v = sqrt(pi) * beta / (sqrt(2) * r_d)`` is the
fraction collected under perfect alignment, and the equivalent beamwidth is

    w_eq^2 = r_d^2 * sqrt(pi) * erf(v) / (2 v exp(-v^2)).

With Rayleigh jitter the fade ``m`` then has the closed-form density

    f(zeta) = (xi / a0^xi) * zeta^(xi - 1),   0 < zeta <= a0,

with shape exponent ``xi = w_eq^2 / (4 sigma_s^2)``. All three pieces (the
aligned fraction, the width, and the exponent) are mutually consistent; the
tests check them against direct quadrature of the beam integral, and check
the fade law against the draws of the Monte Carlo engine in ``link``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from scipy.special import erf

from .quantities import RfCarrier, field_problems


@dataclass(frozen=True, slots=True)
class PointingGeometry:
    """Aperture radius, per-axis jitter deviation, and beam waist, all in meters."""

    beta_m: float
    sigma_s_m: float
    r_d_m: float

    def __post_init__(self) -> None:
        if problems := field_problems(
            self, beta_m="positive", sigma_s_m="non-negative", r_d_m="positive"
        ):
            raise ValueError("; ".join(problems))


def default_beam_waist(carrier: RfCarrier) -> float:
    """Default beam waist at the receiver plane: seven wavelengths."""
    return 7.0 * carrier.wavelength_m


def default_pointing(
    carrier: RfCarrier, beta_m: float, sigma_s_m: float = 0.0, r_d_m: float | None = None
) -> PointingGeometry:
    """Geometry for aperture ``beta_m``: no jitter and the default beam waist unless given."""
    return PointingGeometry(
        beta_m, sigma_s_m, default_beam_waist(carrier) if r_d_m is None else r_d_m
    )


@dataclass(frozen=True, slots=True)
class MisalignmentModel:
    """Derived fade parameters: peak fraction, equivalent width, shape exponent.

    ``xi`` is ``math.inf`` when the geometry has zero jitter; the fade is then
    the constant ``a0``.
    """

    a0: float
    w_eq_m: float
    xi: float
    sigma_s_m: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a0 <= 1.0:
            raise ValueError(f"a0 must lie in (0, 1], got {self.a0}")
        if not self.w_eq_m > 0.0:
            raise ValueError(f"w_eq_m must be positive, got {self.w_eq_m}")
        if not self.xi > 0.0:
            raise ValueError(f"xi must be positive, got {self.xi}")
        if self.sigma_s_m < 0.0:
            raise ValueError(f"sigma_s_m must be non-negative, got {self.sigma_s_m}")


def derive_model(geom: PointingGeometry) -> MisalignmentModel:
    """Fold a pointing geometry into the closed-form fade model."""
    v = math.sqrt(math.pi) * geom.beta_m / (math.sqrt(2.0) * geom.r_d_m)
    erf_v = float(erf(v))
    a0 = erf_v**2
    if v * v < 700.0:
        w_eq_sq = geom.r_d_m**2 * math.sqrt(math.pi) * erf_v / (2.0 * v * math.exp(-v * v))
    else:
        # exp(-v^2) underflows for collectors much wider than the beam; the
        # equivalent width diverges and the fade degenerates to a constant a0.
        w_eq_sq = math.inf
    # A jitter so small that its square underflows is zero jitter.
    if geom.sigma_s_m**2 == 0.0:
        xi = math.inf
    else:
        xi = w_eq_sq / (4.0 * geom.sigma_s_m**2)
    return MisalignmentModel(a0=a0, w_eq_m=math.sqrt(w_eq_sq), xi=xi, sigma_s_m=geom.sigma_s_m)


def mean_fraction(model: MisalignmentModel) -> float:
    """Closed-form mean fade E[m] = a0 * xi / (xi + 1); a0 when jitter is zero."""
    if math.isinf(model.xi):
        return model.a0
    return model.a0 * model.xi / (model.xi + 1.0)
