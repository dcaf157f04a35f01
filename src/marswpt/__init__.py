"""Simulator of RF wireless power transfer to low-power devices on Mars.

The model chain: log-distance path loss with log-normal shadowing over Gale
Crater terrain profiles, dust-storm extinction, Gaussian-beam misalignment
fading under Rayleigh pointing jitter, and nonlinear rational harvester
efficiency, composed into a seeded Monte Carlo estimator of harvested power
with declarative parameter sweeps.

The package root re-exports nothing: import from the modules
(``marswpt.link``, ``marswpt.harvester``, ``marswpt.propagation``, ...).
"""

__version__ = "0.1.0"
