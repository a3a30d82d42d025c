"""Lorentzian (Fock-Breit-Wigner) lineshape and forward-time decay law.

Units: hbar = 1, so times are reciprocal energies.  In the waveguide
reading the same numbers describe axial evolution, t -> k0*z.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FbwLine:
    """Lineshape parameters: center E0 and full width Gamma >= 0."""

    center_E0: float
    width_Gamma: float

    def __post_init__(self):
        if self.width_Gamma < 0:
            raise ValueError(f"width_Gamma must be >= 0, got {self.width_Gamma}")
        for name in ("center_E0", "width_Gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


def lineshape(line: FbwLine, E):
    """omega(E) = (Gamma/2)^2 / ((E-E0)^2 + (Gamma/2)^2), in (0, 1].

    Equals 1 exactly at E = E0.  The Gamma = 0 limit is delta-like: 0 away
    from the center and 1 at it (a non-decaying state).
    Accepts scalars or arrays.
    """
    e = np.asarray(E, dtype=float)
    hw = 0.5 * line.width_Gamma
    if hw == 0.0:
        out = np.where(e == line.center_E0, 1.0, 0.0)
    else:
        out = hw * hw / ((e - line.center_E0) ** 2 + hw * hw)
    return float(out) if np.isscalar(E) else out


def fourier_coefficient(line: FbwLine, E):
    """C(E) = (Gamma/2) / (E - E0 + i*Gamma/2); |C|^2 is the lineshape."""
    e = np.asarray(E, dtype=float)
    hw = 0.5 * line.width_Gamma
    if hw == 0.0:
        out = np.zeros_like(e, dtype=complex)
    else:
        out = hw / (e - line.center_E0 + 1j * hw)
    return complex(out) if np.isscalar(E) else out


def survival_amplitude(line: FbwLine, t: float) -> complex:
    """Forward-time transition amplitude (Gamma/2)*e^{-i*E0*t}*e^{-Gamma*t/2}.

    Valid for t >= 0 only; the prefactor Gamma/2 is kept as is, so consumers
    wanting a normalized survival use the ratio to t = 0.
    """
    if t < 0:
        raise ValueError(f"survival amplitude is defined for t >= 0, got t={t}")
    hw = 0.5 * line.width_Gamma
    return hw * complex(math.cos(line.center_E0 * t), -math.sin(line.center_E0 * t)) * math.exp(-hw * t)


def lifetime(line: FbwLine) -> float:
    """tau = 1/Gamma; in the waveguide reading the 1/e axial distance.

    Gamma = 0 returns math.inf (bound/guided, non-decaying limit).
    """
    if line.width_Gamma == 0.0:
        return math.inf
    return 1.0 / line.width_Gamma
