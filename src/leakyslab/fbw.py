"""Lorentzian (Fock-Breit-Wigner) lineshape, its sum over resonances, and
the forward-time decay law.

Units: hbar = 1, so times are reciprocal energies.  In the waveguide
reading the same numbers describe axial evolution, t -> k0*z.

A width whose (Gamma/2)^2 underflows counts as zero, the guided limit: there
the lineshape is 1 and the Fourier coefficient -i at E0, both 0 elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

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


def _half_width(gamma: float) -> float:
    """Gamma/2, or 0.0 when (Gamma/2)^2 underflows: the zero-width rule."""
    hw = 0.5 * gamma
    return hw if hw * hw > 0.0 else 0.0


def _omega(de, hw: float):
    """The lineshape at dE = E - E0, a float or an array; for hw = 0, 1 at dE = 0, else 0."""
    if hw == 0.0:
        return 1.0 * (de == 0.0)
    hw2 = hw * hw
    return hw2 / (de ** 2 + hw2)


def lineshape(line: FbwLine, E):
    """omega(E) = (Gamma/2)^2 / ((E-E0)^2 + (Gamma/2)^2), in (0, 1].

    Equals 1 exactly at E = E0.  The zero-width limit is delta-like: 0 away
    from the center and 1 at it (a non-decaying state).
    Accepts scalars or arrays.
    """
    e = np.asarray(E, dtype=float)
    out = _omega(e - line.center_E0, _half_width(line.width_Gamma))
    return float(out) if np.isscalar(E) else out


def fourier_coefficient(line: FbwLine, E):
    """C(E) = (Gamma/2) / (E - E0 + i*Gamma/2); |C|^2 is the lineshape.

    The zero-width limit is -i at E = E0 and 0 elsewhere.
    """
    de = np.asarray(E, dtype=float) - line.center_E0
    hw = _half_width(line.width_Gamma)
    if hw == 0.0:
        out = np.where(de == 0.0, complex(0.0, -1.0), 0j)
    else:
        out = hw / (de + 1j * hw)
    return complex(out) if np.isscalar(E) else out


def fbw_superposition(eps_R: float, resonances: Sequence[tuple[float, float]]) -> float:
    """Sum of Lorentzian lineshapes, one per resonance (E_n, Gamma_n).

    Each term is the ``lineshape`` of FbwLine(E_n, Gamma_n) at eps_R, zero
    widths included.  At least one term is required; centres must be finite
    and strictly increasing, widths finite and >= 0.
    """
    if not resonances:
        raise ValueError("at least one resonance term is required")
    total, previous = 0.0, -math.inf
    # scalar terms: an FbwLine or a numpy array per term costs more than the sum
    for e_n, gamma_n in resonances:
        if not (math.isfinite(e_n) and 0.0 <= gamma_n < math.inf):
            raise ValueError(
                f"need a finite E_n and a finite Gamma_n >= 0, got ({e_n}, {gamma_n})"
            )
        if e_n <= previous:
            raise ValueError("resonance list must be sorted by increasing E_n")
        previous = e_n
        total += _omega(eps_R - e_n, _half_width(gamma_n))
    return total


def survival_amplitude(line: FbwLine, t: float) -> complex:
    """Forward-time transition amplitude (Gamma/2)*e^{-i*E0*t}*e^{-Gamma*t/2}.

    Valid for finite t >= 0 only; the prefactor Gamma/2 is kept as is, so
    consumers wanting a normalized survival use the ratio to t = 0.
    """
    if not 0.0 <= t < math.inf:
        raise ValueError(f"survival amplitude is defined for finite t >= 0, got t={t}")
    hw = 0.5 * line.width_Gamma
    return hw * complex(math.cos(line.center_E0 * t), -math.sin(line.center_E0 * t)) * math.exp(-hw * t)


def lifetime(line: FbwLine) -> float:
    """tau = 1/Gamma; in the waveguide reading the 1/e axial distance.

    Gamma = 0 returns math.inf (bound/guided, non-decaying limit).
    """
    if line.width_Gamma == 0.0:
        return math.inf
    return 1.0 / line.width_Gamma
