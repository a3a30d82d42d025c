"""Lorentzian (Fock-Breit-Wigner) lineshape and its sum over resonances.

The lineshape is omega = |C|^2, where C = (Gamma/2) / (E - E0 + i*Gamma/2) is
the Fourier coefficient of the decay law.  A width whose (Gamma/2)^2
underflows counts as zero, the guided limit: there C is -i at E0 and 0
elsewhere, so omega is 1 at E0 and 0 elsewhere.
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


def _coefficient(de, hw: float):
    """C at dE = E - E0, a float or an array; for hw = 0, -i at dE = 0, else 0.

    Complex division scales by the larger of |dE| and hw, so a far tail
    gives C -> 0 rather than an overflow.
    """
    if hw == 0.0:
        return np.where(de == 0.0, complex(0.0, -1.0), 0j)
    return hw / (de + 1j * hw)


def lineshape(line: FbwLine, E):
    """omega(E) = |C(E)|^2 = (Gamma/2)^2 / ((E-E0)^2 + (Gamma/2)^2), in [0, 1].

    Equals 1 exactly at E = E0, and 0.5 exactly where E - E0 equals Gamma/2
    exactly (FbwLine(0, 2) at E = 1); at a rounded E0 +- Gamma/2 it is 0.5
    within that rounding.  The zero-width limit is delta-like: 0 away from
    the center and 1 at it (a non-decaying state).  Accepts scalars or
    arrays.
    """
    c = fourier_coefficient(line, E)
    return c.real * c.real + c.imag * c.imag


def fourier_coefficient(line: FbwLine, E):
    """C(E) = (Gamma/2) / (E - E0 + i*Gamma/2); |C|^2 is the lineshape.

    The zero-width limit is -i at E = E0 and 0 elsewhere; E = +-inf gives
    the limit 0, and a NaN E raises ValueError.
    """
    de = np.asarray(E, dtype=float) - line.center_E0
    if np.isnan(de).any():
        raise ValueError("E must not be NaN")
    out = _coefficient(de, _half_width(line.width_Gamma))
    return complex(out) if np.isscalar(E) else out


def fbw_superposition(eps_R: float, resonances: Sequence[tuple[float, float]]) -> float:
    """Sum of Lorentzian lineshapes, one per resonance (E_n, Gamma_n).

    Each term is the ``lineshape`` of FbwLine(E_n, Gamma_n) at eps_R, zero
    widths included.  At least one term is required; centres must be finite
    and strictly increasing, widths finite and >= 0, and eps_R not NaN.
    """
    if math.isnan(eps_R):
        raise ValueError("eps_R must not be NaN")
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
        c = _coefficient(eps_R - e_n, _half_width(gamma_n))
        total += c.real * c.real + c.imag * c.imag
    return float(total)
