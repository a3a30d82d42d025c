"""Real-energy scattering off the slab: r/t and the transmission phase.

t = e^{-2iKA}/f, with f(K) the outgoing condition, T and the phase come
from the core dispersion kernel; t and r = t*(i/2)(Q/K - K/Q)*sin(2QA) are
formed only in transfer_amplitudes, so no sweep pays for them.  Flux
conservation |r|^2 + |t|^2 = 1 follows from |f|^2 = 1 +
(1/4)(Q/K - K/Q)^2 sin^2(2QA).

The transmission phase phi is the quantity entering the wave-packet
integrands: phi = arg t + 2*K*A - pi/2 = -arg f - pi/2.  Sweeps return its
continuous branch, evaluated in closed form and shifted by a multiple of pi
so that the first grid point carries its principal value in (-pi/2, pi/2],
so the principal phase at one energy is the one-point sweep
unwrapped_phase([eps_R], cfg)[0].  transmission_sweep forms T = 1/|f|^2 =
1/(1 + d(d+2) sin^2(2QA)), d = (Q - K)^2/(2KQ), in real arithmetic, without
t; it equals |t|^2 to rounding, and a one-point sweep gives the long
sweep's bits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (SlabConfig, _kernel, _phase, _phase_terms, _reflection, _transmission,
                   _transmittance)


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Reflection and transmission amplitudes at one eps_R."""

    r: complex
    t: complex


@dataclass(frozen=True)
class Curve:
    """Sampled 1-D function: strictly increasing abscissa + value columns.

    labels[0] names the abscissa, labels[1:] name the value columns.  values
    has shape (n,) for a single column or (n, k) for k real columns.
    """

    abscissa: np.ndarray
    values: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        a = np.asarray(self.abscissa, dtype=float)
        v = np.asarray(self.values)
        object.__setattr__(self, "abscissa", a)
        object.__setattr__(self, "values", v)
        if a.ndim != 1 or len(a) < 1:
            raise ValueError("abscissa must be a non-empty 1-D grid")
        if not np.all(np.isfinite(a)):
            raise ValueError("abscissa must be finite")
        if np.iscomplexobj(v):
            raise ValueError("values must be real; give a complex column as two real ones")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        if np.any(np.diff(a) <= 0):
            raise ValueError("abscissa must be strictly increasing")
        if v.shape[0] != a.shape[0]:
            raise ValueError(
                f"values length {v.shape[0]} does not match abscissa {a.shape[0]}"
            )
        ncols = 1 if v.ndim == 1 else v.shape[1]
        if len(self.labels) != 1 + ncols:
            raise ValueError(
                f"expected {1 + ncols} labels (abscissa + columns), got {len(self.labels)}"
            )


def _band_wavenumber(eps_R) -> np.ndarray:
    """K = sqrt(2*(eps_R + 1)); raises ValueError outside the radiation band (or on NaN)."""
    e = np.asarray(eps_R, dtype=float)
    if not np.all((e > -1.0) & (e < 0.0)):
        raise ValueError("eps_R must lie strictly inside the radiation band (-1, 0)")
    return np.sqrt(2.0 * (e + 1.0))


def _sweep(eps_grid, cfg: SlabConfig):
    """s = sin(2QA), d = g - 1 and the continuous phase phi over a non-empty
    1-D eps grid.

    phi is shifted by a multiple of pi so that its first point carries its
    principal value.
    """
    e = np.asarray(eps_grid, dtype=float)
    K = _band_wavenumber(e)
    if e.ndim != 1 or len(e) == 0:
        raise ValueError("eps_grid must be a non-empty 1-D array")
    theta, s, c, d = _phase_terms(K, cfg.half_width_A, cfg.core_index_U0)
    phi = _phase(theta, s, c, d)
    return s, d, phi - np.pi * np.round(phi[0] / np.pi)


def transfer_amplitudes(eps_R: float, cfg: SlabConfig) -> ScatteringAmplitudes:
    """r and t at one eps_R; raises ValueError outside the radiation band (-1, 0).

    The principal transmission phase at eps_R is the one-point sweep
    unwrapped_phase([eps_R], cfg)[0].
    """
    K = _band_wavenumber([eps_R])
    Q, _, s, c, g = _kernel(K, cfg.half_width_A, cfg.core_index_U0)
    t = _transmission(K, cfg.half_width_A, s, c, g)
    r = _reflection(K, Q, s, t)
    return ScatteringAmplitudes(r=complex(r[0]), t=complex(t[0]))


def transmission_sweep(eps_grid, cfg: SlabConfig) -> Curve:
    """T(eps) and the unwrapped phase phi(eps) over an increasing grid."""
    s, d, phi = _sweep(eps_grid, cfg)
    return Curve(
        abscissa=eps_grid,
        values=np.column_stack([_transmittance(s, d), phi]),
        labels=("eps_R", "T", "phi"),
    )


def unwrapped_phase(eps_grid, cfg: SlabConfig) -> np.ndarray:
    """Continuously unwrapped phi over an increasing eps grid.

    Evaluated in closed form (no accumulation), so any grid spacing lands on
    the same branch; anchored at the principal value of the first point.
    """
    return _sweep(eps_grid, cfg)[2]
