"""Real-energy scattering off the slab: r/t and the transmission phase.

Amplitudes are closed forms in the outgoing condition f(K) of the core
dispersion kernel: t = e^{-2iKA}/f and r = t*(i/2)(Q/K - K/Q)*sin(2QA).
Flux conservation |r|^2 + |t|^2 = 1 follows from |f|^2 = 1 +
(1/4)(Q/K - K/Q)^2 sin^2(2QA).

The transmission phase phi is the quantity entering the wave-packet
integrands: phi = arg t + 2*K*A - pi/2.  Single-point calls return its
principal value in (-pi/2, pi/2]; sweeps return the continuous branch,
evaluated in closed form and shifted by a multiple of pi so that the first
grid point carries its principal value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SlabConfig, _dispersion


@dataclass(frozen=True)
class ScatteringAmplitudes:
    """Reflection/transmission amplitudes and transmission phase at one eps_R."""

    r: complex
    t: complex
    phase_phi: float


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


def _amplitudes(K, cfg: SlabConfig):
    """t, r and the continuous transmission phase phi at real K > 0.

    t = e^{-2iKA}/f and r = t * (i/2)(Q/K - K/Q) sin(2QA), with f from the
    dispersion kernel.  Writing conj(f) = e^{2iQA} (1 + d s^2 + i d s c),
    with s = sin 2QA, c = cos 2QA and d = g - 1 = (Q - K)^2/(2KQ) >= 0, gives

        phi = -arg f - pi/2 = 2QA - pi/2 + arctan(d s c / (1 + d s^2)),

    continuous in K because the arctan denominator is at least 1.
    """
    A = cfg.half_width_A
    Q, f = _dispersion(K, cfg)
    s = np.sin(2.0 * Q * A)
    c = np.cos(2.0 * Q * A)
    t = np.exp(-2j * K * A) / f
    r = t * 0.5j * (Q / K - K / Q) * s
    d = (Q - K) ** 2 / (2.0 * K * Q)
    phi = 2.0 * Q * A - math.pi / 2.0 + np.arctan(d * s * c / (1.0 + d * s * s))
    return t, r, phi


def _fold_half_pi(x):
    """Reduce a phase (array or scalar) to its principal branch mod pi."""
    return x - np.pi * np.round(x / np.pi)


def _band_wavenumber(eps_R) -> np.ndarray:
    """K = sqrt(2*(eps_R + 1)); raises ValueError outside the radiation band (or on NaN)."""
    e = np.asarray(eps_R, dtype=float)
    if not np.all((e > -1.0) & (e < 0.0)):
        raise ValueError("eps_R must lie strictly inside the radiation band (-1, 0)")
    return np.sqrt(2.0 * (e + 1.0))


def transfer_amplitudes(eps_R: float, cfg: SlabConfig) -> ScatteringAmplitudes:
    """r, t and the principal-branch transmission phase at one eps_R.

    Raises ValueError outside the radiation band (-1, 0).
    """
    t, r, phi = _amplitudes(_band_wavenumber(eps_R), cfg)
    return ScatteringAmplitudes(
        r=complex(r), t=complex(t), phase_phi=float(_fold_half_pi(phi))
    )


def transmission_coefficient(eps_R: float, cfg: SlabConfig) -> float:
    """T = |t|^2 in (0, 1]."""
    t, _, _ = _amplitudes(_band_wavenumber(eps_R), cfg)
    return float(np.abs(t) ** 2)


def _sweep(eps_grid, cfg: SlabConfig):
    e = np.asarray(eps_grid, dtype=float)
    K = _band_wavenumber(e)
    if e.ndim != 1 or len(e) == 0:
        raise ValueError("eps_grid must be a non-empty 1-D array")
    t, _, phi = _amplitudes(K, cfg)
    # shift the continuous branch by a multiple of pi so that its first
    # point is the principal value
    return e, t, phi - np.pi * np.round(phi[0] / np.pi)


def transmission_sweep(eps_grid, cfg: SlabConfig) -> Curve:
    """T(eps) and the unwrapped phase phi(eps) over an increasing grid."""
    e, t, phi = _sweep(eps_grid, cfg)
    return Curve(
        abscissa=e,
        values=np.column_stack([np.abs(t) ** 2, phi]),
        labels=("eps_R", "T", "phi"),
    )


def unwrapped_phase(eps_grid, cfg: SlabConfig) -> np.ndarray:
    """Continuously unwrapped phi over an increasing eps grid.

    Evaluated in closed form (no accumulation), so any grid spacing lands on
    the same branch; anchored at the principal value of the first point.
    """
    return _sweep(eps_grid, cfg)[2]
