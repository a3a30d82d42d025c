"""Longitudinal (stationary-phase) shifts of scattered waves.

delta_z is the axial interval between the packet peak entering the left
face and leaving the right face, k0*delta_z = (1/K) * dphi/dK.  It contains
the free crossing of the slab: with no index contrast dphi/dK -> 2A and the
shift relative to free propagation vanishes.

A wave-packet synthesis (quadrature over the transmitted spectrum, peak
tracking at a distant observation plane) provides an independent
measurement that converges to the stationary-phase value as the spectral
width shrinks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SlabConfig, _dispersion
from .errors import PeakAmbiguityError
from .scattering import Curve, _amplitudes, _band_wavenumber


@dataclass(frozen=True)
class ShiftSample:
    """Shift data at one eigenvalue, all lengths in units of 1/k0.

    z_t - z_in = k0_delta_z holds by construction.
    """

    eps_R: float
    k0_delta_z: float
    z_in: float
    z_t: float


def _dphi_dK(K, Q, A, U0):
    # Regular across the transparency points sin(2QA) = 0: the denominator
    # S^2 s^2 + P^2 c^2 never vanishes.  Broadcasts over K, Q and A.
    Qp = U0 * K / Q
    P = 2.0 * K * Q
    S = K * K + Q * Q
    Pp = 2.0 * Q + 2.0 * K * Qp
    Sp = 2.0 * K + 2.0 * Q * Qp
    s = np.sin(2.0 * Q * A)
    c = np.cos(2.0 * Q * A)
    return (2.0 * A * Qp * P * S - (Pp * S - P * Sp) * c * s) / (
        S * S * s * s + P * P * c * c
    )


def phase_derivative(eps_R, cfg: SlabConfig):
    """Analytic dphi/dK on the radiation band; scalar or array input.

    Derived by differentiating the arctan form of the transmission phase
    with Q'(K) = U0*K/Q; the expression is regular across the transparency
    points sin(2QA) = 0.
    """
    K = _band_wavenumber(eps_R)
    Q, _ = _dispersion(K, cfg)
    out = _dphi_dK(K, Q, cfg.half_width_A, cfg.core_index_U0)
    return float(out) if np.isscalar(eps_R) else out


def longitudinal_shift(eps_R: float, cfg: SlabConfig) -> ShiftSample:
    """Entry/exit coordinates and shift of the transmitted (or reflected) wave.

    z_in = -A/K, k0*delta_z = (1/K)*dphi/dK, z_t = z_in + k0*delta_z.
    """
    K = float(_band_wavenumber(eps_R))
    dz = phase_derivative(eps_R, cfg) / K
    z_in = -cfg.half_width_A / K
    return ShiftSample(eps_R=eps_R, k0_delta_z=dz, z_in=z_in, z_t=z_in + dz)


def shift_sweep(eps_grid, cfg: SlabConfig) -> Curve:
    """k0*delta_z (plus entry/exit points) over an eigenvalue grid."""
    e = np.asarray(eps_grid, dtype=float)
    K = _band_wavenumber(e)
    dz = phase_derivative(e, cfg) / K
    z_in = -cfg.half_width_A / K
    return Curve(
        abscissa=e,
        values=np.column_stack([dz, z_in, z_in + dz]),
        labels=("eps_R", "k0_delta_z", "z_in", "z_t"),
    )


def width_sweep(eps_R: float, halfwidth_grid, core_index_U0: float) -> Curve:
    """k0*delta_z at fixed eps_R as a function of the slab half width k0*a."""
    As = np.asarray(halfwidth_grid, dtype=float)
    K = _band_wavenumber(eps_R)
    # Q does not depend on A; the narrowest slab validates the whole grid
    cfg = SlabConfig(half_width_A=As.min(), core_index_U0=core_index_U0)
    Q, _ = _dispersion(K, cfg)
    dz = _dphi_dK(K, Q, As, core_index_U0) / K
    return Curve(abscissa=As, values=dz, labels=("k0a", "k0_delta_z"))


def _gauss_legendre_composite(lo: float, hi: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _envelope_peak(z: np.ndarray, intensity: np.ndarray) -> float:
    """Peak position by parabolic interpolation through the three top samples."""
    i = int(np.argmax(intensity))
    if i == 0 or i == len(z) - 1:
        raise PeakAmbiguityError("envelope peak sits on the search-window edge")
    # flag a second comparable local maximum well away from the main one
    interior = intensity[1:-1]
    is_max = (interior > intensity[:-2]) & (interior > intensity[2:])
    peaks = np.where(is_max)[0] + 1
    tall = peaks[intensity[peaks] >= 0.9 * intensity[i]]
    if np.any(np.abs(tall - i) > len(z) // 20):
        raise PeakAmbiguityError("multimodal envelope: comparable secondary peak")
    a, b, c = intensity[i - 1], intensity[i], intensity[i + 1]
    return float(z[i] + 0.5 * (a - c) / (a - 2 * b + c) * (z[1] - z[0]))


def wavepacket_shift(
    eps_center: float,
    packet_width_sigmaK: float,
    cfg: SlabConfig,
    x_observe: float = 3000.0,
    panels: int = 50,
    nodes_per_panel: int = 48,
    nz: int = 4001,
) -> float:
    """Measure k0*delta_z from a synthesized transmitted Gaussian packet.

    A Gaussian spectrum f(K) centered on K_c = sqrt(2*(eps_center+1)) is
    propagated through t(K); the transmitted intensity is scanned in z at a
    fixed plane x_observe beyond the slab and its peak is compared against
    the free-space packet's peak (same quadrature and peak finder, so the
    common systematics cancel):

        measured = (z_peak - z_free) + 2*A/K_c

    Converges to longitudinal_shift(eps_center) as sigma_K -> 0.
    """
    Kc = float(_band_wavenumber(eps_center))
    sig = float(packet_width_sigmaK)
    if sig <= 0:
        raise ValueError("packet_width_sigmaK must be positive")
    if sig > Kc / 6.0:
        raise ValueError(f"packet too wide: sigma_K={sig} exceeds K_c/6={Kc / 6.0}")
    if Kc - 6.0 * sig <= 0.0 or Kc + 6.0 * sig >= math.sqrt(2.0):
        raise ValueError(
            "packet support [K_c - 6 sigma, K_c + 6 sigma] must stay inside "
            "the radiation band (0, sqrt(2))"
        )
    if x_observe <= cfg.half_width_A:
        raise ValueError("x_observe must lie beyond the slab")

    k, w = _gauss_legendre_composite(Kc - 6.0 * sig, Kc + 6.0 * sig, panels, nodes_per_panel)
    f = np.exp(-((k - Kc) ** 2) / (2.0 * sig * sig))
    t, _, _ = _amplitudes(k, cfg)

    z0 = x_observe / Kc
    half_window = 8.0 / (Kc * sig) + 300.0
    z = np.linspace(z0 - half_window, z0 + half_window, nz)

    wt_trans = w * f * t
    wt_free = w * f
    eps_k = k * k / 2.0 - 1.0
    trans = np.empty(nz)
    free = np.empty(nz)
    chunk = 256
    for i0 in range(0, nz, chunk):
        zc = z[i0 : i0 + chunk]
        phase = np.exp(1j * (k[None, :] * x_observe - eps_k[None, :] * zc[:, None]))
        trans[i0 : i0 + chunk] = np.abs(phase @ wt_trans) ** 2
        free[i0 : i0 + chunk] = np.abs(phase @ wt_free) ** 2

    z_peak = _envelope_peak(z, trans)
    z_free = _envelope_peak(z, free)
    return (z_peak - z_free) + 2.0 * cfg.half_width_A / Kc
