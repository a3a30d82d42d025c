"""Longitudinal (stationary-phase) shifts of scattered waves.

delta_z is the axial interval between the packet peak entering the left
face and leaving the right face, k0*delta_z = (1/K) * dphi/dK.  It contains
the free crossing of the slab: with no index contrast dphi/dK -> 2A and the
shift relative to free propagation vanishes.  dphi/dK and the transmitted
amplitude t of the synthesis below come from the core dispersion kernel.

A wave-packet synthesis (quadrature over the transmitted spectrum, peak
tracking at a distant observation plane) provides an independent
measurement that converges to the stationary-phase value as the spectral
width shrinks.  Its z grid is uniform, so with z = z_b + j*dz (z_b the
first sample of a block of _Z_BLOCK) the phase factors as
exp(i(k x - eps z)) = exp(i(k x - eps z_b)) * exp(-i eps j dz): one block
matrix serves every block, and one matrix product yields all nz samples
from about (_Z_BLOCK + nz/_Z_BLOCK)*nk complex exponentials, not nz*nk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SlabConfig, _real_axis
from .errors import PeakAmbiguityError
from .scattering import Curve, _band_wavenumber

# z samples per block of the factored wave-packet phase matrix
_Z_BLOCK = 64
# transverse position of the plane where wavepacket_shift observes the packets
_X_OBSERVE = 3000.0


@dataclass(frozen=True)
class ShiftSample:
    """Shift data at one eigenvalue, all lengths in units of 1/k0.

    z_t - z_in = k0_delta_z holds by construction.
    """

    eps_R: float
    k0_delta_z: float
    z_in: float
    z_t: float


def phase_derivative(eps_R, cfg: SlabConfig):
    """Analytic dphi/dK on the radiation band; scalar or array input.

    Taken from the real-axis evaluation of the core dispersion kernel,
    dphi/dK = (2A Q' g + g' c s)/|f|^2; regular across the transparency
    points sin(2QA) = 0.
    """
    K = _band_wavenumber(eps_R)
    out = _real_axis(K, cfg.half_width_A, cfg.core_index_U0)[3]
    return float(out) if np.isscalar(eps_R) else out


def longitudinal_shift(eps_R: float, cfg: SlabConfig) -> ShiftSample:
    """Entry/exit coordinates and shift of the transmitted (or reflected) wave.

    z_in = -A/K, k0*delta_z = (1/K)*dphi/dK, z_t = z_in + k0*delta_z.
    """
    dz, z_in, z_t = shift_sweep([eps_R], cfg).values[0].tolist()
    return ShiftSample(eps_R=eps_R, k0_delta_z=dz, z_in=z_in, z_t=z_t)


def shift_sweep(eps_grid, cfg: SlabConfig) -> Curve:
    """k0*delta_z (plus entry/exit points) over an eigenvalue grid."""
    e = np.asarray(eps_grid, dtype=float)
    K = _band_wavenumber(e)
    dz = _real_axis(K, cfg.half_width_A, cfg.core_index_U0)[3] / K
    z_in = -cfg.half_width_A / K
    return Curve(
        abscissa=e,
        values=np.column_stack([dz, z_in, z_in + dz]),
        labels=("eps_R", "k0_delta_z", "z_in", "z_t"),
    )


def width_sweep(eps_R: float, halfwidth_grid, core_index_U0: float) -> Curve:
    """k0*delta_z at fixed eps_R as a function of the slab half width k0*a."""
    As = np.asarray(halfwidth_grid, dtype=float)
    if As.ndim != 1 or len(As) == 0:
        raise ValueError("halfwidth_grid must be a non-empty 1-D array")
    K = _band_wavenumber(eps_R)
    # the narrowest slab validates the whole grid
    SlabConfig(half_width_A=As.min(), core_index_U0=core_index_U0)
    dz = _real_axis(K, As, core_index_U0)[3] / K
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


def _packet_intensities(k, weights, x_observe: float, z: np.ndarray) -> np.ndarray:
    """|sum_k w_k exp(i(k x_observe - eps_k z))|^2 on a uniform z grid.

    weights is (nk, ncol); the result is (len(z), ncol).  Evaluated block by
    block as exp(-i eps_k j dz) @ (w_k exp(i(k x_observe - eps_k z_b))), so
    no len(z) x nk array is formed.
    """
    nz = len(z)
    block = min(_Z_BLOCK, nz)
    dz = (z[-1] - z[0]) / (nz - 1)
    eps_k = k * k / 2.0 - 1.0
    offsets = np.exp(-1j * np.outer(np.arange(block) * dz, eps_k))
    z_b = z[::block]
    carriers = np.exp(1j * (k[:, None] * x_observe - eps_k[:, None] * z_b[None, :]))
    rhs = (carriers[:, :, None] * weights[:, None, :]).reshape(len(k), -1)
    amp = (offsets @ rhs).reshape(block, len(z_b), -1).transpose(1, 0, 2)
    return np.abs(amp.reshape(block * len(z_b), -1)[:nz]) ** 2


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
    panels: int = 50,
    nodes_per_panel: int = 48,
    nz: int = 4001,
) -> float:
    """Measure k0*delta_z from a synthesized transmitted Gaussian packet.

    A Gaussian spectrum f(K) centered on K_c = sqrt(2*(eps_center+1)) is
    propagated through t(K); the transmitted intensity is scanned in z at the
    fixed plane x = _X_OBSERVE beyond the slab and its peak is compared
    against the free-space packet's peak (same quadrature and peak finder,
    so the common systematics cancel):

        measured = (z_peak - z_free) + 2*A/K_c

    Converges to longitudinal_shift(eps_center) as sigma_K -> 0.

    Every one of the nz samples is synthesized, through the factored phase
    matrix of _packet_intensities: (_Z_BLOCK + nz/_Z_BLOCK)*nk complex
    exponentials and one matrix product, nk = panels*nodes_per_panel.
    """
    Kc = float(_band_wavenumber(eps_center))
    sig = float(packet_width_sigmaK)
    if not (math.isfinite(sig) and sig > 0):
        raise ValueError("packet_width_sigmaK must be positive and finite")
    if sig > Kc / 6.0:
        raise ValueError(f"packet too wide: sigma_K={sig} exceeds K_c/6={Kc / 6.0}")
    if Kc - 6.0 * sig <= 0.0 or Kc + 6.0 * sig >= math.sqrt(2.0):
        raise ValueError(
            "packet support [K_c - 6 sigma, K_c + 6 sigma] must stay inside "
            "the radiation band (0, sqrt(2))"
        )
    if _X_OBSERVE <= cfg.half_width_A:
        raise ValueError(f"the observation plane x = {_X_OBSERVE} must lie beyond the slab")
    if panels < 1 or nodes_per_panel < 1:
        raise ValueError("panels and nodes_per_panel must be at least 1")
    if nz < 3:
        raise ValueError("nz must be at least 3")

    k, w = _gauss_legendre_composite(Kc - 6.0 * sig, Kc + 6.0 * sig, panels, nodes_per_panel)
    f = np.exp(-((k - Kc) ** 2) / (2.0 * sig * sig))
    t = _real_axis(k, cfg.half_width_A, cfg.core_index_U0)[0]

    z0 = _X_OBSERVE / Kc
    half_window = 8.0 / (Kc * sig) + 300.0
    z = np.linspace(z0 - half_window, z0 + half_window, nz)
    trans, free = _packet_intensities(k, np.column_stack([w * f * t, w * f]), _X_OBSERVE, z).T

    z_peak = _envelope_peak(z, trans)
    z_free = _envelope_peak(z, free)
    return (z_peak - z_free) + 2.0 * cfg.half_width_A / Kc
