"""Longitudinal (stationary-phase) shifts of scattered waves.

delta_z is the axial interval between the packet peak entering the left
face and leaving the right face, k0*delta_z = (1/K) * dphi/dK.  It contains
the free crossing of the slab: with no index contrast dphi/dK -> 2A and the
shift relative to free propagation vanishes.  dphi/dK comes from the core
dispersion kernel, formed without t, r or the phase; the transmitted
amplitude t of the synthesis below comes from the kernel too.

A wave-packet synthesis (quadrature over the transmitted spectrum, peak
tracking at a distant observation plane) provides an independent
measurement that converges to the stationary-phase value as the spectral
width shrinks.  Its z grid is uniform, so with z = z_0 + (b*_Z_BLOCK + j)*dz
the phase factors as exp(i(k x - eps z)) = exp(i(k x - eps z_0)) *
exp(-i eps _Z_BLOCK dz)^b * exp(-i eps dz)^j: one block matrix serves every
block, and one matrix product yields all nz samples.  Both tables are
powers of one exponential per node, formed by doubling, so the synthesis
takes 3*nk complex exponentials, not nz*nk.
The spectrum is integrated on nk = 400 nodes by default, 50 panels of 8
Gauss-Legendre nodes: the shift stays within 1.13e-8 relative of 50 panels
of 48 nodes on the slabs, modes and widths tests/test_shift.py declares.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import LeakySlabError, SlabConfig, _kernel, _phase_derivative, _transmission
from .scattering import Curve, _band_wavenumber

# z samples per block of the factored wave-packet phase matrix
_Z_BLOCK = 64
# transverse position of the plane where wavepacket_shift observes the packets
_X_OBSERVE = 3000.0


@dataclass(frozen=True)
class ShiftSample:
    """The shift k0*delta_z at one eigenvalue, in units of 1/k0."""

    k0_delta_z: float


def phase_derivative(eps_R, cfg: SlabConfig):
    """Analytic dphi/dK on the radiation band; scalar or array input.

    The core kernel's dphi/dK = (2A Q' g + g' c s)/|f|^2, formed without
    t, r or the phase; regular across the transparency points sin(2QA) = 0.
    """
    K = _band_wavenumber(eps_R)
    out = _phase_derivative(K, cfg.half_width_A, cfg.core_index_U0)
    return float(out) if np.isscalar(eps_R) else out


def longitudinal_shift(eps_R: float, cfg: SlabConfig) -> ShiftSample:
    """Shift k0*delta_z = (1/K)*dphi/dK of the transmitted (or reflected) wave.

    A one-point shift_sweep, whose row also holds the entry and exit points
    z_in = -A/K and z_t = z_in + k0*delta_z.
    """
    return ShiftSample(k0_delta_z=float(shift_sweep([eps_R], cfg).values[0, 0]))


def shift_sweep(eps_grid, cfg: SlabConfig) -> Curve:
    """k0*delta_z (plus entry/exit points) over an eigenvalue grid."""
    e = np.asarray(eps_grid, dtype=float)
    K = _band_wavenumber(e)
    dz = _phase_derivative(K, cfg.half_width_A, cfg.core_index_U0) / K
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
    # the narrowest and the widest slab validate the whole grid
    for A in (As.min(), As.max()):
        SlabConfig(half_width_A=A, core_index_U0=core_index_U0)
    dz = _phase_derivative(K, As, core_index_U0) / K
    return Curve(abscissa=As, values=dz, labels=("k0a", "k0_delta_z"))


@functools.lru_cache(maxsize=8)
def _legendre_rule(order: int):
    """Gauss-Legendre nodes/weights on [-1, 1], formed once per order on first
    use (not at import, which would load numpy.polynomial into every CLI
    process) and returned read-only, since every caller shares them."""
    xg, wg = np.polynomial.legendre.leggauss(order)
    xg.flags.writeable = wg.flags.writeable = False
    return xg, wg


def _gauss_legendre_composite(lo: float, hi: float, panels: int, order: int):
    """Composite Gauss-Legendre nodes/weights on [lo, hi]."""
    xg, wg = _legendre_rule(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * (edges[1:] - edges[:-1])
    mid = 0.5 * (edges[1:] + edges[:-1])
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel()
    return nodes, weights


def _powers(base, n: int, first=1.0):
    """first * base**j for j = 0..n-1 along a new leading axis, by doubling.

    Rows m..2m-1 are rows 0..m-1 times base**m, and base**m is squared from
    base**(m/2), so row j is a product of at most ceil(log2 n) + 1 factors
    and its rounding error grows like j, as the phase error of exp(i*j*a)
    does.  first broadcasts against base.
    """
    out = np.empty((n, *np.broadcast_shapes(np.shape(first), base.shape)), dtype=complex)
    out[0] = first
    m, square = 1, base
    while m < n:
        step = min(m, n - m)
        np.multiply(out[:step], square, out=out[m : m + step])
        m += step
        if m < n:
            square = square * square
    return out


def _packet_intensities(k, weights, x_observe: float, z: np.ndarray) -> np.ndarray:
    """|sum_k w_k exp(i(k x_observe - eps_k z))|^2 on a uniform z grid.

    weights is (nk, ncol); the result is (len(z), ncol).  With z = z_0 +
    (b*_Z_BLOCK + j)*dz the phase factors as exp(-i eps_k j dz) times
    exp(i(k x_observe - eps_k z_0)) * exp(-i eps_k _Z_BLOCK dz)**b: both
    tables are powers of one exponential per node (_powers), the weights are
    folded into the first row of the block table, and one matrix product
    gives every sample.  No len(z) x nk array is formed.
    """
    nz = len(z)
    block = min(_Z_BLOCK, nz)
    nb = -(-nz // block)
    dz = (z[-1] - z[0]) / (nz - 1)
    eps_k = k * k / 2.0 - 1.0
    offsets = _powers(np.exp(-1j * (eps_k * dz)), block)
    start = np.exp(1j * (k * x_observe - eps_k * z[0]))
    blocks = _powers(np.exp(-1j * (eps_k * (block * dz))), nb, start * weights.T)
    amp = blocks.reshape(-1, len(k)) @ offsets.T
    intensity = (amp.real**2 + amp.imag**2).reshape(nb, -1, block)
    return intensity.transpose(0, 2, 1).reshape(nb * block, -1)[:nz]


def _envelope_peak(z: np.ndarray, intensity: np.ndarray) -> float:
    """Peak position by parabolic interpolation through the three top samples."""
    i = int(np.argmax(intensity))
    if i == 0 or i == len(z) - 1:
        raise LeakySlabError("envelope peak sits on the search-window edge")
    # flag a second comparable local maximum well away from the main one
    interior = intensity[1:-1]
    is_max = (interior > intensity[:-2]) & (interior > intensity[2:])
    peaks = np.where(is_max)[0] + 1
    tall = peaks[intensity[peaks] >= 0.9 * intensity[i]]
    if np.any(np.abs(tall - i) > len(z) // 20):
        raise LeakySlabError("multimodal envelope: comparable secondary peak")
    a, b, c = intensity[i - 1], intensity[i], intensity[i + 1]
    return float(z[i] + 0.5 * (a - c) / (a - 2 * b + c) * (z[1] - z[0]))


def wavepacket_shift(
    eps_center: float,
    packet_width_sigmaK: float,
    cfg: SlabConfig,
    panels: int = 50,
    nodes_per_panel: int = 8,
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
    matrix of _packet_intensities: 3*nk complex exponentials, whose powers
    fill both tables, and one matrix product, nk = panels*nodes_per_panel.
    The default 50 x 8 = 400 nodes give the shift of 50 x 48 to 1.13e-8
    relative (largest on the k0a = 60, U0 = 2 slab at K_c/20; 9.7e-12 on the
    reference slab's 17 modes at K_c/20 and K_c/40).  panels,
    nodes_per_panel and nz must be integers.
    """
    Kc = float(_band_wavenumber(eps_center))
    sig = float(packet_width_sigmaK)
    if not (math.isfinite(sig) and sig > 0):
        raise ValueError("packet_width_sigmaK must be positive and finite")
    if Kc - 6.0 * sig <= 0.0 or Kc + 6.0 * sig >= math.sqrt(2.0):
        raise ValueError(
            "packet support [K_c - 6 sigma, K_c + 6 sigma] must stay inside "
            "the radiation band (0, sqrt(2))"
        )
    if _X_OBSERVE <= cfg.half_width_A:
        raise ValueError(f"the observation plane x = {_X_OBSERVE} must lie beyond the slab")
    for name, value in (("panels", panels), ("nodes_per_panel", nodes_per_panel), ("nz", nz)):
        if not isinstance(value, (int, np.integer)):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    if panels < 1 or nodes_per_panel < 1:
        raise ValueError("panels and nodes_per_panel must be at least 1")
    if nz < 3:
        raise ValueError("nz must be at least 3")

    k, w = _gauss_legendre_composite(Kc - 6.0 * sig, Kc + 6.0 * sig, panels, nodes_per_panel)
    f = np.exp(-((k - Kc) ** 2) / (2.0 * sig * sig))
    _, _, s, c, g = _kernel(k, cfg.half_width_A, cfg.core_index_U0)
    t = _transmission(k, cfg.half_width_A, s, c, g)

    z0 = _X_OBSERVE / Kc
    half_window = 8.0 / (Kc * sig) + 300.0
    z = np.linspace(z0 - half_window, z0 + half_window, nz)
    trans, free = _packet_intensities(k, np.column_stack([w * f * t, w * f]), _X_OBSERVE, z).T

    z_peak = _envelope_peak(z, trans)
    z_free = _envelope_peak(z, free)
    return (z_peak - z_free) + 2.0 * cfg.half_width_A / Kc
