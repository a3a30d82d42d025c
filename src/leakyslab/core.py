"""Slab configuration, eigenvalue bookkeeping, wavenumbers, dispersion kernel.

Units convention
----------------
Everything is dimensionless: lengths are measured in units of 1/k0 and
wavenumbers in units of k0, so a slab is fully described by the product
A = k0*a (half width) and the core refractive index U0.  The propagation
constant eps plays the role of an energy; the guided band is
-U0 <= eps < -1, the radiation band -1 <= eps < 0.

Wavenumber conventions (K exterior, Q interior, both in units of k0):

    K**2 / 2 = eps + 1
    Q**2     = U0 * (K**2 + 2*(U0 - 1))        (= 2*U0*(eps + U0))

Leaky modes live on the branch with K in the closed fourth quadrant
(Re K >= 0, Im K <= 0).

Dispersion kernel: Q and the outgoing condition
f(K) = cos(2QA) - i*g*sin(2QA), g = (K**2 + Q**2)/(2*K*Q), the denominator
of the transmission amplitude t = e^{-2iKA}/f; its zeros with K in the
fourth quadrant are the leaky modes.  ``_dispersion`` gives Q and f at any
K but the pole K = 0, where it raises ValueError; ``_real_axis`` gives t, r,
the phase phi = -arg f - pi/2 and dphi/dK on the radiation band.  Every
module takes these quantities from here.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SlabConfig:
    """Dimensionless description of a homogeneous slab in vacuum.

    Attributes:
        half_width_A: k0*a, half width of the core in units of 1/k0.
        core_index_U0: refractive index of the core; must exceed the vacuum's 1.
    """

    half_width_A: float
    core_index_U0: float

    def __post_init__(self):
        if not self.half_width_A > 0:
            raise ValueError(f"half_width_A must be > 0, got {self.half_width_A}")
        if not self.core_index_U0 > 1:
            raise ValueError(
                f"core_index_U0 must be > 1 (index well), got {self.core_index_U0}"
            )
        for name in ("half_width_A", "core_index_U0"):
            if math.isinf(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ComplexEigenvalue:
    """Propagation constant eps = eps_R - i*Gamma/2.

    half_width_Gamma is Gamma/2 >= 0; Gamma = 0 describes real (guided or
    radiation) propagation constants.  For the slab treated here leaky and
    scattering eigenvalues satisfy -U0 <= eps_R < 0.
    """

    eps_R: float
    half_width_Gamma: float = 0.0

    def __post_init__(self):
        for name in ("eps_R", "half_width_Gamma"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.half_width_Gamma < 0:
            raise ValueError(
                f"half_width_Gamma must be >= 0, got {self.half_width_Gamma}"
            )

    @property
    def value(self) -> complex:
        return complex(self.eps_R, -self.half_width_Gamma)

    @property
    def width_Gamma(self) -> float:
        return 2.0 * self.half_width_Gamma

    @classmethod
    def from_complex(cls, eps: complex) -> "ComplexEigenvalue":
        if eps.imag > 0:
            raise ValueError(f"eigenvalue must lie in the lower half plane, got {eps}")
        return cls(eps_R=eps.real, half_width_Gamma=-eps.imag)


@dataclass(frozen=True)
class Wavenumbers:
    """Exterior (K) and interior (Q) wavenumbers in units of k0."""

    K: complex
    Q: complex


def eigenvalue_to_wavenumbers(eps: ComplexEigenvalue, cfg: SlabConfig) -> Wavenumbers:
    """Convert eps to the wavenumber pair (K, Q).

    K is taken in the closed fourth quadrant so that leaky modes are
    outgoing; Q is the principal square root of U0*(K**2 + 2*(U0-1)).
    The round trip eps = K**2/2 - 1 holds to machine precision.
    """
    K = cmath.sqrt(2.0 * (eps.value + 1.0))
    if K.real == 0 and K.imag > 0:
        K = -K
    return Wavenumbers(K=K, Q=_interior_wavenumber(K, cfg.core_index_U0, cmath))


def _interior_wavenumber(K, U0, lib=np):
    return lib.sqrt(U0 * (K * K + 2.0 * (U0 - 1.0)))


def _dispersion(K, cfg: SlabConfig):
    """Interior wavenumber Q and outgoing condition f at exterior wavenumber K.

    A Python complex K (a seed, a Newton iterate) is evaluated with cmath:
    the pole K = 0 raises ValueError, and f takes its limit 1 - i*A*K at the
    removable point Q = 0.  Any other K, scalar or array, is evaluated
    elementwise with numpy; a real K on the radiation band gives a real Q.
    """
    lib = cmath if isinstance(K, complex) else np
    A = cfg.half_width_A
    Q = _interior_wavenumber(K, cfg.core_index_U0, lib)
    if lib is cmath and K == 0:
        raise ValueError("K = 0 is a pole of the outgoing condition")
    if lib is cmath and Q == 0:
        return Q, 1.0 - 1j * A * K
    return Q, lib.cos(2 * Q * A) - 0.5j * (K / Q + Q / K) * lib.sin(2 * Q * A)


def _real_axis(K, A, U0):
    """t, r, the continuous phase phi and dphi/dK at real K > 0.

    One evaluation of Q, s = sin 2QA, c = cos 2QA and g = (K/Q + Q/K)/2
    serves all four, broadcasting over K and A.  With f = c - i*g*s,
    t = e^{-2iKA}/f and r = t*(i/2)(Q/K - K/Q)*s; conj(f) =
    e^{2iQA}(1 + d s^2 + i d s c), d = g - 1 = (Q - K)^2/(2KQ) >= 0 (so
    written because g - 1 cancels for weak contrast), and Q' = U0*K/Q give

        phi = -arg f - pi/2 = 2QA - pi/2 + arctan(d s c / (1 + d s^2)),
        dphi/dK = (2A Q' g + g' c s) / |f|^2,

    both regular in K: 1 + d s^2 >= 1 and |f|^2 = c^2 + g^2 s^2 >= 1.
    """
    Q = _interior_wavenumber(K, U0)
    s = np.sin(2.0 * Q * A)
    c = np.cos(2.0 * Q * A)
    g = 0.5 * (K / Q + Q / K)
    t = np.exp(-2j * K * A) / (c - 1j * g * s)
    r = t * 0.5j * (Q / K - K / Q) * s
    d = (Q - K) ** 2 / (2.0 * K * Q)
    phi = 2.0 * Q * A - math.pi / 2.0 + np.arctan(d * s * c / (1.0 + d * s * s))
    dQ = U0 * K / Q
    dg = 0.5 * (Q - K * dQ) * (1.0 / (Q * Q) - 1.0 / (K * K))
    dphi = (2.0 * A * dQ * g + dg * c * s) / (c * c + g * g * s * s)
    return t, r, phi, dphi


def beam_slope(eps_R: float, x_index: float) -> float:
    """Local ray angle theta with respect to the optical axis, in radians.

    The eigenvalue fixes the beam slope through eps = -n(x)*cos(theta(x)).
    Returns theta in [0, pi/2].  Raises ValueError in the evanescent regime
    |eps_R| > n(x) where no real ray angle exists, and on NaN input.
    """
    if math.isnan(eps_R) or math.isnan(x_index):
        raise ValueError(f"beam_slope needs numbers, got eps_R={eps_R}, x_index={x_index}")
    if abs(eps_R) > x_index:
        raise ValueError(
            f"no real ray angle: |eps_R|={abs(eps_R)} exceeds local index {x_index}"
        )
    return math.acos(-eps_R / x_index)
