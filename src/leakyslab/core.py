"""Slab configuration, eigenvalue bookkeeping, wavenumbers, dispersion kernel,
and the library's one numerical-failure type.

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
fourth quadrant are the leaky modes.  ``_kernel`` evaluates Q, 2QA, its
sine and cosine and g once at any K; f (``_dispersion``, which refuses the
pole K = 0 with ValueError) and, on the radiation band, t, r, phi,
T = 1/|f|^2 (in real arithmetic, without t) and dphi/dK are each formed
from it only where read.  Every module takes these
quantities from here.

Failures: an invalid input (a slab outside the domain, an inadmissible mode
index, a bad grid) raises ValueError, CLI exit code 2; a numerical failure
of an otherwise well-posed computation raises LeakySlabError, CLI exit
code 3.  Its message says which computation failed and why.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

# the accepted slab domain 0 < k0a <= K0A_MAX, 1 < U0 <= U0_MAX (see SlabConfig)
K0A_MAX = 1e6
U0_MAX = 4.0


class LeakySlabError(RuntimeError):
    """A numerical failure of a well-posed computation (CLI exit code 3)."""


@dataclass(frozen=True)
class SlabConfig:
    """Dimensionless description of a homogeneous slab in vacuum.

    The accepted domain 0 < half_width_A <= K0A_MAX = 1e6,
    1 < core_index_U0 <= U0_MAX = 4 is fixed by a digit budget: one ulp of
    the phase 2QA, which t, r, phi, T and dphi/dK all carry, is at most
    2^-29 rad.  As Q <= sqrt(2)*U0 on the radiation band, that holds while
    2*sqrt(2)*U0*A < 2^24.  U0_MAX = 4 admits glass, polymer and silicon
    (3.5) cores, and K0A_MAX is the decade below 2^24/(8*sqrt(2)) ~ 1.5e6,
    so the largest 2QA, 1.13e7, has an ulp of 1.9e-9 rad.  Inside the
    domain the mode-index bounds stay below 3.7e6, a slab has fewer than
    0.91e6 indices, and the kernel's values are finite.  Each bound is one
    test lo < value <= hi, which refuses NaN and inf too.

    Attributes:
        half_width_A: k0*a, half width of the core in units of 1/k0.
        core_index_U0: refractive index of the core; must exceed the vacuum's 1.
    """

    half_width_A: float
    core_index_U0: float

    def __post_init__(self):
        domain = f"the slab domain 0 < k0a <= {K0A_MAX:g}, 1 < U0 <= {U0_MAX:g}"
        if not 0 < self.half_width_A <= K0A_MAX:
            raise ValueError(f"half_width_A = {self.half_width_A} is outside {domain}")
        if not 1 < self.core_index_U0 <= U0_MAX:
            raise ValueError(f"core_index_U0 = {self.core_index_U0} is outside {domain}")


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
    if lib is cmath and K == 0:
        raise ValueError("K = 0 is a pole of the outgoing condition")
    try:
        Q, _, s, c, g = _kernel(K, cfg.half_width_A, cfg.core_index_U0, lib)
    except ZeroDivisionError:  # g divides by Q = 0
        return 0j, 1.0 - 1j * cfg.half_width_A * K
    return Q, c - 1j * g * s


def _kernel(K, A, U0, lib=np):
    """Q, theta = 2QA, s = sin theta, c = cos theta and g = (K/Q + Q/K)/2 at
    any K, with numpy (broadcasting over K and A) or cmath: the one evaluation
    that f, t, r, phi, T and dphi/dK share, each formed only where it is read."""
    Q = _interior_wavenumber(K, U0, lib)
    theta = 2.0 * Q * A
    return Q, theta, lib.sin(theta), lib.cos(theta), 0.5 * (K / Q + Q / K)


def _transmission(K, A, U0):
    """t = e^{-2iKA}/f, f = c - i*g*s; read only where the complex amplitude
    is (transfer_amplitudes, the wave packet)."""
    _, _, s, c, g = _kernel(K, A, U0)
    return np.exp(-2j * K * A) / (c - 1j * g * s)


def _phase_terms(K, A, U0):
    """theta = 2QA, s, c and d = g - 1 = (Q - K)^2/(2KQ) >= 0, the real terms
    of the phase and of T (d so written because g - 1 cancels for weak
    contrast)."""
    Q, theta, s, c, _ = _kernel(K, A, U0)
    return theta, s, c, (Q - K) ** 2 / (2.0 * K * Q)


def _phase(theta, s, c, d):
    """The continuous phase phi = -arg f - pi/2 = 2QA - pi/2 + arctan(d s c /
    (1 + d s^2)), from conj(f) = e^{2iQA}(1 + d s^2 + i d s c); 1 + d s^2 >= 1."""
    return theta - math.pi / 2.0 + np.arctan(d * s * c / (1.0 + d * s * s))


def _transmittance(s, d):
    """T = |t|^2 = 1/|f|^2 = 1/(1 + d(d+2) s^2), as |f|^2 = c^2 + g^2 s^2 =
    1 + (g^2 - 1) s^2 and g^2 - 1 = d(d + 2); real arithmetic, no t."""
    return 1.0 / (1.0 + d * (d + 2.0) * s * s)


def _reflection(K, A, U0, t):
    """r = t*(i/2)(Q/K - K/Q)*s from the transmitted t at the same K."""
    Q, _, s, _, _ = _kernel(K, A, U0)
    return t * 0.5j * (Q / K - K / Q) * s


def _phase_derivative(K, A, U0):
    """dphi/dK = (2A Q' g + g' c s)/|f|^2, Q' = U0*K/Q; |f|^2 = c^2 + g^2 s^2 >= 1."""
    Q, _, s, c, g = _kernel(K, A, U0)
    dQ = U0 * K / Q
    dg = 0.5 * (Q - K * dQ) * (1.0 / (Q * Q) - 1.0 / (K * K))
    return (2.0 * A * dQ * g + dg * c * s) / (c * c + g * g * s * s)
