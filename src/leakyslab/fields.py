"""Piecewise leaky-mode profiles and their axial propagation.

A mode is outgoing on both sides: A_I*e^{-iKx} for x < -A, B*e^{iQx} +
C*e^{-iQx} inside, D*e^{+iKx} for x > A.  With Im K < 0 the exterior grows
exponentially while e^{-i*eps*z} attenuates the whole profile axially, so
|E(x, z)|^2 = e^{-Gamma*z} |phi(x)|^2 exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import SlabConfig
from .resonances import REFINED, Resonance

_NORM_GRID = 4001


@dataclass(frozen=True)
class ModeField:
    """Leaky-mode profile phi(x) with its four piece amplitudes.

    coefficients = (A_I, B, C, D_III) for the pieces e^{-iKx} | e^{+iQx},
    e^{-iQx} | e^{+iKx}.  Normalized so that max |phi| over the core is 1.
    """

    resonance: Resonance
    slab: SlabConfig
    coefficients: tuple[complex, complex, complex, complex]

    def _piecewise(self, x, order: int) -> np.ndarray:
        """phi(x) for order 0, dphi/dx for order 1: every piece is a sum of
        terms a*e^{ikx}, and d/dx multiplies each term by ik."""
        x = np.asarray(x, dtype=float)
        A = self.slab.half_width_A
        K = self.resonance.wavenumbers.K
        Q = self.resonance.wavenumbers.Q
        a_i, b, c, d = self.coefficients
        out = np.empty(x.shape, dtype=complex)
        left = x < -A
        right = x > A
        mid = ~(left | right)
        for mask, terms in ((left, ((a_i, -K),)), (mid, ((b, Q), (c, -Q))), (right, ((d, K),))):
            xs = x[mask]
            out[mask] = sum(a * (1j * k) ** order * np.exp(1j * k * xs) for a, k in terms)
        return out

    def evaluate(self, x) -> np.ndarray:
        """phi(x) on an arbitrary set of points (units of 1/k0)."""
        return self._piecewise(x, 0)

    def log_derivative(self, x: float) -> complex:
        """beta(x) = -phi'(x)/phi(x); tends to -iK (x > A) and +iK (x < -A)."""
        return complex(-self._piecewise([x], 1)[0] / self.evaluate([x])[0])


@dataclass(frozen=True)
class FieldGrid:
    """Complex amplitudes E(x, z) on a rectangle, shape (len(x), len(z))."""

    x_grid: np.ndarray
    z_grid: np.ndarray
    amplitudes: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_grid, dtype=float)
        z = np.asarray(self.z_grid, dtype=float)
        a = np.asarray(self.amplitudes)
        object.__setattr__(self, "x_grid", x)
        object.__setattr__(self, "z_grid", z)
        object.__setattr__(self, "amplitudes", a)
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(z))):
            raise ValueError("grids must be finite")
        if not np.all(np.isfinite(a)):
            raise ValueError("amplitudes must be finite")
        if np.any(np.diff(x) <= 0) or np.any(np.diff(z) < 0):
            raise ValueError("grids must be increasing")
        if a.shape != (len(x), len(z)):
            raise ValueError(
                f"amplitudes shape {a.shape} does not match grids ({len(x)}, {len(z)})"
            )


def mode_profile(res: Resonance, cfg: SlabConfig) -> ModeField:
    """Solve the outgoing four-amplitude matching for a refined eigenvalue.

    Construction: set D_III = 1, obtain B, C from the right interface and
    A_I from left-interface continuity; the leftover derivative mismatch at
    x = -A is the matching residual and vanishes with the quantization
    condition.  Raises ValueError for an unrefined seed or a failed matching.
    """
    if res.method != REFINED:
        raise ValueError("mode_profile requires a refined resonance")
    A = cfg.half_width_A
    K = res.wavenumbers.K
    Q = res.wavenumbers.Q
    d = 1.0 + 0.0j
    b = 0.5 * d * np.exp(1j * K * A) * (1.0 + K / Q) * np.exp(-1j * Q * A)
    c = 0.5 * d * np.exp(1j * K * A) * (1.0 - K / Q) * np.exp(1j * Q * A)
    a_i = (b * np.exp(-1j * Q * A) + c * np.exp(1j * Q * A)) * np.exp(-1j * K * A)

    # leftover matching condition: interior derivative vs outgoing -iK*A_I at -A
    lhs = 1j * Q * (b * np.exp(-1j * Q * A) - c * np.exp(1j * Q * A))
    rhs = -1j * K * a_i * np.exp(1j * K * A)
    rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs))
    if rel > 1e-8:
        raise ValueError(f"derivative matching failed at x=-A: relative jump {rel:.3e}")

    field = ModeField(
        resonance=res, slab=cfg, coefficients=(complex(a_i), complex(b), complex(c), complex(d))
    )
    xs = np.linspace(-A, A, _NORM_GRID)
    scale = np.max(np.abs(field.evaluate(xs)))
    coeffs = tuple(z / scale for z in field.coefficients)
    return ModeField(resonance=res, slab=cfg, coefficients=coeffs)


def propagate_mode(field: ModeField, x_grid, z_grid) -> FieldGrid:
    """E(x, z) = phi(x) * e^{-i*eps*z}; complex eps attenuates axially."""
    x = np.asarray(x_grid, dtype=float)
    z = np.asarray(z_grid, dtype=float)
    if np.any(z < 0):
        raise ValueError("z_grid must be >= 0 (forward propagation)")
    eps = field.resonance.eigenvalue.value
    # FieldGrid refuses a field that overflows, so numpy need not warn of it
    with np.errstate(over="ignore", invalid="ignore"):
        amplitudes = field.evaluate(x)[:, None] * np.exp(-1j * eps * z)[None, :]
    return FieldGrid(x_grid=x, z_grid=z, amplitudes=amplitudes)


def default_render_grids(cfg: SlabConfig) -> tuple[np.ndarray, np.ndarray]:
    """Grids resolving the interior half-waves of every admissible mode."""
    A = cfg.half_width_A
    return np.linspace(-2 * A, 2 * A, 801), np.linspace(0.0, 200.0, 401)
