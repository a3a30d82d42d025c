"""Leaky-mode eigenvalues of the slab.

Closed-form estimates seed a complex Newton iteration on the exact
quantization condition (vanishing denominator of the transmission
amplitude, equivalently the purely outgoing matching determinant):

    f(eps) = cos(2*Q*A) - i * (K^2 + Q^2)/(2*K*Q) * sin(2*Q*A)

whose zeros with K in the fourth quadrant are the leaky modes.  A winding
number counter over a rectangle in the eps plane provides an independent
root count.  Both evaluate f through the dispersion kernel of ``core``, and
each seed or refined Resonance takes Q and |f| from one kernel call at its K.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexEigenvalue,
    SlabConfig,
    Wavenumbers,
    _dispersion,
    eigenvalue_to_wavenumbers,
)
from .errors import ConvergenceError, RootJumpError

APPROXIMATE = "approximate"
REFINED = "refined"

# complex-plane step of the central difference in Newton's derivative
_DERIVATIVE_STEP = 1e-6
# Newton stops once |f| <= _NEWTON_TOL, or fails after _NEWTON_MAX_ITER steps
_NEWTON_TOL = 1e-12
_NEWTON_MAX_ITER = 100
# largest |f| a refined resonance may carry
_REFINED_RESIDUAL = 1e-10
# the counted box -0.999 < eps_R < -0.001, -0.15 < eps_I < 0.05, counterclockwise;
# it lies right of the branch point eps = -1
_COUNT_BOX = (-0.999 - 0.15j, -0.001 - 0.15j, -0.001 + 0.05j, -0.999 + 0.05j)
# initial samples per edge of the argument-principle count
_SAMPLES_PER_EDGE = 2048
# most mode indices of one slab (17 on the reference slab), and the least
# mode-index bound mode_index_range refuses
MAX_MODES = 10**6
_MAX_BOUND = 2.0**40


@dataclass(frozen=True)
class Resonance:
    """One leaky mode: index, eigenvalue, wavenumbers and solution quality."""

    mode_index_m: int
    eigenvalue: ComplexEigenvalue
    wavenumbers: Wavenumbers
    residual: float
    method: str

    def __post_init__(self):
        if self.method not in (APPROXIMATE, REFINED):
            raise ValueError(f"method must be approximate|refined, got {self.method}")
        if self.method == REFINED and self.residual > _REFINED_RESIDUAL:
            raise ValueError(
                f"refined resonance must have residual <= {_REFINED_RESIDUAL}, "
                f"got {self.residual}"
            )


def mode_index_range(cfg: SlabConfig) -> range:
    """Integers m with sqrt(2*U0*(U0-1)) < m*pi/(2*A) < sqrt(2)*U0.

    Returns an empty range when no integer fits (very thin slab).  Each
    bound on m takes at most five rounded operations on A and U0 besides
    math.pi's own rounding, so its relative error stays below 2^-50, and
    below _MAX_BOUND = 2^40 (~1.1e12) its absolute error below 2^-10 of an
    index.  Raises ValueError, before any seed is built, when a bound
    overflows or reaches _MAX_BOUND, or the range holds more than MAX_MODES
    indices.
    """
    A = cfg.half_width_A
    U0 = cfg.core_index_U0
    lo = math.sqrt(2.0 * U0 * (U0 - 1.0)) * 2.0 * A / math.pi
    hi = math.sqrt(2.0) * U0 * 2.0 * A / math.pi
    # lo <= hi unless 2*U0*(U0-1) overflows, and inf fails the test too
    if not (lo < _MAX_BOUND and hi < _MAX_BOUND):
        raise ValueError(
            f"the mode indices of k0a={A}, U0={U0} overflow or cannot be resolved: "
            f"the bounds sqrt(2*U0*(U0-1))*2A/pi and sqrt(2)*U0*2A/pi are {lo} "
            f"and {hi}, not both below 2**40"
        )
    indices = range(math.floor(lo) + 1, math.ceil(hi))  # strictly between lo and hi
    if len(indices) > MAX_MODES:
        raise ValueError(f"{len(indices)} mode indices is more than MAX_MODES = {MAX_MODES}")
    return indices


def _approximate_eigenvalue(m: int, cfg: SlabConfig) -> ComplexEigenvalue:
    A = cfg.half_width_A
    U0 = cfg.core_index_U0
    eps_R = (m * math.pi / (2.0 * A)) ** 2 / (2.0 * U0) - U0
    half_gamma = math.sqrt(2.0 * (eps_R + 1.0)) / (A * U0)
    return ComplexEigenvalue(eps_R=eps_R, half_width_Gamma=half_gamma)


def approximate_resonances(cfg: SlabConfig) -> list[Resonance]:
    """Closed-form eigenvalues for every admissible mode index.

    eps_R(m) = (1/(2*U0)) * (m*pi/(2*A))^2 - U0 and
    Gamma/2  = sqrt(2*(eps_R+1)) / (A*U0), in units of k0.
    """
    out = []
    for m in mode_index_range(cfg):
        eps = _approximate_eigenvalue(m, cfg)
        out.append(_resonance(m, eps, eigenvalue_to_wavenumbers(eps, cfg).K, cfg, APPROXIMATE))
    return out


def _resonance(m: int, eps: ComplexEigenvalue, K: complex, cfg: SlabConfig, method: str):
    """The Resonance at K, with Q and the residual |f| from one kernel call."""
    Q, f = _dispersion(K, cfg)
    return Resonance(m, eps, Wavenumbers(K=K, Q=Q), abs(f), method)


def siegert_residual(eps: ComplexEigenvalue, cfg: SlabConfig) -> complex:
    """f(eps) = cos(2QA) - i*(K^2+Q^2)/(2KQ)*sin(2QA); zero on leaky modes.

    On the real axis |f| >= 1, so real eigenvalues are never roots.
    At Q = 0 (eps = -U0) f takes its limit 1 - i*A*K; raises ValueError at
    the pole K = 0 (eps = -1).
    """
    return _dispersion(eigenvalue_to_wavenumbers(eps, cfg).K, cfg)[1]


def refine_resonance(seed: Resonance, cfg: SlabConfig) -> Resonance:
    """Newton-polish a seed to an exact root of the outgoing condition.

    The iteration runs in the exterior wavenumber K (analytic away from
    K = 0, unlike eps near the band edge); the derivative is a central
    difference with a small complex-plane step.  The refined eigenvalue must
    stay within 5*Gamma_seed of the seed, otherwise RootJumpError signals a
    collision with a neighbouring mode; a step below 1e-14 that leaves
    |f| > _REFINED_RESIDUAL is a stall.  The result keeps Newton's own K.
    """
    K = complex(seed.wavenumbers.K)
    h = _DERIVATIVE_STEP
    for _ in range(_NEWTON_MAX_ITER):
        val = _dispersion(K, cfg)[1]
        if abs(val) <= _NEWTON_TOL:
            break
        slope = (_dispersion(K + h, cfg)[1] - _dispersion(K - h, cfg)[1]) / (2 * h)
        if slope == 0:
            raise ConvergenceError(
                f"Newton's slope vanished at K={K} for seed m={seed.mode_index_m}"
            )
        step = val / slope
        K = K - step
        if abs(step) < 1e-14:
            val = _dispersion(K, cfg)[1]
            if abs(val) > _REFINED_RESIDUAL:
                raise ConvergenceError(
                    f"Newton stalled at |f|={abs(val):.3e} for seed m={seed.mode_index_m}"
                )
            break
    else:
        raise ConvergenceError(
            f"no convergence after {_NEWTON_MAX_ITER} iterations for seed m={seed.mode_index_m}"
        )
    if K.real < 0 or K.imag > 0:
        raise RootJumpError(
            f"iterate left the fourth quadrant for seed m={seed.mode_index_m}: K={K}"
        )
    eps = ComplexEigenvalue.from_complex(K * K / 2.0 - 1.0)
    trust = 5.0 * seed.eigenvalue.width_Gamma
    if abs(eps.value - seed.eigenvalue.value) > trust:
        raise RootJumpError(
            f"refined root moved {abs(eps.value - seed.eigenvalue.value):.3e} "
            f"from seed m={seed.mode_index_m}, beyond trust region {trust:.3e}"
        )
    return _resonance(seed.mode_index_m, eps, K, cfg, REFINED)


def refine_all(seeds: list[Resonance], cfg: SlabConfig) -> list[Resonance]:
    """Refine every seed; independent per mode."""
    return [refine_resonance(s, cfg) for s in seeds]


def _winding_on_segment(
    z0: complex, z1: complex, cfg: SlabConfig, n: int, depth: int = 0
) -> float:
    """Accumulated phase change of f along [z0, z1], adaptively refined."""
    if depth > 24:
        raise ConvergenceError(
            "winding-number refinement stalled; the contour probably passes "
            f"through a root near {z0}"
        )
    ts = np.linspace(0.0, 1.0, n + 1)
    zs = z0 + (z1 - z0) * ts
    # principal sqrt: the fourth-quadrant branch wherever Re(eps) > -1
    _, vals = _dispersion(np.sqrt(2.0 * (zs + 1.0)), cfg)
    dphi = np.angle(vals[1:] / vals[:-1])
    coarse = np.abs(dphi) > np.pi / 2
    return float(dphi[~coarse].sum()) + sum(
        _winding_on_segment(zs[i], zs[i + 1], cfg, 16, depth + 1)
        for i in np.flatnonzero(coarse)
    )


def count_leaky_modes(cfg: SlabConfig) -> int:
    """Argument-principle count of the leaky modes in the box
    -0.999 < eps_R < -0.001, -0.15 < eps_I < 0.05.

    The condition is analytic for Re(eps) > -1, so the winding number of
    f along the counterclockwise boundary counts the enclosed roots exactly.
    """
    total = 0.0
    for z0, z1 in zip(_COUNT_BOX, _COUNT_BOX[1:] + _COUNT_BOX[:1]):
        total += _winding_on_segment(z0, z1, cfg, _SAMPLES_PER_EDGE)
    return round(total / (2.0 * np.pi))
