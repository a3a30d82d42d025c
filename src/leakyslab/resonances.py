"""Leaky-mode eigenvalues of the slab.

Closed-form estimates seed a complex Newton iteration on the exact
quantization condition (vanishing denominator of the transmission
amplitude, equivalently the purely outgoing matching determinant):

    f(eps) = cos(2*Q*A) - i * (K^2 + Q^2)/(2*K*Q) * sin(2*Q*A)

whose zeros with K in the fourth quadrant are the leaky modes.  As
g +- 1 = (Q +- K)^2/(2KQ), f = 0 is e^{4iQA} = ((Q + K)/(Q - K))^2, whose
logarithm F_m(K) = 2AQ + i*Log((Q + K)/(Q - K)) - m*pi = 0 is one equation
per mode index m; Newton solves the seed's own.  A root K = -i*kappa is
anti-bound, not leaky: refine_all leaves its index out, so a refined
spectrum can lack its lowest indices (mode-field, propagate and decay --m
exit 3 on them).  A winding number count over a rectangle in the eps plane
checks the roots independently; both evaluate f through ``core``'s kernel.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    ComplexEigenvalue,
    LeakySlabError,
    SlabConfig,
    Wavenumbers,
    _dispersion,
    _interior_wavenumber,
    eigenvalue_to_wavenumbers,
)

APPROXIMATE = "approximate"
REFINED = "refined"

# Newton fails after _NEWTON_MAX_ITER steps without a stop (see refine_resonance)
_NEWTON_MAX_ITER = 100
# a root with |Re K| <= _ANTI_BOUND*|K| lies on the imaginary axis
_ANTI_BOUND = 1e-8
# largest |f| a refined resonance may carry
_REFINED_RESIDUAL = 1e-10
# the counted box -0.999 < eps_R < -0.001, -0.15 < eps_I < 0.05, counterclockwise;
# it lies right of the branch point eps = -1
_COUNT_BOX = (-0.999 - 0.15j, -0.001 - 0.15j, -0.001 + 0.05j, -0.999 + 0.05j)
# samples per edge of the argument-principle count's one walk of the box;
# steps where arg f or 2A*Q turns by more than pi/2 are refined (see count_leaky_modes)
_SAMPLES_PER_EDGE = 256


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
    math.pi's own rounding, so its relative error stays below 2^-50; on
    SlabConfig's domain the bounds stay below 3.7e6, so their absolute
    error is below 2^-28 of an index, and the range holds fewer than
    0.91e6 indices.
    """
    A = cfg.half_width_A
    U0 = cfg.core_index_U0
    lo = math.sqrt(2.0 * U0 * (U0 - 1.0)) * 2.0 * A / math.pi
    hi = math.sqrt(2.0) * U0 * 2.0 * A / math.pi
    return range(math.floor(lo) + 1, math.ceil(hi))  # strictly between lo and hi


def approximate_resonance(m: int, cfg: SlabConfig) -> Resonance:
    """Closed-form eigenvalue of mode index m; raises ValueError for an m
    outside mode_index_range.

    eps_R(m) = (1/(2*U0)) * (m*pi/(2*A))^2 - U0 and
    Gamma/2  = sqrt(2*(eps_R+1)) / (A*U0), in units of k0.
    """
    indices = mode_index_range(cfg)
    if m not in indices:
        allowed = f"[{indices[0]}, {indices[-1]}]" if indices else "none"
        raise ValueError(f"mode index m={m} is not admissible for this slab (allowed: {allowed})")
    A = cfg.half_width_A
    U0 = cfg.core_index_U0
    eps_R = (m * math.pi / (2.0 * A)) ** 2 / (2.0 * U0) - U0
    half_gamma = math.sqrt(2.0 * (eps_R + 1.0)) / (A * U0)
    eps = ComplexEigenvalue(eps_R=eps_R, half_width_Gamma=half_gamma)
    wavenumbers = eigenvalue_to_wavenumbers(eps, cfg)
    return Resonance(m, eps, wavenumbers, abs(_dispersion(wavenumbers.K, cfg)[1]), APPROXIMATE)


def approximate_resonances(cfg: SlabConfig) -> list[Resonance]:
    """approximate_resonance for every admissible mode index."""
    return [approximate_resonance(m, cfg) for m in mode_index_range(cfg)]


def siegert_residual(eps: ComplexEigenvalue, cfg: SlabConfig) -> complex:
    """f(eps) = cos(2QA) - i*(K^2+Q^2)/(2KQ)*sin(2QA); zero on leaky modes.

    On the real axis |f| >= 1, so real eigenvalues are never roots.
    At Q = 0 (eps = -U0) f takes its limit 1 - i*A*K; raises ValueError at
    the pole K = 0 (eps = -1).
    """
    return _dispersion(eigenvalue_to_wavenumbers(eps, cfg).K, cfg)[1]


def refine_resonance(seed: Resonance, cfg: SlabConfig) -> Resonance:
    """Newton-solve the seed's F_m(K) = 0 (see the module docstring).

    The slope is analytic: F_m' = 2AQ' + i*[(Q' + 1)/(Q + K) - (Q' - 1)/(Q - K)],
    Q' = U0*K/Q.  At the rounding floor (a step below 4 ulp of |K|, or below
    1e-10*|K| and not half the last) one kernel call certifies K by |f|; where
    f's rounding, ~ulp(2QA)*|g|, fails the bound, Newton steps on
    f/sqrt(g^2 - 1), F_m to first order, while it is within 16 ulp of 2AQ.
    A certified root with |Re K| <= _ANTI_BOUND*|K| and Im K < 0 is
    anti-bound: LeakySlabError names the index.  So does any other failure:
    a stall, _NEWTON_MAX_ITER steps, or a root outside the fourth quadrant.
    """
    if (res := _refine(seed, cfg)) is None:
        raise LeakySlabError(f"mode index m={seed.mode_index_m} is anti-bound, no leaky mode")
    return res


def refine_all(seeds: list[Resonance], cfg: SlabConfig) -> list[Resonance]:
    """Refine every seed, independent per mode; an anti-bound index is left out."""
    return [res for res in (_refine(seed, cfg) for seed in seeds) if res is not None]


def _refine(seed: Resonance, cfg: SlabConfig) -> Resonance | None:
    """refine_resonance, with None for an anti-bound root."""
    A, U0, m = cfg.half_width_A, cfg.core_index_U0, seed.mode_index_m
    K, last, f = complex(seed.wavenumbers.K), math.inf, None
    for _ in range(_NEWTON_MAX_ITER):
        Q = _interior_wavenumber(K, U0, cmath)
        dQ = U0 * K / Q
        F = 2.0 * A * Q + 1j * cmath.log((Q + K) / (Q - K)) - m * math.pi
        if f is not None:  # f/sqrt(g^2 - 1), F_m to first order, unless off F_m's floor
            F = 1j * (-1) ** m * 2.0 * K * Q * f / (Q * Q - K * K)
            if abs(F) > 16.0 * math.ulp(2.0 * A * abs(Q)):
                break
        step = F / (2.0 * A * dQ + 1j * ((dQ + 1.0) / (Q + K) - (dQ - 1.0) / (Q - K)))
        K -= step
        floor = abs(step) <= 4.0 * math.ulp(abs(K)) or last / 2.0 <= abs(step) < 1e-10 * abs(K)
        if f is not None or floor:
            Q, f = _dispersion(K, cfg)
            if abs(f) <= _REFINED_RESIDUAL:
                break
        last = abs(step)
    if f is None:
        raise LeakySlabError(f"no convergence after {_NEWTON_MAX_ITER} iterations for seed m={m}")
    if abs(f) > _REFINED_RESIDUAL:
        raise LeakySlabError(f"Newton stalled at |f|={abs(f):.3e} for seed m={m}")
    if abs(K.real) <= _ANTI_BOUND * abs(K) and K.imag < 0:
        return None
    if K.real < 0 or K.imag > 0:
        raise LeakySlabError(f"iterate left the fourth quadrant for seed m={m}: K={K}")
    eps = ComplexEigenvalue.from_complex(K * K / 2.0 - 1.0)
    return Resonance(m, eps, Wavenumbers(K=K, Q=Q), abs(f), REFINED)


def _winding(zs: np.ndarray, cfg: SlabConfig, depth: int = 0) -> float:
    """Phase change of f along the polyline zs, from one kernel call; each
    step turning f by more than pi/2, or whose 2A|dQ| exceeds pi/2, is
    walked again in 16 sub-steps."""
    if depth > 24:
        raise LeakySlabError(
            "winding-number refinement stalled; the contour probably passes "
            f"through a root near {zs[0]}"
        )
    # principal sqrt: the fourth-quadrant branch wherever Re(eps) > -1
    with np.errstate(over="ignore", invalid="ignore"):
        Q, vals = _dispersion(np.sqrt(2.0 * (zs + 1.0)), cfg)
    if not np.all(np.isfinite(vals)):
        bad = zs[np.flatnonzero(~np.isfinite(vals))[0]]
        raise LeakySlabError(f"the outgoing condition overflows on the counted box at eps = {bad}")
    dphi = np.angle(vals[1:] / vals[:-1])
    # e^{-+2iQA} turns f by up to 2A|dQ| in one step, and np.angle reads a
    # turn of 2*pi*k + delta as delta
    coarse = (np.abs(dphi) > np.pi / 2) | (
        2.0 * cfg.half_width_A * np.abs(np.diff(Q)) > np.pi / 2
    )
    return float(dphi[~coarse].sum()) + sum(
        _winding(zs[i] + (zs[i + 1] - zs[i]) * np.linspace(0.0, 1.0, 17), cfg, depth + 1)
        for i in np.flatnonzero(coarse)
    )


def count_leaky_modes(cfg: SlabConfig) -> int:
    """Argument-principle count of the leaky modes in the box
    -0.999 < eps_R < -0.001, -0.15 < eps_I < 0.05.

    The condition is analytic for Re(eps) > -1, so the winding number of
    f along the counterclockwise boundary counts the enclosed roots exactly.
    One walk samples the closed boundary at 256 points per edge in one
    kernel call, and walks each step again in 16 sub-steps, recursively,
    where arg f turns by more than pi/2 or 2A|dQ| exceeds pi/2 (so that no
    whole turn of e^{-+2iQA} goes unseen).  On 4282 slabs of the declared
    envelope (a 3000-slab census, 1280 benchmark slabs, the reference slab
    and one whose seeds miss a root) this gives the same count as 2048
    samples per edge, and on 150 wide slabs (k0a log-uniform in [60, 1000],
    U0 uniform in [1.05, 4]) the same count as 65536 samples per edge.  Where f
    overflows on the boundary (from k0a ~ 1060 at U0 = 1.05 to ~ 2900 at
    U0 = 4) the count raises LeakySlabError.
    """
    # the closed boundary through its five corners, in 4 * _SAMPLES_PER_EDGE steps
    edges = np.linspace(0.0, 4.0, 4 * _SAMPLES_PER_EDGE + 1)
    zs = np.interp(edges, range(5), _COUNT_BOX + _COUNT_BOX[:1])
    return round(_winding(zs, cfg) / (2.0 * np.pi))
