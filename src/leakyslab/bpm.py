"""Finite-difference paraxial propagator with a transparent boundary.

Marches i dE/dz = (H + n0) E with the library's own eigenvalue operator

    H = -(1/(2 n(x))) d^2/dx^2 - n(x),

whose eigenvalues satisfy K**2/2 = eps + 1 outside and Q**2 = 2*U0*(eps + U0)
inside the core, with E and dE/dx continuous (see ``core``).  The reference
index n0 is the largest index on the grid; it only adds the global phase
exp(-i n0 z).  With N = diag(n) the matrix S = N (H + n0) is symmetric
tridiagonal, and the n-weighted Crank-Nicolson step
(N + i dz/2 S) E' = (N - i dz/2 S) E is unconditionally stable.  Each edge
carries Hadley's transparent boundary condition (Opt. Lett. 16, 624, 1991):
outside the core a leaky field is one outgoing
exponential, so the node beyond the grid is taken as eta * (edge node), with
the ratio eta = E_edge / E_inner read from the current column.  eta is
clamped to an outgoing or evanescent wave (Im eta >= 0), which makes every
step a contraction in sum n|E|^2 dx; a field that stays clear of both edges
keeps its norm.  The boundary only touches the two corners of the matrix,
so the Dirichlet matrix A = N + i dz/2 S is LU-factored once (LAPACK
zgttrf) and each step is one factored solve (zgttrs) plus a rank-2
Sherman-Morrison-Woodbury update for the two corners, a 2 x 2 solve
against the precomputed columns A^{-1} e_0 and A^{-1} e_{-1}.  Used as an
initial-value cross-check on the modal decay rates: a leaky mode's core
power falls as exp(-Gamma z).

scipy is imported when the first Propagator is built, not with this module,
so ``import leakyslab`` does not load ``scipy.linalg``.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import SlabConfig
from .errors import NonExponentialDecayError, UnstableStepError
from .fields import ModeField

# tapered_mode_column's window edges, in units of the core half width
_TAPER_INNER = 2.0
_TAPER_OUTER = 3.0


@dataclass(frozen=True)
class BpmConfig:
    """The slab a propagation cross-checks, and the grid it is marched on.

    The transverse domain is [-X, X] with nx points and X >= 4A, so both
    edges lie in the uniform cladding, as the transparent boundary needs.
    The slab's half width A also bounds the power-monitor window.
    """

    slab: SlabConfig
    transverse_halfwidth_X: float
    nx: int
    dz: float

    def __post_init__(self):
        if self.dz <= 0:
            raise ValueError(f"dz must be > 0, got {self.dz}")
        if not isinstance(self.nx, (int, np.integer)):
            raise ValueError(f"nx must be an integer, got {self.nx!r}")
        if self.nx < 513:
            raise ValueError(f"nx must be >= 513, got {self.nx}")
        if self.transverse_halfwidth_X < 4.0 * self.slab.half_width_A:
            raise ValueError("transverse_halfwidth_X must be at least 4x the core half width")
        for name in ("transverse_halfwidth_X", "dz"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def for_slab(
        cls,
        slab: SlabConfig,
        transverse_halfwidth_X: float | None = None,
        nx: int = 2049,
        dz: float = 0.05,
    ) -> "BpmConfig":
        """Defaults: X = 4A, nx = 2049, dz = 0.05."""
        X = 4.0 * slab.half_width_A if transverse_halfwidth_X is None else transverse_halfwidth_X
        return cls(slab, X, nx, dz)


def _ghost_ratio(edge: complex, inner: complex) -> complex:
    """Hadley's ratio eta = E_edge / E_inner; the node beyond the edge is eta * E_edge.

    An incoming wave (Im eta < 0) is replaced by |eta|; a zero or non-finite
    ratio by 0, a Dirichlet edge.
    """
    if inner == 0:
        return 0j
    eta = complex(edge) / complex(inner)
    if eta.imag < 0:
        eta = complex(abs(eta))
    return eta if cmath.isfinite(eta) else 0j


def _window(x: np.ndarray, half: float) -> slice:
    """The contiguous slice of the increasing grid x where |x| <= half."""
    return slice(int(np.searchsorted(x, -half, "left")), int(np.searchsorted(x, half, "right")))


class Propagator:
    """Crank-Nicolson stepper for one BpmConfig.

    Each node carries the mean index of its cell [x - dx/2, x + dx/2]: a
    cell holding a fraction f of core has mean n = 1 + f (U0 - 1) and mean
    n^2 = 1 + f (U0^2 - 1), which makes the operator second order in dx at
    the slab edges (Hadley, J. Lightwave Technol. 20, 1210, 2002).  N is
    diag(mean n) and the potential term of S takes the mean n^2.
    Building the first Propagator imports scipy's LAPACK wrappers.
    ``core`` (|x| <= A) is a contiguous slice of the grid.
    """

    def __init__(self, cfg: BpmConfig):
        from scipy.linalg.lapack import zgttrf, zgttrs

        self.cfg = cfg
        X = cfg.transverse_halfwidth_X
        self.x = np.linspace(-X, X, cfg.nx)
        self.dx = self.x[1] - self.x[0]
        a, u0 = cfg.slab.half_width_A, cfg.slab.core_index_U0
        # core length of each cell: its part left of +A minus its part left of -A
        f = np.clip((a - self.x) / self.dx + 0.5, 0.0, 1.0) - np.clip(
            (-a - self.x) / self.dx + 0.5, 0.0, 1.0
        )
        self.n = n = 1.0 + f * (u0 - 1.0)
        self.n0 = n0 = float(np.max(n))
        # S = N (H + n0) on Dirichlet edges: real symmetric tridiagonal
        self._s_main = 1.0 / (self.dx * self.dx) - (1.0 + f * (u0 * u0 - 1.0)) + n0 * n
        self._s_off = -0.5 / (self.dx * self.dx) * np.ones(cfg.nx - 1)
        theta = 0.5j * cfg.dz
        off = theta * self._s_off
        self._rhs = (-off, n - theta * self._s_main)
        # i dz/2 times the ghost node's coupling -1/(2 dx^2), times eta at each edge
        self._corner = theta * self._s_off[0]
        *lu, info = zgttrf(off, n + theta * self._s_main, off)
        if info:
            raise ValueError(f"Crank-Nicolson matrix is singular (zgttrf info={info})")
        self._lu = lu
        self._gttrs = zgttrs
        # G = A^{-1} [e_0, e_-1]; each column underflows to exact zeros away
        # from its edge, so the corner update only touches its nonzero reach
        ends = np.zeros((cfg.nx, 2), dtype=complex)
        ends[0, 0] = ends[-1, 1] = 1.0
        g, _ = zgttrs(*lu, ends)
        self._lo_reach = slice(0, int(np.flatnonzero(g[:, 0])[-1]) + 1)
        self._hi_reach = slice(int(np.flatnonzero(g[:, 1])[0]), cfg.nx)
        self._g_lo = g[self._lo_reach, 0].copy()
        self._g_hi = g[self._hi_reach, 1].copy()
        self._g_corners = tuple(complex(v) for v in (g[0, 0], g[0, 1], g[-1, 0], g[-1, 1]))
        self.core = _window(self.x, a)

    def norm(self, column: np.ndarray, where: slice = slice(None)) -> float:
        """Weighted power sum n|E|^2 dx (the step's invariant), optionally over a slice."""
        c = column[where]
        return float(np.vdot(c, self.n[where] * c).real * self.dx)

    def march(self, column: np.ndarray, nsteps: int) -> Iterator[np.ndarray]:
        """Yield the column after each of nsteps dz steps.

        With Im eta >= 0 no step can raise the norm of a finite column; a
        whole-grid norm that grows by more than 1% in one step, or is not
        finite, aborts with UnstableStepError.  The march continues from the
        yielded arrays: do not modify them.
        """
        column = np.asarray(column, dtype=complex)
        if column.shape != self.x.shape:
            raise ValueError(f"column length {column.shape} does not match nx={self.cfg.nx}")
        off_r, main_r = self._rhs
        g00, g01, g10, g11 = self._g_corners
        before = self.norm(column)
        for _ in range(nsteps):
            lo = self._corner * _ghost_ratio(column[0], column[1])
            hi = self._corner * _ghost_ratio(column[-1], column[-2])
            rhs = main_r * column
            rhs[:-1] += off_r * column[1:]
            rhs[1:] += off_r * column[:-1]
            rhs[0] -= lo * column[0]
            rhs[-1] -= hi * column[-1]
            out, _ = self._gttrs(*self._lu, rhs, overwrite_b=1)
            # (A + lo e_0 e_0^T + hi e_-1 e_-1^T)^{-1} by Sherman-Morrison-Woodbury:
            # out -= G M^{-1} diag(lo, hi) [out_0, out_-1], M = I + diag(lo, hi) G_corners
            m00, m01, m10, m11 = 1.0 + lo * g00, lo * g01, hi * g10, 1.0 + hi * g11
            det = m00 * m11 - m01 * m10
            if det == 0:
                raise ValueError("Crank-Nicolson matrix is singular (corner update)")
            r0, r1 = lo * complex(out[0]), hi * complex(out[-1])
            out[self._lo_reach] -= (m11 * r0 - m01 * r1) / det * self._g_lo
            out[self._hi_reach] -= (m00 * r1 - m10 * r0) / det * self._g_hi
            after = self.norm(out)
            if not after <= 1.01 * before:
                raise UnstableStepError(f"norm went from {before:.6g} to {after:.6g} in one step")
            yield out
            column, before = out, after

    def step(self, column: np.ndarray) -> np.ndarray:
        """One dz step of march."""
        return next(self.march(column, 1))

    def core_power(self, column: np.ndarray) -> float:
        """Weighted power sum n|E|^2 dx over the core |x| <= A."""
        return self.norm(column, self.core)

    def guided_basis(self) -> np.ndarray:
        """Discrete guided modes, orthonormal in the n-weighted product.

        The trapped band eps in [-n0, -1) of H, that is [0, n0 - 1) of
        H + n0, is solved through the symmetric similarity transform
        N^{-1/2} S N^{-1/2}; the returned columns v satisfy
        v_i^T N v_j = delta_ij.
        """
        from scipy.linalg import eigh_tridiagonal

        root_n = np.sqrt(self.n)
        _, vecs = eigh_tridiagonal(
            self._s_main / self.n,
            self._s_off / (root_n[:-1] * root_n[1:]),
            select="v",
            select_range=(0.0, (self.n0 - 1.0) - 1e-9),
        )
        return vecs / root_n[:, None]

    def remove_guided(self, column: np.ndarray) -> np.ndarray:
        """Project the non-decaying guided admixture out of a column.

        Leaky initial conditions always carry a small trapped component that
        never attenuates; left in place it floors the core power and spoils
        long decay fits.  The projection uses the n-weighted inner product
        in which the guided modes are orthonormal.
        """
        column = np.asarray(column, dtype=complex)
        basis = self.guided_basis()
        return column - basis @ (basis.T @ (self.n * column))


def tapered_mode_column(mode: ModeField, cfg: BpmConfig) -> np.ndarray:
    """Sample a leaky-mode profile, windowed to suppress the unbounded tail.

    Unity up to 2A, smooth cosine-squared roll-off, zero beyond 3A; peak
    amplitude normalized to 1.
    """
    x = np.linspace(-cfg.transverse_halfwidth_X, cfg.transverse_halfwidth_X, cfg.nx)
    a = cfg.slab.half_width_A
    column = mode.evaluate(x)
    r = (np.abs(x) - _TAPER_INNER * a) / ((_TAPER_OUTER - _TAPER_INNER) * a)
    window = np.where(r <= 0, 1.0, np.where(r >= 1, 0.0, np.cos(0.5 * np.pi * np.clip(r, 0, 1)) ** 2))
    column = column * window
    return column / np.max(np.abs(column))


def measure_decay(cfg: BpmConfig, init: np.ndarray, z_max: float) -> float:
    """Propagate to z_max, guided admixture removed, and fit the core-power decay rate.

    log P(z) is fit by least squares over [0.2*z_max, 0.8*z_max] (the early
    window skips the start-up transient).  Raises ValueError when init has no
    power outside the guided modes, and NonExponentialDecayError when the fit
    explains less than R^2 = 0.99 of a decaying record.
    """
    if not math.isfinite(z_max):
        raise ValueError(f"z_max must be finite, got {z_max}")
    prop = Propagator(cfg)
    column = prop.remove_guided(init)
    if prop.norm(column) == 0:
        raise ValueError("init has no power outside the guided modes")
    nsteps = int(round(z_max / cfg.dz))
    if nsteps < 10:
        raise ValueError("z_max spans fewer than 10 steps")
    power = np.empty(nsteps + 1)
    power[0] = prop.core_power(column)
    for i, column in enumerate(prop.march(column, nsteps), 1):
        power[i] = prop.core_power(column)
    z = np.arange(nsteps + 1) * cfg.dz
    window = (z >= 0.2 * z_max) & (z <= 0.8 * z_max)
    logp = np.log(power[window])
    slope, intercept = np.polyfit(z[window], logp, 1)
    rate = -slope
    # a record that never decays appreciably has no exponential to validate
    span = logp.max() - logp.min()
    if span > 1e-3:
        resid = logp - (slope * z[window] + intercept)
        r2 = 1.0 - np.sum(resid**2) / np.sum((logp - logp.mean()) ** 2)
        if r2 < 0.99:
            raise NonExponentialDecayError(
                f"decay not single-exponential over the fit window (R^2={r2:.4f})",
                rate=rate,
                r_squared=float(r2),
            )
    return float(rate)
