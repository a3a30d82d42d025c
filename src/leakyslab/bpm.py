"""Finite-difference paraxial propagator with a transparent boundary.

Marches i dE/dz = (H + n0) E with the library's own eigenvalue operator

    H = -(1/(2 n(x))) d^2/dx^2 - n(x),

whose eigenvalues satisfy K**2/2 = eps + 1 outside and Q**2 = 2*U0*(eps + U0)
inside the core, with E and dE/dx continuous (see ``core``).  The reference
index n0 = 1 is the cladding index.  It adds the global phase exp(-i n0 z).
With N = diag(n) the matrix S = N (H + n0) is symmetric tridiagonal, and a
step multiplies the field by the Pade (2,2) factor

    R(w) = (1 + w/2 + w^2/12)/(1 - w/2 + w^2/12),   w = -i dz N^{-1} S,

whose error is O(dz^5) per step.  After Hadley's multistep method (Opt.
Lett. 17, 1743, 1992) it is applied as two substeps
(N + a_k dz S) E' = (N + b_k dz S) E, with a_k = i/(3 +- i sqrt3) and
b_k = i/(-3 +- i sqrt3); each is unitary on a real spectrum, so the step is
unconditionally stable.  An eigenstate of H with eigenvalue eps is
multiplied by R(-i dz mu), mu = eps + n0.  With n0 = 1, mu = K^2/2, whose
real part lies in (0, 1) over the whole radiation band; n0 = U0 would add
U0 - 1 to it.  Each substep carries Hadley's transparent boundary
condition (Opt. Lett. 16, 624, 1991) at both edges: outside the core a
leaky field is one outgoing exponential, so the node beyond the grid is
taken as eta * (edge node), with the ratio eta = E_edge / E_inner read from
the substep's input column.  eta is clamped to an outgoing or evanescent
wave (Im eta >= 0), which makes every substep a contraction in
sum n|E|^2 dx; a field that stays clear of both edges keeps its norm.  The
boundary only touches the two corners of the matrix, so each substep's
Dirichlet matrix N + a_k dz S is LU-factored once (LAPACK zgttrf) and each
substep is one factored solve (zgttrs) plus a rank-2
Sherman-Morrison-Woodbury update for the two corners.  Used as an
initial-value cross-check on the modal decay rates: a leaky mode's core
power falls as exp(-Gamma z), and measure_decay fits that rate to a column
marched as given, up to the last sample its fit window reads.

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

# the most dz steps one march to z_max may take; the longest march in the
# tests and the README, to z = 400 of z_max = 500 at dz = 0.8, takes 500
MAX_STEPS = 1_000_000

# (a_k, b_k) of the two substeps: i over the roots 3 +- i sqrt3 and -3 +- i sqrt3
# of the Pade (2,2) factor's denominator and numerator, paired so that
# b_k = conj(a_k) and each substep is unitary on a real spectrum
_PADE_22 = tuple(
    (1j / (3 + s * 1j * math.sqrt(3)), 1j / (-3 + s * 1j * math.sqrt(3))) for s in (1, -1)
)


@dataclass(frozen=True)
class BpmConfig:
    """The slab a propagation cross-checks, and the grid it is marched on.

    The transverse domain is [-X, X], X = 4A, with nx points, so both edges
    lie in the uniform cladding, as the transparent boundary needs.  The
    slab's half width A also bounds the power-monitor window.
    """

    slab: SlabConfig
    nx: int
    dz: float

    def __post_init__(self):
        if not (0 < self.dz < math.inf):
            raise ValueError(f"dz must be finite and > 0, got {self.dz}")
        if not isinstance(self.nx, (int, np.integer)):
            raise ValueError(f"nx must be an integer, got {self.nx!r}")
        if self.nx < 513:
            raise ValueError(f"nx must be >= 513, got {self.nx}")

    @property
    def transverse_halfwidth_X(self) -> float:
        """The domain half width X = 4A."""
        return 4.0 * self.slab.half_width_A

    @classmethod
    def for_slab(cls, slab: SlabConfig, nx: int = 4097, dz: float = 0.8) -> "BpmConfig":
        """Defaults: nx = 4097, dz = 0.8.

        With the step referenced to the cladding index and a Pade (2,2)
        step, a long step costs little accuracy, so the work goes into dx.
        On the k0a = 30, U0 = 1.5 slab the decay rates of m = 24/32/40 at
        z_max = 110 lie 0.40/0.19/0.47 % below the refined widths; over
        the 17 modes the median is 0.14 % and the largest 0.47 %.  The
        step's share grows with (dz |mu|)^4, so the top of the band pays
        most for the long step, and m = 24 is dx-bound.  In the uniform
        core a w0 = 5 Gaussian marched 100 steps is off its width law by
        4.9e-4, half of the 1e-3 that acceptance criterion 11 allows.
        """
        return cls(slab, nx, dz)


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


class _Substep:
    """One substep (N + a dz S) E' = (N + b dz S) E, its boundary read from E;
    the corner update is a 2 x 2 solve against A^{-1} e_0 and A^{-1} e_{-1},
    A = N + a dz S on Dirichlet edges."""

    def __init__(self, n, dz_s_main, dz_s_off, a, b):
        from scipy.linalg.lapack import zgttrf, zgttrs

        off = a * dz_s_off
        self._rhs = (b * dz_s_off, n + b * dz_s_main)
        # a dz and b dz times the ghost node's coupling -1/(2 dx^2), times eta at each edge
        self._corner, self._rhs_corner = a * dz_s_off[0], b * dz_s_off[0]
        *lu, info = zgttrf(off, n + a * dz_s_main, off)
        if info:
            raise ValueError(f"BPM substep matrix is singular (zgttrf info={info})")
        self._lu = lu
        self._gttrs = zgttrs
        # G = A^{-1} [e_0, e_-1]; each column falls off geometrically away
        # from its edge, and the corner update only touches its reach: the
        # entries above eps^2 of its edge value (a few hundred nodes on the
        # default grid)
        ends = np.zeros((len(n), 2), dtype=complex)
        ends[0, 0] = ends[-1, 1] = 1.0
        g, _ = zgttrs(*lu, ends)
        mag, tiny = np.abs(g), np.finfo(float).eps ** 2
        self._lo_reach = slice(0, int(np.flatnonzero(mag[:, 0] > tiny * mag[0, 0])[-1]) + 1)
        self._hi_reach = slice(int(np.flatnonzero(mag[:, 1] > tiny * mag[-1, 1])[0]), len(n))
        self._g_lo = g[self._lo_reach, 0].copy()
        self._g_hi = g[self._hi_reach, 1].copy()
        self._g_corners = tuple(complex(v) for v in (g[0, 0], g[0, 1], g[-1, 0], g[-1, 1]))

    def __call__(self, column: np.ndarray) -> np.ndarray:
        off_r, main_r = self._rhs
        g00, g01, g10, g11 = self._g_corners
        eta_lo = _ghost_ratio(column[0], column[1])
        eta_hi = _ghost_ratio(column[-1], column[-2])
        rhs = main_r * column
        rhs[:-1] += off_r * column[1:]
        rhs[1:] += off_r * column[:-1]
        rhs[0] += self._rhs_corner * eta_lo * column[0]
        rhs[-1] += self._rhs_corner * eta_hi * column[-1]
        out, _ = self._gttrs(*self._lu, rhs, overwrite_b=1)
        # (A + lo e_0 e_0^T + hi e_-1 e_-1^T)^{-1} by Sherman-Morrison-Woodbury:
        # out -= G M^{-1} diag(lo, hi) [out_0, out_-1], M = I + diag(lo, hi) G_corners
        lo, hi = self._corner * eta_lo, self._corner * eta_hi
        m00, m01, m10, m11 = 1.0 + lo * g00, lo * g01, hi * g10, 1.0 + hi * g11
        det = m00 * m11 - m01 * m10
        if det == 0:
            raise ValueError("BPM substep matrix is singular (corner update)")
        r0, r1 = lo * complex(out[0]), hi * complex(out[-1])
        out[self._lo_reach] -= (m11 * r0 - m01 * r1) / det * self._g_lo
        out[self._hi_reach] -= (m00 * r1 - m10 * r0) / det * self._g_hi
        return out


class Propagator:
    """Pade (2,2) stepper for one BpmConfig, in two substeps per step.

    Each node carries the mean index of its cell [x - dx/2, x + dx/2]: a
    cell holding a fraction f of core has mean n = 1 + f (U0 - 1) and mean
    n^2 = 1 + f (U0^2 - 1), which makes the operator second order in dx at
    the slab edges (Hadley, J. Lightwave Technol. 20, 1210, 2002).  N is
    diag(mean n) and the potential term of S takes the mean n^2.
    Building the first Propagator imports scipy's LAPACK wrappers.
    ``core`` (|x| <= A) is a contiguous slice of the grid.
    """

    def __init__(self, cfg: BpmConfig):
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
        self.n0 = n0 = 1.0
        # S = N (H + n0) on Dirichlet edges: real symmetric tridiagonal
        self._s_main = 1.0 / (self.dx * self.dx) - (1.0 + f * (u0 * u0 - 1.0)) + n0 * n
        self._s_off = -0.5 / (self.dx * self.dx) * np.ones(cfg.nx - 1)
        dz_s_main, dz_s_off = cfg.dz * self._s_main, cfg.dz * self._s_off
        self._substeps = tuple(_Substep(n, dz_s_main, dz_s_off, a_k, b_k) for a_k, b_k in _PADE_22)
        self.core = _window(self.x, a)

    def norm(self, column: np.ndarray, where: slice = slice(None)) -> float:
        """Weighted power sum n|E|^2 dx (the step's invariant), optionally over a slice."""
        c = column[where]
        return float(np.vdot(c, self.n[where] * c).real * self.dx)

    def march(self, column: np.ndarray, nsteps: int) -> Iterator[np.ndarray]:
        """Yield the column after each of nsteps dz steps.

        With Im eta >= 0 no substep can raise the norm of a finite column; a
        whole-grid norm that grows by more than 1% in one substep, or is not
        finite, aborts with UnstableStepError.  The column's length is checked
        when march is called.  The march continues from the yielded arrays: do
        not modify them.
        """
        column = np.asarray(column, dtype=complex)
        if column.shape != self.x.shape:
            raise ValueError(f"column length {column.shape} does not match nx={self.cfg.nx}")
        return self._steps(column, nsteps)

    def _steps(self, column: np.ndarray, nsteps: int) -> Iterator[np.ndarray]:
        before = self.norm(column)
        for _ in range(nsteps):
            for substep in self._substeps:
                column = substep(column)
                after = self.norm(column)
                if not after <= 1.01 * before:
                    raise UnstableStepError(
                        f"norm went from {before:.6g} to {after:.6g} in one step"
                    )
                before = after
            yield column

    def core_power(self, column: np.ndarray) -> float:
        """Weighted power sum n|E|^2 dx over the core |x| <= A."""
        return self.norm(column, self.core)


def step_count(z_max: float, dz: float) -> int:
    """round(z_max/dz), the steps of a march to z_max.

    ValueError unless z_max >= 0 and z_max/dz is finite and rounds to at
    most MAX_STEPS, so that nothing is allocated or marched for a z_max
    no run could reach.
    """
    steps = z_max / dz
    if not (math.isfinite(steps) and steps >= 0):
        raise ValueError(
            f"z_max must be finite in steps of dz and >= 0, got z_max={z_max}, dz={dz}"
        )
    nsteps = int(round(steps))
    if nsteps > MAX_STEPS:
        raise ValueError(
            f"z_max/dz rounds to {nsteps:.7g} steps, more than MAX_STEPS = {MAX_STEPS}"
        )
    return nsteps


def tapered_mode_column(mode: ModeField, cfg: BpmConfig) -> np.ndarray:
    """Sample a leaky-mode profile, windowed to suppress the unbounded tail.

    Unity up to 2A, smooth cosine-squared roll-off, zero beyond 3A; peak
    amplitude normalized to 1.  Raises ValueError for a mode of another slab
    than cfg's.
    """
    if mode.slab != cfg.slab:
        raise ValueError(f"the mode's slab {mode.slab} is not the grid's {cfg.slab}")
    x = np.linspace(-cfg.transverse_halfwidth_X, cfg.transverse_halfwidth_X, cfg.nx)
    a = cfg.slab.half_width_A
    column = mode.evaluate(x)
    r = (np.abs(x) - _TAPER_INNER * a) / ((_TAPER_OUTER - _TAPER_INNER) * a)
    window = np.where(r <= 0, 1.0, np.where(r >= 1, 0.0, np.cos(0.5 * np.pi * np.clip(r, 0, 1)) ** 2))
    column = column * window
    return column / np.max(np.abs(column))


def measure_decay(cfg: BpmConfig, init: np.ndarray, z_max: float) -> float:
    """March init as given and fit the decay rate of its core power.

    log P(z) is fit by least squares over [0.2*z_max, 0.8*z_max] (the early
    window skips the start-up transient) on the grid z = j*dz, j up to
    round(z_max/dz).  The march ends at the last sample of that window, the
    last one the fit reads: 110 of 138 steps at z_max = 110, dz = 0.8.
    Raises ValueError for a z_max that step_count refuses or that spans
    fewer than 10 steps, a column of the wrong length or one with no
    power, and NonExponentialDecayError when the fit explains less than
    R^2 = 0.99 of a decaying record.
    """
    nsteps = step_count(z_max, cfg.dz)
    if nsteps < 10:
        raise ValueError("z_max spans fewer than 10 steps")
    z = np.arange(nsteps + 1) * cfg.dz
    window = (z >= 0.2 * z_max) & (z <= 0.8 * z_max)
    # the fit reads nothing past its last sample, so the march ends there
    last = int(np.flatnonzero(window)[-1])
    z, window = z[: last + 1], window[: last + 1]
    prop = Propagator(cfg)
    columns = prop.march(init, last)
    if prop.norm(init) == 0:
        raise ValueError("init has no power")
    power = np.empty(last + 1)
    power[0] = prop.core_power(init)
    for i, column in enumerate(columns, 1):
        power[i] = prop.core_power(column)
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
