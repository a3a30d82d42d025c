"""Finite-difference paraxial propagator with absorbing boundaries.

Marches i dE/dz = (H + n0) E with the library's own eigenvalue operator

    H = -(1/(2 n(x))) d^2/dx^2 - n(x),

whose eigenvalues satisfy K**2/2 = eps + 1 outside and Q**2 = 2*U0*(eps + U0)
inside the core, with E and dE/dx continuous (see ``core``).  The constant
reference index n0 only adds the global phase exp(-i n0 z).  With N = diag(n)
the matrix S = N (H + n0) - i N sigma is symmetric tridiagonal, and the
n-weighted Crank-Nicolson step (N + i dz/2 S) E' = (N - i dz/2 S) E is
unconditionally stable and, without absorber, conserves sum n|E|^2 dx
exactly.  The left-hand matrix is LU-factored once per Propagator (LAPACK
zgttrf) and each step is one tridiagonal back-substitution (zgttrs).  A
quadratic-ramp imaginary potential sigma near the domain edges damps outgoing
radiation.  Used as an initial-value cross-check on the modal decay rates: a
leaky mode's core power falls as exp(-Gamma z).

scipy is imported when the first Propagator is built, not with this module,
so ``import leakyslab`` does not load ``scipy.linalg``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .core import SlabConfig
from .errors import NonExponentialDecayError, UnstableStepError
from .fields import ModeField

# tapered_mode_column's window edges, in units of the core half width
_TAPER_INNER = 2.0
_TAPER_OUTER = 3.0


@dataclass(frozen=True)
class BpmConfig:
    """Grid, absorber and medium description for one propagation setup.

    The transverse domain is [-X, X] with nx points; n_profile maps x to the
    refractive index (it sets both the kinetic term 1/(2 n) and the
    potential -n); reference_index_n0 is a constant phase reference only,
    removing the fast factor exp(-i n0 z) without changing |E|;
    core_halfwidth bounds the power-monitor window (the slab half width).
    """

    transverse_halfwidth_X: float
    nx: int
    dz: float
    absorber_width: float
    absorber_strength: float
    n_profile: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    reference_index_n0: float
    core_halfwidth: float

    def __post_init__(self):
        if self.dz <= 0:
            raise ValueError(f"dz must be > 0, got {self.dz}")
        if self.nx < 513:
            raise ValueError(f"nx must be >= 513, got {self.nx}")
        if self.transverse_halfwidth_X < 4.0 * self.core_halfwidth:
            raise ValueError("transverse_halfwidth_X must be at least 4x the core half width")
        if not self.absorber_width < self.transverse_halfwidth_X - self.core_halfwidth:
            raise ValueError("absorber_width must leave the core untouched")
        for name in ("transverse_halfwidth_X", "dz", "absorber_width", "absorber_strength"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    @classmethod
    def for_slab(
        cls,
        slab: SlabConfig,
        transverse_halfwidth_X: float | None = None,
        nx: int = 4097,
        dz: float = 0.05,
        absorber_width: float | None = None,
        absorber_strength: float = 0.05,
    ) -> "BpmConfig":
        """Defaults: X = 8A, nx = 4097, dz = 0.05, absorber of width X/4."""
        X = 8.0 * slab.half_width_A if transverse_halfwidth_X is None else transverse_halfwidth_X
        w = X / 4.0 if absorber_width is None else absorber_width
        a = slab.half_width_A
        u0 = slab.core_index_U0

        def profile(x: np.ndarray) -> np.ndarray:
            return np.where(np.abs(x) <= a, u0, 1.0)

        return cls(
            transverse_halfwidth_X=X,
            nx=nx,
            dz=dz,
            absorber_width=w,
            absorber_strength=absorber_strength,
            n_profile=profile,
            reference_index_n0=u0,
            core_halfwidth=a,
        )


def _window(x: np.ndarray, half: float) -> slice:
    """The contiguous slice of the increasing grid x where |x| <= half."""
    return slice(int(np.searchsorted(x, -half, "left")), int(np.searchsorted(x, half, "right")))


class Propagator:
    """Crank-Nicolson stepper for one BpmConfig, its matrix factored once.

    Building the first Propagator imports scipy's LAPACK wrappers.
    ``interior`` (outside the absorber) and ``core`` (|x| <= core_halfwidth)
    are contiguous slices of the grid.
    """

    def __init__(self, cfg: BpmConfig):
        from scipy.linalg.lapack import zgttrf, zgttrs

        self.cfg = cfg
        X = cfg.transverse_halfwidth_X
        self.x = np.linspace(-X, X, cfg.nx)
        self.dx = self.x[1] - self.x[0]
        n0 = cfg.reference_index_n0
        sigma = np.zeros_like(self.x)
        if cfg.absorber_width > 0:
            ramp = (np.abs(self.x) - (X - cfg.absorber_width)) / cfg.absorber_width
            inside = ramp > 0
            sigma[inside] = cfg.absorber_strength * ramp[inside] ** 2
        self.sigma = sigma
        n = np.asarray(cfg.n_profile(self.x), dtype=float)
        self.n = n
        # S = N (H + n0) without absorber: real symmetric tridiagonal
        self._s_main = 1.0 / (self.dx * self.dx) - n * n + n0 * n
        self._s_off = -0.5 / (self.dx * self.dx) * np.ones(cfg.nx - 1)
        main = self._s_main - 1j * n * sigma
        theta = 0.5j * cfg.dz
        off = theta * self._s_off
        dl, d, du, du2, ipiv, info = zgttrf(off, n + theta * main, off)
        if info != 0:
            raise ValueError(f"Crank-Nicolson matrix is singular (zgttrf info={info})")
        self._lu = (dl, d, du, du2, ipiv)
        self._gttrs = zgttrs
        self._rhs_main = n - theta * main
        self._rhs_off = -off
        self.interior = _window(self.x, X - cfg.absorber_width)
        self.core = _window(self.x, cfg.core_halfwidth)

    def norm(self, column: np.ndarray, where: slice = slice(None)) -> float:
        """Weighted power sum n|E|^2 dx (the step's invariant), optionally over a slice."""
        return float(np.sum(self.n[where] * np.abs(column[where]) ** 2) * self.dx)

    def march(self, column: np.ndarray, nsteps: int) -> Iterator[np.ndarray]:
        """Yield the column after each of nsteps dz steps.

        Aborts with UnstableStepError if the interior norm grows by more than
        1% in one step; each step's interior norm is carried to the next.
        The march continues from the yielded arrays: do not modify them.
        """
        column = np.asarray(column, dtype=complex)
        if column.shape != self.x.shape:
            raise ValueError(f"column length {column.shape} does not match nx={self.cfg.nx}")
        before = self.norm(column, self.interior)
        for _ in range(nsteps):
            rhs = self._rhs_main * column
            rhs[:-1] += self._rhs_off * column[1:]
            rhs[1:] += self._rhs_off * column[:-1]
            out, _ = self._gttrs(*self._lu, rhs, overwrite_b=1)
            after = self.norm(out, self.interior)
            # base >= before, so the whole-grid norm is needed only past 1.01 * before;
            # its floor ignores fields whose interior content is negligible vs the total
            if after > 1.01 * before:
                base = max(before, 1e-6 * self.norm(column))
                if base > 0 and after > 1.01 * base:
                    raise UnstableStepError(
                        f"interior norm grew by {(after / base - 1) * 100:.2f}% in one step"
                    )
            yield out
            column, before = out, after

    def step(self, column: np.ndarray) -> np.ndarray:
        """One dz step of march."""
        return next(self.march(column, 1))

    def core_power(self, column: np.ndarray) -> float:
        """Weighted power sum n|E|^2 dx over the core |x| <= core_halfwidth."""
        return self.norm(column, self.core)

    def guided_basis(self) -> np.ndarray:
        """Discrete guided modes, orthonormal in the n-weighted product.

        The trapped band eps in [-max n, -1) of H is solved through the
        symmetric similarity transform N^{-1/2} S N^{-1/2}; the returned
        columns v satisfy v_i^T N v_j = delta_ij.
        """
        from scipy.linalg import eigh_tridiagonal

        n0 = self.cfg.reference_index_n0
        root_n = np.sqrt(self.n)
        lo = n0 - float(np.max(self.n))
        hi = (n0 - 1.0) - 1e-9
        _, vecs = eigh_tridiagonal(
            self._s_main / self.n,
            self._s_off / (root_n[:-1] * root_n[1:]),
            select="v",
            select_range=(lo, hi),
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
    a = cfg.core_halfwidth
    column = mode.evaluate(x)
    r = (np.abs(x) - _TAPER_INNER * a) / ((_TAPER_OUTER - _TAPER_INNER) * a)
    window = np.where(r <= 0, 1.0, np.where(r >= 1, 0.0, np.cos(0.5 * np.pi * np.clip(r, 0, 1)) ** 2))
    column = column * window
    return column / np.max(np.abs(column))


def measure_decay(
    cfg: BpmConfig,
    init: np.ndarray,
    z_max: float,
    remove_guided: bool = True,
) -> float:
    """Propagate to z_max and fit the core-power decay rate.

    log P(z) is fit by least squares over [0.2*z_max, 0.8*z_max] (the early
    window absorbs the start-up transient).  Raises NonExponentialDecayError
    when the fit explains less than R^2 = 0.99 of a decaying record.
    """
    prop = Propagator(cfg)
    column = np.asarray(init, dtype=complex)
    if remove_guided:
        column = prop.remove_guided(column)
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
