import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq

import leakyslab
from leakyslab import (
    NonExponentialDecayError,
    SlabConfig,
    UnstableStepError,
    measure_decay,
    mode_profile,
    tapered_mode_column,
)
from leakyslab.bpm import BpmConfig, Propagator


@pytest.fixture(scope="module")
def cfg30(slab30):
    return BpmConfig.for_slab(slab30)


def paraxial_width(seed_eps: complex, cfg: SlabConfig) -> float:
    """Oracle: leaky width of the marched operator itself.

    The propagator evolves H = -(1/(2 n)) d^2/dx^2 - n, whose exterior
    dispersion is k^2 = 2*(eps+1) and interior dispersion
    q^2 = 2*U0*(eps+U0), with the field and its slope continuous at the
    interfaces; that outgoing quantization condition is solved here by
    Newton in eps, independently of the library's resonance path.
    """
    u0 = cfg.core_index_U0
    a = cfg.half_width_A

    def f(eps):
        kt = cmath.sqrt(2 * (eps + 1))
        if kt.real < 0:
            kt = -kt
        q = cmath.sqrt(2 * u0 * (eps + u0))
        return cmath.cos(2 * q * a) - 0.5j * (kt / q + q / kt) * cmath.sin(2 * q * a)

    eps = seed_eps
    for _ in range(80):
        val = f(eps)
        if abs(val) < 1e-13:
            break
        der = (f(eps + 1e-8) - f(eps - 1e-8)) / 2e-8
        eps = eps - val / der
    return -2 * eps.imag


def test_free_space_gaussian_spreading(slab30, cfg30):
    # a w0 = 5 beam stays inside the uniform core of the A = 30 slab over
    # z = 5 (its tail at the interface is ~1e-8), so it spreads as in a
    # homogeneous medium of index U0
    prop = Propagator(cfg30)
    w0 = 5.0
    col = np.exp(-prop.x**2 / (2 * w0**2)).astype(complex)
    for _ in range(100):
        col = prop.step(col)
    z = 100 * cfg30.dz
    intensity = np.abs(col) ** 2
    w_num = math.sqrt(2 * np.trapezoid(prop.x**2 * intensity, prop.x) / np.trapezoid(intensity, prop.x))
    w_ref = w0 * math.sqrt(1 + (z / (slab30.core_index_U0 * w0**2)) ** 2)
    assert abs(w_num / w_ref - 1) <= 1e-3


def test_norm_conservation_without_absorber(slab30, refined_modes, cfg30):
    # the tapered mode stays clear of both edges over these steps, so the
    # transparent boundary takes nothing and the step conserves the norm
    prop = Propagator(cfg30)
    col = tapered_mode_column(mode_profile(refined_modes[0], slab30), cfg30)
    norm = prop.norm(col)
    for _ in range(100):
        col = prop.step(col)
        new = prop.norm(col)
        assert abs(new - norm) / norm <= 1e-10
        norm = new


def packet(prop, x0, kx, var=25.0):
    return np.exp(-((prop.x - x0) ** 2) / (2 * var)) * np.exp(1j * kx * prop.x)


def test_transparent_boundary_passes_outgoing_packets(cfg30):
    # packets launched 15 units inside an edge: those heading out leave through
    # it (a fast one almost entirely), those heading in keep their norm; the
    # norm never grows in a step, whichever way the packet moves
    prop = Propagator(cfg30)
    edge = cfg30.transverse_halfwidth_X - 15.0
    for x0, kx in ((edge, 0.5), (-edge, -0.5), (edge, -0.5), (-edge, 0.5), (edge, 1.0)):
        col = packet(prop, x0, kx)
        norms = [prop.norm(col)] + [prop.norm(out) for out in prop.march(col, 1000)]
        assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:])), (x0, kx)
        if x0 * kx > 0:
            assert norms[-1] < 0.5 * norms[0], (x0, kx)
        else:
            assert norms[-1] > 0.999 * norms[0], (x0, kx)
    assert norms[-1] < 1e-3 * norms[0]


def test_guided_mode_does_not_decay(slab30, cfg30):
    # analytic even trapped mode: Q*tan(Q*A) = kappa, no leakage expected;
    # the fundamental has interior phase Q*A in (0, pi/2)
    u0, a = slab30.core_index_U0, slab30.half_width_A

    def even_condition(theta):
        q = theta / a
        eps = q * q / (2 * u0) - u0
        kappa = math.sqrt(-2 * (eps + 1))
        return q * math.tan(theta) - kappa

    theta_g = brentq(even_condition, 1e-3, math.pi / 2 - 1e-9)
    q = theta_g / a
    eps_g = q * q / (2 * u0) - u0
    kappa = math.sqrt(-2 * (eps_g + 1))
    prop = Propagator(cfg30)
    col = np.where(
        np.abs(prop.x) <= a,
        np.cos(q * prop.x),
        math.cos(q * a) * np.exp(-kappa * (np.abs(prop.x) - a)),
    ).astype(complex)
    z = 120.0
    p0 = prop.core_power(col)
    for col in prop.march(col, int(round(z / cfg30.dz))):
        pass
    assert abs(math.log(prop.core_power(col) / p0)) / z < 1e-4


def test_leaky_rate_matches_marched_operator(slab30, refined_modes, cfg30):
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    col = tapered_mode_column(mode_profile(r32, slab30), cfg30)
    rate = measure_decay(cfg30, col, 110.0)
    gamma_op = paraxial_width(r32.eigenvalue.value, slab30)
    assert abs(rate - gamma_op) / gamma_op <= 0.05


def test_decay_rate_ordering(slab30, refined_modes, cfg30):
    rates = {}
    for m, z_max in ((24, 480.0), (32, 110.0), (40, 100.0)):
        res = next(r for r in refined_modes if r.mode_index_m == m)
        col = tapered_mode_column(mode_profile(res, slab30), cfg30)
        rates[m] = measure_decay(cfg30, col, z_max)
    assert rates[24] < rates[32] < rates[40]


def exact_guided_eigenvalues(slab: SlabConfig) -> np.ndarray:
    """Oracle: the guided eps = -1 - kappa^2/2, the zeros of the outgoing
    condition at K = +i kappa, cos 2QA - (Q/kappa - kappa/Q) sin(2QA)/2 = 0
    with Q = sqrt(U0 (2 (U0 - 1) - kappa^2)), bracketed on a fine kappa grid.
    """
    u0, a = slab.core_index_U0, slab.half_width_A

    def g(kappa):
        q = np.sqrt(u0 * (2 * (u0 - 1) - kappa**2))
        return np.cos(2 * q * a) - 0.5 * (q / kappa - kappa / q) * np.sin(2 * q * a)

    ks = np.linspace(0.0, math.sqrt(2 * (u0 - 1)), 20001)[1:-1]
    v = g(ks)
    brackets = np.flatnonzero(np.sign(v[:-1]) != np.sign(v[1:]))
    kappa = np.array([brentq(g, ks[i], ks[i + 1], xtol=1e-15) for i in brackets])
    return np.sort(-1.0 - kappa**2 / 2)


def test_cell_averaged_index_is_second_order(slab30):
    # the 24 guided eigenvalues of S v = lambda N v against the exact roots:
    # the error falls 4x per halving of dx (the node-sampled index gave 2.4x)
    exact = exact_guided_eigenvalues(slab30)
    assert len(exact) == 24
    errors = []
    for nx in (1025, 2049, 4097):
        prop = Propagator(BpmConfig.for_slab(slab30, nx=nx))
        root_n = np.sqrt(prop.n)
        lam = eigh_tridiagonal(
            prop._s_main / prop.n,
            prop._s_off / (root_n[:-1] * root_n[1:]),
            eigvals_only=True,
            select="v",
            select_range=(0.0, prop.n0 - 1.0 - 1e-9),
        )
        assert len(lam) == 24
        errors.append(np.max(np.abs(np.sort(lam - prop.n0) - exact)))
    assert errors[1] < 1e-3, errors
    assert all(3.8 < a / b < 4.2 for a, b in zip(errors, errors[1:])), errors


def test_grid_refinement_consistency(slab30, refined_modes):
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    base_cfg = BpmConfig.for_slab(slab30)
    fine_cfg = BpmConfig.for_slab(slab30, nx=8193, dz=0.025)
    base = measure_decay(base_cfg, tapered_mode_column(mode_profile(r32, slab30), base_cfg), 110.0)
    fine = measure_decay(fine_cfg, tapered_mode_column(mode_profile(r32, slab30), fine_cfg), 110.0)
    assert abs(fine - base) / base <= 0.02


def test_non_exponential_flag(slab30, refined_modes, cfg30):
    # two superposed modes with very different widths: log P is convex over
    # the fit window and must be flagged
    r24 = next(r for r in refined_modes if r.mode_index_m == 24)
    r40 = next(r for r in refined_modes if r.mode_index_m == 40)
    col = tapered_mode_column(mode_profile(r24, slab30), cfg30) + 10 * tapered_mode_column(
        mode_profile(r40, slab30), cfg30
    )
    with pytest.raises(NonExponentialDecayError) as info:
        measure_decay(cfg30, col, 150.0)
    assert info.value.rate > 0
    assert info.value.r_squared < 0.99


@pytest.mark.parametrize("how", ["step", "march"])
def test_instability_detector_flags_non_finite_column(cfg30, how):
    # a finite column cannot gain norm, so the guard is a fault detector: a
    # single NaN sample makes the first step's norm non-finite
    prop = Propagator(cfg30)
    col = np.exp(-prop.x**2 / 200.0).astype(complex)
    col[cfg30.nx // 2] = np.nan
    done = 0
    with pytest.raises(UnstableStepError, match="nan in one step"):
        if how == "step":
            for _ in range(5):
                col = prop.step(col)
                done += 1
        else:
            for done, col in enumerate(prop.march(col, 5), 1):
                pass
    assert done == 0


def test_march_equals_successive_steps(slab30, refined_modes, cfg30):
    prop = Propagator(cfg30)
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    # a packet leaving through the right edge: the boundary ratio is read
    # from the current column at every step, in march as in step
    edge = cfg30.transverse_halfwidth_X - 15.0
    for col in (tapered_mode_column(mode_profile(r32, slab30), cfg30), packet(prop, edge, 0.5)):
        marched = list(prop.march(col, 250))
        assert len(marched) == 250
        for out in marched:
            col = prop.step(col)
            assert np.array_equal(out, col)


@pytest.mark.parametrize("z_max", [math.inf, math.nan])
def test_measure_decay_rejects_non_finite_z_max(cfg30, z_max):
    col = np.exp(-np.linspace(-3.0, 3.0, cfg30.nx) ** 2).astype(complex)
    with pytest.raises(ValueError, match="z_max must be finite"):
        measure_decay(cfg30, col, z_max)


def test_measure_decay_rejects_a_column_without_power():
    cfg = BpmConfig.for_slab(SlabConfig(30.0, 1.5), nx=513)
    with pytest.raises(ValueError, match="init"):
        measure_decay(cfg, np.zeros(513, complex), 5.0)


def test_step_validates_column_length(cfg30):
    with pytest.raises(ValueError, match="column length"):
        Propagator(cfg30).step(np.zeros(17, dtype=complex))


def test_config_validation(slab30):
    with pytest.raises(ValueError, match="nx"):
        BpmConfig.for_slab(slab30, nx=257)
    with pytest.raises(ValueError, match="dz"):
        BpmConfig.for_slab(slab30, dz=0.0)
    with pytest.raises(ValueError, match="4x"):
        BpmConfig.for_slab(slab30, transverse_halfwidth_X=100.0)
    with pytest.raises(ValueError, match="dz"):
        BpmConfig.for_slab(slab30, dz=math.inf)
    with pytest.raises(ValueError, match="dz"):
        BpmConfig.for_slab(slab30, dz=math.nan)
    with pytest.raises(ValueError, match="transverse_halfwidth_X"):
        BpmConfig.for_slab(slab30, transverse_halfwidth_X=math.inf)
    for nx in (1025.5, 1025.0, "1025"):
        with pytest.raises(ValueError, match="nx"):
            BpmConfig(slab30, 120.0, nx, 0.05)
    assert BpmConfig(slab30, 120.0, np.int64(1025), 0.05).nx == 1025


def test_guided_projection_removes_trapped_floor(slab30, refined_modes, cfg30):
    # without the projection the trapped admixture puts a floor under the
    # core power; the projected run keeps decaying
    r24 = next(r for r in refined_modes if r.mode_index_m == 24)
    col = tapered_mode_column(mode_profile(r24, slab30), cfg30)
    prop = Propagator(cfg30)
    cleaned = prop.remove_guided(col)
    # the guided modes are orthonormal in the n-weighted inner product
    basis = prop.guided_basis()
    overlap = np.max(np.abs(basis.T @ (prop.n * cleaned)))
    assert overlap < 1e-12
    assert np.max(np.abs(basis.T @ (prop.n * col))) > 1e-6


def test_import_path_does_not_load_scipy_linalg():
    # scipy.linalg is loaded by the first Propagator, not by the package
    src = str(Path(leakyslab.__file__).resolve().parents[1])
    probe = (
        "import sys\n"
        "import numpy as np\n"
        "import leakyslab.cli\n"
        "assert 'scipy.linalg' not in sys.modules, 'scipy.linalg imported'\n"
        "from leakyslab import SlabConfig\n"
        "from leakyslab.bpm import BpmConfig, Propagator\n"
        "prop = Propagator(BpmConfig.for_slab(SlabConfig(30.0, 1.5), nx=513))\n"
        "col = prop.step(np.exp(-prop.x**2 / 200.0).astype(complex))\n"
        "assert np.all(np.isfinite(col)) and prop.norm(col) > 0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def crank_nicolson_band(cfg: BpmConfig, col: np.ndarray):
    """Oracle: the n-weighted Crank-Nicolson band (N + i dz/2 S) and right-hand
    side (N - i dz/2 S) col, built from the config and the current column.

    Each node takes the slab's index averaged over its cell [x - dx/2,
    x + dx/2]: N holds the mean of n and the potential term of S the mean of
    n^2.  S = N (H + n0), with Hadley's transparent boundary at both edges: the
    ghost node beyond each edge is eta * (edge node), eta = edge / inner,
    |eta| where Im eta < 0, and 0 where eta is zero or not finite.
    """
    x = np.linspace(-cfg.transverse_halfwidth_X, cfg.transverse_halfwidth_X, cfg.nx)
    dx = x[1] - x[0]
    a, u0 = cfg.slab.half_width_A, cfg.slab.core_index_U0
    # share of each cell inside [-A, A]
    core = np.clip(np.minimum(x + dx / 2, a) - np.maximum(x - dx / 2, -a), 0.0, None) / dx
    n = 1.0 + core * (u0 - 1.0)
    n2 = 1.0 + core * (u0**2 - 1.0)
    off = -0.5 / (dx * dx)
    main = (1.0 / (dx * dx) - n2 + n.max() * n).astype(complex)
    for edge, inner in ((0, 1), (-1, -2)):
        with np.errstate(all="ignore"):
            eta = col[edge] / col[inner]
        if eta.imag < 0:
            eta = abs(eta)
        main[edge] += off * (eta if np.isfinite(eta) else 0.0)
    theta = 0.5j * cfg.dz
    ab = np.zeros((3, cfg.nx), dtype=complex)
    ab[0, 1:] = theta * off
    ab[1, :] = n + theta * main
    ab[2, :-1] = theta * off
    rhs = (n - theta * main) * col
    rhs[:-1] -= theta * off * col[1:]
    rhs[1:] -= theta * off * col[:-1]
    return ab, rhs


def test_factored_step_matches_banded_solve(slab30, refined_modes, cfg30):
    prop = Propagator(cfg30)
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    # each step against the oracle's from the same column: a leaky mode, a
    # packet leaving through the right edge, one moving inward from the left
    # edge (an incoming tail, so a clamped eta) and a column whose edge
    # ratios are 0/0 on the left and overflow to inf on the right (both
    # taken as Dirichlet edges)
    edge = cfg30.transverse_halfwidth_X - 15.0
    bad_edges = np.exp(-prop.x**2 / 200.0).astype(complex)
    bad_edges[[0, 1, -2, -1]] = 0.0, 0.0, 1e-320, 1e-10
    for col in (tapered_mode_column(mode_profile(r32, slab30), cfg30),
                packet(prop, edge, 0.5), packet(prop, -edge, 0.5), bad_edges):
        for _ in range(250):
            ref = solve_banded((1, 1), *crank_nicolson_band(cfg30, col))
            col = prop.step(col)
            # the factored solve with its corner update and solve_banded
            # round differently: ~1e-16 of the peak
            assert np.max(np.abs(col - ref)) <= 1e-15 * np.max(np.abs(ref))
    # the precomputed core slice sums what the boolean mask selects
    core = np.abs(prop.x) <= cfg30.slab.half_width_A
    assert np.array_equal(np.flatnonzero(core), np.arange(cfg30.nx)[prop.core])
    assert prop.core_power(col) == float(np.vdot(col[core], prop.n[core] * col[core]).real * prop.dx)
    assert prop.norm(col) == float(np.vdot(col, prop.n * col).real * prop.dx)


def test_coupled_corners_match_banded_solve():
    # on a short grid with a long step A^{-1} e_0 reaches the far edge, so
    # the corner update couples both edges (on the default grid it does not)
    cfg = BpmConfig.for_slab(SlabConfig(1.0, 1.5), nx=513, dz=10.0)
    ab, _ = crank_nicolson_band(cfg, np.zeros(cfg.nx, dtype=complex))
    reach = solve_banded((1, 1), ab, np.eye(cfg.nx, 1, dtype=complex)[:, 0])
    assert abs(reach[-1]) > 1e-8 * abs(reach[0])
    prop = Propagator(cfg)
    for x0, kx in ((2.5, 5.0), (-2.5, -5.0)):
        col = packet(prop, x0, kx, var=0.05)
        for _ in range(100):
            ref = solve_banded((1, 1), *crank_nicolson_band(cfg, col))
            col = prop.step(col)
            assert np.max(np.abs(col - ref)) <= 1e-12 * np.max(np.abs(ref))
