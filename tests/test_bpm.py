import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import solve_banded
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
    prop = Propagator(
        BpmConfig(
            transverse_halfwidth_X=cfg30.transverse_halfwidth_X,
            nx=cfg30.nx,
            dz=cfg30.dz,
            absorber_width=cfg30.absorber_width,
            absorber_strength=0.0,
            n_profile=lambda x: np.full_like(x, slab30.core_index_U0),
            reference_index_n0=slab30.core_index_U0,
            core_halfwidth=slab30.half_width_A,
        )
    )
    w0 = 5.0
    col = np.exp(-prop.x**2 / (2 * w0**2)).astype(complex)
    for _ in range(100):
        col = prop.step(col)
    z = 100 * cfg30.dz
    intensity = np.abs(col) ** 2
    w_num = math.sqrt(2 * np.trapezoid(prop.x**2 * intensity, prop.x) / np.trapezoid(intensity, prop.x))
    w_ref = w0 * math.sqrt(1 + (z / (slab30.core_index_U0 * w0**2)) ** 2)
    assert abs(w_num / w_ref - 1) <= 1e-3


def test_norm_conservation_without_absorber(slab30, refined_modes):
    cfg = BpmConfig.for_slab(slab30, absorber_strength=0.0)
    prop = Propagator(cfg)
    col = tapered_mode_column(mode_profile(refined_modes[0], slab30), cfg)
    norm = prop.norm(col)
    for _ in range(100):
        col = prop.step(col)
        new = prop.norm(col)
        assert abs(new - norm) / norm <= 1e-10
        norm = new


def test_norm_decreases_with_absorber(slab30, cfg30):
    prop = Propagator(cfg30)
    x0 = cfg30.transverse_halfwidth_X - 0.5 * cfg30.absorber_width
    col = np.exp(-((prop.x - x0) ** 2) / 50.0) * np.exp(0.5j * prop.x)
    norms = [prop.norm(col)]
    for _ in range(1000):
        col = prop.step(col)
        norms.append(prop.norm(col))
    assert norms[-1] < 0.5 * norms[0]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(norms, norms[1:]))


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
    rate = measure_decay(cfg30, col, 120.0, remove_guided=False)
    assert abs(rate) < 1e-4


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
def test_instability_detector_flags_interior_growth(slab30, cfg30, how):
    # a packet crossing from the absorber zone into the interior raises the
    # interior norm by far more than 1% in single steps: in the first step
    # from 5 units inside the absorber, after 30 slower steps from 8 units,
    # which checks the norm march carries from step to step
    prop = Propagator(cfg30)
    for depth in (5.0, 8.0):
        x0 = cfg30.transverse_halfwidth_X - cfg30.absorber_width + depth
        col = np.exp(-((prop.x - x0) ** 2) / (2 * 2.0**2)) * np.exp(-0.5j * prop.x)
        expected = first_unstable_step(prop, col, 200)
        done = 0
        with pytest.raises(UnstableStepError) as info:
            if how == "step":
                for _ in range(200):
                    col = prop.step(col)
                    done += 1
            else:
                for done, col in enumerate(prop.march(col, 200), 1):
                    pass
        assert (done, str(info.value)) == expected


def first_unstable_step(prop, col, nsteps):
    """Oracle: the steps an unguarded banded march completes before the interior
    norm first grows by more than 1% of max(its value, 1e-6 of the total),
    and the error message for that step."""
    ab, rhs_main, rhs_off = crank_nicolson_band(prop.cfg)
    for done in range(nsteps):
        rhs = rhs_main * col
        rhs[:-1] += rhs_off * col[1:]
        rhs[1:] += rhs_off * col[:-1]
        new = solve_banded((1, 1), ab, rhs)
        base = max(prop.norm(col, prop.interior), 1e-6 * prop.norm(col))
        after = prop.norm(new, prop.interior)
        if base > 0 and after > 1.01 * base:
            return done, f"interior norm grew by {(after / base - 1) * 100:.2f}% in one step"
        col = new
    raise AssertionError(f"no step grew the interior norm by 1% in {nsteps} steps")


def test_march_equals_successive_steps(slab30, refined_modes, cfg30):
    prop = Propagator(cfg30)
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    # a packet straddling the absorber edge drifts inward: its interior norm
    # grows by under 1% per step but by over 1% within a few steps, so a
    # growth guard that compared against a stale norm would trip
    edge = cfg30.transverse_halfwidth_X - cfg30.absorber_width
    packet = np.exp(-((prop.x - edge) ** 2) / (2 * 5.0**2)) * np.exp(-0.3j * prop.x)
    for col in (tapered_mode_column(mode_profile(r32, slab30), cfg30), packet):
        marched = list(prop.march(col, 250))
        assert len(marched) == 250
        for out in marched:
            col = prop.step(col)
            assert np.array_equal(out, col)


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
    with pytest.raises(ValueError, match="absorber_width"):
        BpmConfig.for_slab(slab30, absorber_width=220.0)
    with pytest.raises(ValueError, match="dz"):
        BpmConfig.for_slab(slab30, dz=math.inf)
    with pytest.raises(ValueError, match="dz"):
        BpmConfig.for_slab(slab30, dz=math.nan)
    with pytest.raises(ValueError, match="absorber_strength"):
        BpmConfig.for_slab(slab30, absorber_strength=math.nan)
    with pytest.raises(ValueError, match="absorber_strength"):
        BpmConfig.for_slab(slab30, absorber_strength=-math.inf)


def test_guided_projection_removes_trapped_floor(slab30, refined_modes, cfg30):
    # without the projection the trapped admixture puts a floor under the
    # core power; the projected run keeps decaying
    r24 = next(r for r in refined_modes if r.mode_index_m == 24)
    col = tapered_mode_column(mode_profile(r24, slab30), cfg30)
    prop = Propagator(cfg30)
    cleaned = prop.remove_guided(col)
    # the guided modes are orthonormal in the n-weighted inner product
    basis = prop.guided_basis()
    n = cfg30.n_profile(prop.x)
    overlap = np.max(np.abs(basis.T @ (n * cleaned)))
    assert overlap < 1e-12
    assert np.max(np.abs(basis.T @ (n * col))) > 1e-6


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


def crank_nicolson_band(cfg: BpmConfig):
    """Oracle: the n-weighted Crank-Nicolson band (N + i dz/2 S) and its right-hand side.

    S = N (H + n0) - i N sigma, built here from the config alone.
    """
    x = np.linspace(-cfg.transverse_halfwidth_X, cfg.transverse_halfwidth_X, cfg.nx)
    dx = x[1] - x[0]
    n = np.asarray(cfg.n_profile(x), dtype=float)
    ramp = (np.abs(x) - (cfg.transverse_halfwidth_X - cfg.absorber_width)) / cfg.absorber_width
    sigma = np.where(ramp > 0, cfg.absorber_strength * ramp**2, 0.0)
    off = -0.5 / (dx * dx) * np.ones(cfg.nx - 1)
    main = 1.0 / (dx * dx) - n * n + cfg.reference_index_n0 * n - 1j * n * sigma
    theta = 0.5j * cfg.dz
    ab = np.zeros((3, cfg.nx), dtype=complex)
    ab[0, 1:] = theta * off
    ab[1, :] = n + theta * main
    ab[2, :-1] = theta * off
    return ab, n - theta * main, -theta * off


def test_factored_step_matches_banded_solve(slab30, refined_modes):
    cfg = BpmConfig.for_slab(slab30, nx=1025)
    prop = Propagator(cfg)
    ab, rhs_main, rhs_off = crank_nicolson_band(cfg)
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    col = ref = tapered_mode_column(mode_profile(r32, slab30), cfg)
    for _ in range(250):
        col = prop.step(col)
        rhs = rhs_main * ref
        rhs[:-1] += rhs_off * ref[1:]
        rhs[1:] += rhs_off * ref[:-1]
        ref = solve_banded((1, 1), ab, rhs)
    assert np.array_equal(col, ref)
    # the precomputed window slices sum what the boolean masks selected
    dens = prop.n * np.abs(col) ** 2
    interior = np.abs(prop.x) <= cfg.transverse_halfwidth_X - cfg.absorber_width
    core = np.abs(prop.x) <= cfg.core_halfwidth
    assert prop.norm(col, prop.interior) == float(np.sum(dens[interior]) * prop.dx)
    assert prop.core_power(col) == float(np.sum(dens[core]) * prop.dx)
    assert prop.norm(col) == float(np.sum(dens) * prop.dx)
