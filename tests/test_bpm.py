import cmath
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import eigh_tridiagonal, solve_banded
from scipy.optimize import brentq

import leakyslab
from leakyslab import (
    LeakySlabError,
    SlabConfig,
    measure_decay,
    mode_profile,
    tapered_mode_column,
)
from leakyslab.bpm import MAX_STEPS, BpmConfig, Propagator, step_count


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
    # a w0 = 5 beam marched 100 steps (z = 80 at dz = 0.8) widens to
    # w = 11.8 and keeps all but 3e-4 of its power inside the uniform core
    # of the A = 30 slab, so it spreads as in a homogeneous medium of index U0
    prop = Propagator(cfg30)
    w0 = 5.0
    col = np.exp(-prop.x**2 / (2 * w0**2)).astype(complex)
    for col in prop.march(col, 100):
        pass
    z = 100 * cfg30.dz
    intensity = np.abs(col) ** 2
    w_num = math.sqrt(2 * np.trapezoid(prop.x**2 * intensity, prop.x) / np.trapezoid(intensity, prop.x))
    w_ref = w0 * math.sqrt(1 + (z / (slab30.core_index_U0 * w0**2)) ** 2)
    assert abs(w_num / w_ref - 1) <= 1e-3


def test_norm_conservation_without_absorber(slab30, refined_modes):
    # on this grid the tapered mode stays clear of both edges over these
    # steps (z = 5), so the transparent boundary takes nothing and the step
    # conserves the norm
    cfg = BpmConfig(slab30, 2049, 0.05)
    prop = Propagator(cfg)
    col = tapered_mode_column(mode_profile(refined_modes[0], slab30), cfg)
    norm = prop.norm(col)
    for col in prop.march(col, 100):
        new = prop.norm(col)
        assert abs(new - norm) / norm <= 1e-10
        norm = new


def packet(prop, x0, kx, var=25.0):
    return np.exp(-((prop.x - x0) ** 2) / (2 * var)) * np.exp(1j * kx * prop.x)


def test_transparent_boundary_passes_outgoing_packets(cfg30):
    # packets launched 15 units inside an edge and marched to z = 200: those
    # heading out leave through it (a fast one almost entirely), those heading
    # in keep their norm (by z = 200 they reach the core, not the far edge); the
    # norm never grows in a step, whichever way the packet moves
    prop = Propagator(cfg30)
    edge = cfg30.transverse_halfwidth_X - 15.0
    nsteps = step_count(200.0, cfg30.dz)
    for x0, kx in ((edge, 0.5), (-edge, -0.5), (edge, -0.5), (-edge, 0.5), (edge, 1.0)):
        col = packet(prop, x0, kx)
        norms = [prop.norm(col)] + [prop.norm(out) for out in prop.march(col, nsteps)]
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


def full_march_fit(cfg: BpmConfig, init: np.ndarray, z_max: float) -> tuple[float, int]:
    """Oracle: the rate fitted to init marched all round(z_max/dz) steps,
    and the index of the last sample the fit window holds."""
    prop = Propagator(cfg)
    nsteps = int(round(z_max / cfg.dz))
    power = np.array([prop.core_power(init)] + [prop.core_power(c) for c in prop.march(init, nsteps)])
    z = np.arange(nsteps + 1) * cfg.dz
    window = (z >= 0.2 * z_max) & (z <= 0.8 * z_max)
    slope, _ = np.polyfit(z[window], np.log(power[window]), 1)
    return -slope, int(np.flatnonzero(window)[-1])


@pytest.mark.parametrize(
    "m, z_max", [(24, 110.0), (32, 110.0), (40, 110.0), (32, 110.1)],
    ids=["m24", "m32", "m40", "m32-window-edge-between-steps"],
)
def test_measure_decay_stops_at_the_last_fitted_sample(
    slab30, refined_modes, cfg30, monkeypatch, m, z_max
):
    # the steps past the fit window feed nothing the fit reads: the rate is
    # the full march's, exactly, and exactly the steps up to the window's
    # last sample z = 88 are taken (110 of 138 at z_max = 110, dz = 0.8;
    # 0.8 * 110.1 = 88.08 falls between steps 110 and 111)
    res = next(r for r in refined_modes if r.mode_index_m == m)
    col = tapered_mode_column(mode_profile(res, slab30), cfg30)
    want, last = full_march_fit(cfg30, col, z_max)
    assert last == step_count(88.0, cfg30.dz) < step_count(z_max, cfg30.dz)

    taken = []
    march = Propagator.march

    def counted(self, column, nsteps):
        for out in march(self, column, nsteps):
            taken.append(None)
            yield out

    monkeypatch.setattr(Propagator, "march", counted)
    assert measure_decay(cfg30, col, z_max) == want
    assert len(taken) == last


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
        prop = Propagator(replace(BpmConfig.for_slab(slab30), nx=nx))
        root_n = np.sqrt(prop.n)
        lam = eigh_tridiagonal(
            prop._s_main / prop.n,
            prop._s_off / (root_n[:-1] * root_n[1:]),
            eigvals_only=True,
            select="v",
            select_range=(prop.n0 - slab30.core_index_U0, prop.n0 - 1.0 - 1e-9),
        )
        assert len(lam) == 24
        errors.append(np.max(np.abs(np.sort(lam - prop.n0) - exact)))
    assert errors[1] < 1e-3, errors
    assert all(3.8 < a / b < 4.2 for a, b in zip(errors, errors[1:])), errors


def test_default_grid_decay_rates_are_within_1_5_percent(slab30, refined_modes, cfg30):
    # the default grid's error budget: the m = 24/32/40 rates against the
    # refined widths, with the step referenced to the cladding index
    assert Propagator(cfg30).n0 == 1.0
    for m in (24, 32, 40):
        res = next(r for r in refined_modes if r.mode_index_m == m)
        gamma = -2.0 * res.eigenvalue.value.imag
        rate = measure_decay(cfg30, tapered_mode_column(mode_profile(res, slab30), cfg30), 110.0)
        assert abs(rate - gamma) / gamma <= 0.015, (m, rate, gamma)


def test_grid_refinement_consistency(slab30, refined_modes):
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    base_cfg = BpmConfig.for_slab(slab30)
    fine_cfg = BpmConfig(slab30, 8193, 0.2)
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
    with pytest.raises(LeakySlabError, match="not single-exponential") as info:
        measure_decay(cfg30, col, 150.0)
    r_squared = float(re.search(r"R\^2=([-+.\d]+)", str(info.value)).group(1))
    assert r_squared < 0.99


@pytest.mark.parametrize("how", ["step", "march"])
def test_instability_detector_flags_non_finite_column(cfg30, how):
    # a finite column cannot gain norm, so the guard is a fault detector: a
    # single NaN sample makes the first step's norm non-finite, whether the
    # column goes through single-step marches or one five-step march
    prop = Propagator(cfg30)
    col = np.exp(-prop.x**2 / 200.0).astype(complex)
    col[cfg30.nx // 2] = np.nan
    done = 0
    with pytest.raises(LeakySlabError, match="nan in one step"):
        if how == "step":
            for _ in range(5):
                (col,) = prop.march(col, 1)
                done += 1
        else:
            for done, col in enumerate(prop.march(col, 5), 1):
                pass
    assert done == 0


def test_march_equals_successive_steps(slab30, refined_modes, cfg30):
    prop = Propagator(cfg30)
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    # a packet leaving through the right edge: the boundary ratio is read
    # from the current column at every step, in one long march as in 250
    # single-step marches
    edge = cfg30.transverse_halfwidth_X - 15.0
    for col in (tapered_mode_column(mode_profile(r32, slab30), cfg30), packet(prop, edge, 0.5)):
        marched = list(prop.march(col, 250))
        assert len(marched) == 250
        for out in marched:
            (col,) = prop.march(col, 1)
            assert np.array_equal(out, col)


@pytest.mark.parametrize("z_max", [math.inf, math.nan, 1e308])
def test_measure_decay_rejects_non_finite_z_max(slab30, z_max):
    # 1e308 is finite, but not in steps of a dz below 1e308/max_float ~ 0.56
    # (such as 0.2): z_max/dz overflows
    cfg = replace(BpmConfig.for_slab(slab30), dz=0.2)
    assert math.isinf(1e308 / cfg.dz)
    col = np.exp(-np.linspace(-3.0, 3.0, cfg.nx) ** 2).astype(complex)
    with pytest.raises(ValueError, match="z_max must be finite"):
        measure_decay(cfg, col, z_max)
    # a finite z_max still needs 10 steps of dz
    with pytest.raises(ValueError, match="fewer than 10 steps"):
        measure_decay(cfg, col, 9 * cfg.dz)


def test_measure_decay_refuses_a_march_past_the_step_ceiling(cfg30, monkeypatch):
    assert step_count(MAX_STEPS * cfg30.dz, cfg30.dz) == MAX_STEPS

    def march(self, column, nsteps):
        raise AssertionError(f"a march of {nsteps} steps was started")

    monkeypatch.setattr(Propagator, "march", march)
    col = np.exp(-np.linspace(-3.0, 3.0, cfg30.nx) ** 2).astype(complex)
    with pytest.raises(ValueError, match="rounds to 1000001 steps, more than MAX_STEPS = 1000000"):
        measure_decay(cfg30, col, (MAX_STEPS + 1) * cfg30.dz)
    # past the ceiling by far, the count is printed in 7 significant digits
    with pytest.raises(ValueError, match=r"rounds to 1\.25e\+307 steps, more than MAX_STEPS"):
        measure_decay(cfg30, col, 1e307)


def test_tapered_mode_column_refuses_a_mode_of_another_slab(slab30, refined_modes):
    cfg = replace(BpmConfig.for_slab(SlabConfig(20.0, 1.5)), nx=513)
    with pytest.raises(ValueError, match="slab"):
        tapered_mode_column(mode_profile(refined_modes[0], slab30), cfg)


def test_measure_decay_rejects_a_column_without_power():
    cfg = replace(BpmConfig.for_slab(SlabConfig(30.0, 1.5)), nx=513)
    with pytest.raises(ValueError, match="init"):
        measure_decay(cfg, np.zeros(513, complex), 20 * cfg.dz)


def test_march_validates_column_length(cfg30):
    with pytest.raises(ValueError, match="column length"):
        Propagator(cfg30).march(np.zeros(17, dtype=complex), 1)
    with pytest.raises(ValueError, match="column length"):
        measure_decay(cfg30, np.ones(17), 20 * cfg30.dz)


def test_march_refuses_a_step_count_that_is_not_a_non_negative_integer(cfg30):
    # refused when march is called, as BpmConfig refuses a non-integer nx
    prop = Propagator(cfg30)
    col = np.zeros(cfg30.nx, dtype=complex)
    for nsteps in (2.5, 2.0, "2", -1, np.int64(-3)):
        with pytest.raises(ValueError, match="nsteps must be an integer >= 0"):
            prop.march(col, nsteps)
    assert list(prop.march(col, 0)) == []
    assert len(list(prop.march(col, np.int64(2)))) == 2


def test_config_validation(slab30):
    with pytest.raises(ValueError, match="nx"):
        replace(BpmConfig.for_slab(slab30), nx=257)
    with pytest.raises(ValueError, match="dz"):
        replace(BpmConfig.for_slab(slab30), dz=0.0)
    with pytest.raises(ValueError, match="dz"):
        replace(BpmConfig.for_slab(slab30), dz=math.inf)
    with pytest.raises(ValueError, match="dz"):
        replace(BpmConfig.for_slab(slab30), dz=math.nan)
    for nx in (1025.5, 1025.0, "1025"):
        with pytest.raises(ValueError, match="nx"):
            BpmConfig(slab30, nx, 0.05)
    assert BpmConfig(slab30, np.int64(1025), 0.05).nx == 1025
    # the domain is [-4A, 4A], read from the slab
    assert BpmConfig.for_slab(slab30).transverse_halfwidth_X == 120.0
    assert BpmConfig.for_slab(SlabConfig(5.0, 1.5)).transverse_halfwidth_X == 20.0


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
        "prop = Propagator(BpmConfig(SlabConfig(30.0, 1.5), 513, 0.8))\n"
        "(col,) = prop.march(np.exp(-prop.x**2 / 200.0).astype(complex), 1)\n"
        "assert np.all(np.isfinite(col)) and prop.norm(col) > 0\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr


def pade_22(w):
    """The step's factor, the Pade (2,2) approximant of exp(w)."""
    return (1 + w / 2 + w * w / 12) / (1 - w / 2 + w * w / 12)


# (a_k, b_k) of the two substeps (N + a_k dz S) E' = (N + b_k dz S) E: with
# w = -i dz lambda each multiplies an eigenvector by (1 - w/s_k)/(1 - w/r_k),
# r_k = 3 +- i sqrt3 and s_k = -3 +- i sqrt3 the roots of pade_22's
# denominator and numerator, paired by the sign of their imaginary parts
PADE_SUBSTEPS = [
    (1j / (3 + s * 1j * math.sqrt(3)), 1j / (-3 + s * 1j * math.sqrt(3))) for s in (1, -1)
]


def pade_substep_band(cfg: BpmConfig, col: np.ndarray, k: int, dtype=complex):
    """Oracle: substep k of the n-weighted Pade (2,2) step, the band
    (N + a_k dz S) and right-hand side (N + b_k dz S) col, built from the
    config and the substep's input column.

    Each node takes the slab's index averaged over its cell [x - dx/2,
    x + dx/2]: N holds the mean of n and the potential term of S the mean of
    n^2.  S = N (H + n0) with n0 = 1, the cladding index, and Hadley's
    transparent boundary at both edges: the ghost node beyond each edge is
    eta * (edge node), eta = edge / inner read in float64 from col, |eta|
    where Im eta < 0, and 0 where eta is zero or not finite.  The band is
    float64; the right-hand side is formed in ``dtype`` from its float64
    coefficients.
    """
    x = np.linspace(-cfg.transverse_halfwidth_X, cfg.transverse_halfwidth_X, cfg.nx)
    dx = x[1] - x[0]
    a, u0 = cfg.slab.half_width_A, cfg.slab.core_index_U0
    # share of each cell inside [-A, A]
    core = np.clip(np.minimum(x + dx / 2, a) - np.maximum(x - dx / 2, -a), 0.0, None) / dx
    n = 1.0 + core * (u0 - 1.0)
    n2 = 1.0 + core * (u0**2 - 1.0)
    off = -0.5 / (dx * dx)
    main = (1.0 / (dx * dx) - n2 + n).astype(complex)
    for edge, inner in ((0, 1), (-1, -2)):
        pair = col[[edge, inner]].astype(complex)
        with np.errstate(all="ignore"):
            eta = pair[0] / pair[1]
        if eta.imag < 0:
            eta = abs(eta)
        main[edge] += off * (eta if np.isfinite(eta) else 0.0)
    a_k, b_k = PADE_SUBSTEPS[k]
    ab = np.zeros((3, cfg.nx), dtype=complex)
    ab[0, 1:] = a_k * (cfg.dz * off)
    ab[1, :] = n + a_k * (cfg.dz * main)
    ab[2, :-1] = a_k * (cfg.dz * off)
    col = col.astype(dtype)
    rhs = (n + b_k * (cfg.dz * main)).astype(dtype) * col
    rhs[:-1] += dtype(b_k * (cfg.dz * off)) * col[1:]
    rhs[1:] += dtype(b_k * (cfg.dz * off)) * col[:-1]
    return ab, rhs


def extended_solve(bands) -> np.ndarray:
    """Oracle: each (ab, rhs) system of pade_substep_band solved by Thomas
    elimination in extended precision (np.clongdouble), one solution a row.

    The substep band needs no pivoting: Re a_k > 0, so its diagonal dominates.
    """
    ab = np.stack([b for b, _ in bands], axis=-1)
    sup, dia, sub = ab[0, 1:], ab[1], ab[2, :-1]
    c = np.zeros(sup.shape, dtype=np.clongdouble)
    d = np.stack([rhs for _, rhs in bands], axis=-1).astype(np.clongdouble)
    d[0] /= dia[0]
    c[0] = sup[0].astype(np.clongdouble) / dia[0]
    for i in range(1, len(dia)):
        pivot = dia[i] - sub[i - 1] * c[i - 1]
        if i < len(c):
            c[i] = sup[i] / pivot
        d[i] = (d[i] - sub[i - 1] * d[i - 1]) / pivot
    for i in range(len(c) - 1, -1, -1):
        d[i] -= c[i] * d[i + 1]
    return d.T


def extended_steps(cfg: BpmConfig, columns) -> np.ndarray:
    """Oracle: one step of each column, its two substeps solved in turn by
    extended_solve, one result a row."""
    for k in range(2):
        columns = extended_solve([pade_substep_band(cfg, c, k, np.clongdouble) for c in columns])
    return columns


def banded_step(cfg: BpmConfig, col: np.ndarray) -> np.ndarray:
    """Oracle: one step of col, its two substeps solved in turn by solve_banded."""
    for k in range(2):
        col = solve_banded((1, 1), *pade_substep_band(cfg, col, k))
    return col


def test_step_multiplies_guided_modes_by_the_pade_factor(slab30):
    # the two substeps multiply an eigenvector of N^{-1} S by pade_22, and
    # each by a unimodular factor when its eigenvalue is real
    w = np.array([0.3j, -2.5j, 0.1 - 4j, -0.02 + 0.7j])
    substeps = [(1 + 1j * b * w) / (1 + 1j * a * w) for a, b in PADE_SUBSTEPS]
    assert np.allclose(substeps[0] * substeps[1], pade_22(w), rtol=1e-14, atol=0)
    assert np.allclose(np.abs(np.array(substeps)[:, :2]), 1.0, rtol=1e-14, atol=0)
    # a guided eigenvector v of S v = lambda N v that vanishes at both edges
    # (below 1e-13 of its peak, so the transparent edge reads it as a
    # Dirichlet one: 23 of the 24) is an eigenvector of the step, which
    # multiplies it by pade_22(-i dz lambda); a second-order factor such as
    # (1 + w/2)/(1 - w/2) misses this bound by 5e-3 at dz = 0.8, 8e-5 at 0.2
    for cfg in (BpmConfig.for_slab(slab30), replace(BpmConfig.for_slab(slab30), dz=0.2)):
        prop = Propagator(cfg)
        root_n = np.sqrt(prop.n)
        lam, u = eigh_tridiagonal(
            prop._s_main / prop.n,
            prop._s_off / (root_n[:-1] * root_n[1:]),
            select="v",
            select_range=(prop.n0 - slab30.core_index_U0, prop.n0 - 1.0 - 1e-9),
        )
        vecs = (u / root_n[:, None]).T
        peak = np.max(np.abs(vecs), axis=1)
        clear = np.maximum(np.abs(vecs[:, 0]), np.abs(vecs[:, -1])) <= 1e-13 * peak
        assert len(lam) == 24 and np.count_nonzero(clear) == 23
        for lam_j, v, top in zip(lam[clear], vecs[clear], peak[clear]):
            (out,) = prop.march(v, 1)
            err = np.max(np.abs(out - pade_22(-1j * cfg.dz * lam_j) * v))
            assert err <= 1e-12 * top, (cfg.dz, lam_j, err / top)


def test_factored_step_matches_banded_solve(slab30, refined_modes, cfg30):
    r32 = next(r for r in refined_modes if r.mode_index_m == 32)
    for cfg in (BpmConfig(slab30, 2049, 0.05), cfg30):
        prop = Propagator(cfg)
        # each step against the exact step of the same column: a leaky mode,
        # a packet leaving through the right edge, one moving inward from the
        # left edge (an incoming tail, so a clamped eta) and a column whose
        # edge ratios are 0/0 on the left and overflow to inf on the right
        # (both taken as Dirichlet edges)
        edge = cfg.transverse_halfwidth_X - 15.0
        bad_edges = np.exp(-prop.x**2 / 200.0).astype(complex)
        bad_edges[[0, 1, -2, -1]] = 0.0, 0.0, 1e-320, 1e-10
        for col in (tapered_mode_column(mode_profile(r32, slab30), cfg),
                    packet(prop, edge, 0.5), packet(prop, -edge, 0.5), bad_edges):
            steps = list(prop.march(col, 250))
            before = [col, *steps[:-1]]
            banded = [banded_step(cfg, c) for c in before]
            col = steps[-1]
            exact = extended_steps(cfg, before)
            peak = np.max(np.abs(exact), axis=1)
            err = (np.max(np.abs(np.array(steps) - exact), axis=1) / peak).astype(float)
            err_banded = (np.max(np.abs(np.array(banded) - exact), axis=1) / peak).astype(float)
            # the factored substeps with their corner updates round as pivoted
            # banded solves of the whole bands do (the largest errors within
            # 1.24x here, the typical ones within 1.04x): on the 2049 / 0.05
            # grid to below 1e-15 of the peak, on the default grid (dz/dx^2
            # 64x larger) to ~1e-14 for either
            assert err.max() <= 1.25 * err_banded.max(), (err.max(), err_banded.max())
            if cfg is not cfg30:
                assert err.max() <= 1e-15
        # the precomputed core slice sums what the boolean mask selects
        core = np.abs(prop.x) <= cfg.slab.half_width_A
        assert np.array_equal(np.flatnonzero(core), np.arange(cfg.nx)[prop.core])
        assert prop.core_power(col) == float(np.vdot(col[core], prop.n[core] * col[core]).real * prop.dx)
        assert prop.norm(col) == float(np.vdot(col, prop.n * col).real * prop.dx)


def test_coupled_corners_match_banded_solve():
    # on a short grid with a long step A_k^{-1} e_0 reaches the far edge in
    # each substep, so the corner update couples both edges (on the default
    # grid it does not)
    cfg = BpmConfig(SlabConfig(1.0, 1.5), 513, 10.0)
    for k in range(2):
        ab, _ = pade_substep_band(cfg, np.zeros(cfg.nx, dtype=complex), k)
        reach = solve_banded((1, 1), ab, np.eye(cfg.nx, 1, dtype=complex)[:, 0])
        assert abs(reach[-1]) > 1e-8 * abs(reach[0]), (k, abs(reach[-1] / reach[0]))
    prop = Propagator(cfg)
    for x0, kx in ((2.5, 5.0), (-2.5, -5.0)):
        col = packet(prop, x0, kx, var=0.05)
        for out in prop.march(col, 100):
            ref = banded_step(cfg, col)
            assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))
            col = out
    # an exactly even and an exactly odd packet march on x >= 0, closed on
    # the mirror image (odd nx: the centre row reads its neighbour twice, or
    # the centre node is dropped; even nx: main +- off on the first row), and
    # the x = X corner's update reaches the closure row; each step is the
    # whole band's solve, and each column yielded is exactly mirrored
    for nx in (513, 514):
        cfg = BpmConfig(SlabConfig(1.0, 1.5), nx, 10.0)
        prop = Propagator(cfg)
        half = packet(prop, 2.5, 5.0, var=0.05)
        for sign in (1.0, -1.0):
            col = half + sign * half[::-1]
            assert np.array_equal(col, sign * col[::-1])
            for out in prop.march(col, 100):
                ref = banded_step(cfg, col)
                assert np.array_equal(out, sign * out[::-1]), (nx, sign)
                assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref)), (nx, sign)
                col = out
            for substep in prop._grid(sign)[2]:
                assert substep._hi_reach.start == 0, (nx, sign)


def test_tapered_mode_columns_and_the_operator_are_exactly_mirrored(slab30, refined_modes):
    # every reference mode's launch is exactly even or odd, with the parity
    # A_I/D of its profile, on an odd and an even grid; an odd mode's centre
    # node is exactly 0 on the odd grid
    for cfg in (BpmConfig.for_slab(slab30), BpmConfig(slab30, 4096, 0.8)):
        for res in refined_modes:
            mode = mode_profile(res, slab30)
            a_i, _, _, d = mode.coefficients
            sign = 1.0 if (a_i / d).real > 0 else -1.0
            col = tapered_mode_column(mode, cfg)
            assert np.array_equal(col, sign * col[::-1]), (cfg.nx, res.mode_index_m)
            if sign < 0 and cfg.nx % 2:
                assert col[cfg.nx // 2] == 0, res.mode_index_m
    assert len(refined_modes) == 17
    # N and S are exactly symmetric where linspace's nodes are not (x + x[::-1]
    # is nonzero in 1684 and 1662 entries of these grids; node by node, the
    # second grid's cell fractions differ between mirror nodes in 2 entries)
    for slab, asymmetric in ((SlabConfig(17.3, 1.2), 1684), (SlabConfig(33.3, 1.2), 1662)):
        prop = Propagator(BpmConfig.for_slab(slab))
        assert np.count_nonzero(prop.x + prop.x[::-1]) == asymmetric
        assert np.array_equal(prop.n, prop.n[::-1])
        assert np.array_equal(prop._s_main, prop._s_main[::-1])
    # so is the core window |x| <= A where linspace rounds -A and +A unequally
    # (on (5.1, 1.5) x[1536] = -5.1 but x[2560] = 5.100000000000001)
    for k0a in (5.1, 20.15):
        prop = Propagator(BpmConfig.for_slab(SlabConfig(k0a, 1.5)))
        assert (prop.core.start, prop.core.stop) == (1537, 2560), k0a
        assert prop.core.start == prop.cfg.nx - prop.core.stop
        assert np.all(np.abs(prop.x[prop.core]) <= k0a)
