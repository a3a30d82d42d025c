import math

import numpy as np
import pytest

from leakyslab import (
    ComplexEigenvalue,
    ConvergenceError,
    LeakySlabError,
    Resonance,
    RootJumpError,
    SlabConfig,
    approximate_resonances,
    count_leaky_modes,
    eigenvalue_to_wavenumbers,
    mode_index_range,
    refine_resonance,
    siegert_residual,
)
from leakyslab import resonances
from leakyslab.core import _dispersion
from conftest import REFERENCE_EIGENVALUES


def test_mode_index_range_reference_slab(slab30):
    assert list(mode_index_range(slab30)) == list(range(24, 41))


def test_mode_index_range_exclusion_arithmetic(slab30):
    # m = 23 fails the lower inequality: 23*pi/60 < sqrt(2*U0*(U0-1))
    lower = math.sqrt(2 * 1.5 * 0.5)
    assert 23 * math.pi / 60 < lower < 24 * math.pi / 60
    # m = 41 fails the upper one
    upper = math.sqrt(2) * 1.5
    assert 40 * math.pi / 60 < upper < 41 * math.pi / 60


def test_mode_index_range_empty_for_thin_slab():
    thin = SlabConfig(half_width_A=0.1, core_index_U0=1.5)
    assert len(mode_index_range(thin)) == 0
    assert approximate_resonances(thin) == []


def test_mode_index_range_refuses_unresolvable_bounds():
    # near 2.7e15 (U0 = 1e14) the bounds' rounding errors reach about one
    # index; below 2**40 the window, 2A/(pi*sqrt 2) ~ 13.5 wide, still
    # holds its 14 indices
    with pytest.raises(ValueError, match="cannot be resolved"):
        mode_index_range(SlabConfig(30.0, 1e14))
    assert len(mode_index_range(SlabConfig(30.0, 1e10))) == 14


def test_reference_eigenvalue_table(approx_modes):
    assert len(approx_modes) == 17
    for res in approx_modes:
        ref_eps, ref_half_g = REFERENCE_EIGENVALUES[res.mode_index_m]
        assert res.eigenvalue.eps_R == pytest.approx(ref_eps, abs=1e-6)
        assert res.eigenvalue.half_width_Gamma == pytest.approx(ref_half_g, abs=1e-6)


def test_widths_increase_with_mode_index(approx_modes):
    widths = [r.eigenvalue.half_width_Gamma for r in approx_modes]
    assert all(b > a for a, b in zip(widths, widths[1:]))


def test_residual_on_real_axis_at_least_one(slab30):
    rng = np.random.default_rng(2)
    for eps_R in rng.uniform(-0.99, -0.01, 200):
        val = siegert_residual(ComplexEigenvalue(eps_R), slab30)
        assert abs(val) >= 1.0 - 1e-12


def test_residual_at_transparency_is_unit(slab30, approx_modes):
    # sin(2QA) = 0 there, so the condition reduces to cos(2QA) = +-1
    for res in approx_modes:
        u0 = slab30.core_index_U0
        center = (res.mode_index_m * math.pi / 60) ** 2 / (2 * u0) - u0
        val = siegert_residual(ComplexEigenvalue(center), slab30)
        assert abs(val) == pytest.approx(1.0, abs=1e-9)
        assert abs(val.real) == pytest.approx(1.0, abs=1e-9)


def test_residual_small_but_nonzero_at_seeds(approx_modes, slab30):
    for res in approx_modes:
        val = abs(siegert_residual(res.eigenvalue, slab30))
        assert 1e-4 < val < 0.5


def test_residual_pole_detection(slab30):
    with pytest.raises(ValueError, match="pole"):
        siegert_residual(ComplexEigenvalue(-1.0), slab30)
    # the kernel itself refuses the pole
    with pytest.raises(ValueError, match="pole"):
        _dispersion(0j, slab30)


def test_residual_is_finite_at_the_interior_band_edge(slab30):
    # Q = 0 (eps = -U0) is a removable point: f tends to 1 - i*A*K, with K = -i
    u0, a = slab30.core_index_U0, slab30.half_width_A
    edge = ComplexEigenvalue(-u0)
    K = eigenvalue_to_wavenumbers(edge, slab30).K
    assert K == -1j
    val = siegert_residual(edge, slab30)
    assert val == 1.0 - 1j * a * K == -29.0
    # |df/deps| is ~5e4 there, so 1e-12 away f moves by ~5e-8
    assert abs(siegert_residual(ComplexEigenvalue(-u0 + 1e-12), slab30) - val) < 1e-6


def test_refinement_m24(slab30, approx_modes):
    seed = approx_modes[0]
    refined = refine_resonance(seed, slab30)
    assert refined.method == "refined"
    assert refined.residual <= 1e-10
    assert abs(refined.eigenvalue.value - seed.eigenvalue.value) <= 5 * seed.eigenvalue.width_Gamma
    assert -0.999 < refined.eigenvalue.eps_R < -0.95
    assert refined.eigenvalue.half_width_Gamma < 0.02


def test_newton_stall_is_reported(slab30, approx_modes, monkeypatch):
    # no |f| is small enough to stop on, so the steps shrink below 1e-14 while
    # |f| stays above the tightened residual bound
    monkeypatch.setattr(resonances, "_NEWTON_TOL", 0.0)
    monkeypatch.setattr(resonances, "_REFINED_RESIDUAL", 1e-30)
    with pytest.raises(ConvergenceError, match="Newton stalled"):
        refine_resonance(approx_modes[0], slab30)


def test_newton_iteration_cap_is_reported(slab30, approx_modes, monkeypatch):
    # one step from the seed does not bring |f| down to the tolerance
    monkeypatch.setattr(resonances, "_NEWTON_MAX_ITER", 1)
    with pytest.raises(ConvergenceError, match="no convergence after 1 iterations"):
        refine_resonance(approx_modes[0], slab30)


def test_residual_is_the_condition_at_the_stored_wavenumber(slab30):
    # the reference slab and 60 envelope slabs: a seed stores the K of its
    # eigenvalue, a refined resonance Newton's own K, and each stores Q and
    # the residual |f| at exactly that K
    rng = np.random.default_rng(12345)
    slabs = [slab30] + [
        SlabConfig(math.exp(rng.uniform(math.log(5.0), math.log(60.0))), rng.uniform(1.05, 2.0))
        for _ in range(60)
    ]
    checked = 0
    for cfg in slabs:
        for seed in approximate_resonances(cfg):
            Q, f = _dispersion(seed.wavenumbers.K, cfg)
            assert seed.wavenumbers == eigenvalue_to_wavenumbers(seed.eigenvalue, cfg)
            assert seed.residual == abs(f), (cfg, seed.mode_index_m)
            try:
                res = refine_resonance(seed, cfg)
            except LeakySlabError:
                continue
            Q, f = _dispersion(res.wavenumbers.K, cfg)
            assert (res.wavenumbers.Q, res.residual) == (Q, abs(f)), (cfg, seed.mode_index_m)
            checked += 1
    assert checked >= 500


def test_all_refined_roots_distinct_and_separated(refined_modes, approx_modes):
    assert len(refined_modes) == 17
    seed_widths = {r.mode_index_m: r.eigenvalue.width_Gamma for r in approx_modes}
    for a, b in zip(refined_modes, refined_modes[1:]):
        gap = b.eigenvalue.eps_R - a.eigenvalue.eps_R
        assert gap > max(seed_widths[a.mode_index_m], seed_widths[b.mode_index_m])


def test_refined_count_matches_argument_principle(slab30, refined_modes):
    assert count_leaky_modes(slab30) == len(refined_modes) == 17


def test_count_refines_the_edges_where_the_phase_turns_fast(slab30):
    # the bottom and top edges of the counted box turn f through ~8 full
    # circles: 16 samples miss whole turns, so only the adaptive refinement
    # reaches the winding of a dense 65536-sample sum
    def flat_sum(z0, z1, n):
        zs = z0 + (z1 - z0) * np.linspace(0.0, 1.0, n + 1)
        vals = _dispersion(np.sqrt(2.0 * (zs + 1.0)), slab30)[1]
        return float(np.angle(vals[1:] / vals[:-1]).sum())

    box = resonances._COUNT_BOX
    for (i, j), dense, coarse in (((0, 1), 51.7599, 1.4945), ((2, 3), 53.1652, -3.3834)):
        refined = resonances._winding_on_segment(box[i], box[j], slab30, 16)
        assert abs(refined - flat_sum(box[i], box[j], 65536)) <= 1e-9
        assert refined == pytest.approx(dense, abs=1e-4)
        assert flat_sum(box[i], box[j], 16) == pytest.approx(coarse, abs=1e-4)


def test_count_through_a_root_is_reported(slab30, refined_modes):
    # a segment through a root has a phase jump that no sampling resolves,
    # so the refinement gives up instead of recursing without end
    root = refined_modes[0]
    assert root.mode_index_m == 24
    eps = root.eigenvalue.value
    with pytest.raises(ConvergenceError, match="winding-number refinement stalled"):
        resonances._winding_on_segment(eps - 0.01, eps + 0.01, slab30, 16)


def test_refinement_rejects_guided_band_seed(slab30):
    eps = ComplexEigenvalue(-1.2, 0.0)
    seed = Resonance(
        mode_index_m=0,
        eigenvalue=eps,
        wavenumbers=eigenvalue_to_wavenumbers(eps, slab30),
        residual=abs(siegert_residual(eps, slab30)),
        method="approximate",
    )
    with pytest.raises((ConvergenceError, RootJumpError)):
        refine_resonance(seed, slab30)


def test_resonance_type_invariants(slab30):
    eps = ComplexEigenvalue(-0.5, 0.01)
    wn = eigenvalue_to_wavenumbers(eps, slab30)
    with pytest.raises(ValueError, match="method"):
        Resonance(1, eps, wn, 0.0, "polished")
    with pytest.raises(ValueError, match="residual"):
        Resonance(1, eps, wn, 1e-3, "refined")
