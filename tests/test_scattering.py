import math

import numpy as np
import pytest

from leakyslab import (
    Curve,
    SlabConfig,
    fbw_superposition,
    shift_sweep,
    transfer_amplitudes,
    transmission_sweep,
    unwrapped_phase,
    width_sweep,
)
from leakyslab import core, scattering
from leakyslab.core import _kernel


def half_wave_center(m: int, cfg: SlabConfig) -> float:
    """eps_R where 2*Q*A = m*pi (transparency point)."""
    u0 = cfg.core_index_U0
    return (m * math.pi / (2 * cfg.half_width_A)) ** 2 / (2 * u0) - u0


# ---- independent closed forms used as oracles -------------------------------

def _kq(eps_R: float, cfg: SlabConfig):
    K = math.sqrt(2 * (eps_R + 1))
    Q = math.sqrt(cfg.core_index_U0 * (K * K + 2 * (cfg.core_index_U0 - 1)))
    return K, Q


def closed_form_t(eps_R: float, cfg: SlabConfig) -> complex:
    K, Q = _kq(eps_R, cfg)
    A = cfg.half_width_A
    denom = math.cos(2 * Q * A) - 0.5j * (K / Q + Q / K) * math.sin(2 * Q * A)
    return np.exp(-2j * K * A) / denom


def closed_form_r(eps_R: float, cfg: SlabConfig) -> complex:
    K, Q = _kq(eps_R, cfg)
    A = cfg.half_width_A
    denom = math.cos(2 * Q * A) - 0.5j * (K / Q + Q / K) * math.sin(2 * Q * A)
    return np.exp(-2j * K * A) * 0.5j * (Q / K - K / Q) * math.sin(2 * Q * A) / denom


def closed_form_T(eps_R: float, cfg: SlabConfig) -> float:
    K, Q = _kq(eps_R, cfg)
    s = math.sin(2 * Q * cfg.half_width_A)
    return 1.0 / (1.0 + ((K * K - Q * Q) ** 2 / (4 * K * K * Q * Q)) * s * s)


def closed_form_phi_principal(eps_R: float, cfg: SlabConfig) -> float:
    K, Q = _kq(eps_R, cfg)
    A = cfg.half_width_A
    return -math.atan(
        2 * K * Q * math.cos(2 * Q * A) / ((K * K + Q * Q) * math.sin(2 * Q * A))
    )


# -----------------------------------------------------------------------------

# the reference slab plus a thin strong-contrast and a wide weak-contrast
# slab from the corners of the benchmark envelope
ENVELOPE_SLABS = [
    SlabConfig(half_width_A=30.0, core_index_U0=1.5),
    SlabConfig(half_width_A=5.203723, core_index_U0=1.873355),
    SlabConfig(half_width_A=60.0, core_index_U0=1.05),
]


def _slab_id(slab: SlabConfig) -> str:
    return f"{slab.half_width_A}-{slab.core_index_U0}"


def test_transparency_at_half_wave_resonances(slab30):
    for m in range(24, 41):
        T = abs(transfer_amplitudes(half_wave_center(m, slab30), slab30).t) ** 2
        assert T == pytest.approx(1.0, abs=1e-12)


def test_flux_conservation(slab30):
    amp = transfer_amplitudes(-0.5, slab30)
    assert abs(amp.r) ** 2 + abs(amp.t) ** 2 == pytest.approx(1.0, abs=1e-14)


def test_unitarity_over_band(slab30):
    rng = np.random.default_rng(23)
    for eps in rng.uniform(-0.999, -0.001, 10_000):
        amp = transfer_amplitudes(eps, slab30)
        assert abs(abs(amp.r) ** 2 + abs(amp.t) ** 2 - 1.0) <= 1e-12


@pytest.mark.parametrize("slab", ENVELOPE_SLABS, ids=_slab_id)
def test_amplitudes_match_closed_forms(slab):
    rng = np.random.default_rng(5)
    for eps in rng.uniform(-0.999, -0.001, 200):
        amp = transfer_amplitudes(eps, slab)
        assert amp.t == pytest.approx(closed_form_t(eps, slab), abs=1e-12)
        assert amp.r == pytest.approx(closed_form_r(eps, slab), abs=1e-12)
        assert abs(amp.t) ** 2 == pytest.approx(closed_form_T(eps, slab), abs=1e-12)


def test_peak_of_transmission_near_m24(slab30):
    center = half_wave_center(24, slab30)
    grid = np.linspace(center - 0.02, center + 0.02, 2001)
    T = transmission_sweep(grid, slab30).values[:, 0]
    imax = int(np.argmax(T))
    assert T[imax] > 0.9999
    assert abs(grid[imax] - center) <= grid[1] - grid[0]


def test_midpoint_transmission_below_neighbor_peaks(slab30):
    mid = 0.5 * (half_wave_center(24, slab30) + half_wave_center(25, slab30))
    t_mid = abs(transfer_amplitudes(mid, slab30).t) ** 2
    assert t_mid < 1.0
    assert t_mid < abs(transfer_amplitudes(half_wave_center(24, slab30), slab30).t) ** 2
    assert t_mid < abs(transfer_amplitudes(half_wave_center(25, slab30), slab30).t) ** 2


def test_band_top_matches_closed_form(slab30):
    eps = -1e-6
    assert abs(transfer_amplitudes(eps, slab30).t) ** 2 == pytest.approx(
        closed_form_T(eps, slab30), abs=1e-10
    )


def test_transmission_maxima_align_with_half_wave_centers(slab30):
    grid = np.linspace(-0.999, -0.001, 20_000)
    curve = transmission_sweep(grid, slab30)
    T = curve.values[:, 0]
    step = grid[1] - grid[0]
    maxima = np.where((T[1:-1] > T[:-2]) & (T[1:-1] > T[2:]))[0] + 1
    assert len(maxima) == 17
    for i, m in zip(maxima, range(24, 41)):
        assert abs(grid[i] - half_wave_center(m, slab30)) <= step


def test_single_point_transmission_equals_the_sweep(slab30):
    # a one-point sweep agrees with the long sweep to the last bit
    grid = np.linspace(-0.999, -0.001, 4096)
    T = transmission_sweep(grid, slab30).values[:, 0]
    assert [transmission_sweep([e], slab30).values[0, 0] for e in grid] == T.tolist()


# T = 1/(1 + d(d+2)s^2) and |t|^2 = |e^{-2iKA}|^2/(c^2 + g^2 s^2) round
# differently (c^2 + s^2 and |e^{-2iKA}|^2 are 1 only to a few ulps), as does
# 1 - |r|^2; the bound, about 36 ulps of 1, was fixed before the first run.
SWEEP_T_BOUND = 4e-15


@pytest.mark.parametrize("k0a_u0", [(5, 1.05), (60, 2), (5, 2), (60, 1.05), (30, 1.5)])
def test_sweep_transmittance_matches_the_amplitudes(k0a_u0):
    slab = SlabConfig(*k0a_u0)
    grid = np.linspace(-0.999, -0.001, 4096)
    T = transmission_sweep(grid, slab).values[:, 0]
    amps = [transfer_amplitudes(float(e), slab) for e in grid]
    assert np.all(np.abs(T - np.array([abs(a.t) ** 2 for a in amps])) <= SWEEP_T_BOUND)
    assert np.all(np.abs(T - np.array([1 - abs(a.r) ** 2 for a in amps])) <= SWEEP_T_BOUND)


def test_transfer_amplitudes_evaluates_the_kernel_once(slab30, monkeypatch):
    # r and t come from one kernel call, whether it is made in scattering or
    # through a core function
    calls = []

    def counted(*args):
        calls.append(args[0])
        return _kernel(*args)

    monkeypatch.setattr(core, "_kernel", counted)
    monkeypatch.setattr(scattering, "_kernel", counted)
    for eps in (-0.999, -0.5, -0.001):
        calls.clear()
        transfer_amplitudes(eps, slab30)
        assert len(calls) == 1, eps


def test_phase_equals_closed_form_mod_pi(slab30):
    rng = np.random.default_rng(17)
    for eps in rng.uniform(-0.999, -0.001, 300):
        phi = unwrapped_phase([eps], slab30)[0]
        ref = closed_form_phi_principal(eps, slab30)
        diff = (phi - ref) / math.pi
        assert abs(diff - round(diff)) <= 1e-9


@pytest.mark.parametrize("slab", ENVELOPE_SLABS, ids=_slab_id)
def test_unwrapped_phase_is_continuous_and_matches_crossing_count(slab):
    grid = np.linspace(-0.995, -0.005, 3000)
    phi = unwrapped_phase(grid, slab)
    assert np.all(np.abs(np.diff(phi)) < math.pi / 4)
    # independent unwrap: principal arctan branch + pi per sin(2QA) zero crossing
    u0 = slab.core_index_U0
    A = slab.half_width_A
    K = np.sqrt(2 * (grid + 1))
    Q = np.sqrt(u0 * (K * K + 2 * (u0 - 1)))
    crossings = np.floor(2 * Q * A / math.pi)
    ref = np.array([closed_form_phi_principal(e, slab) for e in grid])
    ref = ref + math.pi * (crossings - crossings[0])
    assert np.allclose(phi, ref, atol=1e-9)


@pytest.mark.parametrize("slab", ENVELOPE_SLABS, ids=_slab_id)
def test_unwrapped_phase_coarse_grid_matches_dense_sweep(slab):
    # 40 points over the band: raw neighbor jumps far exceed pi/4 (several
    # pi on the wide slab), the coarse sweep must still land on the same
    # branch as a dense sweep
    refine = 512
    coarse = np.linspace(-0.9, -0.1, 40)
    dense = np.linspace(-0.9, -0.1, 39 * refine + 1)
    phi_c = unwrapped_phase(coarse, slab)
    phi_d = unwrapped_phase(dense, slab)
    assert np.allclose(phi_c, phi_d[::refine], atol=1e-6)


def test_domain_validation(slab30):
    # NaN fails every comparison, so the band check must ask "inside"
    # rather than "outside"
    for bad in (-1.0, -1.5, 0.0, 0.5, float("nan")):
        with pytest.raises(ValueError, match="radiation band"):
            transfer_amplitudes(bad, slab30)
        with pytest.raises(ValueError, match="radiation band"):
            transmission_sweep([bad], slab30)
        with pytest.raises(ValueError, match="radiation band"):
            width_sweep(bad, np.linspace(1.0, 60.0, 5), 1.5)
    with pytest.raises(ValueError, match="non-empty 1-D"):
        transmission_sweep([], slab30)
    with pytest.raises(ValueError, match="non-empty 1-D"):
        shift_sweep([], slab30)
    # Q would overflow on this slab, and on the second only dphi/dK: each
    # lies outside SlabConfig's domain, so no point function or sweep runs
    for call, field in (
        (lambda: transfer_amplitudes(-0.5, SlabConfig(30.0, 1e200)), "core_index_U0"),
        (lambda: transmission_sweep([-0.5], SlabConfig(30.0, 1e200)), "core_index_U0"),
        (lambda: unwrapped_phase([-0.5, -0.4], SlabConfig(30.0, 1e200)), "core_index_U0"),
        (lambda: transmission_sweep([-0.5, -0.4], SlabConfig(30.0, 1e200)), "core_index_U0"),
        (lambda: transmission_sweep([-0.9, -0.8], SlabConfig(1e308, 1.001)), "half_width_A"),
    ):
        with pytest.raises(ValueError, match=f"{field} = .* is outside the slab domain"):
            call()


def test_fbw_superposition_single_line():
    line = [(-0.5, 0.02)]
    assert fbw_superposition(-0.5, line) == pytest.approx(1.0)
    assert fbw_superposition(-0.5 + 0.01, line) == pytest.approx(0.5)
    assert fbw_superposition(-0.5 - 0.01, line) == pytest.approx(0.5)


def test_fbw_superposition_validation():
    with pytest.raises(ValueError, match="at least one"):
        fbw_superposition(0.0, [])
    with pytest.raises(ValueError, match="sorted"):
        fbw_superposition(0.0, [(-0.4, 0.1), (-0.5, 0.1)])
    with pytest.raises(ValueError, match="sorted"):
        fbw_superposition(0.0, [(-0.5, 0.1), (-0.5, 0.2)])
    nan, inf = float("nan"), float("inf")
    for bad in ((nan, 0.1), (inf, 0.1), (-inf, 0.1), (-0.5, nan), (-0.5, inf), (-0.5, -0.2)):
        with pytest.raises(ValueError, match="finite"):
            fbw_superposition(-0.5, [(-0.6, 0.1), bad])
    with pytest.raises(ValueError, match="eps_R must not be NaN"):
        fbw_superposition(nan, [(-0.5, 0.1)])
    # a zero width is the lineshape's delta-like limit: 1 at the centre, 0 elsewhere
    assert fbw_superposition(-0.5, [(-0.5, 0.0)]) == 1.0
    assert fbw_superposition(-0.5, [(-0.5, 1e-200)]) == 1.0
    assert fbw_superposition(-0.5 + 1e-12, [(-0.5, 0.0)]) == 0.0
    assert fbw_superposition(-0.5, [(-0.6, 0.0), (-0.5, 0.0), (-0.4, 0.0)]) == 1.0
    assert type(fbw_superposition(-0.5, [(-0.6, 0.0), (-0.5, 0.0)])) is float


def test_fbw_superposition_sums_every_term():
    lines = [(-0.6, 0.02), (-0.4, 0.02)]
    assert fbw_superposition(-0.6, lines[:1]) == pytest.approx(1.0, abs=1e-6)
    assert fbw_superposition(-0.6, lines) > 1.0


def test_curve_validation():
    with pytest.raises(ValueError, match="strictly increasing"):
        Curve(abscissa=[0.0, 0.0, 1.0], values=[1.0, 2.0, 3.0], labels=("x", "y"))
    with pytest.raises(ValueError, match="does not match"):
        Curve(abscissa=[0.0, 1.0], values=[1.0], labels=("x", "y"))
    with pytest.raises(ValueError, match="labels"):
        Curve(abscissa=[0.0, 1.0], values=[1.0, 2.0], labels=("x",))
    with pytest.raises(ValueError, match="finite"):
        Curve(abscissa=[float("nan")], values=[1.0], labels=("x", "y"))
    with pytest.raises(ValueError, match="finite"):
        Curve(abscissa=[0.0, float("inf")], values=[1.0, 2.0], labels=("x", "y"))
    with pytest.raises(ValueError, match="real"):
        Curve(abscissa=[0.0, 1.0], values=[1.0, 2.0j], labels=("x", "y"))
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError, match="values must be finite"):
            Curve(abscissa=[0.0, 1.0], values=[1.0, bad], labels=("x", "y"))
        with pytest.raises(ValueError, match="values must be finite"):
            Curve(abscissa=[0.0, 1.0], values=[[1.0, 2.0], [3.0, bad]], labels=("x", "y", "z"))
