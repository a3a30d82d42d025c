"""Acceptance suite: one test per release criterion, each printing a
``CRITERION nn: PASS|FAIL`` line with the measured numbers.

Three checks encode targets that this implementation measurably cannot meet
(06, the pairing clause of 07, and the 5% clause of 12); they are asserted
exactly as specified and fail with the measured values in the message.
The physics behind each shortfall is documented in the failing test's
docstring.
"""

import math
import time

import numpy as np

from leakyslab import (
    FbwLine,
    approximate_resonances,
    count_leaky_modes,
    fbw_superposition,
    lineshape,
    longitudinal_shift,
    measure_decay,
    mode_index_range,
    mode_profile,
    phase_derivative,
    propagate_mode,
    refine_all,
    siegert_residual,
    tapered_mode_column,
    transfer_amplitudes,
    transmission_sweep,
    unwrapped_phase,
    wavepacket_shift,
    width_sweep,
)
from leakyslab.bpm import BpmConfig, Propagator
from conftest import REFERENCE_EIGENVALUES


def report(num: int, ok: bool, detail: str) -> str:
    line = f"CRITERION {num:02d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    return line


def local_maxima(y: np.ndarray) -> np.ndarray:
    return np.where((y[1:-1] > y[:-2]) & (y[1:-1] > y[2:]))[0] + 1


def test_criterion_01_reference_table(slab30):
    elapsed = math.inf
    for _ in range(5):
        start = time.perf_counter()
        modes = approximate_resonances(slab30)
        elapsed = min(elapsed, time.perf_counter() - start)
    worst = 0.0
    for res in modes:
        ref_eps, ref_hg = REFERENCE_EIGENVALUES[res.mode_index_m]
        worst = max(
            worst,
            abs(res.eigenvalue.eps_R - ref_eps),
            abs(res.eigenvalue.half_width_Gamma - ref_hg),
        )
    ok = (
        len(modes) == 17
        and [r.mode_index_m for r in modes] == list(range(24, 41))
        and worst <= 1e-6
        and elapsed < 1e-3
    )
    line = report(1, ok, f"17 modes, max |error|={worst:.2e}, runtime={elapsed * 1e3:.3f} ms")
    assert ok, line


def test_criterion_02_mode_range(slab30):
    rng = mode_index_range(slab30)
    ok = list(rng) == list(range(24, 41))
    line = report(2, ok, f"mode index interval [{rng.start}, {rng.stop - 1}], {len(rng)} modes")
    assert ok, line


def test_criterion_03_exact_roots(slab30, approx_modes):
    start = time.perf_counter()
    refined = refine_all(approx_modes, slab30)
    count = count_leaky_modes(slab30)
    elapsed = time.perf_counter() - start
    worst_res = max(abs(siegert_residual(r.eigenvalue, slab30)) for r in refined)
    worst_move = max(
        abs(r.eigenvalue.value - s.eigenvalue.value) / s.eigenvalue.width_Gamma
        for r, s in zip(refined, approx_modes)
    )
    ok = worst_res <= 1e-10 and worst_move <= 5.0 and count == 17 and elapsed < 1.0
    line = report(
        3,
        ok,
        f"max residual={worst_res:.2e}, max move={worst_move:.2f} Gamma, "
        f"strip count={count}, runtime={elapsed:.2f} s",
    )
    assert ok, line


def test_criterion_04_outgoing_condition(slab30, refined_modes):
    worst = 0.0
    for res in refined_modes:
        field = mode_profile(res, slab30)
        K = res.wavenumbers.K
        A = slab30.half_width_A
        worst = max(
            worst,
            abs(field.log_derivative(A) - (-1j * K)),
            abs(field.log_derivative(-A) - (1j * K)),
        )
    ok = worst <= 1e-8
    line = report(4, ok, f"max |beta -+ iK| at the boundaries = {worst:.2e}")
    assert ok, line


def test_criterion_05_fbw_properties(slab30, refined_modes):
    """Lorentzian peak and half widths, and the 1/e power at one lifetime.

    The peak and half-width clauses read a line of m = 24's tabulated width,
    Gamma = 0.0102084.  The 1/e clause reads the refined m = 24 mode: at
    z = tau = 1/Gamma of that mode's own width (0.0102759), propagate_mode's
    power |E(x, z)|^2 is 1/e of its value at z = 0, at every x.  The BPM's
    fitted rate cannot carry a 1e-12 clause: ``leakyslab decay --k0a 30
    --u0 1.5 --m 24 --z-max 110`` gives 0.0102351, 0.40% below that Gamma.
    """
    line_shape = FbwLine(center_E0=-0.3, width_Gamma=0.0102084)
    hg = 0.5 * line_shape.width_Gamma
    peak = lineshape(line_shape, -0.3)
    half_up = lineshape(line_shape, -0.3 + hg)
    half_dn = lineshape(line_shape, -0.3 - hg)
    r24 = next(r for r in refined_modes if r.mode_index_m == 24)
    tau = 1.0 / r24.eigenvalue.width_Gamma
    grid = propagate_mode(mode_profile(r24, slab30), [0.0, 10.0, 45.0], [0.0, tau])
    power = np.abs(grid.amplitudes) ** 2
    ratio = power[:, 1] / power[:, 0]
    worst = max(
        abs(peak - 1.0),
        abs(half_up - 0.5),
        abs(half_dn - 0.5),
        float(np.max(np.abs(ratio - math.exp(-1.0)))),
    )
    ok = worst <= 1e-12
    line = report(5, ok, f"peak/half-width/1-over-e deviations <= {worst:.2e}")
    assert ok, line


def test_criterion_06_fbw_superposition_vs_transmission(slab30, approx_modes):
    """Lorentzian-sum approximation of T at the 17 peak centers.

    The 17 lineshapes overlap strongly here: near the band top the half
    width Gamma_n/2 reaches 0.41 of the spacing eps_{R,n+1} - eps_{R,n}
    (0.82 for the full width) on these closed-form modes, and 0.49 on the
    refined modes.  So at every transparency point the sum exceeds
    T = 1 by the accumulated neighbour tails: measured deviations run from
    0.088 (narrowest mode) to 0.41.  The 0.05 target is out of reach for
    this slab; it would require these ratios several times smaller.
    """
    terms = [
        (r.eigenvalue.eps_R, r.eigenvalue.width_Gamma) for r in approx_modes
    ]
    worst = 0.0
    for res in approx_modes:
        center = res.eigenvalue.eps_R
        diff = abs(
            fbw_superposition(center, terms) - abs(transfer_amplitudes(center, slab30).t) ** 2
        )
        worst = max(worst, diff)
    ok = worst <= 0.05
    line = report(6, ok, f"max |omega_17 - T| at peak centers = {worst:.3f} (target 0.05)")
    assert ok, line


def test_criterion_07_peak_coincidence(slab30):
    """Transmission maxima vs longitudinal-shift maxima on a 4096 grid.

    Both families count 17, but the shift maxima sit at the true complex
    pole positions while the transmission maxima sit at the transparency
    points; the two are physically displaced by 2-3 grid steps (5e-4 in
    eps) for every mode, so the one-step pairing cannot hold.  The shift
    maxima do land within one step of the refined eigenvalues.
    """
    grid = np.linspace(-0.999, -0.001, 4096)
    T = transmission_sweep(grid, slab30).values[:, 0]
    dz = phase_derivative(grid, slab30) / np.sqrt(2 * (grid + 1))
    t_max = local_maxima(T)
    dz_max = local_maxima(dz)
    offsets = [int(np.min(np.abs(dz_max - i))) for i in t_max]
    counts_ok = len(t_max) == 17 and len(dz_max) == 17
    pairing_ok = max(offsets) <= 1
    ok = counts_ok and pairing_ok
    line = report(
        7,
        ok,
        f"counts T/dz = {len(t_max)}/{len(dz_max)}, pairing offsets "
        f"{sorted(set(offsets))} grid steps (target <= 1)",
    )
    assert ok, line


def test_criterion_08_negative_shift(slab30):
    curve = width_sweep(-0.995, np.linspace(1.0, 60.0, 1200), slab30.core_index_U0)
    minimum = float(curve.values.min())
    ok = minimum < 0.0
    line = report(8, ok, f"min k0*delta_z over k0a in [1, 60] = {minimum:.2f}")
    assert ok, line


def test_criterion_09_phase_derivative_oracle(slab30):
    rng = np.random.default_rng(61)
    h = 1e-6
    worst = 0.0
    for eps in rng.uniform(-0.995, -0.005, 100):
        K = math.sqrt(2 * (eps + 1))
        pair = unwrapped_phase(np.array([(K - h) ** 2 / 2 - 1, (K + h) ** 2 / 2 - 1]), slab30)
        fd = (pair[1] - pair[0]) / (2 * h)
        worst = max(worst, abs(fd - phase_derivative(eps, slab30)))
    ok = worst <= 1e-6
    line = report(9, ok, f"max |analytic - FD| = {worst:.2e} over 100 points")
    assert ok, line


def test_criterion_10_modal_decay_identity(slab30, refined_modes):
    x = np.linspace(-50.0, 50.0, 101)
    z = np.linspace(0.0, 80.0, 41)
    worst = 0.0
    attenuation = {}
    for m in (24, 32, 40):
        res = next(r for r in refined_modes if r.mode_index_m == m)
        field = mode_profile(res, slab30)
        grid = propagate_mode(field, x, z)
        ratio = np.abs(grid.amplitudes) ** 2 / np.abs(grid.amplitudes[:, :1]) ** 2
        expected = np.exp(-res.eigenvalue.width_Gamma * z)[None, :]
        worst = max(worst, float(np.max(np.abs(ratio - expected) / expected)))
        attenuation[m] = float(ratio[len(x) // 2, -1])
    ordering_ok = attenuation[24] > attenuation[32] > attenuation[40]
    ok = worst <= 1e-12 and ordering_ok
    line = report(
        10,
        ok,
        f"max decay-identity error = {worst:.2e}; leakage ordering "
        f"m24 > m32 > m40 intensity: {ordering_ok}",
    )
    assert ok, line


def test_criterion_11_bpm_cross_validation(slab30, refined_modes):
    """Finite-difference propagation vs the tabulated m = 24 width.

    The propagator marches the operator whose eigenvalues the library
    reports, so a tapered m = 24 mode, marched as given, must lose core
    power at the tabulated rate Gamma = 0.0102084 to within 10%, fitted
    over z = 100-400 of a z_max = 500 run (the march ends at z = 400).  The
    support clauses check the discretisation
    on a narrow beam inside the slab's uniform core: the free Gaussian
    width law to 1e-3 and the per-step drift of the conserved norm below
    1e-10 while the beam stays clear of the transparent edges.
    """
    start = time.perf_counter()
    cfg = BpmConfig.for_slab(slab30)

    # free-space Gaussian width law: the beam stays inside the uniform core
    prop = Propagator(cfg)
    w0 = 5.0
    col = np.exp(-prop.x**2 / (2 * w0**2)).astype(complex)
    norm = prop.norm(col)
    drift = 0.0
    for col in prop.march(col, 100):
        new = prop.norm(col)
        drift = max(drift, abs(new - norm) / norm)
        norm = new
    z = 100 * cfg.dz
    intensity = np.abs(col) ** 2
    w_num = math.sqrt(
        2 * np.trapezoid(prop.x**2 * intensity, prop.x) / np.trapezoid(intensity, prop.x)
    )
    w_ref = w0 * math.sqrt(1 + (z / (slab30.core_index_U0 * w0**2)) ** 2)
    gauss_err = abs(w_num / w_ref - 1)

    # m = 24 leaky decay rate
    r24 = next(r for r in refined_modes if r.mode_index_m == 24)
    column = tapered_mode_column(mode_profile(r24, slab30), cfg)
    rate = measure_decay(cfg, column, 500.0)
    elapsed = time.perf_counter() - start
    gamma_ref = 0.0102084
    decay_err = abs(rate - gamma_ref) / gamma_ref

    ok_support = gauss_err <= 1e-3 and drift <= 1e-10 and elapsed < 60.0
    ok_decay = decay_err <= 0.10
    line = report(
        11,
        ok_support and ok_decay,
        f"gaussian width err={gauss_err:.2e}, norm drift={drift:.1e}/step, "
        f"decay rate={rate:.5f} vs {gamma_ref} ({decay_err * 100:.1f}%, target 10%), "
        f"runtime={elapsed:.1f} s",
    )
    assert ok_support, line
    assert ok_decay, line


def test_criterion_12_wavepacket_oracle(slab30, refined_modes):
    """Wave-packet-measured shift vs stationary phase at sigma_K = K_c/20.

    At K_c/20 the packet's spectral support spans roughly five resonance
    spacings, so the transmitted envelope has many humps and its peak, the
    measured arrival, follows no average of them: 101.12, 23% above the
    single-eigenvalue stationary-phase shift 82.22, while the envelope's
    intensity-weighted centroid, 60.40, lies 27% below it.  Halving sigma_K
    does reduce the peak's discrepancy (to 5.0%), and by K_c/160 it is ~2%;
    the 5% target is unreachable at the stated width.
    """
    r28 = next(r for r in refined_modes if r.mode_index_m == 28)
    eps_c = r28.eigenvalue.eps_R
    k_c = math.sqrt(2 * (eps_c + 1))
    target = longitudinal_shift(eps_c, slab30).k0_delta_z
    wide = wavepacket_shift(eps_c, k_c / 20, slab30)
    half = wavepacket_shift(eps_c, k_c / 40, slab30)
    err_wide = abs(wide - target) / target
    err_half = abs(half - target) / target
    ok_shrinks = err_half < err_wide
    ok_tolerance = err_wide <= 0.05
    line = report(
        12,
        ok_shrinks and ok_tolerance,
        f"stationary-phase {target:.2f}; measured {wide:.2f} at Kc/20 "
        f"({err_wide * 100:.1f}%, target 5%), {half:.2f} at Kc/40 "
        f"({err_half * 100:.1f}%); halving shrinks: {ok_shrinks}",
    )
    assert ok_shrinks, line
    assert ok_tolerance, line
