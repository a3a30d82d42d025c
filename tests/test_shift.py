import math

import numpy as np
import pytest

from leakyslab import shift
from leakyslab import (
    LeakySlabError,
    SlabConfig,
    approximate_resonances,
    longitudinal_shift,
    phase_derivative,
    refine_all,
    shift_sweep,
    transmission_sweep,
    unwrapped_phase,
    wavepacket_shift,
    width_sweep,
)
from leakyslab.core import _phase_derivative, _transmission


def fd_phase_derivative(eps_R: float, cfg: SlabConfig, h: float = 1e-6) -> float:
    """Central difference of the unwrapped phase along K (test oracle)."""
    K = math.sqrt(2 * (eps_R + 1))
    e_plus = (K + h) ** 2 / 2 - 1
    e_minus = (K - h) ** 2 / 2 - 1
    phi = unwrapped_phase(np.array([e_minus, e_plus]), cfg)
    return (phi[1] - phi[0]) / (2 * h)


def test_phase_derivative_against_finite_differences(slab30):
    rng = np.random.default_rng(41)
    for eps in rng.uniform(-0.995, -0.005, 100):
        analytic = phase_derivative(eps, slab30)
        assert abs(analytic - fd_phase_derivative(eps, slab30)) <= 1e-6


def test_phase_derivative_regular_at_transparency(slab30):
    # the arctan form is 0/0 at sin(2QA) = 0; the derivative stays finite
    center = (24 * math.pi / 60) ** 2 / 3 - 1.5
    val = phase_derivative(center, slab30)
    assert np.isfinite(val)
    assert val == pytest.approx(fd_phase_derivative(center, slab30), abs=1e-6)


def test_no_contrast_limit_reduces_to_free_crossing():
    # with U0 -> 1 the slab disappears; dphi/dK -> 2A and the shift relative
    # to free propagation through the same span vanishes
    cfg = SlabConfig(half_width_A=30.0, core_index_U0=1.0 + 1e-9)
    for eps in (-0.9, -0.5, -0.1):
        assert phase_derivative(eps, cfg) == pytest.approx(60.0, abs=1e-5)
        sample = longitudinal_shift(eps, cfg)
        K = math.sqrt(2 * (eps + 1))
        assert sample.k0_delta_z - 2 * cfg.half_width_A / K == pytest.approx(0.0, abs=1e-4)


def test_shift_identity_exact(slab30):
    rng = np.random.default_rng(43)
    for eps in rng.uniform(-0.99, -0.01, 50):
        k0_delta_z, z_in, z_t = shift_sweep([eps], slab30).values[0]
        assert z_t - z_in == pytest.approx(k0_delta_z, rel=0, abs=1e-10)
        assert z_in == pytest.approx(-slab30.half_width_A / math.sqrt(2 * (eps + 1)))


def test_phase_derivative_peaks_at_resonance_center(slab30, refined_modes):
    r28 = next(r for r in refined_modes if r.mode_index_m == 28)
    center = r28.eigenvalue.eps_R
    grid = np.linspace(center - 0.01, center + 0.01, 4001)
    vals = phase_derivative(grid, slab30)
    assert abs(grid[np.argmax(vals)] - center) < 1e-3


def test_shift_peak_count_and_alignment_with_refined_roots(slab30, refined_modes):
    grid = np.linspace(-0.999, -0.001, 4096)
    step = grid[1] - grid[0]
    dz = shift_sweep(grid, slab30).values[:, 0]
    maxima = np.where((dz[1:-1] > dz[:-2]) & (dz[1:-1] > dz[2:]))[0] + 1
    assert len(maxima) == 17
    for res in refined_modes:
        nearest = maxima[np.argmin(np.abs(grid[maxima] - res.eigenvalue.eps_R))]
        assert abs(grid[nearest] - res.eigenvalue.eps_R) <= step


def test_negative_shift_exists_in_width_sweep():
    curve = width_sweep(-0.995, np.linspace(1.0, 60.0, 1200), 1.5)
    assert curve.values.min() < 0.0


def test_width_sweep_equals_per_width_phase_derivative():
    eps, u0 = -0.995, 1.5
    widths = np.linspace(1.0, 60.0, 1200)
    K = math.sqrt(2 * (eps + 1))
    per_width = np.array(
        [phase_derivative(eps, SlabConfig(half_width_A=a, core_index_U0=u0)) / K for a in widths]
    )
    assert np.array_equal(width_sweep(eps, widths, u0).values, per_width)


def test_the_split_kernel_routes_keep_one_set_of_bits(slab30):
    # dphi/dK and the phase come from separate kernel routes: a wrapper and
    # the sweep that reads the same route, and a one-point and a long call,
    # give the same bits
    grid = np.linspace(-0.999, -0.001, 4096)
    dz = shift_sweep(grid, slab30).values[:, 0]
    dphi = phase_derivative(grid, slab30)
    assert (dphi / np.sqrt(2 * (grid + 1))).tobytes() == dz.tobytes()
    one_point = [longitudinal_shift(float(e), slab30).k0_delta_z for e in grid]
    assert np.array(one_point).tobytes() == dz.tobytes()
    assert np.array([phase_derivative(float(e), slab30) for e in grid]).tobytes() == dphi.tobytes()
    phi = transmission_sweep(grid, slab30).values[:, 1]
    assert unwrapped_phase(grid, slab30).tobytes() == phi.tobytes()


def test_width_sweep_spot_value_large_slab():
    # the analytic derivative stays usable at macroscopic widths
    big = SlabConfig(half_width_A=50_000.0, core_index_U0=1.5)
    val = phase_derivative(-0.5, big)
    assert np.isfinite(val)
    assert val == pytest.approx(fd_phase_derivative(-0.5, big, h=1e-7), rel=1e-4)


def test_domain_validation(slab30):
    with pytest.raises(ValueError, match="radiation band"):
        phase_derivative(-1.2, slab30)
    with pytest.raises(ValueError, match="radiation band"):
        longitudinal_shift(0.1, slab30)
    with pytest.raises(ValueError, match="halfwidth_grid"):
        width_sweep(-0.5, [], 1.5)
    # Q would overflow on this slab (and 2QA on k0a = 1e308): each lies
    # outside SlabConfig's domain, the widest slab of a width sweep too
    for call, field in (
        (lambda: phase_derivative(-0.5, SlabConfig(30.0, 1e200)), "core_index_U0"),
        (lambda: longitudinal_shift(-0.5, SlabConfig(30.0, 1e200)), "core_index_U0"),
        (lambda: shift_sweep([-0.5, -0.4], SlabConfig(30.0, 1e200)), "core_index_U0"),
        (lambda: width_sweep(-0.5, [1.0, 1e308], 1.5), "half_width_A"),
        (lambda: wavepacket_shift(-0.5, 0.01, SlabConfig(30.0, 1e200)), "core_index_U0"),
    ):
        with pytest.raises(ValueError, match=f"{field} = .* is outside the slab domain"):
            call()


class TestWavepacket:
    def test_converges_to_stationary_phase(self, slab30, refined_modes):
        r28 = next(r for r in refined_modes if r.mode_index_m == 28)
        eps_c = r28.eigenvalue.eps_R
        k_c = math.sqrt(2 * (eps_c + 1))
        target = longitudinal_shift(eps_c, slab30).k0_delta_z
        measured = wavepacket_shift(eps_c, k_c / 160, slab30)
        assert abs(measured - target) / target <= 0.03

    def test_narrowing_the_packet_reduces_the_error(self, slab30, refined_modes):
        r28 = next(r for r in refined_modes if r.mode_index_m == 28)
        eps_c = r28.eigenvalue.eps_R
        k_c = math.sqrt(2 * (eps_c + 1))
        target = longitudinal_shift(eps_c, slab30).k0_delta_z
        err_wide = abs(wavepacket_shift(eps_c, k_c / 20, slab30) - target)
        err_half = abs(wavepacket_shift(eps_c, k_c / 40, slab30) - target)
        assert err_half < err_wide

    def test_free_space_packet_measures_free_crossing(self):
        cfg = SlabConfig(half_width_A=30.0, core_index_U0=1.0 + 1e-9)
        measured = wavepacket_shift(-0.5, 0.02, cfg)
        assert measured - 60.0 == pytest.approx(0.0, abs=1e-4)

    @pytest.mark.filterwarnings("error")
    def test_packet_width_validation(self, slab30):
        # sigma_K > K_c/6 puts K_c - 6 sigma_K below the band bottom
        with pytest.raises(ValueError, match="radiation band"):
            wavepacket_shift(-0.5, 0.5, slab30)
        with pytest.raises(ValueError, match="positive"):
            wavepacket_shift(-0.5, 0.0, slab30)
        with pytest.raises(ValueError, match="positive and finite"):
            wavepacket_shift(-0.5, float("nan"), slab30)
        # support would cross the band top cutoff
        with pytest.raises(ValueError, match="radiation band"):
            wavepacket_shift(-0.02, math.sqrt(2 * 0.98) / 6.5, slab30)
        with pytest.raises(ValueError, match="panels and nodes_per_panel"):
            wavepacket_shift(-0.5, 0.01, slab30, panels=0)
        with pytest.raises(ValueError, match="panels and nodes_per_panel"):
            wavepacket_shift(-0.5, 0.01, slab30, nodes_per_panel=0)
        for nz in (0, 2):
            with pytest.raises(ValueError, match="nz must be at least 3"):
                wavepacket_shift(-0.5, 0.01, slab30, nz=nz)
        # sizes follow BpmConfig's rule for nx: an integer, not an integral float
        for name, value in (("panels", 2.5), ("nodes_per_panel", 8.0), ("nz", 4001.0)):
            with pytest.raises(ValueError, match=f"{name} must be an integer"):
                wavepacket_shift(-0.5, 0.01, slab30, **{name: value})

    @pytest.mark.filterwarnings("error")
    def test_observation_plane_validation(self, slab30):
        # the packets are observed at the fixed plane x = 3000, which must
        # lie beyond the slab
        for A in (3000.0, 1e6):
            with pytest.raises(ValueError, match="beyond the slab"):
                wavepacket_shift(-0.5, 0.01, SlabConfig(A, 1.5))
        with pytest.raises(TypeError, match="x_observe"):
            wavepacket_shift(-0.5, 0.01, slab30, x_observe=3000.0)


def dense_packet_intensities(k, weights, x_observe, z, rows=500):
    """|exp(i(k x - eps_k z)) @ weights|^2 from the full phase matrix (test oracle)."""
    eps_k = k * k / 2.0 - 1.0
    out = np.empty((len(z), weights.shape[1]))
    for i0 in range(0, len(z), rows):
        zc = z[i0 : i0 + rows]
        phase = np.exp(1j * (k[None, :] * x_observe - eps_k[None, :] * zc[:, None]))
        out[i0 : i0 + rows] = np.abs(phase @ weights) ** 2
    return out


def reference_packet_width(k_c: float, divisor: float = 20) -> float:
    """K_c/divisor, narrowed so the +-6 sigma support stays below sqrt(2)."""
    return min(k_c / divisor, 0.99 * (math.sqrt(2) - k_c) / 6)


def shift_or_refusal(*args, **kwargs):
    """wavepacket_shift's value, or the message of its LeakySlabError."""
    try:
        return wavepacket_shift(*args, **kwargs)
    except LeakySlabError as exc:
        return str(exc)


# The default quadrature against 50 panels of 48 nodes: the reference slab
# at the benchmark's packet width and at half of it, a thin weak and a thick
# strong slab at the packet width, where the sweep of K_c/20, K_c/40 and
# K_c/160 over four slabs found the largest differences.  Every mode of
# each slab; the bound was fixed before the first run.
QUADRATURE_SLABS = [((30.0, 1.5), (20, 40)), ((5.0, 1.05), (20,)), ((60.0, 2.0), (20,))]
QUADRATURE_REL_BOUND = 1e-7


@pytest.mark.parametrize("k0a_u0, divisors", QUADRATURE_SLABS, ids=["k0a30", "thin-weak", "thick-strong"])
def test_default_quadrature_matches_48_nodes_per_panel(k0a_u0, divisors):
    slab = SlabConfig(*k0a_u0)
    compared = 0
    for mode in refine_all(approximate_resonances(slab), slab):
        eps_c = mode.eigenvalue.eps_R
        k_c = math.sqrt(2 * (eps_c + 1))
        for divisor in divisors:
            sig = reference_packet_width(k_c, divisor)
            got = shift_or_refusal(eps_c, sig, slab)
            want = shift_or_refusal(eps_c, sig, slab, panels=50, nodes_per_panel=48)
            if isinstance(want, str) or isinstance(got, str):
                # a multimodal envelope is refused by both quadratures alike
                assert got == want, (mode.mode_index_m, divisor)
                continue
            assert abs(got - want) <= QUADRATURE_REL_BOUND * abs(want), (mode.mode_index_m, divisor)
            compared += 1
    assert compared >= 3


# The centroid of the synthesized envelope against its exact value, from
# Parseval's theorem in the pair (eps, z): the z-centroid of
# sum_k w g t exp(i(k x - eps z)) is the group delay (x + phi' - 2A)/K
# averaged over the nodes with weight w |g t|^2 / K (the 1/K is d eps = K dK),
# minus the free packet's x/K averaged with weight w g^2 / K, plus 2A/K_c.
# Every reference-slab mode whose support stays in the band, at K_c/40 and
# K_c/80; the bound was fixed before the first run.  K_c/20 is left out:
# there wavepacket_shift's z window cuts the envelope (its edge holds up to
# 1.4e-3 of the peak), and the centroid misses by up to 1.6e-3.
CENTROID_DIVISORS = (40, 80)
CENTROID_REL_BOUND = 1e-9


def test_packet_centroid_equals_the_weighted_group_delay(slab30, refined_modes):
    A, U0, x_observe = slab30.half_width_A, slab30.core_index_U0, shift._X_OBSERVE
    compared = 0
    for mode in refined_modes:
        k_c = math.sqrt(2 * (mode.eigenvalue.eps_R + 1))
        for divisor in CENTROID_DIVISORS:
            sig = k_c / divisor
            if k_c + 6 * sig >= math.sqrt(2):
                continue
            k, w = shift._gauss_legendre_composite(k_c - 6 * sig, k_c + 6 * sig, 50, 8)
            g = np.exp(-((k - k_c) ** 2) / (2 * sig * sig))
            t, dphi = _transmission(k, A, U0), _phase_derivative(k, A, U0)
            # wavepacket_shift's z window, nz = 4001
            half_window = 8 / (k_c * sig) + 300
            z = np.linspace(x_observe / k_c - half_window, x_observe / k_c + half_window, 4001)
            weights = np.column_stack([w * g * t, w * g])
            trans, free = shift._packet_intensities(k, weights, x_observe, z).T
            centroid = z @ trans / trans.sum() - z @ free / free.sum() + 2 * A / k_c
            w_trans, w_free = w * np.abs(g * t) ** 2 / k, w * g**2 / k
            delay = (
                w_trans @ ((x_observe + dphi - 2 * A) / k) / w_trans.sum()
                - w_free @ (x_observe / k) / w_free.sum()
                + 2 * A / k_c
            )
            assert abs(centroid - delay) <= CENTROID_REL_BOUND * abs(delay), (
                mode.mode_index_m, divisor)
            compared += 1
    assert compared == 29


class TestFactoredSynthesis:
    @pytest.mark.parametrize(
        "nz",
        [4001, 40 * shift._Z_BLOCK, 40 * shift._Z_BLOCK + 1, shift._Z_BLOCK // 2 + 3],
        ids=["default", "block-multiple", "multiple-plus-one", "below-one-block"],
    )
    def test_intensities_match_dense_phase_matrix(self, slab30, refined_modes, nz):
        r28 = next(r for r in refined_modes if r.mode_index_m == 28)
        k_c = math.sqrt(2 * (r28.eigenvalue.eps_R + 1))
        sig = k_c / 20
        k, w = shift._gauss_legendre_composite(k_c - 6 * sig, k_c + 6 * sig, 50, 48)
        f = np.exp(-((k - k_c) ** 2) / (2 * sig * sig))
        t = _transmission(k, slab30.half_width_A, slab30.core_index_U0)
        weights = np.column_stack([w * f * t, w * f])
        x_observe = 3000.0
        half_window = 8 / (k_c * sig) + 300
        z = np.linspace(x_observe / k_c - half_window, x_observe / k_c + half_window, nz)

        got = shift._packet_intensities(k, weights, x_observe, z)
        want = dense_packet_intensities(k, weights, x_observe, z)
        assert got.shape == want.shape == (nz, 2)
        assert np.all(np.abs(got - want) <= 1e-10 * want.max(axis=0))

    # Row j of a doubled table carries base's rounding j times and at most
    # ceil(log2 n) + 1 complex products; exp(-i j a) carries the rounding of
    # j*a.  With u = 2^-53, base = exp(-i a) within 1.5u and a product or a
    # square within 2.3u, the two differ by at most (j(|a| + 4) + 16)u; the
    # bound doubles that and was fixed before the first run.
    @pytest.mark.parametrize("order", [8, 48])
    @pytest.mark.parametrize("n", [1, 2, 3, 63, 64])
    def test_doubled_power_tables_match_direct_exponentials(self, refined_modes, order, n):
        r28 = next(r for r in refined_modes if r.mode_index_m == 28)
        k_c = math.sqrt(2 * (r28.eigenvalue.eps_R + 1))
        sig = k_c / 20
        k, _ = shift._gauss_legendre_composite(k_c - 6 * sig, k_c + 6 * sig, 50, order)
        eps_k = k * k / 2 - 1
        # wavepacket_shift's z step, nz = 4001
        dz = 2 * (8 / (k_c * sig) + 300) / 4000
        j = np.arange(n)[:, None]
        for a in (eps_k * dz, eps_k * (shift._Z_BLOCK * dz)):
            table = shift._powers(np.exp(-1j * a), n)
            assert table.shape == (n, len(k))
            bound = 2 * (j * (np.abs(a) + 4) + 16) * 2.0**-53
            assert np.all(np.abs(table - np.exp(-1j * (j * a))) <= bound)

    @pytest.mark.parametrize("m", [24, 32, 40])
    def test_shift_matches_dense_phase_matrix(self, slab30, refined_modes, monkeypatch, m):
        mode = next(r for r in refined_modes if r.mode_index_m == m)
        eps_c = mode.eigenvalue.eps_R
        sig = reference_packet_width(math.sqrt(2 * (eps_c + 1)))
        factored = wavepacket_shift(eps_c, sig, slab30)
        monkeypatch.setattr(shift, "_packet_intensities", dense_packet_intensities)
        dense = wavepacket_shift(eps_c, sig, slab30)
        assert factored == pytest.approx(dense, rel=1e-9, abs=0)


class TestEnvelopePeak:
    def test_parabolic_interpolation_recovers_center(self):
        from leakyslab.shift import _envelope_peak

        z = np.linspace(-10.0, 10.0, 101)
        center = 0.731
        intensity = np.exp(-((z - center) ** 2) / 4.0)
        assert _envelope_peak(z, intensity) == pytest.approx(center, abs=1e-3)

    def test_bimodal_envelope_is_flagged(self):
        from leakyslab.shift import _envelope_peak

        z = np.linspace(-10.0, 10.0, 401)
        intensity = np.exp(-((z + 5) ** 2)) + 0.95 * np.exp(-((z - 5) ** 2))
        with pytest.raises(LeakySlabError, match="multimodal"):
            _envelope_peak(z, intensity)

    def test_edge_peak_is_flagged(self):
        from leakyslab.shift import _envelope_peak

        z = np.linspace(0.0, 1.0, 50)
        with pytest.raises(LeakySlabError, match="edge"):
            _envelope_peak(z, np.exp(z))
