import numpy as np
import pytest

from leakyslab import mode_profile, propagate_mode
from leakyslab.fields import FieldGrid


@pytest.fixture(scope="module")
def profiles(slab30, refined_modes):
    return {r.mode_index_m: mode_profile(r, slab30) for r in refined_modes}


def _interface_jumps(field):
    """Relative value/derivative mismatches at x = -A and x = +A."""
    A = field.slab.half_width_A
    K = field.resonance.wavenumbers.K
    Q = field.resonance.wavenumbers.Q
    a_i, b, c, d = field.coefficients
    out = []
    for x0, ext_val, ext_der in (
        (-A, a_i * np.exp(1j * K * A), -1j * K * a_i * np.exp(1j * K * A)),
        (+A, d * np.exp(1j * K * A), 1j * K * d * np.exp(1j * K * A)),
    ):
        int_val = b * np.exp(1j * Q * x0) + c * np.exp(-1j * Q * x0)
        int_der = 1j * Q * (b * np.exp(1j * Q * x0) - c * np.exp(-1j * Q * x0))
        out.append(abs(int_val - ext_val) / max(abs(int_val), abs(ext_val)))
        out.append(abs(int_der - ext_der) / max(abs(int_der), abs(ext_der)))
    return out


def test_matching_residuals_all_modes(profiles):
    for field in profiles.values():
        assert max(_interface_jumps(field)) <= 1e-10


def test_interior_maximum_normalization(profiles, slab30):
    xs = np.linspace(-slab30.half_width_A, slab30.half_width_A, 4001)
    for field in profiles.values():
        peak = np.max(np.abs(field.evaluate(xs)))
        assert peak == pytest.approx(1.0, abs=1e-12)


def test_exterior_amplitude_grows(profiles, slab30):
    A = slab30.half_width_A
    ds = np.linspace(0.01, 5 * A, 400)
    for field in profiles.values():
        right = np.abs(field.evaluate(A + ds))
        left = np.abs(field.evaluate(-A - ds))
        assert np.all(np.diff(right) > 0)
        assert np.all(np.diff(left) > 0)


def test_outgoing_log_derivative(profiles):
    for field in profiles.values():
        K = field.resonance.wavenumbers.K
        A = field.slab.half_width_A
        assert field.log_derivative(A + 0.5) == pytest.approx(-1j * K, abs=1e-12)
        assert field.log_derivative(-A - 0.5) == pytest.approx(1j * K, abs=1e-12)


def test_outgoing_condition_from_interior_side(profiles):
    # log-derivative computed from the interior expression right at the
    # boundary must already equal the outgoing value
    for field in profiles.values():
        K = field.resonance.wavenumbers.K
        A = field.slab.half_width_A
        eps_in = A * 1e-13
        beta_right = field.log_derivative(A - eps_in)
        beta_left = field.log_derivative(-A + eps_in)
        assert beta_right == pytest.approx(-1j * K, abs=1e-8)
        assert beta_left == pytest.approx(1j * K, abs=1e-8)


def test_numerical_log_derivative_matches_outgoing(profiles):
    # finite-difference version of the boundary condition, as a cross-check
    field = profiles[24]
    K = field.resonance.wavenumbers.K
    x0 = field.slab.half_width_A + 1.0
    h = 1e-6
    dphi = (field.evaluate([x0 + h])[0] - field.evaluate([x0 - h])[0]) / (2 * h)
    beta = -dphi / field.evaluate([x0])[0]
    assert beta == pytest.approx(-1j * K, abs=1e-8)


def test_mode_profile_requires_refined_root(slab30, approx_modes):
    with pytest.raises(ValueError, match="refined"):
        mode_profile(approx_modes[0], slab30)


def test_propagation_z0_column_is_profile(profiles, slab30):
    field = profiles[24]
    x = np.linspace(-60, 60, 301)
    z = np.array([0.0, 10.0, 50.0])
    grid = propagate_mode(field, x, z)
    assert np.array_equal(grid.amplitudes[:, 0], field.evaluate(x))


def test_propagation_axial_decay_identity(profiles, slab30):
    for m in (24, 32, 40):
        field = profiles[m]
        gamma = field.resonance.eigenvalue.width_Gamma
        x = np.linspace(-55, 55, 181)
        z = np.linspace(0.0, 120.0, 61)
        grid = propagate_mode(field, x, z)
        ratio = np.abs(grid.amplitudes) ** 2 / (np.abs(grid.amplitudes[:, :1]) ** 2)
        expected = np.exp(-gamma * z)[None, :]
        assert np.max(np.abs(ratio - expected) / expected) <= 1e-12


def test_log_intensity_affine_in_z(profiles):
    field = profiles[28]
    gamma = field.resonance.eigenvalue.width_Gamma
    x = np.linspace(-40, 40, 41)
    z = np.linspace(0.0, 200.0, 101)
    grid = propagate_mode(field, x, z)
    logi = np.log(np.abs(grid.amplitudes) ** 2)
    slopes = (logi[:, -1] - logi[:, 0]) / (z[-1] - z[0])
    assert np.allclose(slopes, -gamma, atol=1e-12)


def test_faster_leakage_for_higher_mode_index(profiles):
    z = np.array([0.0, 50.0])
    x = np.array([0.0])
    att = {}
    for m in (24, 40):
        grid = propagate_mode(profiles[m], x, z)
        att[m] = abs(grid.amplitudes[0, 1]) ** 2 / abs(grid.amplitudes[0, 0]) ** 2
    assert att[40] < att[24]


def test_propagate_rejects_negative_z(profiles):
    with pytest.raises(ValueError, match="z_grid"):
        propagate_mode(profiles[24], np.array([0.0, 1.0]), np.array([-1.0, 0.0]))


def test_field_grid_validation():
    with pytest.raises(ValueError, match="grids must be increasing"):
        FieldGrid(np.array([1.0, 0.0]), np.array([0.0]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="shape"):
        FieldGrid(np.array([0.0, 1.0]), np.array([0.0]), np.zeros((3, 1)))
    with pytest.raises(ValueError, match="grids must be finite"):
        FieldGrid(np.array([np.nan]), np.array([0.0]), np.zeros((1, 1)))
    with pytest.raises(ValueError, match="grids must be finite"):
        FieldGrid(np.array([0.0, 1.0]), np.array([0.0, np.inf]), np.zeros((2, 2)))
    for bad in (complex(np.nan, 0.0), complex(0.0, np.inf)):
        with pytest.raises(ValueError, match="amplitudes must be finite"):
            FieldGrid(np.array([0.0]), np.array([0.0]), np.array([[bad]]))
