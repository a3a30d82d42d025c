import math

import numpy as np
import pytest

from leakyslab import (
    ComplexEigenvalue,
    SlabConfig,
    beam_slope,
    eigenvalue_to_wavenumbers,
)


def invert(wn):
    """Oracle: eps = K**2/2 - 1, the exterior dispersion relation."""
    return ComplexEigenvalue.from_complex(wn.K * wn.K / 2.0 - 1.0)


def test_band_bottom_gives_zero_wavenumber(slab30):
    wn = eigenvalue_to_wavenumbers(ComplexEigenvalue(-1.0), slab30)
    assert wn.K == 0


def test_real_radiation_point(slab30):
    wn = eigenvalue_to_wavenumbers(ComplexEigenvalue(-0.5), slab30)
    assert wn.K == pytest.approx(1.0, abs=1e-15)
    assert wn.Q == pytest.approx(math.sqrt(3.0), abs=1e-14)


def test_tabulated_leaky_eigenvalue_roundtrip(slab30):
    eps = ComplexEigenvalue(eps_R=-0.973621, half_width_Gamma=0.0051042)
    wn = eigenvalue_to_wavenumbers(eps, slab30)
    assert wn.K.real > 0 and wn.K.imag < 0
    assert wn.K**2 / 2 == pytest.approx(0.026379 - 0.0051042j, abs=1e-12)
    back = invert(wn)
    assert back.eps_R == pytest.approx(eps.eps_R, rel=1e-14)
    assert back.half_width_Gamma == pytest.approx(eps.half_width_Gamma, rel=1e-13)


def test_roundtrip_over_random_rectangle(slab30):
    rng = np.random.default_rng(7)
    eps_r = rng.uniform(-slab30.core_index_U0, 0.0, 1000)
    half_g = rng.uniform(0.0, 0.1, 1000)
    for er, hg in zip(eps_r, half_g):
        eps = ComplexEigenvalue(er, hg)
        back = invert(eigenvalue_to_wavenumbers(eps, slab30))
        assert abs(back.value - eps.value) <= 1e-13 * max(1.0, abs(eps.value))


def test_branch_selection_by_band(slab30):
    # radiation band: K real positive
    for er in (-0.999, -0.5, -0.001):
        wn = eigenvalue_to_wavenumbers(ComplexEigenvalue(er), slab30)
        assert wn.K.imag == 0.0
        assert wn.K.real > 0
    # guided band: purely imaginary with Im K <= 0 after branch selection
    for er in (-1.4, -1.2, -1.0001):
        wn = eigenvalue_to_wavenumbers(ComplexEigenvalue(er), slab30)
        assert wn.K.real == 0.0
        assert wn.K.imag < 0


def test_wavenumber_identity(slab30):
    rng = np.random.default_rng(11)
    u0 = slab30.core_index_U0
    for er, hg in zip(rng.uniform(-1.5, 0, 300), rng.uniform(0, 0.1, 300)):
        wn = eigenvalue_to_wavenumbers(ComplexEigenvalue(er, hg), slab30)
        lhs = wn.Q**2 - u0 * wn.K**2
        assert lhs == pytest.approx(2 * u0 * (u0 - 1), abs=1e-13)


def test_fourth_quadrant_for_leaky_eigenvalues(slab30):
    rng = np.random.default_rng(3)
    for er, hg in zip(rng.uniform(-0.99, -0.01, 200), rng.uniform(1e-6, 0.1, 200)):
        wn = eigenvalue_to_wavenumbers(ComplexEigenvalue(er, hg), slab30)
        assert wn.K.real >= 0
        assert wn.K.imag <= 0


@pytest.mark.parametrize(
    "eps_R,index,expected",
    [(-1.5, 1.5, 0.0), (0.0, 1.5, math.pi / 2), (-0.75, 1.5, math.pi / 3)],
)
def test_beam_slope_values(eps_R, index, expected):
    assert beam_slope(eps_R, index) == pytest.approx(expected, abs=1e-14)


def test_beam_slope_rejects_evanescent():
    with pytest.raises(ValueError, match="no real ray angle"):
        beam_slope(-1.6, 1.5)


def test_config_validation():
    with pytest.raises(ValueError, match="half_width_A"):
        SlabConfig(half_width_A=0.0, core_index_U0=1.5)
    with pytest.raises(ValueError, match="core_index_U0"):
        SlabConfig(half_width_A=30.0, core_index_U0=1.0)
    with pytest.raises(ValueError, match="half_width_A"):
        SlabConfig(half_width_A=math.inf, core_index_U0=1.5)
    with pytest.raises(ValueError, match="half_width_A"):
        SlabConfig(half_width_A=math.nan, core_index_U0=1.5)
    with pytest.raises(ValueError, match="core_index_U0"):
        SlabConfig(half_width_A=30.0, core_index_U0=math.inf)
    with pytest.raises(ValueError, match="half_width_Gamma"):
        ComplexEigenvalue(eps_R=-0.5, half_width_Gamma=-1e-3)
    with pytest.raises(ValueError, match="lower half plane"):
        ComplexEigenvalue.from_complex(-0.5 + 0.01j)
