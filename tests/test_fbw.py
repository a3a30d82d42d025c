import math

import numpy as np
import pytest

from leakyslab import (
    FbwLine,
    fbw_superposition,
    fourier_coefficient,
    lineshape,
)


def test_lineshape_peak_and_half_maximum():
    line = FbwLine(center_E0=2.0, width_Gamma=0.5)
    assert lineshape(line, 2.0) == 1.0
    assert lineshape(line, 2.0 + 0.25) == pytest.approx(0.5, abs=1e-15)
    assert lineshape(line, 2.0 - 0.25) == pytest.approx(0.5, abs=1e-15)


def test_lineshape_tails_vanish():
    line = FbwLine(center_E0=0.0, width_Gamma=1.0)
    assert lineshape(line, 1e8) < 1e-15
    assert lineshape(line, -1e8) < 1e-15


def test_lineshape_far_tail_is_zero_not_overflow():
    # (E - E0)^2 overflows: the limit 0, without an OverflowError or a
    # numpy overflow warning (a RuntimeWarning fails the test)
    line = FbwLine(center_E0=0.0, width_Gamma=1.0)
    assert lineshape(line, 1e200) == 0.0
    assert np.array_equal(lineshape(line, np.array([-1e200, 0.0, 1e200])), [0.0, 1.0, 0.0])
    assert fbw_superposition(1e200, [(0.0, 1.0)]) == 0.0
    assert fbw_superposition(-1e200, [(0.0, 1.0), (1.0, 0.5)]) == 0.0
    # a numpy scalar squares to inf with a warning where a float raises
    assert fbw_superposition(np.float64(1e200), [(0.0, 1.0)]) == 0.0


def test_lineshape_symmetry_exact():
    line = FbwLine(center_E0=-0.3, width_Gamma=0.07)
    for delta in (0.001, 0.05, 1.0, 20.0):
        assert lineshape(line, -0.3 + delta) == lineshape(line, -0.3 - delta)


def test_lineshape_zero_width_is_delta_like():
    line = FbwLine(center_E0=1.0, width_Gamma=0.0)
    assert lineshape(line, 1.0) == 1.0
    assert lineshape(line, 1.0 + 1e-12) == 0.0
    # (Gamma/2)^2 underflows: the same limit, not 0/0
    line = FbwLine(center_E0=1.0, width_Gamma=1e-200)
    assert lineshape(line, 1.0) == 1.0
    assert lineshape(line, 1.0 + 1e-12) == 0.0
    es = np.array([0.0, 1.0 - 1e-12, 1.0, 2.0])
    assert lineshape(line, es).tolist() == [0.0, 0.0, 1.0, 0.0]


def test_fourier_coefficient_center_value():
    line = FbwLine(center_E0=0.7, width_Gamma=0.1)
    c = fourier_coefficient(line, 0.7)
    assert c == pytest.approx(-1j, abs=1e-15)


@pytest.mark.parametrize("width", [0.0, 1e-320])
def test_fourier_coefficient_zero_width_limit(width):
    line = FbwLine(center_E0=0.5, width_Gamma=width)
    es = np.array([0.0, 0.5, 1.0])
    c = fourier_coefficient(line, es)
    assert c.tolist() == [0j, complex(0.0, -1.0), 0j]
    assert not np.signbit(c.real).any()
    assert np.array_equal(np.abs(c) ** 2, lineshape(line, es))
    assert fourier_coefficient(line, 0.5) == -1j
    assert abs(fourier_coefficient(line, 0.5)) ** 2 == lineshape(line, 0.5)


def test_fourier_coefficient_matches_lineshape():
    line = FbwLine(center_E0=-0.2, width_Gamma=0.03)
    rng = np.random.default_rng(19)
    es = rng.uniform(-5.0, 5.0, 10_000)
    assert np.allclose(
        np.abs(fourier_coefficient(line, es)) ** 2, lineshape(line, es), atol=1e-14
    )


def test_fourier_coefficient_five_widths_out():
    line = FbwLine(center_E0=0.0, width_Gamma=1.0)
    value = abs(fourier_coefficient(line, 5.0)) ** 2
    assert value == pytest.approx(1.0 / 101.0, rel=1e-12)


def test_nan_energy_is_refused():
    # a NaN energy has no lineshape value; +-inf keeps the far-tail limit 0
    line = FbwLine(center_E0=-0.5, width_Gamma=0.01)
    for evaluate in (lineshape, fourier_coefficient):
        with pytest.raises(ValueError, match="NaN"):
            evaluate(line, math.nan)
        with pytest.raises(ValueError, match="NaN"):
            evaluate(line, np.array([-0.5, math.nan]))
    assert lineshape(line, math.inf) == lineshape(line, -math.inf) == 0.0


def test_width_validation():
    with pytest.raises(ValueError, match="width_Gamma"):
        FbwLine(center_E0=0.0, width_Gamma=-0.1)
    with pytest.raises(ValueError, match="width_Gamma"):
        FbwLine(center_E0=0.0, width_Gamma=math.nan)
    with pytest.raises(ValueError, match="width_Gamma"):
        FbwLine(center_E0=0.0, width_Gamma=math.inf)
    with pytest.raises(ValueError, match="center_E0"):
        FbwLine(center_E0=math.inf, width_Gamma=1.0)
