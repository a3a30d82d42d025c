import math

import numpy as np
import pytest

from leakyslab import (
    FbwLine,
    fourier_coefficient,
    lifetime,
    lineshape,
    survival_amplitude,
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


def test_survival_amplitude_at_zero():
    line = FbwLine(center_E0=0.4, width_Gamma=0.2)
    assert survival_amplitude(line, 0.0) == pytest.approx(0.1, abs=1e-15)


def test_survival_probability_law():
    line = FbwLine(center_E0=-0.9, width_Gamma=0.01)
    rng = np.random.default_rng(29)
    for t in rng.uniform(0.0, 500.0, 200):
        p = abs(survival_amplitude(line, t)) ** 2
        assert p == pytest.approx(0.005**2 * math.exp(-0.01 * t), rel=1e-13)


def test_survival_one_over_e_at_lifetime():
    line = FbwLine(center_E0=0.0, width_Gamma=0.0102084)
    tau = lifetime(line)
    ratio = abs(survival_amplitude(line, tau)) ** 2 / abs(survival_amplitude(line, 0.0)) ** 2
    assert ratio == pytest.approx(math.exp(-1.0), abs=1e-14)


def test_survival_probability_strictly_decreasing():
    line = FbwLine(center_E0=1.0, width_Gamma=0.3)
    ts = np.linspace(0.0, 30.0, 500)
    ps = np.array([abs(survival_amplitude(line, t)) ** 2 for t in ts])
    assert np.all(np.diff(ps) < 0)


def test_survival_rejects_negative_time():
    with pytest.raises(ValueError, match="t >= 0"):
        survival_amplitude(FbwLine(0.0, 1.0), -1e-9)
    for center in (0.0, 0.5):
        for t in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite t >= 0"):
                survival_amplitude(FbwLine(center, 1.0), t)


def test_lifetime_values():
    assert lifetime(FbwLine(0.0, 0.0102084)) == pytest.approx(1 / 0.0102084, rel=1e-14)
    assert round(lifetime(FbwLine(0.0, 0.0102084)), 2) == 97.96
    assert lifetime(FbwLine(0.0, 2.0)) == 0.5
    assert lifetime(FbwLine(0.0, 0.0)) == math.inf


def test_width_validation():
    with pytest.raises(ValueError, match="width_Gamma"):
        FbwLine(center_E0=0.0, width_Gamma=-0.1)
    with pytest.raises(ValueError, match="width_Gamma"):
        FbwLine(center_E0=0.0, width_Gamma=math.nan)
    with pytest.raises(ValueError, match="width_Gamma"):
        FbwLine(center_E0=0.0, width_Gamma=math.inf)
    with pytest.raises(ValueError, match="center_E0"):
        FbwLine(center_E0=math.inf, width_Gamma=1.0)
