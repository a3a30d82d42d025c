import ast
import itertools
import math
import types
from pathlib import Path

import numpy as np
import pytest

import leakyslab
from leakyslab import (
    ComplexEigenvalue,
    SlabConfig,
    eigenvalue_to_wavenumbers,
    mode_index_range,
)
from leakyslab.core import (
    K0A_MAX,
    U0_MAX,
    _kernel,
    _phase,
    _phase_derivative,
    _phase_terms,
    _reflection,
    _transmission,
    _transmittance,
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
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="eps_R must be finite"):
            ComplexEigenvalue(eps_R=bad)
        with pytest.raises(ValueError, match="half_width_Gamma must be finite"):
            ComplexEigenvalue(eps_R=-0.5, half_width_Gamma=bad)


def test_the_slab_domain_keeps_the_kernel_finite_and_the_indices_few():
    # at every corner of the domain, on the edges of the radiation band, no
    # value of the kernel overflows or is nan, and the mode indices stay
    # fewer than 10**6 with their upper bound below 2**40, so neither the
    # kernel nor mode_index_range needs a check of its own
    assert (K0A_MAX, U0_MAX) == (1e6, 4.0)
    eps = np.array([-1.0 + 2.0**-53, -0.5, -5e-324])
    K = np.sqrt(2.0 * (eps + 1.0))
    for k0a, u0 in itertools.product((5e-324, 1.0, K0A_MAX), (1.0 + 2.0**-52, 1.5, U0_MAX)):
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            t = _transmission(K, k0a, u0)
            theta, s, c, d = _phase_terms(K, k0a, u0)
            values = (*_kernel(K, k0a, u0), t, d, _phase(theta, s, c, d), _transmittance(s, d),
                      _reflection(K, k0a, u0, t), _phase_derivative(K, k0a, u0))
        assert all(np.all(np.isfinite(v)) for v in values), (k0a, u0)
        indices = mode_index_range(SlabConfig(k0a, u0))
        assert len(indices) < 1_000_000 and indices.stop < 2**40, (k0a, u0)
    assert len(mode_index_range(SlabConfig(K0A_MAX, 1.0 + 2.0**-52))) == 900316
    # and a slab a step outside either bound is refused
    with pytest.raises(ValueError, match="half_width_A"):
        SlabConfig(np.nextafter(K0A_MAX, math.inf), 1.5)
    with pytest.raises(ValueError, match="core_index_U0"):
        SlabConfig(30.0, np.nextafter(U0_MAX, math.inf))


def test_all_names_every_public_binding():
    # each public name is written twice in the package root, once in its
    # import and once in __all__; a name dropped from only one list fails here
    public = {
        name
        for name, value in vars(leakyslab).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(leakyslab.__all__) == len(set(leakyslab.__all__))
    assert set(leakyslab.__all__) == public


def test_every_public_name_is_used_by_the_library_or_the_benchmark():
    # a public name only its own tests call is code for hypothetical users;
    # an import, an __all__ string or a docstring does not count as a use
    root = Path(__file__).resolve().parents[1]
    files = [*(root / "src" / "leakyslab").glob("*.py"), *(root / "bench").glob("*.py")]
    assert any(path.parent.name == "bench" for path in files)
    used = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert sorted(set(leakyslab.__all__) - used) == []


def test_every_raise_is_a_value_error_or_a_leaky_slab_error():
    # the failure contract: an invalid input raises ValueError (CLI exit 2),
    # a numerical failure LeakySlabError (exit 3); a bare re-raise keeps the
    # type it caught
    root = Path(__file__).resolve().parents[1]
    raised = []
    for path in sorted((root / "src" / "leakyslab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                raised.append((path.name, node.lineno, ast.unparse(exc)))
    assert len(raised) > 50
    assert [r for r in raised if r[2] not in ("ValueError", "LeakySlabError")] == []
