"""Property tests over the declared slab envelope against a 30-digit oracle.

Envelope: k0a in [5, 60], U0 in [1.05, 2] and, on the real axis, eps_R in
(-0.999, -0.001); complex eps add eps_I in (-0.15, 0.05), the box that
``count_leaky_modes`` counts.  The oracle below does not call
``core._dispersion``: t and r come from solving the four interface
conditions (E and dE/dx continuous at x = -A and x = A) in mpmath, and the
outgoing condition f is written out again in mpmath.  The count test
compares ``count_leaky_modes`` with a dense flat winding sum of that kernel.

The library evaluates the phase 2QA from a rounded K, so its first-order
error is a few ulps of 2QA times a sensitivity of at most ~(1 + |g|), with
g = (K/Q + Q/K)/2.  Each bound is ``TOL`` times that condition number.
Hypothesis runs derandomized, so tier-1 stays deterministic.
"""

import math

import mpmath
import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from leakyslab import (
    SlabConfig,
    count_leaky_modes,
    phase_derivative,
    transfer_amplitudes,
    unwrapped_phase,
)
from leakyslab.core import _dispersion
from leakyslab.resonances import _COUNT_BOX

# a private context, so the 30 digits do not leak into mpmath's global one
mp = mpmath.MPContext()
mp.dps = 30

TOL = 1e-14

k0a = st.floats(5.0, 60.0)
u0 = st.floats(1.05, 2.0)
eps_r = st.floats(-0.999, -0.001, exclude_min=True, exclude_max=True)
eps_i = st.floats(-0.15, 0.05, exclude_min=True, exclude_max=True)

envelope = settings(derandomize=True, database=None, deadline=None)


def mp_amplitudes(K, A, U0):
    """t, r and Q for e^{iKx} incident from the left: the field is
    e^{iKx} + r e^{-iKx} | B e^{iQx} + C e^{-iQx} | t e^{iKx}."""
    A, U0 = mp.mpf(A), mp.mpf(U0)
    Q = mp.sqrt(U0 * (K * K + 2 * (U0 - 1)))
    ek, eq = mp.exp(1j * K * A), mp.exp(1j * Q * A)
    # unknowns (r, B, C, t); value and slope at x = -A, then at x = A
    M = mp.matrix([
        [ek, -1 / eq, -eq, 0],
        [-K * ek, -Q / eq, Q * eq, 0],
        [0, eq, 1 / eq, -ek],
        [0, Q * eq, -Q / eq, -K * ek],
    ])
    r, _, _, t = mp.lu_solve(M, mp.matrix([-1 / ek, -K / ek, 0, 0]))
    return t, r, Q


def condition(K, Q, A):
    """(1 + |g|)(1 + |2QA|): the first-order sensitivity to a rounded K."""
    return float((1 + abs((K / Q + Q / K) / 2)) * (1 + abs(2 * Q * A)))


def band_K(eps_R):
    return mp.sqrt(2 * (mp.mpf(eps_R) + 1))


@envelope
@given(k0a, u0, eps_r)
def test_flux_is_conserved(A, U0, eps_R):
    amp = transfer_amplitudes(eps_R, SlabConfig(A, U0))
    assert abs(abs(amp.r) ** 2 + abs(amp.t) ** 2 - 1.0) <= TOL


@settings(envelope, max_examples=100)
@given(k0a, u0, eps_r)
def test_transmission_and_phase_match_the_oracle(A, U0, eps_R):
    cfg = SlabConfig(A, U0)
    K = band_K(eps_R)
    t, _, Q = mp_amplitudes(K, A, U0)
    bound = TOL * condition(K, Q, A)
    assert abs(abs(transfer_amplitudes(eps_R, cfg).t) ** 2 - float(abs(t) ** 2)) <= bound
    # phi = arg t + 2KA - pi/2, compared mod pi
    d = float(unwrapped_phase([eps_R], cfg)[0] - (mp.arg(t) + 2 * K * A - mp.pi / 2))
    assert abs(d - math.pi * round(d / math.pi)) <= bound


@settings(envelope, max_examples=50)
@given(k0a, u0, eps_r)
def test_phase_derivative_matches_the_oracle(A, U0, eps_R):
    K = band_K(eps_R)
    t, _, Q = mp_amplitudes(K, A, U0)

    def phi(k):
        # continuous near K: the phase of t(k) relative to t(K)
        return mp.arg(mp_amplitudes(k, A, U0)[0] / t) + 2 * k * A

    exact = float(mp.diff(phi, K))
    got = phase_derivative(eps_R, SlabConfig(A, U0))
    assert abs(got - exact) <= TOL * condition(K, Q, A) * abs(exact)


@settings(envelope, max_examples=100)
@given(k0a, u0, eps_r, eps_i)
def test_kernel_matches_the_oracle_in_the_counted_box(A, U0, eps_R, eps_I):
    # K on the branch the contour count samples: the principal square root
    K = complex(np.sqrt(2.0 * (complex(eps_R, eps_I) + 1.0)))
    cfg = SlabConfig(A, U0)
    Km = mp.mpc(K)
    Q = mp.sqrt(mp.mpf(U0) * (Km * Km + 2 * (mp.mpf(U0) - 1)))
    theta = 2 * Q * mp.mpf(A)
    exact = complex(mp.cos(theta) - 0.5j * (Km / Q + Q / Km) * mp.sin(theta))
    bound = TOL * condition(Km, Q, A) * float(abs(mp.cos(theta)) + abs(mp.sin(theta)))
    # the cmath path (a Newton iterate) and the numpy path (the contour)
    assert abs(_dispersion(K, cfg)[1] - exact) <= bound
    assert abs(_dispersion(np.array([K]), cfg)[1][0] - exact) <= bound


# the reference slab; a slab whose closed-form seeds miss one of its 17
# boxed roots; and the three slabs of a 3000-slab census (default_rng(12345))
# whose phase turns fastest per sample at 2048 samples per edge
@example(30.0, 1.5, 17)
@example(23.463135, 1.087562, 17)
@example(11.264352, 1.782141, 7)
@example(9.243, 1.324618, 5)
@example(8.313631, 1.239793, 3)
@settings(envelope, max_examples=100)
@given(k0a, u0, st.none())
def test_count_matches_a_dense_unrefined_winding(A, U0, expected):
    # a flat sum at 16384 samples per edge, 64 times the count's own; on
    # (11.264352, 1.782141) a root lies 2.3e-6 inside the box, and its
    # steps still turn f by up to 2.04 rad
    cfg = SlabConfig(A, U0)
    n = 16384
    zs = np.interp(np.linspace(0.0, 4.0, 4 * n + 1), range(5), _COUNT_BOX + _COUNT_BOX[:1])
    vals = _dispersion(np.sqrt(2.0 * (zs + 1.0)), cfg)[1]
    dphi = np.angle(vals[1:] / vals[:-1])
    dense = round(float(dphi.sum()) / (2.0 * math.pi))
    assert count_leaky_modes(cfg) == dense
    if expected is not None:
        assert dense == expected
