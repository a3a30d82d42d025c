"""Leaky modes, resonances and longitudinal shifts of a dielectric slab waveguide.

The slab (half width A = k0*a, core index U0 > 1, vacuum clad) is treated
in dimensionless units throughout: lengths in 1/k0, wavenumbers in k0.
Guided modes occupy eps in [-U0, -1), radiation modes [-1, 0); leaky modes
carry complex eps = eps_R - i*Gamma/2 and attenuate as e^{-Gamma*z} while
growing transversely.

Note: the underlying scalar, weakly-guiding treatment is applied here even
for strong index contrast (e.g. U0 = 1.5 against vacuum); no contrast check
is imposed.
"""

__version__ = "0.1.0"

from .core import (
    ComplexEigenvalue,
    SlabConfig,
    Wavenumbers,
    beam_slope,
    eigenvalue_to_wavenumbers,
)
from .errors import (
    ConvergenceError,
    LeakySlabError,
    NonExponentialDecayError,
    PeakAmbiguityError,
    RootJumpError,
    UnstableStepError,
)
from .fbw import (
    FbwLine,
    fbw_superposition,
    fourier_coefficient,
    lifetime,
    lineshape,
    survival_amplitude,
)
from .fields import FieldGrid, ModeField, mode_profile, propagate_mode
from .resonances import (
    Resonance,
    approximate_resonances,
    count_leaky_modes,
    mode_index_range,
    narrowness_diagnostic,
    refine_all,
    refine_resonance,
    siegert_residual,
)
from .scattering import (
    Curve,
    ScatteringAmplitudes,
    transfer_amplitudes,
    transmission_coefficient,
    transmission_sweep,
    unwrapped_phase,
)
from .shift import (
    ShiftSample,
    longitudinal_shift,
    phase_derivative,
    shift_sweep,
    wavepacket_shift,
    width_sweep,
)
from .bpm import BpmConfig, Propagator, measure_decay, tapered_mode_column

__all__ = [
    "BpmConfig",
    "ComplexEigenvalue",
    "ConvergenceError",
    "Curve",
    "FbwLine",
    "FieldGrid",
    "LeakySlabError",
    "ModeField",
    "NonExponentialDecayError",
    "PeakAmbiguityError",
    "Propagator",
    "Resonance",
    "RootJumpError",
    "ScatteringAmplitudes",
    "ShiftSample",
    "SlabConfig",
    "UnstableStepError",
    "Wavenumbers",
    "approximate_resonances",
    "beam_slope",
    "count_leaky_modes",
    "eigenvalue_to_wavenumbers",
    "fbw_superposition",
    "fourier_coefficient",
    "lifetime",
    "lineshape",
    "longitudinal_shift",
    "measure_decay",
    "mode_index_range",
    "mode_profile",
    "narrowness_diagnostic",
    "phase_derivative",
    "propagate_mode",
    "refine_all",
    "refine_resonance",
    "shift_sweep",
    "siegert_residual",
    "survival_amplitude",
    "tapered_mode_column",
    "transfer_amplitudes",
    "transmission_coefficient",
    "transmission_sweep",
    "unwrapped_phase",
    "wavepacket_shift",
    "width_sweep",
]
