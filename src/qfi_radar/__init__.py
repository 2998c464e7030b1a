"""Quantum Fisher information toolkit for two-photon Doppler radar.

Estimates (time-sum, frequency-difference) and (time-difference,
frequency-sum) observable pairs for three probe strategies — an entangled
biphoton, two independent single photons, and signal-idler quantum
illumination — with exact closed forms, an independent numerical
Fisher-information engine that adjudicates them, Monte Carlo bound
saturation checks, and end-to-end radar scenarios.
"""

from .analytic import (
    adjudicate,
    asymptotic_H,
    asymptotic_bound,
    bound_product,
    published_mixed_qfi,
    qfi_entangled,
)
from .kinematics import (
    C,
    SCENARIOS,
    ParameterPair,
    ProbeConfig,
    Strategy,
    Target,
    doppler_factor,
    returned_state,
    target_estimates,
)
from .montecarlo import (
    McConfig,
    McReport,
    estimate_pair,
    measure_pair,
    run_scenario,
    sample_frequencies,
    sample_times,
)
from .oracle import (
    MixedModel,
    OracleResult,
    model_for,
    qfi_numeric,
)
from .selftest import run_selftest
from .states import (
    GaussianBiphoton,
    GaussianSinglePhoton,
    frequency_covariance,
    overlap,
    time_covariance,
)

__version__ = "0.1.0"
