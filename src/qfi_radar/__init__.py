"""Quantum Fisher information toolkit for two-photon Doppler radar.

Estimates (time-sum, frequency-difference) and (time-difference,
frequency-sum) observable pairs for three probe strategies — an entangled
biphoton, two independent single photons, and signal-idler quantum
illumination — with exact closed forms, an independent numerical
Fisher-information engine that adjudicates them, Monte Carlo bound
saturation checks, and end-to-end radar scenarios.

Importing the package loads the closed forms and the engine only.  The
Monte Carlo names and ``run_selftest`` load their modules on first access
(PEP 562), so ``qfi``, ``curves`` and ``oracle-check`` never import them.
"""

import importlib

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
from .oracle import (
    MixedModel,
    OracleResult,
    model_for,
    qfi_numeric,
)
from .states import (
    GaussianBiphoton,
    GaussianSinglePhoton,
    frequency_covariance,
    overlap,
    time_covariance,
)

__version__ = "0.1.0"

# name -> the module that defines it, imported on the name's first access
_LAZY = {
    "McConfig": "montecarlo",
    "McReport": "montecarlo",
    "estimate_pair": "montecarlo",
    "measure_pair": "montecarlo",
    "run_scenario": "montecarlo",
    "sample_frequencies": "montecarlo",
    "sample_times": "montecarlo",
    "run_selftest": "selftest",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
