"""qchaos: chaoticity orders and PVM dynamical entropy of two-level unitaries.

A qubit unitary drives a perfect random number generator exactly when its PVM
dynamical entropy is maximal ("chaotic", |tr U| <= sqrt(2)); measuring only
every K-th iteration asks the same of U^K.  This package evaluates the
entropies (closed form and variational), classifies chaoticity at every
order, decides idempotency exactly on rational phases, constructs the studied
families of chaotic and non-idempotent unitaries, and simulates the measured
dynamics reproducibly.

``import qchaos`` loads no submodule, and so no numpy: each public name is
imported from its submodule on first use (PEP 562).  ``python -m qchaos.cli``
therefore reaches ``cli.py`` before numpy loads.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULE = {name: module for module, names in (
    ("phases", "EigenphasePair ExactUnitarySpec RationalPhase TWO_PI UNITARY_TOL "
               "eigenphases_of mod_2pi rational_phase_order require_unitary"),
    ("entropy", "EntropyResult PvmBasis basis_from_angles eta "
                "markov_entropy_rate pvm_entropy_optimize transition_matrix"),
    ("chaoticity", "BOUNDARY_TOL ChaoticityReport IdempotencyCapError "
                   "OrderVerdicts SQRT2 VERDICT_LABELS boundary_half_width "
                   "chaotic_order_fraction chaoticity_scan exact_theta_fraction "
                   "first_nonchaotic_order idempotency_order order_verdicts "
                   "projective_idempotency_order qubit_entropy_closed"),
    ("constructions", "QuadraticRecipe build_chaotic_order quadratic_trace_sequence "
                      "source_from_json"),
    ("simulate", "CensusResult EntropyRateExperiment InsufficientDataError "
                 "empirical_entropy_rate entropy_rate_experiment "
                 "monte_carlo_chaotic_fraction noisy_phase_walk "
                 "sample_trajectory"),
    ("rng", "stream_generator"),
) for name in names.split()}

__all__ = list(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
