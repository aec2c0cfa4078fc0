"""Differentially private online aggregative games over time-varying digraphs.

A deterministic discrete-time simulator for delay-tolerant distributed dual
averaging: agents seek the per-round equilibrium of a time-varying aggregative
game while exchanging Laplace-noised parameters over an unbalanced directed
graph with bounded, time-varying communication and feedback delays.
"""

from .engine import (RunConfig, RunResult, World, project, run,
                     run_augmented_reference, step_size)
from .game import GameSpec, linear_demand_game, nash_cournot, resolve_game
from .graph import (ConnectivityReport, DelaySchedule, GraphSchedule,
                    MixingDiagnostics, augment, eigenvector_floor,
                    mixing_diagnostics, validate_b_connectivity)
from .privacy import (NoiseConfig, PrivacyLedger, sample_noise, sensitivity_bound,
                      sigma_for, substream)

__version__ = "0.1.0"

__all__ = [
    "ConnectivityReport", "DelaySchedule", "EquilibriumSolution",
    "GameSpec", "GraphSchedule", "MixingDiagnostics",
    "NoiseConfig", "PrivacyLedger", "RegretReport", "RunConfig", "RunResult",
    "StabilizationStat", "World", "augment", "average_loss", "dynamic_regret", "eigenvector_floor",
    "kkt_max_violation", "linear_demand_game", "mixing_diagnostics",
    "nash_cournot", "ne_oracle", "project", "resolve_game", "run",
    "run_augmented_reference", "sample_noise", "sensitivity_bound", "sigma_for",
    "solve_equilibria", "stabilization_stat", "stabilization_time", "step_size",
    "substream", "validate_b_connectivity",
]


# The names of __all__ not imported above are the oracle and regret module's,
# loaded on first use (PEP 562): importing the package need not load it.
def __getattr__(name):
    if name in __all__:
        from . import metrics
        return getattr(metrics, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
