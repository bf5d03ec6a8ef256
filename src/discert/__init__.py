"""Device-independent singlet-extraction certification toolkit.

Computes certified lower bounds on the singlet fidelity extractable from
untrusted devices exhibiting a given Bell score, turns those bounds into
soundness and completeness parameters for spot-checking certification
protocols, and simulates the protocols end to end.
"""

__version__ = "0.1.0"

from .bellops import AnglePair, BellFunctional, bell_operator, chsh, load_functional
from .envelope import PiecewiseLinear, build_g_epsilon
from .extract import (
    ExtractabilityCurve,
    GridSpec,
    analytic_curve,
    bardyn_locc,
    kaniewski_lo,
    xi_lower_bound,
)
from .sdpcore import FabSolution, solve_fab_batch
from .security import (
    ProtocolConfig,
    SecurityReport,
    completeness,
    kappa_for_target,
    soundness,
    zubkov_C,
)
from .simproto import (
    DeviceModel,
    Scenario,
    SourceModel,
    TrialRecord,
    estimate_abort_rate,
    load_scenario,
    run_protocol,
)

__all__ = [
    "AnglePair",
    "BellFunctional",
    "DeviceModel",
    "ExtractabilityCurve",
    "FabSolution",
    "GridSpec",
    "PiecewiseLinear",
    "ProtocolConfig",
    "Scenario",
    "SecurityReport",
    "SourceModel",
    "TrialRecord",
    "analytic_curve",
    "bardyn_locc",
    "bell_operator",
    "build_g_epsilon",
    "chsh",
    "completeness",
    "estimate_abort_rate",
    "kaniewski_lo",
    "kappa_for_target",
    "load_functional",
    "load_scenario",
    "run_protocol",
    "solve_fab_batch",
    "soundness",
    "xi_lower_bound",
    "zubkov_C",
]
