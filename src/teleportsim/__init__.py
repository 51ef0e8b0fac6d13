"""Teleportation of a d-level system through an arbitrary pure resource.

Exact and Monte-Carlo mean fidelities, the optimal-fidelity and
optimal-estimation bounds, protocol-optimality checks, and a random-search
oracle confirming the bounds numerically.
"""

from .qcore import (
    BipartiteVector,
    Operator,
    PureState,
    SchmidtDecomposition,
    check_schmidt_coefficients,
    schmidt_decompose,
)
from .haar import (
    McEstimate,
    m_kl_exact,
    m_kl_monte_carlo,
    make_rng,
    sample_haar_state,
    sample_haar_states,
)
from .protocol import (
    AliceMeasurement,
    BobCorrections,
    CompletenessReport,
    OptimalityReport,
    Protocol,
    TeleportOutcome,
    check_optimality,
    optimal_bob_corrections,
    outcome_distribution,
    protocol_from_json,
    protocol_to_json,
    standard_measurement,
    standard_protocol,
    teleport_once,
    validate_completeness,
)
from .fidelity import (
    fidelity_bound,
    max_singlet_fraction,
    mean_fidelity_exact,
    mean_fidelity_mkl_form,
    mean_fidelity_monte_carlo,
    optimal_fidelity_given_measurement,
)
from .estimation import (
    EstimationStrategy,
    estimation_fidelity_bound,
    estimation_fidelity_exact,
    estimation_fidelity_mc,
    optimal_estimates,
)
from .search import SearchResult, random_povm, search_best_protocol

__version__ = "0.1.0"

__all__ = [
    "AliceMeasurement",
    "BipartiteVector",
    "BobCorrections",
    "CompletenessReport",
    "EstimationStrategy",
    "McEstimate",
    "Operator",
    "OptimalityReport",
    "Protocol",
    "PureState",
    "SchmidtDecomposition",
    "SearchResult",
    "TeleportOutcome",
    "check_optimality",
    "check_schmidt_coefficients",
    "estimation_fidelity_bound",
    "estimation_fidelity_exact",
    "estimation_fidelity_mc",
    "fidelity_bound",
    "m_kl_exact",
    "m_kl_monte_carlo",
    "make_rng",
    "max_singlet_fraction",
    "mean_fidelity_exact",
    "mean_fidelity_mkl_form",
    "mean_fidelity_monte_carlo",
    "optimal_bob_corrections",
    "optimal_estimates",
    "optimal_fidelity_given_measurement",
    "outcome_distribution",
    "protocol_from_json",
    "protocol_to_json",
    "random_povm",
    "sample_haar_state",
    "sample_haar_states",
    "schmidt_decompose",
    "search_best_protocol",
    "standard_measurement",
    "standard_protocol",
    "teleport_once",
    "validate_completeness",
]
