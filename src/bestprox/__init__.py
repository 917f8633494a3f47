"""Best proximity points of cyclic contractions, with certified error bounds.

Picard iteration on a cyclic contraction between two disjoint sets
converges (along even steps) to the unique best proximity point; the
geometry of uniformly convex l_p norms turns the contraction data into
computable a priori and a posteriori error bounds that double as
stopping criteria.  This package provides the l_p convexity machinery,
a cyclic-map abstraction with empirical validators, the iteration engine
with per-step error budgets, a verification oracle, and a CLI.
"""

from .cyclic import (
    CyclicMapSpec,
    Example1Params,
    apply_map,
    displacement_decay_check,
    make_example1,
    verify_contraction,
    verify_cyclicity,
    verify_period,
)
from .errors import (
    BudgetExhaustedError,
    ConfigurationError,
    DeclarationError,
    InputError,
    NumericalError,
    PreconditionError,
    ResolutionFloorError,
)
from .norms import (
    LpSpace,
    PowerTypeConstants,
    check_convexity_inequality,
    dist,
    inverse_modulus_bound,
    lp_norm,
    modulus_of_convexity,
    power_type_constants,
)
from .oracle import (
    TableResult,
    aposteriori_stop_working_precision,
    audit_proof_chain,
    audit_soundness,
    rederive_distance,
    reference_best_proximity,
    reproduce_table,
)
from .solver import (
    ErrorBudget,
    IterationTrace,
    StopKind,
    StopRule,
    aposteriori_bound,
    apriori_bound,
    apriori_steps_needed,
    error_budget_at,
    picard_iterate,
    run_with_stop,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetExhaustedError",
    "ConfigurationError",
    "CyclicMapSpec",
    "DeclarationError",
    "ErrorBudget",
    "Example1Params",
    "InputError",
    "IterationTrace",
    "LpSpace",
    "NumericalError",
    "PowerTypeConstants",
    "PreconditionError",
    "ResolutionFloorError",
    "StopKind",
    "StopRule",
    "TableResult",
    "aposteriori_bound",
    "aposteriori_stop_working_precision",
    "apply_map",
    "apriori_bound",
    "apriori_steps_needed",
    "audit_proof_chain",
    "audit_soundness",
    "check_convexity_inequality",
    "error_budget_at",
    "inverse_modulus_bound",
    "displacement_decay_check",
    "dist",
    "lp_norm",
    "make_example1",
    "modulus_of_convexity",
    "picard_iterate",
    "power_type_constants",
    "rederive_distance",
    "reference_best_proximity",
    "reproduce_table",
    "run_with_stop",
    "verify_contraction",
    "verify_cyclicity",
    "verify_period",
]
