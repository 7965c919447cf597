"""Current-record processes: exact laws, enumeration, and simulation of the
number of records broken per step.

The public surface re-exports the core pieces of each module; see the
module docstrings for the underlying conventions.
"""
from .errors import (
    CapacityError,
    InvariantError,
    PartialResultError,
    TieError,
    UsageError,
)
from .exact import (
    Pmf,
    exact_pmf_b,
    expected_record_count,
    geometric_limit,
    prob_b0,
    prob_b1,
    remainder_bound,
)
from .montecarlo import (
    AuditReport,
    EmpiricalPmf,
    SimConfig,
    check_trajectory,
    default_checkpoints,
    final_break_counts,
    simulate_b,
    simulate_b_checkpoints,
    simulate_b_suffix,
    simulate_r,
    simulate_trajectory_audit,
    trial_values,
)
from .oracle import (
    JointPmf,
    oracle_joint,
    oracle_pmf_b,
    oracle_pmf_r,
)
from .records import (
    RecordEntry,
    RecordStack,
    TrajectoryStats,
    records_by_scan,
    run_trajectory,
)

__version__ = "0.1.0"

__all__ = [
    "AuditReport",
    "CapacityError",
    "EmpiricalPmf",
    "InvariantError",
    "JointPmf",
    "PartialResultError",
    "Pmf",
    "RecordEntry",
    "RecordStack",
    "SimConfig",
    "TieError",
    "TrajectoryStats",
    "UsageError",
    "check_trajectory",
    "default_checkpoints",
    "exact_pmf_b",
    "expected_record_count",
    "final_break_counts",
    "geometric_limit",
    "oracle_joint",
    "oracle_pmf_b",
    "oracle_pmf_r",
    "prob_b0",
    "prob_b1",
    "records_by_scan",
    "remainder_bound",
    "run_trajectory",
    "simulate_b",
    "simulate_b_checkpoints",
    "simulate_b_suffix",
    "simulate_r",
    "simulate_trajectory_audit",
    "trial_values",
    "__version__",
]
