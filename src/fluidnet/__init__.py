"""Fluid networks as differential inclusions: simulation, path algebra,
stability functionals and certificates, and linear Skorokhod problems."""

from .dynamics import (
    ControlSelector,
    FirstVertex,
    FixedSequence,
    MaxDrain,
    MinDrain,
    RandomVertex,
    Trajectory,
    flow_balance_residual,
    lipschitz_constant,
    rhs,
    simulate,
)
from .gfn import (
    concatenate,
    example_family,
    lipschitz_estimate,
    network_family,
    scale,
    shift,
    uoc_distance,
)
from .lyapunov import (
    Certificate,
    ComparisonTriple,
    SearchBudget,
    approximate_V,
    check_decrease,
    check_sandwich,
    comparison_functions,
    linear_certificate_search,
    piecewise_linear_check,
    quadratic_check,
    v_functional,
)
from .model import (
    PRIORITY,
    WORK_CONSERVING,
    NetworkSpec,
    admissible_polytope,
    validate,
)
from .skorokhod import (
    LspInstance,
    LspSolution,
    is_completely_s,
    is_s_matrix,
    solve_lsp,
)
from .stability import Verdict, draining_time, instability_witness, scale_invariance_check
from .fluidlimit import QueueingSpec, SamplePath, fluid_limit_compare, simulate_queueing

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
