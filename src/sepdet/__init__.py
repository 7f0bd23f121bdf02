"""Witness closures and exhaustively verified restriction identities.

Finite and countable metric spaces, extremal witness problems over balls and
shells, closure of a seed set under optimal witnesses, and checks that every
sup/inf formula computed over the whole space equals the same formula over
the closed subset.  See README.md for the tour; the `sepdet` console script
exposes the same operations on JSON descriptors.
"""

from types import ModuleType as _ModuleType

from .errors import (
    BadShell,
    DepthExceeded,
    DescriptorError,
    EmptyRegion,
    InvariantViolation,
    IsolatedPoint,
    NoCoordinates,
    NonPositiveRadius,
    NotAChain,
    ScoreRangeError,
    SepdetError,
    SpaceMismatch,
    UnknownPoint,
    UnknownSuite,
)
from .extreal import FLOAT_TOL, NEG_INF, POS_INF, Num, close, fmt, parse, pos_part, sub
from .families import (
    FamilyHandle,
    cofinal_extend,
    family_for,
    intersect,
    is_member,
    sigma_union,
)
from .functionals import (
    BUILTIN_FUNCTIONS,
    FunctionOracle,
    PROBLEM_FAMILIES,
    PairSup,
    ball_pairs_problem,
    builtin_function,
    continuity_check,
    default_radius_grid,
    default_shell_grid,
    level_grid,
    liminf_at,
    limsup_at,
    lip_local_sup,
    lip_local_sups,
    lip_modulus,
    lipschitz_second_witness,
    midpoint_grid,
    partial_slope,
    problem_from_descriptor,
    punctured_ball_problem,
    radius_truncation,
    shell_truncation,
    slice_oracle,
    slope_at,
    torus_slope_problem,
    torus_sup,
    torus_sups,
    verify_lipschitz_second,
)
from .harness import (
    SUITES,
    SuiteConfig,
    SuiteReport,
    brute_force_optimum,
    dyadic_interval_space,
    random_finite_metric,
    random_table_function,
    replay_check,
    run_suite,
    step_function,
    witness_dump,
)
from .scheme import (
    DeterminacyCheck,
    GeneratedSubspace,
    ParamSpace,
    Provenance,
    WitnessProblem,
    check_reduction,
    check_sweep,
    closure_iterate,
    closure_round,
    intersect_problems,
    product_closure,
    rational_span_close,
    sort_points,
    witness_select,
)
from .spaces import (
    FiniteMetricSpace,
    LazyMetricSpace,
    MetricSpace,
    Point,
    Region,
    ball_pairs,
    ball_points,
    punctured_ball_points,
    space_from_descriptor,
    space_to_descriptor,
    torus_points,
)

__version__ = "0.1.0"

# every public name imported above: the imports are the one list of them
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
