"""Exact solvers for the traveling salesman problem with release dates on paths."""

from .errors import (
    Infeasible,
    MalformedDocument,
    NegativeValue,
    NotAPath,
    OutOfRange,
    PathrdError,
    TooLarge,
    UnknownDepot,
)
from .distance_extremity import solve_distance_heap, solve_distance_quadratic
from .distance_general import DistDpTrace, solve_distance_2d_cubic, solve_distance_2d_heap
from .instance import (
    EMPTY_SIDE,
    MAX_MAGNITUDE,
    CanonicalSide,
    GeneralInstance,
    RawPathInstance,
    canonicalize_side,
    generate_instance,
    parse_instance,
    random_canonical_side,
    split_at_depot,
)
from .oracle import (
    ORACLE_MAX_CUSTOMERS,
    OracleResult,
    Violation,
    oracle_distance,
    oracle_time,
    schedule_min_makespan,
    validate_solution,
)
from .solution import DISTANCE, LEFT, RIGHT, TIME, Route, Solution
from .time_extremity import solve_time_linear, solve_time_quadratic
from .time_general import TimeDpTrace, solve_time_2d_cubic, solve_time_2d_minqueue

__version__ = "0.1.0"
