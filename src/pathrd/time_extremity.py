"""Minimum completion time on one side of the depot: the 1-D names over
time_general.

A depot at an extremity is the interior case with an empty left side,
so c[i], the earliest return with the first i canonical customers
served, is the one row of time_general's table.  solve_time_linear and
solve_time_quadratic are the one row of solve_time_2d_minqueue and
solve_time_2d_cubic on GeneralInstance(EMPTY_SIDE, side), their routes
named for the side they serve; time_general states the recurrence, the
line kernel and its blocks.
"""

from .instance import EMPTY_SIDE, GeneralInstance
from .solution import RIGHT, name_side, time_solution
from .time_general import TimeDpTrace, solve_time_2d_cubic, solve_time_2d_minqueue

__all__ = ["solve_time_quadratic", "solve_time_linear"]


# no solver calls this; perfbench/case.py's replay and test_solution.py do
def _build_solution(side, label, c, pred):
    return name_side(label, time_solution(EMPTY_SIDE, side, [c], [pred]))


def _row(solve, side, label, *args):
    """The one row of solve on GeneralInstance(EMPTY_SIDE, side), on side label."""
    name_side(label)
    trace, solution = solve(GeneralInstance(EMPTY_SIDE, side), *args)
    return TimeDpTrace(trace.c[0], trace.pred[0]), name_side(label, solution)


def solve_time_quadratic(side, label=RIGHT):
    """Reference solver: evaluate every predecessor of every state; the
    one row of time_general.solve_time_2d_cubic."""
    return _row(solve_time_2d_cubic, side, label)


def solve_time_linear(side, label=RIGHT, check=False):
    """One-pass solver, the one row of time_general.solve_time_2d_minqueue;
    output matches solve_time_quadratic exactly, the origin c[0] the
    table dtype's zero included.  check=True asserts
    time_general._check_line at every state of the scalar loop and
    compares a line filled by blocks with its fill (_time_line)."""
    return _row(solve_time_2d_minqueue, side, label, check)
