"""Minimum travel distance under a deadline, one side of the depot: the
1-D names over distance_general.

A depot at an extremity is the interior case with an empty left side,
so lam[p], the latest dispatch that serves customers p.. by the
deadline, is the one row of distance_general's table.
solve_distance_heap and solve_distance_quadratic are the one row of
solve_distance_2d_heap and solve_distance_2d_cubic on
GeneralInstance(EMPTY_SIDE, side), an Infeasible's trace included, their
routes named for the side they serve; distance_general states the
recurrence, the line kernel and its blocks.
"""

from .distance_general import DistDpTrace, solve_distance_2d_cubic, solve_distance_2d_heap
from .errors import Infeasible
from .instance import EMPTY_SIDE, GeneralInstance
from .solution import RIGHT, distance_solution, name_side

__all__ = ["solve_distance_quadratic", "solve_distance_heap"]


# no solver calls this; perfbench/case.py's replay and test_solution.py do
def _build_solution(side, label, lam, succ):
    return name_side(label, distance_solution(EMPTY_SIDE, side, [lam], [succ]))


def _row(solve, side, deadline, label, *args):
    """The one row of solve on GeneralInstance(EMPTY_SIDE, side), an
    Infeasible's trace included, its routes on side label."""
    name_side(label)
    try:
        trace, solution = solve(GeneralInstance(EMPTY_SIDE, side), deadline, *args)
    except Infeasible as exc:
        exc.trace = DistDpTrace(exc.trace.lam[0], exc.trace.succ[0])
        raise
    return DistDpTrace(trace.lam[0], trace.succ[0]), name_side(label, solution)


def solve_distance_quadratic(side, deadline, label=RIGHT):
    """Reference solver: scan every successor of every state; the one
    row of distance_general.solve_distance_2d_cubic."""
    return _row(solve_distance_2d_cubic, side, deadline, label)


def solve_distance_heap(side, deadline, label=RIGHT, check=False):
    """Linear-time solver, the one row of
    distance_general.solve_distance_2d_heap; lam matches
    solve_distance_quadratic exactly, the empty side included.
    check=True asserts distance_general._check_top at every state of
    the scalar loop and compares a line filled by blocks with its fill
    (_distance_line)."""
    return _row(solve_distance_2d_heap, side, deadline, label, check)
