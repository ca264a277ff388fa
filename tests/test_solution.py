"""Plan reconstruction and side names.  Each solver module's
_build_solution walks its table with a plan walk of pathrd.solution,
and a 1-D one then names the routes' side with name_side; the traced
benchmark cases (perfbench/case.py) re-run it on a returned trace, with
the arguments used here, so a plan rebuilt that way must be the one the
solver gave.  The 2-D solvers name every right route RIGHT; a 1-D view
names its routes LEFT or RIGHT, changes nothing else, and refuses any
other name before it solves."""

import dataclasses

import pytest

from pathrd import (
    EMPTY_SIDE,
    GeneralInstance,
    Infeasible,
    distance_extremity,
    distance_general,
    random_canonical_side,
    time_extremity,
    time_general,
    validate_solution,
)
from pathrd.solution import LEFT, RIGHT, name_side

from helpers import rescaled


def _instances(n_left, n_right):
    for seed in range(10):
        # many short routes on odd seeds, few long ones on even seeds
        wait, step = (50, 2) if seed % 2 else (3, 5)
        yield GeneralInstance(
            random_canonical_side(n_left, seed=seed, max_wait=wait, max_step=step),
            random_canonical_side(n_right, seed=100 + seed, max_wait=wait, max_step=step),
        )


@pytest.mark.parametrize("n_left, n_right", [(30, 0), (0, 30), (15, 12), (0, 0)])
def test_module_rebuilds_give_the_solver_plans(n_left, n_right):
    for inst in _instances(n_left, n_right):
        if inst.left.n and inst.right.n:
            tr, sol = time_general.solve_time_2d_minqueue(inst)
            assert time_general._build_solution(inst, tr.c, tr.pred) == sol
            labels = {LEFT, RIGHT}
            for deadline in (sol.value, sol.value + 7):
                tr, dsol = distance_general.solve_distance_2d_heap(inst, deadline)
                assert distance_general._build_solution(inst, tr.lam, tr.succ) == dsol
        else:
            side, label = (inst.left, LEFT) if inst.right.n == 0 else (inst.right, RIGHT)
            tr, sol = time_extremity.solve_time_linear(side, label=label)
            assert time_extremity._build_solution(side, label, tr.c, tr.pred) == sol
            labels = {label}
            for deadline in (sol.value, sol.value + 7):
                tr, dsol = distance_extremity.solve_distance_heap(side, deadline, label=label)
                assert distance_extremity._build_solution(side, label, tr.lam, tr.succ) == dsol
        assert {route.side for route in sol.routes + dsol.routes} <= labels
        assert sum(len(route.deliveries) for route in sol.routes) == n_left + n_right



def _outcome(view, side, args, label):
    # (trace, plan), or the message and trace of the Infeasible raised
    try:
        return view(side, *args, label=label)
    except Infeasible as exc:
        return str(exc), exc.trace


@pytest.mark.parametrize("scale", [1, 0.37])
def test_a_1d_view_names_its_routes_side_and_nothing_else(scale):
    for seed in range(6):
        wait, step = (50, 2) if seed % 2 else (3, 5)
        side = rescaled(random_canonical_side(12, seed=seed, max_wait=wait, max_step=step), scale)
        placed = {RIGHT: GeneralInstance(EMPTY_SIDE, side), LEFT: GeneralInstance(side, EMPTY_SIDE)}
        best = time_extremity.solve_time_linear(side)[1].value
        runs = [(view, ()) for view in (time_extremity.solve_time_quadratic, time_extremity.solve_time_linear)]
        runs += [
            (view, (deadline,))
            for view in (distance_extremity.solve_distance_quadratic, distance_extremity.solve_distance_heap)
            for deadline in (best - 1, best, best + 7)
        ]
        for view, args in runs:
            with pytest.raises(ValueError, match="neither"):
                view(side, *args, label="up")
            left = _outcome(view, side, args, LEFT)
            right = _outcome(view, side, args, RIGHT)
            if args and args[0] < best:
                assert isinstance(right[0], str)
            if isinstance(right[0], str):
                assert left == right
                continue
            assert left[0] == right[0]
            lplan, rplan = left[1], right[1]
            assert name_side(RIGHT, rplan) is rplan
            assert {route.side for route in lplan.routes} <= {LEFT}
            assert {route.side for route in rplan.routes} <= {RIGHT}
            renamed = tuple(dataclasses.replace(route, side=RIGHT) for route in lplan.routes)
            assert dataclasses.replace(lplan, routes=renamed) == rplan
            kinds = {
                label: [v.kind for v in validate_solution(placed[label], plan, *args)]
                for label, plan in ((LEFT, lplan), (RIGHT, rplan))
            }
            assert kinds[LEFT] == kinds[RIGHT]
            # a float distance plan can dispatch an ulp before its block's
            # release (ROADMAP item 2); both placements must still agree
            if scale == 1 or not args:
                assert kinds[RIGHT] == []
