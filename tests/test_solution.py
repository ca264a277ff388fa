"""Plan reconstruction.  Each solver module's _build_solution is one call
of a walk in pathrd.solution; the traced benchmark cases
(perfbench/case.py) re-run it on a returned trace, with the arguments
used here, so a plan rebuilt that way must be the one the solver gave."""

import pytest

from pathrd import (
    EMPTY_SIDE,
    GeneralInstance,
    distance_extremity,
    distance_general,
    random_canonical_side,
    time_extremity,
    time_general,
)
from pathrd.solution import LEFT, RIGHT


def _instances(n_left, n_right):
    for seed in range(10):
        # many short routes on odd seeds, few long ones on even seeds
        wait, step = (50, 2) if seed % 2 else (3, 5)
        yield GeneralInstance(
            random_canonical_side(n_left, seed=seed, max_wait=wait, max_step=step),
            random_canonical_side(n_right, seed=100 + seed, max_wait=wait, max_step=step),
        )


@pytest.mark.parametrize("n_left, n_right", [(30, 0), (0, 30), (15, 12)])
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



def test_only_an_empty_left_side_renames_the_right_routes():
    for inst in _instances(3, 4):
        for solve in (time_general.solve_time_2d_cubic, time_general.solve_time_2d_minqueue):
            with pytest.raises(ValueError, match="beside a nonempty left side"):
                solve(inst, label=LEFT)
        for solve in (distance_general.solve_distance_2d_cubic, distance_general.solve_distance_2d_heap):
            with pytest.raises(ValueError, match="beside a nonempty left side"):
                solve(inst, 10**9, label=LEFT)
        one_sided = GeneralInstance(EMPTY_SIDE, inst.right)
        _, sol = time_general.solve_time_2d_minqueue(one_sided, label=LEFT)
        _, dsol = distance_general.solve_distance_2d_heap(one_sided, sol.value, label=LEFT)
        assert {route.side for route in sol.routes + dsol.routes} == {LEFT}
