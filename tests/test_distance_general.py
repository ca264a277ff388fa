import itertools
import random

import pytest

from pathrd import (
    EMPTY_SIDE,
    CanonicalSide,
    GeneralInstance,
    Infeasible,
    canonicalize_side,
    generate_instance,
    oracle_distance,
    split_at_depot,
    validate_solution,
)
from pathrd import distance_general
from pathrd.distance_extremity import RUN, solve_distance_heap, solve_distance_quadratic
from pathrd.distance_general import solve_distance_2d_cubic, solve_distance_2d_heap
from pathrd.solution import LEFT, RIGHT
from pathrd.time_general import solve_time_2d_cubic

from helpers import EX2_GENERAL, assert_matches_baseline, count_run_fills, long_run_sides, rescaled

SOLVERS = (solve_distance_2d_cubic, solve_distance_2d_heap)


def test_worked_example_tight_deadline():
    for solve in SOLVERS:
        trace, sol = solve(EX2_GENERAL, 22)
        assert trace.lam[0][0] == 4
        assert trace.lam[-1][-1] == 22
        assert sol.value == 18
        assert [(r.side, r.lo, r.hi, r.dispatch, r.duration) for r in sol.routes] == [
            ("left", 0, 0, 4, 8),
            ("right", 0, 1, 12, 10),
        ]
        assert validate_solution(EX2_GENERAL, sol, 22) == []


def test_worked_example_slack_deadline():
    for solve in SOLVERS:
        _, sol = solve(EX2_GENERAL, 100)
        assert sol.value == 18
        assert validate_solution(EX2_GENERAL, sol, 100) == []


def test_worked_example_infeasible():
    for solve in SOLVERS:
        with pytest.raises(Infeasible) as exc:
            solve(EX2_GENERAL, 17)
        assert exc.value.trace.lam == [[None, 5, 9], [7, 13, 17]]
        assert exc.value.trace.succ[0] == [None, (LEFT, 1), (LEFT, 1)]


def test_empty_instance():
    inst = GeneralInstance(EMPTY_SIDE, EMPTY_SIDE)
    for solve in SOLVERS:
        trace, sol = solve(inst, 7)
        assert trace.lam == [[7]] and sol.value == 0
        assert type(trace.lam[0][0]) is int and type(sol.value) is int
        trace, sol = solve(inst, 7.0)
        assert trace.lam == [[7.0]] and type(trace.lam[0][0]) is float
        with pytest.raises(Infeasible) as exc:
            solve(inst, -2)
        assert exc.value.trace.lam == [[-2]] and exc.value.trace.succ == [[None]]
        assert type(exc.value.trace.lam[0][0]) is int


def test_one_sided_reduction_matches_extremity_solver():
    rng = random.Random(8)
    for _ in range(30):
        inst = split_at_depot(
            generate_instance(0, rng.randint(1, 12), 8, rng.choice((0, 5, 30)), seed=rng.randrange(2**31))
        )
        tbest = solve_time_2d_cubic(inst)[1].value
        for deadline in (tbest, tbest + 5, 2 * tbest + 9):
            t1, s1 = solve_distance_heap(inst.right, deadline)
            for solve in SOLVERS:
                t2, s2 = solve(inst, deadline)
                assert t2.lam[0] == t1.lam
                assert t2.succ[0] == [q if q is None else (RIGHT, q) for q in t1.succ]
                assert s2.value == s1.value
            flipped = GeneralInstance(inst.right, EMPTY_SIDE)
            t3, s3 = solve_distance_2d_heap(flipped, deadline, check=True)
            assert [row[0] for row in t3.lam] == t1.lam
            assert [row[0] for row in t3.succ] == [q if q is None else (LEFT, q) for q in t1.succ]
            assert s3.value == s1.value
        with pytest.raises(Infeasible):
            solve_distance_2d_heap(inst, tbest - 1, check=True)


def test_slack_deadline_is_one_route_per_side():
    rng = random.Random(12)
    for _ in range(40):
        inst = split_at_depot(
            generate_instance(rng.randint(1, 10), rng.randint(1, 10), 8, 30, seed=rng.randrange(2**31))
        )
        slack = 10 * (max(inst.left.r + inst.right.r) + 2 * inst.left.tau[0] + 2 * inst.right.tau[0]) + 50
        for solve in SOLVERS:
            _, sol = solve(inst, slack)
            assert sol.value == 2 * inst.left.tau[0] + 2 * inst.right.tau[0]
            assert len(sol.routes) == 2


def _random_instance(rng):
    return split_at_depot(
        generate_instance(
            rng.randint(0, 10),
            rng.randint(0, 10),
            rng.choice((0, 2, 8)),
            rng.choice((0, 5, 40)),
            seed=rng.randrange(2**31),
        )
    )


def test_heap_matches_cubic_everywhere():
    rng = random.Random(33)
    for _ in range(150):
        inst = _random_instance(rng)
        tbest = solve_time_2d_cubic(inst)[1].value
        for deadline in (tbest - 1, tbest, tbest + 3, 2 * tbest + 10):
            try:
                tc, sc = solve_distance_2d_cubic(inst, deadline)
            except Infeasible:
                with pytest.raises(Infeasible):
                    solve_distance_2d_heap(inst, deadline, check=True)
                continue
            th, sh = solve_distance_2d_heap(inst, deadline, check=True)
            assert th.lam == tc.lam
            assert sh.value == sc.value
            for sol in (sc, sh):
                assert validate_solution(inst, sol, deadline) == []


def test_more_slack_never_costs_more():
    rng = random.Random(44)
    for _ in range(50):
        inst = _random_instance(rng)
        tbest = solve_time_2d_cubic(inst)[1].value
        prev = None
        for deadline in (tbest, tbest + 2, tbest + 7, 2 * tbest + 3, 5 * tbest + 40):
            _, sol = solve_distance_2d_heap(inst, deadline)
            if prev is not None:
                assert sol.value <= prev
            prev = sol.value


def test_matches_oracle_on_small_instances():
    rng = random.Random(55)
    for trial in range(120):
        inst = split_at_depot(
            generate_instance(rng.randint(0, 5), rng.randint(0, 5), 6, rng.choice((0, 4, 30)), seed=trial)
        )
        tbest = solve_time_2d_cubic(inst)[1].value
        for deadline in (tbest - 1, tbest, tbest + 4, 2 * tbest + 11):
            want = oracle_distance(inst, deadline).value
            for solve in SOLVERS:
                if want is None:
                    with pytest.raises(Infeasible):
                        solve(inst, deadline)
                else:
                    assert solve(inst, deadline)[1].value == want


def _near_left(rng, right):
    """One to three left customers released around the right side's
    last release, so the left term is workable only at the upper end of
    each row."""
    n = rng.randint(1, 3)
    last = right.r[-1]
    tau = sorted(rng.sample(range(1, 30), n), reverse=True)
    r = sorted(last * rng.uniform(0.5, 1.5) for _ in range(n))
    return CanonicalSide(r=tuple(r), tau=tuple(tau), labels=tuple(range(-n, 0)), riders=((),) * n)


def test_left_term_wins_inside_right_runs(monkeypatch):
    # the right side's rows hold runs longer than RUN, and the left term
    # ties or beats them on some of the states a run fills by slice
    tops = count_run_fills(monkeypatch)
    won = []
    kernel = distance_general._distance_line

    def spied(r, tau, lam, succ, *rest):
        start = len(tops)
        kernel(r, tau, lam, succ, *rest)
        # a run whose top is t fills at least t - RUN..t; a left move
        # there is still a tuple, a right one a bare index
        won.extend(t for t in tops[start:] if any(w.__class__ is tuple for w in succ[t - RUN : t + 1]))

    monkeypatch.setattr(distance_general, "_distance_line", spied)
    rng = random.Random(158)
    for scale in (1, 0.37, 0.5):
        for right in long_run_sides():
            right = rescaled(right, scale)
            inst = GeneralInstance(_near_left(rng, right), right)
            tbest = solve_time_2d_cubic(inst)[1].value
            for deadline in (tbest, tbest + 5 * scale, 2 * tbest + 10):
                assert_matches_baseline(solve_distance_2d_heap, solve_distance_2d_cubic, inst, deadline)
    assert len(tops) >= 100 and len(won) >= 50


def _flat_side(rng, n):
    """A side whose depot distances repeat in stretches: outside the
    canonical form's strict order, inside what the kernels need."""
    r = itertools.accumulate(rng.choice((0, 0, 0, 1, 5)) for _ in range(n))
    tau = itertools.accumulate(rng.choice((0, 0, 1, 2)) for _ in range(n))
    return CanonicalSide(tuple(r), tuple(tau)[::-1], tuple(range(1, n + 1)), ((),) * n)


def test_heap_matches_cubic_on_flat_sides():
    # equal distances make groups of equal lam along columns, which the
    # column step's fronts must slide past to their smallest index
    rng = random.Random(2025)
    for _ in range(40):
        inst = GeneralInstance(_flat_side(rng, rng.randint(1, 30)), _flat_side(rng, rng.randint(1, 30)))
        tbest = solve_time_2d_cubic(inst)[1].value
        far = inst.left.tau[0] + inst.right.tau[0]
        for deadline in (tbest - 1, tbest, tbest + far // 2, tbest + 2 * far):
            assert_matches_baseline(solve_distance_2d_heap, solve_distance_2d_cubic, inst, deadline)
