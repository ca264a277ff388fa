import random

from pathrd import (
    EMPTY_SIDE,
    GeneralInstance,
    canonicalize_side,
    generate_instance,
    oracle_time,
    split_at_depot,
    validate_solution,
)
from pathrd.solution import LEFT, RIGHT
from pathrd.time_extremity import solve_time_linear, solve_time_quadratic
from pathrd.time_general import solve_time_2d_cubic, solve_time_2d_minqueue

from helpers import EX1_SIDE, EX2_GENERAL

SOLVERS = (solve_time_2d_cubic, solve_time_2d_minqueue)


def test_worked_example_both_solvers():
    for solve in SOLVERS:
        trace, sol = solve(EX2_GENERAL)
        assert trace.c == [[0, 10, 14], [11, 18, 21]]
        assert sol.value == 21
        assert [(r.side, r.lo, r.hi, r.dispatch, r.duration) for r in sol.routes] == [
            ("left", 0, 0, 3, 8),
            ("right", 0, 1, 11, 10),
        ]
        assert sol.routes[0].deliveries == (1,)
        assert sol.routes[1].deliveries == (3, 2)
        assert validate_solution(EX2_GENERAL, sol) == []


def test_empty_instance():
    inst = GeneralInstance(EMPTY_SIDE, EMPTY_SIDE)
    for solve in SOLVERS:
        trace, sol = solve(inst)
        assert trace.c == [[0]] and sol.value == 0 and sol.routes == ()
        assert type(trace.c[0][0]) is int and type(sol.value) is int


def test_one_sided_reduction_matches_extremity_solver():
    rng = random.Random(6)
    for _ in range(40):
        inst = split_at_depot(
            generate_instance(0, rng.randint(0, 15), 8, rng.choice((0, 5, 30)), seed=rng.randrange(2**31))
        )
        t1, s1 = solve_time_linear(inst.right)
        for solve in SOLVERS:
            t2, s2 = solve(inst)
            assert t2.c[0] == t1.c
            assert t2.pred[0] == [None] + [(RIGHT, j) for j in t1.pred[1:]]
            assert s2.value == s1.value
        flipped = GeneralInstance(inst.right, EMPTY_SIDE)
        t3, s3 = solve_time_2d_minqueue(flipped, check=True)
        assert [row[0] for row in t3.c] == t1.c
        assert [row[0] for row in t3.pred] == [None] + [(LEFT, j) for j in t1.pred[1:]]
        assert s3.value == s1.value


def test_all_releases_zero_one_route_per_side():
    left = canonicalize_side([(1, 0, 9), (2, 0, 4)])
    right = canonicalize_side([(3, 0, 7), (4, 0, 2)])
    inst = GeneralInstance(left, right)
    for solve in SOLVERS:
        _, sol = solve(inst)
        assert sol.value == 2 * left.tau[0] + 2 * right.tau[0]
        assert len(sol.routes) == 2


def _random_instance(rng):
    if rng.random() < 0.2:
        # floats through canonicalize keep exactness checks honest
        left = canonicalize_side(
            [(i, rng.randint(0, 9) + rng.random(), rng.randint(0, 9) + rng.random()) for i in range(rng.randint(0, 8))]
        )
        right = canonicalize_side(
            [(100 + i, rng.randint(0, 9) + rng.random(), rng.randint(0, 9) + rng.random()) for i in range(rng.randint(0, 8))]
        )
        return GeneralInstance(left, right)
    return split_at_depot(
        generate_instance(
            rng.randint(0, 12),
            rng.randint(0, 12),
            rng.choice((0, 2, 8)),
            rng.choice((0, 5, 40)),
            seed=rng.randrange(2**31),
        )
    )


def test_minqueue_matches_cubic_everywhere():
    rng = random.Random(14)
    for _ in range(250):
        inst = _random_instance(rng)
        tc, sc = solve_time_2d_cubic(inst)
        tm, sm = solve_time_2d_minqueue(inst, check=True)
        assert tm.c == tc.c
        assert tm.pred == tc.pred
        assert sm == sc
        assert validate_solution(inst, sm) == []
        for row in tm.c:
            assert all(a <= b for a, b in zip(row, row[1:]))
        for j in range(inst.right.n + 1):
            col = [row[j] for row in tm.c]
            assert all(a <= b for a, b in zip(col, col[1:]))


def test_matches_oracle_on_small_instances():
    rng = random.Random(21)
    for trial in range(150):
        inst = split_at_depot(
            generate_instance(rng.randint(0, 5), rng.randint(0, 5), 6, rng.choice((0, 4, 30)), seed=trial)
        )
        want = oracle_time(inst).value
        for solve in SOLVERS:
            assert solve(inst)[1].value == want
