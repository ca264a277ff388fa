import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrd import (
    EMPTY_SIDE,
    CanonicalSide,
    GeneralInstance,
    Route,
    Solution,
    TooLarge,
    canonicalize_side,
    generate_instance,
    oracle_distance,
    oracle_time,
    schedule_min_makespan,
    split_at_depot,
    validate_solution,
)

from helpers import EX1_SIDE, EX2_GENERAL

EX1_GENERAL = GeneralInstance(EMPTY_SIDE, EX1_SIDE)


def _brute_best_order(specs):
    best = None
    for order in itertools.permutations(specs):
        t = 0
        for md, dur, _ in order:
            t = max(t, md) + dur
        best = t if best is None else min(best, t)
    return best


def test_schedule_simple():
    makespan, sched = schedule_min_makespan([(5, 20, "a"), (25, 6, "b")])
    assert makespan == 31
    assert [(t, tag) for t, (_, _, tag) in sched] == [(5, "a"), (25, "b")]


def test_schedule_waits_for_release():
    makespan, sched = schedule_min_makespan([(0, 2, "a"), (10, 1, "b")])
    assert makespan == 11
    assert sched[1][0] == 10


def test_schedule_stable_on_ties():
    _, sched = schedule_min_makespan([(3, 1, "a"), (3, 1, "b")])
    assert [tag for _, (_, _, tag) in sched] == ["a", "b"]


def test_schedule_matches_permutation_search():
    rng = random.Random(5)
    for _ in range(200):
        k = rng.randint(0, 6)
        specs = [(rng.randint(0, 30), rng.randint(0, 12), i) for i in range(k)]
        makespan, _ = schedule_min_makespan(specs)
        assert makespan == _brute_best_order(specs)


def test_time_on_one_sided_example():
    res = oracle_time(EX1_GENERAL)
    assert res.value == 31
    assert res.pairs == 4
    assert validate_solution(EX1_GENERAL, res.solution) == []


def test_time_on_two_sided_example():
    res = oracle_time(EX2_GENERAL)
    assert res.value == 21
    assert res.pairs == 2
    assert validate_solution(EX2_GENERAL, res.solution) == []


def test_time_on_empty_instance():
    res = oracle_time(GeneralInstance(EMPTY_SIDE, EMPTY_SIDE))
    assert res.value == 0
    assert res.pairs == 1
    assert res.solution.routes == ()


def test_distance_on_one_sided_example():
    assert oracle_distance(EX1_GENERAL, 40).value == 26
    assert oracle_distance(EX1_GENERAL, 45).value == 20
    assert oracle_distance(EX1_GENERAL, 10**9).value == 20
    res = oracle_distance(EX1_GENERAL, 20)
    assert res.value is None and res.solution is None
    witness = oracle_distance(EX1_GENERAL, 40)
    assert validate_solution(EX1_GENERAL, witness.solution, 40) == []


def test_distance_on_two_sided_example():
    assert oracle_distance(EX2_GENERAL, 22).value == 18
    assert oracle_distance(EX2_GENERAL, 100).value == 18
    assert oracle_distance(EX2_GENERAL, 17).value is None
    witness = oracle_distance(EX2_GENERAL, 22)
    assert validate_solution(EX2_GENERAL, witness.solution, 22) == []


def test_distance_on_empty_instance():
    assert oracle_distance(GeneralInstance(EMPTY_SIDE, EMPTY_SIDE), 0).value == 0


def test_size_guard():
    big = CanonicalSide(
        r=tuple(range(15)),
        tau=tuple(range(15, 0, -1)),
        labels=tuple(range(1, 16)),
        riders=((),) * 15,
    )
    with pytest.raises(TooLarge):
        oracle_time(GeneralInstance(EMPTY_SIDE, big))
    with pytest.raises(TooLarge):
        oracle_distance(GeneralInstance(big, EMPTY_SIDE), 100)


def test_pairs_counter_closed_form():
    for n_l, n_r in [(0, 0), (0, 3), (2, 0), (3, 4), (5, 5)]:
        inst = split_at_depot(generate_instance(n_l, n_r, 6, 20, seed=n_l * 7 + n_r))
        want = 2 ** max(inst.left.n - 1, 0) * 2 ** max(inst.right.n - 1, 0)
        assert oracle_time(inst).pairs == want


def test_witnesses_validate_on_random_instances():
    rng = random.Random(11)
    for trial in range(60):
        inst = split_at_depot(
            generate_instance(rng.randint(0, 4), rng.randint(0, 4), 8, 25, seed=trial)
        )
        res = oracle_time(inst)
        assert validate_solution(inst, res.solution) == []
        for factor in (0.8, 1.1, 1.6):
            deadline = int(res.value * factor) + 1
            dres = oracle_distance(inst, deadline)
            if dres.value is not None:
                assert validate_solution(inst, dres.solution, deadline) == []
                assert dres.value == sum(r.duration for r in dres.solution.routes)


def test_distance_never_feasible_below_time_optimum():
    # finishing by D needs D at least the best possible makespan
    rng = random.Random(13)
    for trial in range(40):
        inst = split_at_depot(
            generate_instance(rng.randint(0, 3), rng.randint(1, 3), 8, 25, seed=100 + trial)
        )
        t = oracle_time(inst).value
        assert oracle_distance(inst, t - 1).value is None
        assert oracle_distance(inst, t).value is not None


def _sorted_unreduced(members):
    ordered = sorted(members, key=lambda m: (m[1], -m[2]))
    return CanonicalSide(
        r=tuple(m[1] for m in ordered),
        tau=tuple(m[2] for m in ordered),
        labels=tuple(m[0] for m in ordered),
        riders=((),) * len(ordered),
    )


side_members = st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 20), st.integers(0, 12)),
    max_size=5,
    unique_by=lambda m: m[0],
)


@settings(max_examples=150, deadline=None)
@given(side_members, side_members)
def test_dominance_reduction_preserves_optima(left_ms, right_ms):
    raw_inst = GeneralInstance(_sorted_unreduced(left_ms), _sorted_unreduced(right_ms))
    red_inst = GeneralInstance(canonicalize_side(left_ms), canonicalize_side(right_ms))
    t_raw = oracle_time(raw_inst).value
    t_red = oracle_time(red_inst).value
    assert t_raw == t_red
    for deadline in (t_raw - 1, t_raw, t_raw + 3, 2 * t_raw + 5):
        assert oracle_distance(raw_inst, deadline).value == oracle_distance(red_inst, deadline).value


def test_validate_flags_each_violation_kind():
    inst = EX1_GENERAL
    good = oracle_time(inst).solution
    assert validate_solution(inst, good) == []

    def kinds(solution, deadline=None):
        return {v.kind for v in validate_solution(inst, solution, deadline)}

    # dispatched before release
    bad = Solution("time", 31, (Route("right", 0, 1, 4, 20, (1, 2)), good.routes[1]))
    assert "release" in kinds(bad)
    # wrong duration
    bad = Solution("time", 31, (Route("right", 0, 1, 5, 12, (1, 2)), good.routes[1]))
    assert "duration" in kinds(bad)
    # overlapping routes
    bad = Solution("time", 30, (Route("right", 0, 1, 5, 20, (1, 2)), Route("right", 2, 2, 24, 6, (3,))))
    assert "serialization" in kinds(bad)
    # missing a customer
    bad = Solution("time", 25, (Route("right", 0, 1, 5, 20, (1, 2)),))
    assert "partition" in kinds(bad)
    # served twice
    bad = Solution("time", 31, good.routes + (Route("right", 2, 2, 40, 6, (3,)),))
    assert "partition" in kinds(bad)
    # out-of-range block
    bad = Solution("time", 31, (Route("right", 0, 7, 5, 20, (1, 2)),))
    assert "partition" in kinds(bad)
    # unknown side
    bad = Solution("time", 31, (Route("middle", 0, 2, 21, 20, (1, 2, 3)),))
    assert "partition" in kinds(bad)
    # finished after the deadline
    assert "deadline" in kinds(good, 30)
    assert "deadline" not in kinds(good, 31)
    # stated value disagrees with the routes
    bad = Solution("time", 99, good.routes)
    assert "value" in kinds(bad)
    # deliveries are checked against the block, in any order
    for claim in ((999,), (1,), (1, 2, 2), (2, 1, 999)):
        bad = Solution("time", 31, (replace(good.routes[0], deliveries=claim), good.routes[1]))
        assert kinds(bad) == {"deliveries"}
    swapped = replace(good.routes[0], deliveries=good.routes[0].deliveries[::-1])
    assert kinds(Solution("time", 31, (swapped, good.routes[1]))) == set()
    # an objective neither time nor distance has no value to agree with
    for objective in ("speed", "Time", None):
        assert kinds(Solution(objective, 31, good.routes)) == {"objective"}


def test_validate_counts_deliveries_whose_labels_do_not_sort():
    # a hand-built side may carry labels that have no order; a wrong
    # delivery list is then a deliveries violation, not a TypeError
    side = CanonicalSide(r=(0, 2), tau=(5, 3), labels=("a", None), riders=((), ()))
    inst = GeneralInstance(EMPTY_SIDE, side)

    def kinds(deliveries):
        plan = Solution("time", 12, (Route("right", 0, 1, 2, 10, deliveries),))
        return {v.kind for v in validate_solution(inst, plan)}

    assert kinds(("a", None)) == kinds((None, "a")) == set()
    for claim in (("a", "a"), (None,), ("a", None, 3), (None, None, "a"), ()):
        assert kinds(claim) == {"deliveries"}
