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
    random_canonical_side,
    split_at_depot,
    validate_solution,
)
from pathrd import distance_general
from pathrd.distance_extremity import solve_distance_heap, solve_distance_quadratic
from pathrd.distance_general import RUN, DistDpTrace, solve_distance_2d_cubic, solve_distance_2d_heap
from pathrd.solution import LEFT
from pathrd.time_general import solve_time_2d_cubic, solve_time_2d_minqueue

from helpers import (
    CORRUPTIONS,
    EX2_GENERAL,
    RUN_VALUE_BRANCHES,
    assert_matches_baseline,
    corrupt_run_values,
    count_run_fills,
    line_side,
    long_run_sides,
    ref_distance_2d_heap,
    ref_distance_table,
    rescaled,
    spy_run_values,
    typed,
    typed_run_lines,
)

SOLVERS = (solve_distance_2d_cubic, solve_distance_2d_heap)
# each 1-D solver and the 2-D solver of its family
FAMILIES = ((solve_distance_quadratic, solve_distance_2d_cubic), (solve_distance_heap, solve_distance_2d_heap))


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
        for side in (inst.right, rescaled(inst.right, 0.37)):
            wrapped = GeneralInstance(EMPTY_SIDE, side)
            tbest = solve_time_2d_cubic(wrapped)[1].value
            for deadline in (tbest - 1, tbest, tbest + 5, 2 * tbest + 9):
                for solve_1d, solve_2d in FAMILIES:
                    # a 1-D trace is the one row of the 2-D trace, moves
                    # and all, infeasible traces included
                    t1, s1 = _trace_or_infeasible(solve_1d, side, deadline)
                    t2, s2 = _trace_or_infeasible(solve_2d, wrapped, deadline)
                    assert t2 == DistDpTrace([t1.lam], [t1.succ])
                    assert s2 == s1
                if side is inst.right:
                    assert (s1 is None) == (deadline < tbest)
                flipped = GeneralInstance(side, EMPTY_SIDE)
                t3, s3 = _trace_or_infeasible(solve_distance_2d_heap, flipped, deadline, check=True)
                assert [row[0] for row in t3.lam] == t1.lam
                assert [row[0] for row in t3.succ] == [q if q is None else (LEFT, q) for q in t1.succ]
                if s1 is not None:
                    assert s3 == solve_distance_heap(side, deadline, label=LEFT)[1]


def _trace_or_infeasible(solve, *args, **kwargs):
    """(trace, solution) of a solve, or (trace, None) when it raises
    Infeasible with that trace."""
    try:
        return solve(*args, **kwargs)
    except Infeasible as exc:
        return exc.trace, None


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


def _right_runs(side, row):
    """(lowest, highest) state of each stretch of more than RUN states of
    a filled row of lam that take their right term from one successor:
    the stretches a run fills when the row holds no left term.  The
    right term at p is the largest row[q] whose slack row[q] - r[q-1]
    meets 2 tau[p], q > p, at the smallest such q."""
    runs = []
    start = last = None
    for p in range(side.n - 1, -2, -1):
        best = None
        if p >= 0:
            threshold = 2 * side.tau[p]
            for q in range(p + 1, side.n + 1):
                v = row[q]
                if v is not None and v - side.r[q - 1] >= threshold and (best is None or v > row[best]):
                    best = q
        if best != last:
            if last is not None and start - p > RUN:
                runs.append((p + 1, start))
            start, last = p, best
    return runs


def test_left_term_wins_inside_right_runs(monkeypatch):
    # the right side's rows hold runs longer than RUN, and the left term
    # ties or beats them on some of their states; the rows that hold
    # the left term take those states one by one
    fills = count_run_fills(monkeypatch)
    tops = []
    won = []
    rng = random.Random(158)
    for scale in (1, 0.37, 0.5):
        for right in long_run_sides():
            right = rescaled(right, scale)
            inst = GeneralInstance(_near_left(rng, right), right)
            tbest = solve_time_2d_cubic(inst)[1].value
            for deadline in (tbest, tbest + 5 * scale, 2 * tbest + 10):
                trace = assert_matches_baseline(solve_distance_2d_heap, solve_distance_2d_cubic, inst, deadline)
                for row, moves in zip(trace.lam[:-1], trace.succ[:-1]):
                    for lo, hi in _right_runs(right, row):
                        tops.append(hi)
                        # a left move is a tuple, a right one a bare index
                        if any(w.__class__ is tuple for w in moves[lo : hi + 1]):
                            won.append(hi)
    # the bottom rows, which hold no left term, fill their runs by slice
    assert fills
    assert len(tops) >= 100 and len(won) >= 50


def test_merged_row_run_fills_keep_python_values_and_types(monkeypatch):
    # rows that hold the left term keep Python's values and types too,
    # entry for entry against the definition; they take their states one
    # by one, and the bottom rows' run fills reach every branch
    seen = spy_run_values(monkeypatch)
    merged = []
    kernel = distance_general._distance_line

    def spied(side, lam, succ, check=False, two=None, cols=None):
        start = len(seen)
        kernel(side, lam, succ, check, two, cols)
        if cols is not None:
            merged.extend(seen[start:])

    monkeypatch.setattr(distance_general, "_distance_line", spied)
    for name, right, deadlines in typed_run_lines():
        # one customer released with the right side's last, one unit out:
        # its term is workable at the upper end of each row
        left = line_side([right.r[-1]], [1])
        inst = GeneralInstance(left, right)
        for deadline in deadlines:
            trace, _ = _trace_or_infeasible(solve_distance_2d_heap, inst, deadline)
            want_lam, want_succ = ref_distance_table(left, right, deadline)
            assert [typed(row) for row in trace.lam] == [typed(row) for row in want_lam], (name, deadline)
            assert trace.succ == want_succ, (name, deadline)
    assert merged == []
    assert set(seen) >= RUN_VALUE_BRANCHES


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


def _frozen_cases():
    """(name, instance, deadlines) for the bitwise comparison with
    ref_distance_2d_heap: grid-2d's sides at seeds 1-3, a one-route
    pair, skinny 30 x 3000 pairs both ways round, the flat sides of
    test_heap_matches_cubic_on_flat_sides, and smaller pairs rescaled
    by 0.37 and 0.5 and shifted to near 2**52; each at T* - 1, T* and
    T* plus slack."""
    pairs = []
    for seed in (1, 2, 3):
        # grid-2d's construction, perfbench/workloads.py
        left = random_canonical_side(300, 2 * seed, max_wait=50, max_step=2)
        right = random_canonical_side(300, 2 * seed + 1, max_wait=50, max_step=2)
        pairs.append((f"grid {seed}", GeneralInstance(left, right)))
    one, skinny = random_canonical_side(30, 5), random_canonical_side(3000, 6)
    pairs += [
        ("one route", GeneralInstance(random_canonical_side(150, 7), random_canonical_side(150, 8))),
        ("skinny", GeneralInstance(one, skinny)),
        ("skinny flipped", GeneralInstance(skinny, one)),
    ]
    rng = random.Random(2025)
    for k in range(40):
        flat = GeneralInstance(_flat_side(rng, rng.randint(1, 30)), _flat_side(rng, rng.randint(1, 30)))
        pairs.append((f"flat {k}", flat))
    many = dict(max_wait=50, max_step=2)
    small = [
        GeneralInstance(random_canonical_side(60, 9, **many), random_canonical_side(80, 10, **many)),
        GeneralInstance(random_canonical_side(60, 11), random_canonical_side(80, 12)),
    ]
    for scale, shift in ((0.37, 0), (0.5, 0), (1, float(2**52 - 2**20))):
        for k, inst in enumerate(small):
            left, right = (rescaled(side, scale, shift) for side in (inst.left, inst.right))
            pairs.append((f"x{scale} +{shift} {k}", GeneralInstance(left, right)))
    cases = []
    for name, inst in pairs:
        tbest = solve_time_2d_minqueue(inst)[1].value
        far = inst.left.tau[0] + inst.right.tau[0]
        cases.append((name, inst, (tbest - 1, tbest, tbest + far)))
    return cases


def _typed_result(solve, inst, deadline, **kwargs):
    trace, plan = _trace_or_infeasible(solve, inst, deadline, **kwargs)
    return [typed(row) for row in trace.lam], trace.succ, plan


def test_fused_kernel_matches_the_frozen_reference():
    # the column step inside the line kernel gives the inline column
    # step's tables, types, moves, Infeasible traces and plans, bit for bit
    for name, inst, deadlines in _frozen_cases():
        check = inst.left.n * inst.right.n <= 2000
        for deadline in deadlines:
            want = _typed_result(ref_distance_2d_heap, inst, deadline)
            got = _typed_result(solve_distance_2d_heap, inst, deadline, check=check)
            assert got == want, (name, deadline)


def test_left_only_solve_is_one_kernel_call(monkeypatch):
    # an empty right side leaves one line, which the kernel fills in one
    # call on the left side, its moves left ones
    calls = []
    kernel = distance_general._distance_line

    def spied(side, *args):
        calls.append(side)
        return kernel(side, *args)

    monkeypatch.setattr(distance_general, "_distance_line", spied)
    side = random_canonical_side(500, 3, max_wait=50, max_step=2)
    inst = GeneralInstance(side, EMPTY_SIDE)
    deadline = solve_time_2d_minqueue(inst)[1].value + 7
    trace, plan = solve_distance_2d_heap(inst, deadline)
    assert calls == [side]
    one, one_plan = solve_distance_heap(side, deadline, label=LEFT)
    assert trace == DistDpTrace([[v] for v in one.lam], [[q if q is None else (LEFT, q)] for q in one.succ])
    assert plan == one_plan


def test_check_runs_once_per_column_front_and_row_state(monkeypatch):
    # check=True asserts each left-line state once, in the left side's
    # own line, column n_r; then each other column's front once per row
    # above the bottom, and each row state once, the states of a run
    # fill included
    seen = []
    check_top = distance_general._check_top

    def spied(line, r, tau, p, f):
        seen.append((r, p))
        check_top(line, r, tau, p, f)

    monkeypatch.setattr(distance_general, "_check_top", spied)
    fills = count_run_fills(monkeypatch)
    right = long_run_sides()[0]
    left = line_side([right.r[-1], right.r[-1] + 3], [2, 1])
    nl, nr = left.n, right.n
    tbest = solve_time_2d_minqueue(GeneralInstance(left, right))[1].value
    for deadline in (tbest - 1, tbest, 2 * tbest):
        seen.clear()
        _trace_or_infeasible(solve_distance_2d_heap, GeneralInstance(left, right), deadline, check=True)
        columns = [p for r, p in seen if r is left.r]
        rows = [p for r, p in seen if r is right.r]
        assert len(columns) + len(rows) == len(seen)
        assert columns == list(range(nl - 1, -1, -1)) + [p for p in range(nl - 1, -1, -1) for _ in range(nr)]
        assert sorted(rows) == sorted(list(range(nr)) * (nl + 1))
    assert fills


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_check_catches_a_bad_run_in_the_bottom_row(how, monkeypatch):
    # the bottom row's run fills are compared with the scalar loop's
    # fill of the same row
    hits = corrupt_run_values(monkeypatch, CORRUPTIONS[how])
    caught = 0
    for right in long_run_sides():
        inst = GeneralInstance(line_side([right.r[-1]], [1]), right)
        t = solve_time_2d_minqueue(inst)[1].value
        for deadline in (t, 2 * t):
            del hits[:]
            _trace_or_infeasible(solve_distance_2d_heap, inst, deadline)
            if hits:
                caught += 1
                with pytest.raises(AssertionError):
                    solve_distance_2d_heap(inst, deadline, check=True)
    assert caught >= 7
