import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrd import (
    EMPTY_SIDE,
    CanonicalSide,
    GeneralInstance,
    Infeasible,
    canonicalize_side,
    generate_instance,
    oracle_distance,
    oracle_time,
    random_canonical_side,
    split_at_depot,
    validate_solution,
)
from pathrd import distance_general
from pathrd.distance_extremity import solve_distance_heap, solve_distance_quadratic
from pathrd.distance_general import (
    _BLOCK,
    _NO_SLACK,
    _check_top,
    _distance_line,
    solve_distance_2d_cubic,
    solve_distance_2d_heap,
)
from pathrd.solution import LEFT
from pathrd.time_extremity import solve_time_linear

from helpers import (
    BLOCK_LINE,
    CORRUPTIONS,
    EX1_SIDE,
    assert_matches_baseline,
    corrupt_distance_blocks,
    count_distance_block_fills,
    line_side,
    long_block_sides,
    long_run_sides,
    ref_distance_line,
    rescaled,
    spy_block_lines,
    stairs_side,
    typed,
    typed_run_lines,
)

SOLVERS = (solve_distance_quadratic, solve_distance_heap)


def _wrap(side):
    return GeneralInstance(EMPTY_SIDE, side)


def test_worked_example_tight_deadline():
    for solve in SOLVERS:
        trace, sol = solve(EX1_SIDE, 40)
        assert trace.lam == [14, 28, 34, 40]
        assert sol.value == 26
        assert [(r.lo, r.hi, r.dispatch, r.duration) for r in sol.routes] == [
            (0, 1, 14, 20),
            (2, 2, 34, 6),
        ]
        assert validate_solution(_wrap(EX1_SIDE), sol, 40) == []


def test_worked_example_looser_deadline_merges_routes():
    for solve in SOLVERS:
        trace, sol = solve(EX1_SIDE, 45)
        assert trace.lam[0] == 25
        assert sol.value == 20
        assert [(r.lo, r.hi, r.dispatch) for r in sol.routes] == [(0, 2, 25)]


def test_worked_example_infeasible():
    for solve in SOLVERS:
        with pytest.raises(Infeasible):
            solve(EX1_SIDE, 20)
        # one short of T* = 31: the table still shows the feasible suffixes
        with pytest.raises(Infeasible) as exc:
            solve(EX1_SIDE, 30)
        assert exc.value.trace.lam == [None, 12, 24, 30]
        assert exc.value.trace.succ == [None, 2, 3, None]


def test_empty_side():
    for solve in SOLVERS:
        trace, sol = solve(EMPTY_SIDE, 5)
        assert trace.lam == [5] and sol.value == 0 and sol.routes == ()
        assert type(trace.lam[0]) is int and type(sol.value) is int
        trace, sol = solve(EMPTY_SIDE, 5.0)
        assert trace.lam == [5.0] and type(trace.lam[0]) is float
        with pytest.raises(Infeasible) as exc:
            solve(EMPTY_SIDE, -1)
        assert exc.value.trace.lam == [-1] and exc.value.trace.succ == [None]
        assert type(exc.value.trace.lam[0]) is int


def test_single_customer():
    side = canonicalize_side([(1, 7, 4)])
    for solve in SOLVERS:
        trace, sol = solve(side, 100)
        assert trace.lam == [92, 100]
        assert sol.value == 8
        assert sol.routes[0].dispatch == 92
    with pytest.raises(Infeasible):
        solve_distance_heap(side, 14)
    trace, _ = solve_distance_heap(side, 15)
    assert trace.lam[0] == 7


def test_slack_deadline_gives_single_route():
    rng = random.Random(3)
    for _ in range(50):
        side = random_canonical_side(rng.randint(1, 40), seed=rng.randrange(2**31))
        slack = side.r[-1] + 10 * side.tau[0] + 100
        for solve in SOLVERS:
            _, sol = solve(side, slack)
            assert sol.value == 2 * side.tau[0]
            assert len(sol.routes) == 1


def _deadline_ladder(side):
    _, tsol = solve_time_linear(side)
    t = tsol.value
    if isinstance(t, float):
        # exact-boundary deadlines are only meaningful with exact arithmetic
        return [t - 1, t + 1, t + side.tau[0], 2 * t + 10]
    return [t - 1, t, t + 1, t + side.tau[0], 2 * t + 10]


def _random_side(rng, ints_only=False):
    kind = rng.randrange(2 if ints_only else 3)
    if kind == 0:
        return random_canonical_side(
            rng.randint(1, 60), seed=rng.randrange(2**31), max_wait=rng.choice((0, 1, 3, 8))
        )
    if kind == 1:
        inst = split_at_depot(
            generate_instance(
                0, rng.randint(1, 25), rng.choice((2, 8)), rng.choice((0, 5, 40)), seed=rng.randrange(2**31)
            )
        )
        return inst.right
    members = [
        (i, rng.randint(0, 12) + rng.random(), rng.randint(0, 20) + rng.random())
        for i in range(rng.randint(1, 20))
    ]
    return canonicalize_side(members)


def test_heap_matches_quadratic_everywhere():
    rng = random.Random(99)
    for _ in range(200):
        side = _random_side(rng)
        for deadline in _deadline_ladder(side):
            try:
                qt, qs = solve_distance_quadratic(side, deadline)
            except Infeasible:
                with pytest.raises(Infeasible):
                    solve_distance_heap(side, deadline, check=True)
                continue
            ht, hs = solve_distance_heap(side, deadline, check=True)
            assert ht.lam == qt.lam
            assert hs.value == qs.value
            if isinstance(deadline, int):
                # replaying a float plan forward can drift by an ulp, so
                # exact validity is only promised on integer data
                for sol in (qs, hs):
                    assert validate_solution(_wrap(side), sol, deadline) == []
                assert hs.value == deadline - ht.lam[0]


def test_more_slack_never_costs_more():
    rng = random.Random(17)
    for _ in range(60):
        side = _random_side(rng)
        prev = None
        for deadline in sorted(_deadline_ladder(side)):
            try:
                _, sol = solve_distance_heap(side, deadline)
            except Infeasible:
                assert prev is None
                continue
            if prev is not None:
                assert sol.value <= prev
            prev = sol.value


def test_feasibility_boundary_is_time_optimum():
    rng = random.Random(23)
    for _ in range(80):
        side = _random_side(rng, ints_only=True)
        _, tsol = solve_time_linear(side)
        with pytest.raises(Infeasible):
            solve_distance_heap(side, tsol.value - 1)
        _, sol = solve_distance_heap(side, tsol.value)
        assert validate_solution(_wrap(side), sol, tsol.value) == []


def test_matches_oracle_on_small_instances():
    rng = random.Random(31)
    for _ in range(120):
        inst = split_at_depot(
            generate_instance(0, rng.randint(1, 9), 6, rng.choice((0, 4, 30)), seed=rng.randrange(2**31))
        )
        side = inst.right
        t = oracle_time(inst).value
        for deadline in (t - 1, t, t + 3, 2 * t + 9):
            want = oracle_distance(inst, deadline).value
            for solve in SOLVERS:
                if want is None:
                    with pytest.raises(Infeasible):
                        solve(side, deadline)
                else:
                    _, sol = solve(side, deadline)
                    assert sol.value == want


side_members = st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 25), st.integers(0, 15)),
    min_size=1,
    max_size=7,
    unique_by=lambda m: m[0],
)


@settings(max_examples=150, deadline=None)
@given(side_members, st.integers(0, 120))
def test_value_equals_oracle(ms, deadline):
    side = canonicalize_side(ms)
    want = oracle_distance(GeneralInstance(EMPTY_SIDE, side), deadline).value
    for solve in SOLVERS:
        if want is None:
            with pytest.raises(Infeasible):
                solve(side, deadline)
        else:
            _, sol = solve(side, deadline)
            assert sol.value == want


# int data, floats that round (x0.1, x0.37), half-integers, and whole
# floats within 2**20 of 2**52
SCALES = {
    "int": (1, 0),
    "x0.1": (0.1, 0),
    "x0.37": (0.37, 0),
    "half": (0.5, 0),
    "near 2**52": (1, float(2**52 - 2**20)),
}


@pytest.mark.parametrize("scale", SCALES)
def test_long_runs_match_quadratic(scale, monkeypatch):
    # runs shorter than a block, and at int scale longer ones too, whose
    # blocks check=True compares with the scalar loop's fill; no float
    # line takes one (test_run_fills_keep_python_values_and_types)
    fills = count_distance_block_fills(monkeypatch)
    for base in long_run_sides() + (long_block_sides() if scale == "int" else []):
        side = rescaled(base, *SCALES[scale])
        t = solve_time_linear(side)[1].value
        for deadline in (t - 1, t, t + 7 * SCALES[scale][0], t + side.tau[0], 2 * t + 10):
            assert_matches_baseline(solve_distance_heap, solve_distance_quadratic, side, deadline)
    if scale == "int":
        assert len(fills) >= 20


def _flat_line(rng, n):
    """Releases and depot distances for one line, nondecreasing and
    nonincreasing as the kernel needs, repeating in stretches: equal
    distances give equal lam, groups the front must slide past."""
    r = list(itertools.accumulate(rng.choice((0, 0, 0, 1, 5)) for _ in range(n)))
    tau = list(itertools.accumulate(rng.choice((0, 0, 1, 2)) for _ in range(n)))[::-1]
    return r, tau


def _plateau_candidates(rng, n, deadline, spread):
    """A nondecreasing other-side candidate line, absent on a prefix,
    in plateaus, the last at the deadline itself half the time."""
    start = rng.randint(0, n)
    values = sorted(deadline - rng.randint(0, spread) for _ in range(rng.randint(1, 6)))
    if rng.random() < 0.5:
        values[-1] = deadline
    cuts = sorted(rng.randint(start, n) for _ in range(len(values) - 1))
    ext = [None] * start
    for value, stop in zip(values, cuts + [n]):
        ext += [value] * (stop - len(ext))
    return ext, [(LEFT, 1)] * n


def _candidate_row(side, lam, succ, ext):
    """Run _distance_line on row 0 of a two-row table whose left side is
    one customer at the depot, released no later than any candidate:
    column q < n's left term is then row 1's entry itself, ext[q], and
    its move (LEFT, 1).  Column n, the left side's line, holds lam[n] in
    both rows, as a 2-D solve fills it before the rows."""
    n = side.n
    low = min((v for v in ext if v is not None), default=0)
    below = ext + [lam[n]]
    table = [lam, below]
    fronts = [-1] * n
    tops = [None] * n
    slacks = [_NO_SLACK] * n
    cols = (line_side([min(low, 0)], [0]), table, 0, fronts, tops, slacks, [(LEFT, 0), (LEFT, 1)])
    _distance_line(side, lam, succ, check=True, cols=cols)


def test_kernel_matches_its_definition_on_flat_lines(monkeypatch):
    # lines outside the canonical form's strict order, with and without
    # another side's candidate: they reach the front's slide past a group
    # of equal lam, and states just below a candidate equal to the
    # front's lam.  None is longer than a block, so none takes one
    fills = count_distance_block_fills(monkeypatch)
    rng = random.Random(2024)
    for trial in range(200):
        n = rng.choice((rng.randint(0, 12), rng.randint(30, 150)))
        r, tau = _flat_line(rng, n)
        far = tau[0] if n else 0
        deadline = (r[-1] if n else 0) + far * rng.choice((0, 1, 2, 4, 8, 20)) // 2
        ext = ext_pred = None
        lam = [None] * n + [deadline]
        succ = [None] * (n + 1)
        if trial % 2:
            # the candidates come in as a column's left terms
            ext, ext_pred = _plateau_candidates(rng, n, deadline, 2 * far + 3)
            _candidate_row(line_side(r, tau), lam, succ, ext)
        else:
            _distance_line(line_side(r, tau), lam, succ, check=True)
        assert (lam, succ) == ref_distance_line(r, tau, deadline, ext, ext_pred)
    assert fills == []


def _zero_last_tau(side):
    """side with every depot distance less its last, which becomes 0:
    the last state's lam ties lam[n]."""
    return line_side(side.r, [t - side.tau[-1] for t in side.tau])


def test_blocks_on_lines_with_groups_of_equal_lam(monkeypatch):
    # canonical lines whose last tau is 0, where lam[n - 1] = lam[n],
    # take blocks, which start on no zero tau; flat lines of at least two
    # blocks' length, equal and trailing zero taus among them, take none.
    # Each line equals the definition, its blocks compared with the
    # scalar loop's fill
    fills = count_distance_block_fills(monkeypatch)
    rng = random.Random(2026)
    one_route, _, _, stairs, _ = long_block_sides()
    dense = random_canonical_side(600, 5, max_wait=50, max_step=2)
    canonical = [_zero_last_tau(one_route), stairs, _zero_last_tau(dense)]
    flat = [line_side(*_flat_line(rng, rng.randint(2 * _BLOCK, 2 * _BLOCK + 100))) for _ in range(6)]
    taken = 0
    for side in canonical + flat:
        t = solve_time_linear(side)[1].value
        for deadline in (t, t + 7, 2 * t + 10):
            del fills[:]
            lam = [None] * side.n + [deadline]
            succ = [None] * (side.n + 1)
            _distance_line(side, lam, succ, check=True)
            assert (lam, succ) == ref_distance_line(side.r, side.tau, deadline)
            if side in flat:
                assert fills == []
            assert all(side.tau[first] > 0 for first, _ in fills)
            taken += len(fills)
    assert all(side.tau[-1] == 0 for side in canonical)
    assert any(len(set(side.tau[-2 * _BLOCK :])) < 2 * _BLOCK for side in flat)
    assert taken >= 9


def test_blocks_fill_a_dense_line_at_its_time_optimum(monkeypatch):
    # raw-dense's many-route line at T*: the front's own slack meets the
    # threshold _BLOCK states below on no state, but the largest slack of
    # the filled states does, and blocks fill nearly the whole line.
    # check=True compares the line with the scalar loop's fill; its
    # _check_top at every state, quadratic in the line, is left out
    fills = count_distance_block_fills(monkeypatch)
    monkeypatch.setattr(distance_general, "_check_top", lambda *args: None)
    side = random_canonical_side(10**5, 1, max_wait=50, max_step=2)
    deadline = solve_time_linear(side)[1].value
    solve_distance_heap(side, deadline, check=True)
    assert sum(first + 1 - last for first, last in fills) >= 0.99 * side.n


def test_blocks_take_one_front_or_many(monkeypatch):
    # a one-route line's block takes one front for every state, a
    # many-route line's one front per state, and the line whose releases
    # jump chains a second block whose front is one of the first block's
    # states; each line equals the definition, and check=True compares
    # its blocks with the scalar loop's fill
    fills = count_distance_block_fills(monkeypatch)
    one_route, _, _, _, jump = long_block_sides()
    many = random_canonical_side(600, 5, max_wait=50, max_step=2)
    fronts = {}
    for name, side in (("one", one_route), ("many", many), ("jump", jump)):
        t = solve_time_linear(side)[1].value
        # the one-route line's slack at T* is largest at state n - 1
        deadline = 2 * t if name == "one" else t
        del fills[:]
        lam = [None] * side.n + [deadline]
        succ = [None] * (side.n + 1)
        _distance_line(side, lam, succ, check=True)
        assert (lam, succ) == ref_distance_line(side.r, side.tau, deadline)
        ((first, last),) = fills
        assert first - last >= _BLOCK
        fronts[name] = succ[last : first + 1]
    assert len(set(fronts["one"])) == 1
    assert len(set(fronts["many"])) > 1
    # the first block's states take front n, the second's the first
    # block's last state, n / 2
    assert set(fronts["jump"]) == {jump.n // 2, jump.n}


def test_run_fills_keep_python_values_and_types(monkeypatch):
    # only an int line within MAX_MAGNITUDE takes blocks, whose int64
    # arithmetic gives Python's values and types there; float, mixed,
    # object and out-of-range lines stay on the scalar loop, and every
    # line equals the definition entry for entry
    seen = spy_block_lines(monkeypatch)
    blocked = set()
    for name, side, deadlines in typed_run_lines():
        for deadline in deadlines:
            before = len(seen)
            lam = [None] * side.n + [deadline]
            succ = [None] * (side.n + 1)
            _distance_line(side, lam, succ, check=side.n < 150)
            want_lam, want_succ = ref_distance_line(side.r, side.tau, deadline)
            assert typed(lam) == typed(want_lam), (name, deadline)
            assert succ == want_succ, (name, deadline)
            if len(seen) > before:
                blocked.add(name)
    assert set(seen) == {BLOCK_LINE}
    assert blocked == {"int", "near 2**53 int"}


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_check_catches_a_bad_run(how, monkeypatch):
    # a block fill that writes its last value off by one, or as a float,
    # passes unseen without check, and fails the comparison with the
    # scalar loop's fill with it
    hits = corrupt_distance_blocks(monkeypatch, CORRUPTIONS[how])
    caught = 0
    for side in long_block_sides():
        t = solve_time_linear(side)[1].value
        for deadline in (t, 2 * t):
            del hits[:]
            try:
                solve_distance_heap(side, deadline)
            except Infeasible:
                # a value off by one can leave no plan
                pass
            if hits:
                caught += 1
                with pytest.raises(AssertionError):
                    solve_distance_heap(side, deadline, check=True)
    assert caught >= 9


def test_check_top_rejects_a_front_past_its_groups_smallest_index():
    # states 2 and 3 share lam 7 and both meet the threshold 6 of state
    # 0, so the front is 2, the one with the more slack; 3 is rejected
    line = [None, 5, 7, 7, 9]
    r = [0, 1, 1, 5]
    tau = [3, 2, 1, 0]
    _check_top(line, r, tau, 0, 2)
    for f in (3, 4, 1, -1):
        with pytest.raises(AssertionError):
            _check_top(line, r, tau, 0, f)
    with pytest.raises(AssertionError):
        _check_top([None, 5, 8, 7, 9], r, tau, 0, 2)


@pytest.mark.xfail(strict=True, reason="rounding ties between successors pick the larger lam")
def test_rounding_ties_near_2_53_pick_the_smallest_successor():
    # just under 2**53 the ulp is 1: lam[199] and lam[200] differ by 1,
    # yet both round to one candidate for state 42 once 2 tau[42] is taken
    # off; the quadratic solver keeps the smaller index, 199, and the fast
    # kernel its front, 200
    side = rescaled(random_canonical_side(200, seed=72, max_wait=20, max_step=2), 0.37, float(2**52 - 2**20))
    deadline = 2 * solve_time_linear(side)[1].value + 10
    assert solve_distance_heap(side, deadline)[0].succ == solve_distance_quadratic(side, deadline)[0].succ


@pytest.mark.xfail(strict=True, raises=Infeasible, reason="float sums make T* infeasible for distance")
def test_float_distance_at_its_time_optimum_is_feasible():
    # an int side times 0.37: one route dispatched at 11.1 meets T*, but
    # each solver's backward lam[q] - 2 tau[p] rounds below the forward
    # max(prev, r) + 2 tau, and all four find no plan at T*
    side = CanonicalSide(
        r=(4.4399999999999995, 7.77, 11.1),
        tau=(12.209999999999999, 11.84, 8.879999999999999),
        labels=(1, 2, 3),
        riders=((), (), ()),
    )
    inst = _wrap(side)
    deadline = solve_time_linear(side)[1].value
    assert deadline == oracle_time(inst).value == 35.519999999999996
    best = oracle_distance(inst, deadline)
    assert best.value == 24.419999999999998
    assert validate_solution(inst, best.solution, deadline) == []
    for solve, arg in (
        (solve_distance_quadratic, side),
        (solve_distance_heap, side),
        (solve_distance_2d_cubic, inst),
        (solve_distance_2d_heap, inst),
    ):
        assert solve(arg, deadline)[1].value == best.value
