import dataclasses
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrd import (
    EMPTY_SIDE,
    GeneralInstance,
    Infeasible,
    canonicalize_side,
    generate_instance,
    oracle_time,
    random_canonical_side,
    split_at_depot,
    time_general,
    validate_solution,
)
from pathrd.distance_extremity import solve_distance_heap
from pathrd.time_extremity import solve_time_linear, solve_time_quadratic

from helpers import (
    BLOCK_LINE,
    CORRUPTIONS,
    EX1_SIDE,
    SHORT_BLOCK,
    corrupt_time_blocks,
    count_time_block_fills,
    dense_time_sides,
    long_time_run_sides,
    mixed,
    ref_time_tables,
    rescaled,
    spy_block_lines,
    typed,
    typed_run_lines,
)

SOLVERS = (solve_time_quadratic, solve_time_linear)


def _wrap(side):
    return GeneralInstance(EMPTY_SIDE, side)


def test_worked_example_both_solvers():
    for solve in SOLVERS:
        trace, sol = solve(EX1_SIDE)
        assert trace.c == [0, 20, 25, 31]
        assert trace.pred == [None, 0, 0, 2]
        assert sol.value == 31
        assert [(r.lo, r.hi, r.dispatch, r.duration) for r in sol.routes] == [
            (0, 1, 5, 20),
            (2, 2, 25, 6),
        ]
        assert sol.routes[0].deliveries == (1, 2)
        assert sol.routes[1].deliveries == (3,)
        assert validate_solution(_wrap(EX1_SIDE), sol) == []


def test_enqueue_order_regression():
    # the candidate a_1 = c(1) + 2 tau_2 must not be visible when state 2
    # is computed; folding it in early would yield 20 here instead of 25
    trace, _ = solve_time_linear(EX1_SIDE)
    assert trace.c[2] == 25


def test_empty_side():
    for solve in SOLVERS:
        trace, sol = solve(EMPTY_SIDE)
        assert trace.c == [0] and trace.pred == [None] and sol.value == 0 and sol.routes == ()
        # ints, not 0.0: an empty side adds no float to the tables
        assert [type(v) for v in trace.c + [sol.value]] == [int] * 2


def test_float_tables_start_from_a_float_origin():
    # the fast solver's origin is the table dtype's zero, as the
    # baseline's is; an int side keeps int 0
    side = canonicalize_side([(1, 0.5, 2.5), (2, 1.5, 1.0)])
    tables = [solve(side)[0].c for solve in SOLVERS]
    assert [type(c[0]) for c in tables] == [float, float]
    assert typed(tables[0]) == typed(tables[1])
    assert [type(solve(EX1_SIDE)[0].c[0]) for solve in SOLVERS] == [int, int]


def test_single_customer():
    side = canonicalize_side([(1, 7, 4)])
    for solve in SOLVERS:
        trace, sol = solve(side)
        assert trace.c == [0, 15]
        assert sol.value == 15
        assert sol.routes[0].dispatch == 7


def test_all_releases_zero_is_one_route():
    side = canonicalize_side([(1, 0, 10), (2, 0, 6), (3, 0, 3)])
    assert side.n == 3
    for solve in SOLVERS:
        trace, sol = solve(side)
        assert sol.value == 20
        assert len(sol.routes) == 1
        assert sol.routes[0].dispatch == 0


def test_equal_releases_wait_then_one_route():
    side = canonicalize_side([(i, 9, 20 - i) for i in range(1, 6)])
    for solve in SOLVERS:
        _, sol = solve(side)
        assert sol.value == 9 + 2 * side.tau[0]
        assert len(sol.routes) == 1


def _random_side(rng):
    kind = rng.randrange(3)
    if kind == 0:
        n = rng.randint(0, 60)
        return random_canonical_side(n, seed=rng.randrange(2**31), max_wait=rng.choice((0, 1, 3, 8)))
    if kind == 1:
        inst = split_at_depot(
            generate_instance(0, rng.randint(0, 25), rng.choice((0, 2, 8)), rng.choice((0, 5, 40)), seed=rng.randrange(2**31))
        )
        return inst.right
    members = [
        (i, rng.randint(0, 12) + rng.random(), rng.randint(0, 20) + rng.random())
        for i in range(rng.randint(0, 20))
    ]
    return canonicalize_side(members)


def test_linear_matches_quadratic_everywhere():
    _assert_linear_matches_quadratic(random.Random(42), 400)


def test_blocks_of_any_length_match_quadratic(monkeypatch):
    # blocks one state long or more, in chunks of 3, on short lines
    monkeypatch.setattr(time_general, "_BLOCK", 1)
    monkeypatch.setattr(time_general, "_CHUNK", 3)
    blocks = count_time_block_fills(monkeypatch)
    _assert_linear_matches_quadratic(random.Random(43), 400)
    assert len(blocks) > 100


def _assert_linear_matches_quadratic(rng, count):
    for _ in range(count):
        side = _random_side(rng)
        qt, qs = solve_time_quadratic(side)
        lt, ls = solve_time_linear(side, check=True)
        assert lt.c == qt.c
        assert lt.pred == qt.pred
        assert ls == qs
        assert validate_solution(_wrap(side), ls) == []
        # completion times never decrease as more customers are added
        assert all(a <= b for a, b in zip(lt.c, lt.c[1:]))
        # serving through i costs at least its own release plus round trip
        for i in range(1, side.n + 1):
            assert lt.c[i] >= side.r[i - 1] + 2 * side.tau[i - 1]


def test_matches_oracle_on_small_instances():
    rng = random.Random(7)
    for _ in range(150):
        inst = split_at_depot(
            generate_instance(0, rng.randint(0, 9), 6, rng.choice((0, 4, 30)), seed=rng.randrange(2**31))
        )
        want = oracle_time(inst).value
        for solve in SOLVERS:
            _, sol = solve(inst.right)
            assert sol.value == want


side_members = st.lists(
    st.tuples(st.integers(0, 99), st.integers(0, 25), st.integers(0, 15)),
    max_size=7,
    unique_by=lambda m: m[0],
)


@settings(max_examples=200, deadline=None)
@given(side_members)
def test_value_equals_oracle(ms):
    side = canonicalize_side(ms)
    want = oracle_time(GeneralInstance(EMPTY_SIDE, side)).value
    for solve in SOLVERS:
        _, sol = solve(side)
        assert sol.value == want


def _assert_matches_reference(side, check=False):
    """solve_time_linear gives ref_time_line's c and pred, entry for
    entry and type for type."""
    trace, _ = solve_time_linear(side, check=check)
    c, pred = ref_time_tables(side)
    assert typed(trace.c) == typed(c)
    assert typed(trace.pred) == typed(pred)


# int data, floats that round (x0.37), half-integers, and whole floats
# within 2**20 of 2**52
SCALES = {
    "int": (1, 0),
    "x0.37": (0.37, 0),
    "half": (0.5, 0),
    "near 2**52": (1, float(2**52 - 2**20)),
}


# the kernel's numpy chunk length; one that cuts these lines' blocks
# into many chunks, so that a block's running minimum is carried across
# their seams; and one at which the "own a" side's state 94, where one of
# the block's own a first undercuts, is the first of a chunk from state
# 2, 2 + 4 * 23
CHUNKS = {"default": time_general._CHUNK, "5": 5, "23": 23}

@pytest.mark.parametrize("chunk", CHUNKS)
@pytest.mark.parametrize("scale", SCALES)
def test_long_time_runs_match_reference(scale, chunk, monkeypatch):
    monkeypatch.setattr(time_general, "_CHUNK", CHUNKS[chunk])
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    for name, base in long_time_run_sides().items():
        before = len(blocks)
        _assert_matches_reference(rescaled(base, *SCALES[scale]), check=True)
        # an int line takes blocks; a float one stays on the scalar loop
        assert (len(blocks) > before) == (scale == "int"), name


def test_each_way_a_run_ends(monkeypatch):
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    sides = long_time_run_sides()
    ends = {
        # name: (the first stretch of blocks, the state where the run
        # ends, its pred there): the front is a state from before the
        # run, the own a one of the run's, and both win inside a block
        "cursor": ((2, 60), 61, 60),
        "front": ((12, 80), 61, 11),
        "own a": ((2, 120), 94, 41),
    }
    for name, (block, end, winner) in ends.items():
        side = sides[name]
        del blocks[:]
        trace, _ = solve_time_linear(side, check=True)
        assert blocks[0] == block
        assert trace.pred[end - 1] != winner == trace.pred[end]
        _assert_matches_reference(side)
    # the cursor moved: state 61 is released exactly at c[1], which ends
    # the block from state 1, and the next block from state 60 is empty
    cursor = sides["cursor"]
    c = solve_time_linear(cursor)[0].c
    assert cursor.r[59] < c[1] == cursor.r[60]
    # a front that wins 20 states after the cursor moves, at state 41:
    # the block from state 11 fills through it like any other
    front = sides["front"]
    short = dataclasses.replace(front, r=front.r[:40] + (2029,) * 40)
    del blocks[:]
    _assert_matches_reference(short, check=True)
    assert blocks == [(12, 80)]
    assert solve_time_linear(short)[0].pred[40:42] == [10, 11]


def test_check_asserts_every_state_a_run_fills(monkeypatch):
    states = []
    check_line = time_general._check_line

    def recorded(line, tau, release, k, values, indices):
        states.append(len(line))
        check_line(line, tau, release, k, values, indices)

    monkeypatch.setattr(time_general, "_check_line", recorded)
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    side = long_time_run_sides()["stairs"]
    solve_time_linear(side, check=True)
    # one chain of blocks fills every state past the first
    assert blocks == [(2, side.n)]
    assert sorted(states) == list(range(1, side.n + 1))


def _filled(fills):
    return sum(last - first + 1 for first, last in fills)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_dense_int_lines_fill_blocks_across_chunk_seams(chunk, monkeypatch):
    # raw-dense's family: from the one-route stretch at its start on, an
    # int line fills most of its states by blocks, whose chunks of 5 or
    # 23 states carry the running minimum and its pred across each seam
    monkeypatch.setattr(time_general, "_CHUNK", CHUNKS[chunk])
    blocks = count_time_block_fills(monkeypatch)
    for side in dense_time_sides():
        del blocks[:]
        _assert_matches_reference(side, check=True)
        assert _filled(blocks) > side.n // 5
        assert blocks[0][0] == 2


FLOAT_KINDS = {
    **{name: (lambda s, scale=scale: rescaled(s, *scale)) for name, scale in SCALES.items() if name != "int"},
    **{f"mixed {which}": (lambda s, which=which: mixed(s, which)) for which in (1, 2, 3)},
}


@pytest.mark.parametrize("kind", FLOAT_KINDS)
def test_dense_float_and_mixed_lines_take_blocks(kind, monkeypatch):
    # once a float takes part the line is no block line: the scalar loop
    # fills every state, so the entries keep its types
    blocks = count_time_block_fills(monkeypatch)
    for base in dense_time_sides():
        del blocks[:]
        _assert_matches_reference(FLOAT_KINDS[kind](base), check=True)
        assert blocks == []


def test_one_block_rule_for_both_kernels(monkeypatch):
    # typed_run_lines() and the dense sides of every float kind, through
    # both fast 1-D solvers: either kernel takes blocks only on an exact
    # int line, and the int lines take them in both
    lines = typed_run_lines()
    lines += [(kind, FLOAT_KINDS[kind](base), None) for kind in FLOAT_KINDS for base in dense_time_sides()]
    seen = {"time": spy_block_lines(monkeypatch, time_general), "distance": spy_block_lines(monkeypatch)}
    blocked = set()
    for name, side, deadlines in lines:
        before = {kernel: len(blocks) for kernel, blocks in seen.items()}
        t = solve_time_linear(side)[1].value
        for deadline in deadlines or (t, 2 * t):
            try:
                solve_distance_heap(side, deadline)
            except Infeasible:
                # a float T* rounded down leaves no plan
                pass
        blocked |= {(kernel, name) for kernel, blocks in seen.items() if len(blocks) > before[kernel]}
    assert set(seen["time"]) == set(seen["distance"]) == {BLOCK_LINE}
    assert blocked == {(kernel, name) for kernel in seen for name in ("int", "near 2**53 int")}


def test_blocks_fill_most_of_a_dense_line(monkeypatch):
    # at a tenth of raw-dense's size, one stretch of blocks fills all
    # but the first state and a tail too short for blocks
    blocks = count_time_block_fills(monkeypatch)
    side = random_canonical_side(10**4, seed=803, max_wait=50, max_step=2)
    _assert_matches_reference(side)
    assert len(blocks) == 1
    assert _filled(blocks) > 0.8 * side.n


def test_blocks_that_reach_the_last_state_or_tie(monkeypatch):
    # a block that ends at the line's last state, which pushes no a;
    # and lines on which a state's released candidate ties the least a
    # the block itself pushed, where the released candidate keeps it
    blocks = count_time_block_fills(monkeypatch)
    side = random_canonical_side(600, seed=2, max_wait=8, max_step=1)
    _assert_matches_reference(side, check=True)
    assert blocks[-1][1] == side.n
    for seed in (0, 1):
        _assert_matches_reference(random_canonical_side(2000, seed=seed, max_wait=8, max_step=1), check=True)


def test_check_asserts_every_state_a_block_fills(monkeypatch):
    states = []
    check_line = time_general._check_line

    def recorded(line, tau, release, k, values, indices):
        states.append(len(line))
        check_line(line, tau, release, k, values, indices)

    monkeypatch.setattr(time_general, "_check_line", recorded)
    blocks = count_time_block_fills(monkeypatch)
    side = dense_time_sides()[0]
    solve_time_linear(side, check=True)
    assert _filled(blocks) > 500
    assert sorted(states) == list(range(1, side.n + 1))


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_check_catches_a_bad_block(how, monkeypatch):
    # a block that writes one value wrong, or one int as a float, passes
    # unseen without check, and fails the comparison with the scalar
    # loop's fill with it
    hits = corrupt_time_blocks(monkeypatch, CORRUPTIONS[how])
    side = dense_time_sides()[0]
    solve_time_linear(side)
    assert hits
    with pytest.raises(AssertionError):
        solve_time_linear(side, check=True)


def test_near_2_53_sweep_matches_reference(monkeypatch):
    # the float corpus of the rounding-tie sweep: there the ulp is 1 or
    # 2, and c and pred must still be the scalar loop's; the lines are
    # 80 states long, so blocks are let in from SHORT_BLOCK states, and
    # being float lines they take none
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    for seed in range(100):
        for wait in (0, 1, 3, 20):
            base = random_canonical_side(80, seed=seed, max_wait=wait, max_step=1)
            for scale in (0.2, 0.37, 0.3):
                for shift in (float(2**52), 1.5 * 2**52):
                    _assert_matches_reference(rescaled(base, scale, shift))
    assert blocks == []


def test_mixed_int_and_float_entries_keep_their_types(monkeypatch):
    # a mixed line is no block line: the scalar loop fills it
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    for name, base in long_time_run_sides().items():
        for which in (1, 2, 3):
            before = len(blocks)
            side = mixed(base, which)
            _assert_matches_reference(side)
            assert len(blocks) == before, (name, which)
    # both types do reach the tables
    c = solve_time_linear(mixed(long_time_run_sides()["stairs"], 1))[0].c
    assert {type(v) for v in c} == {int, float}


def test_mixed_entries_past_2_53_stay_exact(monkeypatch):
    # beyond the admissible input, float64 no longer holds every sum of
    # ints: past MAX_MAGNITUDE a line takes no block, and the scalar
    # loop fills every state
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    for name, base in long_time_run_sides().items():
        for scale in (1, 3):
            for which in (1, 2, 3):
                _assert_matches_reference(mixed(rescaled(base, scale, 2**53 + 1), which))
    assert blocks == []


def test_float_runs_over_releases_past_int64_stay_exact(monkeypatch):
    # beyond the admissible input, ints past int64 give the releases
    # object arrays; past MAX_MAGNITUDE a line takes no block, and the
    # scalar loop adds int + float as Python does
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    for name, base in long_time_run_sides().items():
        side = rescaled(base, 2**12, 2**64)
        side = dataclasses.replace(side, tau=tuple(map(float, side.tau)))
        assert side.arrays[0].dtype == object
        _assert_matches_reference(side)
    assert blocks == []


@pytest.mark.xfail(strict=True, reason="rounding ties between predecessors pick the larger j")
def test_rounding_ties_near_2_53_pick_the_smallest_predecessor():
    # at 2**52 the ulp is 1, so candidates max(c[j], r) + 2 tau[j+1] a
    # fraction apart round to one value; c agrees, but from state 17 on
    # the quadratic solver keeps j = 0 and the linear one j = 1
    side = rescaled(random_canonical_side(80, seed=0, max_wait=20, max_step=1), 0.2, float(2**52))
    assert solve_time_linear(side)[0].pred == solve_time_quadratic(side)[0].pred
