import inspect
import random

import pytest

from pathrd import (
    EMPTY_SIDE,
    GeneralInstance,
    canonicalize_side,
    generate_instance,
    oracle_time,
    random_canonical_side,
    split_at_depot,
    validate_solution,
)
from pathrd import time_general
from pathrd.solution import LEFT
from pathrd.time_extremity import solve_time_linear, solve_time_quadratic
from pathrd.time_general import solve_time_2d_cubic, solve_time_2d_minqueue

from helpers import (
    BLOCK_LEFT,
    CORRUPTIONS,
    EX1_SIDE,
    EX2_GENERAL,
    EX2_LEFT,
    LEFT_CUT_CUSTOMER,
    SHORT_BLOCK,
    corrupt_time_blocks,
    count_time_block_fills,
    dense_time_sides,
    line_side,
    long_time_run_sides,
    ref_time_2d_minqueue,
    rescaled,
    spy_fills_by_column_work,
    typed,
)

SOLVERS = (solve_time_2d_cubic, solve_time_2d_minqueue)
# each 1-D solver and the 2-D solver of its family
FAMILIES = ((solve_time_quadratic, solve_time_2d_cubic), (solve_time_linear, solve_time_2d_minqueue))


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


def test_float_tables_start_from_a_float_origin():
    # a float side makes the table float, the origin included; beside
    # an int side the fast table's other entries keep their own types
    side = canonicalize_side([(1, 0.5, 2.5), (2, 1.5, 1.0)])
    for inst in (GeneralInstance(side, side), GeneralInstance(EMPTY_SIDE, side), GeneralInstance(EX2_LEFT, side)):
        tables = [solve(inst)[0].c for solve in SOLVERS]
        assert [type(c[0][0]) for c in tables] == [float, float]
        assert tables[0] == tables[1]
        if inst.left is not EX2_LEFT:
            assert _typed_table(tables[0]) == _typed_table(tables[1])
    assert [type(solve(EX2_GENERAL)[0].c[0][0]) for solve in SOLVERS] == [int, int]


def test_one_sided_reduction_matches_extremity_solver():
    rng = random.Random(6)
    for _ in range(40):
        inst = split_at_depot(
            generate_instance(0, rng.randint(0, 15), 8, rng.choice((0, 5, 30)), seed=rng.randrange(2**31))
        )
        for side in (inst.right, rescaled(inst.right, 0.37)):
            for solve_1d, solve_2d in FAMILIES:
                t1, s1 = solve_1d(side)
                # a 1-D trace is the one row of the 2-D trace, moves and all
                t2, s2 = solve_2d(GeneralInstance(EMPTY_SIDE, side))
                assert t2 == time_general.TimeDpTrace([t1.c], [t1.pred])
                assert s2 == s1
            flipped = GeneralInstance(side, EMPTY_SIDE)
            t3, s3 = solve_time_2d_minqueue(flipped, check=True)
            assert [row[0] for row in t3.c] == t1.c
            assert [row[0] for row in t3.pred] == [None] + [(LEFT, j) for j in t1.pred[1:]]
            assert s3 == solve_time_linear(side, label=LEFT)[1]


def test_left_only_solve_is_one_kernel_call(monkeypatch):
    # an empty right side leaves one line, which the kernel fills in one
    # call on the left side, its moves left ones
    calls = []
    kernel = time_general._time_line

    def spied(side, *args):
        calls.append(side)
        return kernel(side, *args)

    monkeypatch.setattr(time_general, "_time_line", spied)
    side = random_canonical_side(500, 3, max_wait=50, max_step=2)
    trace, plan = solve_time_2d_minqueue(GeneralInstance(side, EMPTY_SIDE))
    assert calls == [side]
    one, one_plan = solve_time_linear(side, label=LEFT)
    assert trace == time_general.TimeDpTrace([[v] for v in one.c], [[j if j is None else (LEFT, j)] for j in one.pred])
    assert plan == one_plan


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
    _assert_minqueue_matches_cubic(random.Random(14), 250)


def test_blocks_of_any_length_match_cubic(monkeypatch):
    # blocks one state long or more, in chunks of 3: small tables take
    # blocks in column 0 and row 0, and none in a row with column work
    monkeypatch.setattr(time_general, "_BLOCK", 1)
    monkeypatch.setattr(time_general, "_CHUNK", 3)
    blocks = count_time_block_fills(monkeypatch)
    fills = spy_fills_by_column_work(monkeypatch)
    _assert_minqueue_matches_cubic(random.Random(15), 250)
    assert blocks
    assert not any(cols for _, cols in fills)


def _assert_minqueue_matches_cubic(rng, count):
    for _ in range(count):
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


def _typed_table(c):
    return [typed(row) for row in c]


@pytest.mark.parametrize("chunk", [time_general._CHUNK, 5], ids=["default", "5"])
@pytest.mark.parametrize("scale", [(1, 0), (0.37, 0)], ids=["int", "x0.37"])
def test_long_row_runs_match_cubic(scale, chunk, monkeypatch):
    # the right side holds the runs; each int pair fills blocks in row 0,
    # in numpy chunks of the kernel's length or 5, and the rows that take
    # the left term on the scalar loop; a float pair takes no block
    monkeypatch.setattr(time_general, "_CHUNK", chunk)
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    fills = spy_fills_by_column_work(monkeypatch)
    sides = long_time_run_sides()
    sides["left cut"] = LEFT_CUT_CUSTOMER
    pairs = [
        ("left cut", "left"),
        ("front", "front"),
        ("own a", "front"),
        ("left", "wait 20"),
        ("cursor", "wait 20"),
    ]
    for left, right in pairs:
        inst = GeneralInstance(rescaled(sides[left], *scale), rescaled(sides[right], *scale))
        del blocks[:]
        tc, sc = solve_time_2d_cubic(inst)
        tm, sm = solve_time_2d_minqueue(inst, check=True)
        assert _typed_table(tm.c) == _typed_table(tc.c)
        assert tm.pred == tc.pred
        assert sm == sc
        assert bool(blocks) == (scale == (1, 0)), (left, right)
    assert not any(cols for _, cols in fills)


def test_left_term_ends_a_row_run(monkeypatch):
    monkeypatch.setattr(time_general, "_BLOCK", SHORT_BLOCK)
    blocks = count_time_block_fills(monkeypatch)
    inst = GeneralInstance(LEFT_CUT_CUSTOMER, long_time_run_sides()["left"])
    trace, _ = solve_time_2d_minqueue(inst, check=True)
    # row 0 is one block; row 1, which takes the left term, takes no
    # block: the released candidate beats the left term up to state 40
    # and the left term wins from state 41
    assert blocks == [(2, 60)]
    assert trace.pred[1][40] == 0
    assert trace.pred[1][41] == (LEFT, 0)
    assert trace.c == solve_time_2d_cubic(inst)[0].c


@pytest.mark.parametrize("chunk", [time_general._CHUNK, 23], ids=["default", "23"])
def test_merged_row_blocks_match_cubic(chunk, monkeypatch):
    # row 0 takes blocks; rows 1 and 2, which take the left term, take
    # none, and row 2 mixes left and right moves
    monkeypatch.setattr(time_general, "_CHUNK", chunk)
    blocks = count_time_block_fills(monkeypatch)
    fills = spy_fills_by_column_work(monkeypatch)
    inst = GeneralInstance(BLOCK_LEFT, dense_time_sides()[0])
    tc, sc = solve_time_2d_cubic(inst)
    tm, sm = solve_time_2d_minqueue(inst, check=True)
    assert _typed_table(tm.c) == _typed_table(tc.c)
    assert tm.pred == tc.pred
    assert sm == sc
    assert blocks
    assert not any(cols for _, cols in fills)
    assert {type(w) for w in tm.pred[2][1:]} == {int, tuple}


@pytest.mark.parametrize("how", CORRUPTIONS)
def test_check_catches_a_bad_block_in_a_merged_row(how, monkeypatch):
    # the blocks of a 2-D solve's row 0 are compared with the scalar
    # loop's fill of the same row, before the rows that hold the left
    # term read it
    hits = corrupt_time_blocks(monkeypatch, CORRUPTIONS[how])
    inst = GeneralInstance(BLOCK_LEFT, dense_time_sides()[0])
    solve_time_2d_minqueue(inst)
    assert hits
    with pytest.raises(AssertionError):
        solve_time_2d_minqueue(inst, check=True)


def test_left_term_inside_a_one_cursor_chunk(monkeypatch):
    # in row 1, with blocks from 8 states and chunks of 16, state 82
    # keeps one cursor and no a wins there, but the left term does: the
    # row takes the left term, so it takes no block, and state 82 keeps
    # the left pred
    monkeypatch.setattr(time_general, "_BLOCK", 8)
    monkeypatch.setattr(time_general, "_CHUNK", 16)
    blocks = count_time_block_fills(monkeypatch)
    fills = spy_fills_by_column_work(monkeypatch)
    inst = GeneralInstance(line_side([100], [1]), random_canonical_side(120, seed=3, max_wait=20, max_step=2))
    tm, sm = solve_time_2d_minqueue(inst, check=True)
    tc, sc = solve_time_2d_cubic(inst)
    assert tm.c == tc.c
    assert tm.pred == tc.pred
    assert sm == sc
    assert tm.pred[1][82] == (LEFT, 0)
    assert blocks
    assert not any(cols for _, cols in fills)


def test_float_tables_take_blocks(monkeypatch):
    # one float side makes the table float, so row 0 starts from 0.0
    # and is no block line: the scalar loop fills it, and the right
    # side's int releases and depot distances keep the entries they make
    # ints
    blocks = count_time_block_fills(monkeypatch)
    fills = spy_fills_by_column_work(monkeypatch)
    inst = GeneralInstance(rescaled(BLOCK_LEFT, 0.5), dense_time_sides()[0])
    tm, sm = solve_time_2d_minqueue(inst, check=True)
    tc, sc = solve_time_2d_cubic(inst)
    assert tm.c == tc.c
    assert tm.pred == tc.pred
    assert sm == sc
    assert blocks == []
    assert not any(cols for _, cols in fills)
    assert {type(v) for row in tm.c for v in row} == {int, float}


def _frozen_cases():
    """(name, instance) for the bitwise comparison with
    ref_time_2d_minqueue: grid-2d's sides at seeds 1-3, a one-route
    pair, skinny 30 x 3000 pairs both ways round, BLOCK_LEFT beside
    dense_time_sides(), whose row 0 takes blocks, smaller
    pairs rescaled by 0.37 and 0.5 and shifted to near 2**52, and
    left-only and right-only sides."""
    many = dict(max_wait=50, max_step=2)
    cases = []
    for seed in (1, 2, 3):
        # grid-2d's construction, perfbench/workloads.py
        left = random_canonical_side(300, 2 * seed, **many)
        right = random_canonical_side(300, 2 * seed + 1, **many)
        cases.append((f"grid {seed}", GeneralInstance(left, right)))
    one, skinny = random_canonical_side(30, 5), random_canonical_side(3000, 6)
    cases += [
        ("one route", GeneralInstance(random_canonical_side(150, 7), random_canonical_side(150, 8))),
        ("skinny", GeneralInstance(one, skinny)),
        ("skinny flipped", GeneralInstance(skinny, one)),
    ]
    cases += [(f"block left {k}", GeneralInstance(BLOCK_LEFT, side)) for k, side in enumerate(dense_time_sides())]
    small = [
        GeneralInstance(random_canonical_side(60, 9, **many), random_canonical_side(80, 10, **many)),
        GeneralInstance(random_canonical_side(60, 11), random_canonical_side(80, 12)),
    ]
    for scale, shift in ((0.37, 0), (0.5, 0), (1, float(2**52 - 2**20))):
        for k, inst in enumerate(small):
            left, right = (rescaled(side, scale, shift) for side in (inst.left, inst.right))
            cases.append((f"x{scale} +{shift} {k}", GeneralInstance(left, right)))
    for k, side in enumerate((skinny, dense_time_sides()[0], rescaled(small[0].right, 0.37))):
        cases.append((f"left only {k}", GeneralInstance(side, EMPTY_SIDE)))
        cases.append((f"right only {k}", GeneralInstance(EMPTY_SIDE, side)))
    return cases


def _typed_result(solve, inst, **kwargs):
    trace, plan = solve(inst, **kwargs)
    return _typed_table(trace.c), trace.pred, plan


def test_fused_time_kernel_matches_the_frozen_reference():
    # the column step inside the line kernel gives the inline column
    # step's tables, types, moves and plans, bit for bit
    for name, inst in _frozen_cases():
        check = inst.left.n * inst.right.n <= 5000
        want = _typed_result(ref_time_2d_minqueue, inst)
        assert _typed_result(solve_time_2d_minqueue, inst, check=check) == want, name


def test_check_runs_once_per_column_and_row_state(monkeypatch):
    # check=True asserts each column's line once per row above row 0,
    # and each row state once; column 0 and row 0 are filled twice, once
    # on a copy with their blocks, and a row with column work once
    seen = []
    check_line = time_general._check_line

    def spied(line, tau, release, k, values, indices):
        seen.append((tau, len(line)))
        check_line(line, tau, release, k, values, indices)

    monkeypatch.setattr(time_general, "_check_line", spied)
    calls = []
    kernel = time_general._time_line
    params = inspect.signature(kernel)

    def spied_line(*args):
        bound = params.bind(*args)
        bound.apply_defaults()
        given = bound.arguments
        calls.append((given["side"], given["check"], given["cols"] is not None))
        kernel(*args)

    monkeypatch.setattr(time_general, "_time_line", spied_line)
    blocks = count_time_block_fills(monkeypatch)
    left, right = BLOCK_LEFT, dense_time_sides()[0]
    nl, nr = left.n, right.n
    solve_time_2d_minqueue(GeneralInstance(left, right), check=True)
    columns = [i for tau, i in seen if tau is left.tau]
    rows = [j for tau, j in seen if tau is right.tau]
    assert len(columns) + len(rows) == len(seen)
    # column j's line at row i holds states 0..i-1; column 0 is the left
    # side's own line
    assert sorted(columns) == sorted(list(range(1, nl + 1)) * (nr + 1))
    # row i's line at state j holds states 0..j-1
    assert sorted(rows) == sorted(list(range(1, nr + 1)) * (nl + 1))
    assert blocks
    assert calls == [
        (left, True, False),
        (left, False, False),
        (right, True, False),
        (right, False, False),
    ] + [(right, True, True)] * nl
