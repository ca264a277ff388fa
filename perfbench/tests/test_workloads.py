"""The generators are deterministic and build the inputs they promise.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import io
import json
import math
from contextlib import redirect_stdout

import pytest

import workloads as wl
from pathrd import (
    GeneralInstance,
    EMPTY_SIDE,
    cli,
    oracle_distance,
    oracle_time,
    parse_instance,
    solve_distance_2d_cubic,
    solve_distance_2d_heap,
    solve_distance_heap,
    solve_distance_quadratic,
    solve_time_2d_cubic,
    solve_time_2d_minqueue,
    solve_time_linear,
    solve_time_quadratic,
    split_at_depot,
)

DOCUMENTS = {
    "raw-dense": lambda n, seed: wl.raw_dense(n, seed).text,
    "raw-uniform": lambda n, seed: wl.raw_uniform(n, seed)[0],
    "grid-2d": lambda n, seed: wl.grid_2d(n, seed)[0],
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_same_seed_gives_identical_bytes(name):
    make = DOCUMENTS[name]
    assert make(60, 5) == make(60, 5)
    assert make(60, 5) != make(60, 6)


def test_canonical_default_is_deterministic():
    assert wl.canonical_default(500, 5) == wl.canonical_default(500, 5)


def test_raw_dense_keeps_survivors_and_places_riders():
    n = 600
    dense = wl.raw_dense(n, 11)
    raw = parse_instance(dense.text)
    inst = split_at_depot(raw)
    assert inst.left.n == 0
    side = inst.right
    assert side.n == n
    assert side.n >= 0.9 * raw.n_customers
    assert sum(map(len, dense.riders_of)) >= n // wl.RIDER_SHARE - 2
    assert side.labels == dense.survivor_labels
    for got, want in zip(side.riders, dense.riders_of):
        assert sorted(got) == sorted(want)
    assert raw.deadline == dense.t_star == solve_time_linear(side)[1].value


def test_raw_uniform_keeps_a_logarithmic_number():
    n = 5000
    for seed in range(3):
        text, _ = wl.raw_uniform(n, seed)
        inst = split_at_depot(parse_instance(text))
        assert inst.left.n == 0
        assert 1 <= inst.right.n <= 3 * math.log(n) + 5


@pytest.mark.parametrize("objective, algorithm", [
    ("time", "time_2d_minqueue"),
    ("distance", "distance_2d_heap"),
])
def test_grid_2d_dispatches_to_the_2d_solvers(tmp_path, objective, algorithm):
    text, _ = wl.grid_2d(12, 3)
    doc = tmp_path / "grid.json"
    doc.write_text(text)
    out = tmp_path / "report.json"
    with redirect_stdout(io.StringIO()):
        code = cli.main(["solve", str(doc), "--objective", objective, "--out", str(out)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["algorithm"] == algorithm
    assert report["instance"]["n_left"] == report["instance"]["n_right"] == 12


def _instance(name, n, seed):
    if name == "canonical-default":
        return GeneralInstance(EMPTY_SIDE, wl.canonical_default(n, seed))
    return split_at_depot(parse_instance(DOCUMENTS[name](n, seed)))


def _tables(inst, deadline):
    """(fast, baseline) time and distance tables plus the two values."""
    if inst.left.n and inst.right.n:
        fast_t, base_t = solve_time_2d_minqueue(inst), solve_time_2d_cubic(inst)
        fast_d = solve_distance_2d_heap(inst, deadline)
        base_d = solve_distance_2d_cubic(inst, deadline)
    else:
        side = inst.right
        fast_t, base_t = solve_time_linear(side), solve_time_quadratic(side)
        fast_d = solve_distance_heap(side, deadline)
        base_d = solve_distance_quadratic(side, deadline)
    return fast_t, base_t, fast_d, base_d


# sizes keep the oracle's size guard of 14 canonical customers
ORACLE_SIZES = {"raw-dense": 12, "raw-uniform": 14, "grid-2d": 7, "canonical-default": 14}


@pytest.mark.parametrize("name", sorted(ORACLE_SIZES))
def test_fast_equals_baseline_and_oracle(name):
    for seed in range(4):
        for n in (ORACLE_SIZES[name], 40):
            inst = _instance(name, n, seed)
            t_star = solve_time_2d_cubic(inst)[1].value
            fast_t, base_t, fast_d, base_d = _tables(inst, t_star)
            assert fast_t[0].c == base_t[0].c and fast_t[0].pred == base_t[0].pred
            assert fast_d[0].lam == base_d[0].lam and fast_d[0].succ == base_d[0].succ
            if inst.left.n + inst.right.n <= 14:
                assert fast_t[1].value == oracle_time(inst).value == t_star
                assert fast_d[1].value == oracle_distance(inst, t_star).value
