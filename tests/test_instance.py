import copy
import dataclasses
import json
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrd import (
    EMPTY_SIDE,
    CanonicalSide,
    MalformedDocument,
    NegativeValue,
    NotAPath,
    OutOfRange,
    UnknownDepot,
    canonicalize_side,
    generate_instance,
    parse_instance,
    random_canonical_side,
    solve_time_linear,
    solve_time_quadratic,
    split_at_depot,
)

from helpers import (
    EX1_DOC,
    EX1_SIDE,
    EX2_DOC,
    EX2_LEFT,
    EX2_RIGHT,
    ref_deliveries,
    ref_distances_from_depot,
    ref_parse_instance,
)


def test_parse_orients_from_extremity_depot():
    raw = parse_instance(json.dumps(EX1_DOC))
    assert raw.order == (0, 3, 2, 1)
    assert raw.lengths == (3, 3, 4)
    assert raw.depot == 0
    assert raw.n_customers == 3
    assert ref_distances_from_depot(raw) == {0: 0, 3: 3, 2: 6, 1: 10}


def test_split_extremity_depot_is_one_sided():
    inst = split_at_depot(parse_instance(EX1_DOC))
    assert inst.left.n == 0
    assert inst.right == EX1_SIDE
    inst.right.check()


def test_parse_orients_from_smaller_endpoint():
    raw = parse_instance(EX2_DOC)
    assert raw.order == (1, 0, 2, 3)
    assert raw.lengths == (4, 2, 3)
    assert ref_distances_from_depot(raw) == {1: 4, 0: 0, 2: 2, 3: 5}


def test_split_internal_depot():
    inst = split_at_depot(parse_instance(EX2_DOC))
    assert inst.left == EX2_LEFT
    assert inst.right == EX2_RIGHT
    inst.left.check()
    inst.right.check()


def test_depot_only_instance():
    raw = parse_instance({"vertices": [{"id": 0}], "edges": [], "depot": 0})
    assert raw.order == (0,) and raw.lengths == ()
    inst = split_at_depot(raw)
    assert inst.left.n == 0 and inst.right.n == 0


def test_single_customer_instance():
    raw = parse_instance(
        {
            "vertices": [{"id": 0}, {"id": 1, "release": 0}],
            "edges": [{"u": 0, "v": 1, "d": 10}],
            "depot": 0,
        }
    )
    inst = split_at_depot(raw)
    assert inst.left.n == 0
    assert inst.right.r == (0,) and inst.right.tau == (10,)


def test_depot_release_is_ignored():
    doc = copy.deepcopy(EX1_DOC)
    doc["vertices"][0]["release"] = 99
    raw = parse_instance(doc)
    assert 0 not in raw.release


def test_deadline_parsing():
    doc = dict(EX1_DOC, deadline=40)
    assert parse_instance(doc).deadline == 40
    doc = dict(EX1_DOC, deadline=None)
    assert parse_instance(doc).deadline is None
    with pytest.raises(NegativeValue):
        parse_instance(dict(EX1_DOC, deadline=-1))
    with pytest.raises(MalformedDocument):
        parse_instance(dict(EX1_DOC, deadline="soon"))


def test_document_round_trip():
    for doc in (EX1_DOC, EX2_DOC):
        raw = parse_instance(doc)
        again = parse_instance(json.dumps(raw.to_document()))
        assert again == raw


@pytest.mark.parametrize(
    "mangle, error",
    [
        (lambda d: d.pop("depot"), MalformedDocument),
        (lambda d: d.pop("vertices"), MalformedDocument),
        (lambda d: d.pop("edges"), MalformedDocument),
        (lambda d: d["vertices"].append({"id": 1, "release": 0}), MalformedDocument),
        (lambda d: d["vertices"].append({"release": 0}), MalformedDocument),
        (lambda d: d["vertices"][1].pop("release"), MalformedDocument),
        (lambda d: d["vertices"][1].update(release="now"), MalformedDocument),
        (lambda d: d["vertices"][1].update(id="one"), MalformedDocument),
        (lambda d: d["vertices"][1].update(release=-3), NegativeValue),
        (lambda d: d["edges"][0].update(d=-1), NegativeValue),
        (lambda d: d["edges"][0].pop("d"), MalformedDocument),
        (lambda d: d.update(depot=77), UnknownDepot),
        (lambda d: d["edges"][0].update(u=0, v=0), NotAPath),
        (lambda d: d["edges"][0].update(u=55), NotAPath),
        (lambda d: d["edges"].pop(), NotAPath),
    ],
)
def test_parse_rejections(mangle, error):
    doc = copy.deepcopy(EX1_DOC)
    mangle(doc)
    with pytest.raises(error):
        parse_instance(doc)


def test_duplicated_edge_isolates_a_vertex():
    # n - 1 edges, one of them twice: vertex 1 keeps none, and comes
    # before vertex 3, which has three
    doc = copy.deepcopy(EX1_DOC)
    doc["edges"][2] = dict(doc["edges"][0])
    for parse in (parse_instance, ref_parse_instance):
        with pytest.raises(NotAPath, match="^vertex 1 is isolated$"):
            parse(doc)


@pytest.mark.parametrize("place", ["release", "edge", "deadline"])
def test_parse_rejects_non_finite_numbers(place):
    for value in (math.nan, math.inf, -math.inf):
        doc = copy.deepcopy(EX1_DOC)
        if place == "release":
            doc["vertices"][1]["release"] = value
        elif place == "edge":
            doc["edges"][0]["d"] = value
        else:
            doc["deadline"] = value
        with pytest.raises(MalformedDocument):
            parse_instance(doc)
        # json.dumps writes NaN / Infinity, which json.loads reads back
        with pytest.raises(MalformedDocument):
            parse_instance(json.dumps(doc))


def test_document_that_wraps_the_int64_baseline_is_rejected():
    # one customer released at 2**62, 2**61 from the depot: the time
    # optimum is 2**63, one past int64, so the baseline's table wraps
    doc = {
        "vertices": [{"id": 0}, {"id": 1, "release": 2**62}],
        "edges": [{"u": 0, "v": 1, "d": 2**61}],
        "depot": 0,
    }
    side = CanonicalSide((2**62,), (2**61,), (1,), ((),))
    assert solve_time_linear(side)[0].c == [0, 2**63]
    assert solve_time_quadratic(side)[0].c == [0, -(2**63)]
    with pytest.raises(OutOfRange):
        parse_instance(doc)


def test_parse_rejects_invalid_json_text():
    with pytest.raises(MalformedDocument):
        parse_instance("{not json")
    with pytest.raises(MalformedDocument):
        parse_instance("[1, 2]")


def test_parse_rejects_star_graph():
    doc = {
        "vertices": [{"id": 0}] + [{"id": i, "release": 0} for i in (1, 2, 3)],
        "edges": [{"u": 0, "v": i, "d": 1} for i in (1, 2, 3)],
        "depot": 0,
    }
    with pytest.raises(NotAPath):
        parse_instance(doc)


def test_parse_rejects_disconnected_graph():
    doc = {
        "vertices": [{"id": i, "release": 0} for i in range(1, 5)] + [{"id": 0}],
        "edges": [
            {"u": 0, "v": 1, "d": 1},
            {"u": 2, "v": 3, "d": 1},
            {"u": 3, "v": 4, "d": 1},
            {"u": 4, "v": 2, "d": 1},
        ],
        "depot": 0,
    }
    with pytest.raises(NotAPath):
        parse_instance(doc)


def test_canonicalize_drops_dominated_customer():
    side = canonicalize_side([(10, 1, 5), (11, 2, 7), (12, 3, 4)])
    assert side.labels == (11, 12)
    assert side.r == (2, 3)
    assert side.tau == (7, 4)
    assert side.riders == ((10,), ())
    side.check()


def test_canonicalize_release_tie_keeps_farther_first():
    side = canonicalize_side([(1, 4, 2), (2, 4, 6)])
    assert side.labels == (2, 1)
    assert side.tau == (6, 2)
    side.check()


def test_canonicalize_equal_tau_keeps_later():
    side = canonicalize_side([(1, 0, 5), (2, 3, 5)])
    assert side.labels == (2,)
    assert side.riders == ((1,),)


def test_deliveries_include_riders():
    side = canonicalize_side([(10, 1, 5), (11, 2, 7), (12, 3, 4)])
    assert side.deliveries(0, 0) == (11, 10)
    assert side.deliveries(0, 1) == (11, 10, 12)


@pytest.mark.parametrize("riders", [False, True])
def test_deliveries_match_item_by_item_reference(riders):
    # without riders a block comes back as one slice of labels; with
    # them, some sub-ranges still carry none
    rng = random.Random(216)
    for _ in range(40):
        side = random_canonical_side(rng.randint(1, 12), seed=rng.randrange(2**31))
        if riders:
            packs = [tuple(range(100 * i, 100 * i + rng.choice((0, 0, 1, 3)))) for i in range(1, side.n + 1)]
            packs[rng.randrange(side.n)] += (7,)
            side = dataclasses.replace(side, riders=tuple(packs))
        for lo in range(side.n):
            for hi in range(lo, side.n):
                got = side.deliveries(lo, hi)
                assert type(got) is tuple
                assert got == ref_deliveries(side, lo, hi)


def _carrying(side, positions, rng):
    """side with one to three riders on each of the given positions and
    none elsewhere."""
    packs = tuple(
        tuple(range(1000 * (p + 1), 1000 * (p + 1) + rng.randint(1, 3))) if p in positions else ()
        for p in range(side.n)
    )
    return dataclasses.replace(side, riders=packs)


def test_deliveries_splice_riders_wherever_they_sit():
    # riders on no position, on every one, at random, and on a block's
    # own ends or just outside them: the slices between carriers give
    # ref_deliveries' labels, in its order
    rng = random.Random(23)
    for n in (1, 2, 3, 7, 30):
        side = random_canonical_side(n, seed=n)
        layouts = [set(), set(range(n)), {p for p in range(n) if rng.random() < 0.3}]
        for positions in layouts:
            carried = _carrying(side, positions, rng)
            assert carried.carriers == sorted(positions)
            for lo in range(n):
                for hi in range(lo, n):
                    got = carried.deliveries(lo, hi)
                    assert type(got) is tuple
                    assert got == ref_deliveries(carried, lo, hi)
        for lo in range(n):
            for hi in range(lo, n):
                for positions in ({lo}, {hi}, {lo, hi}, {lo - 1, hi + 1}):
                    carried = _carrying(side, positions, rng)
                    assert carried.deliveries(lo, hi) == ref_deliveries(carried, lo, hi)


def test_handed_over_carriers_are_the_computed_ones():
    # canonicalization and random_canonical_side set carriers as they
    # build a side; a copy without them computes the same positions
    rng = random.Random(24)
    sides = [random_canonical_side(50, seed=5)]
    for _ in range(30):
        members = [(i, rng.randint(0, 30), rng.randint(0, 30)) for i in range(rng.randint(0, 40))]
        sides.append(canonicalize_side(members))
    assert any(side.carriers for side in sides)
    for side in sides:
        assert "carriers" in vars(side) or side is EMPTY_SIDE
        assert side.carriers == dataclasses.replace(side).carriers

members = st.lists(
    st.tuples(st.integers(0, 10**6), st.integers(0, 30), st.integers(0, 30)),
    max_size=25,
    unique_by=lambda m: m[0],
)


@settings(max_examples=300, deadline=None)
@given(members)
def test_canonicalize_invariants_and_coverage(ms):
    side = canonicalize_side(ms)
    side.check()
    served = set(side.labels)
    for pack in side.riders:
        served.update(pack)
    assert served == {label for label, _, _ in ms}
    assert len(side.labels) + sum(len(p) for p in side.riders) == len(ms)


def test_generate_is_deterministic():
    a = generate_instance(3, 2, 10, 50, seed=9)
    b = generate_instance(3, 2, 10, 50, seed=9)
    c = generate_instance(3, 2, 10, 50, seed=10)
    assert a == b
    assert a != c


def test_generate_places_depot_between_groups():
    raw = generate_instance(3, 2, 10, 50, seed=4)
    assert raw.order == (1, 2, 3, 0, 4, 5)
    assert raw.depot == 0 and raw.n_customers == 5
    inst = split_at_depot(raw)
    assert set(inst.left.labels) <= {1, 2, 3}
    assert set(inst.right.labels) <= {4, 5}
    inst.left.check()
    inst.right.check()


def test_generate_extremity_goes_right():
    inst = split_at_depot(generate_instance(0, 4, 10, 50, seed=2))
    assert inst.left.n == 0
    inst = split_at_depot(generate_instance(4, 0, 10, 50, seed=2))
    assert inst.left.n == 0


def test_generated_documents_parse_back():
    for seed in range(10):
        raw = generate_instance(seed % 4, 1 + seed % 3, 8, 30, seed=seed)
        assert parse_instance(json.dumps(raw.to_document())) == raw


def test_random_canonical_side():
    side = random_canonical_side(500, seed=1)
    assert side.n == 500
    side.check()
    assert side == random_canonical_side(500, seed=1)
    assert side != random_canonical_side(500, seed=2)
    assert random_canonical_side(0, seed=1).n == 0


def _assert_arrays_match_tuples(side):
    """side.arrays are np.asarray of its tuples, dtype and value, and
    read-only."""
    for array, numbers in zip(side.arrays, (side.r, side.tau)):
        want = np.asarray(numbers)
        assert array.dtype == want.dtype
        assert array.tolist() == want.tolist()
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[:1] = 0


# documents on one side of the depot, each customer (label, release,
# edge length toward the depot's far side): ints, floats, both mixed,
# and ints whose dropped rider (label 2, released before 3 and nearer)
# carries a float
SIDE_DOCS = {
    "int": [(1, 0, 4), (2, 5, 3), (3, 9, 2), (4, 9, 1)],
    "float": [(1, 0.5, 4.25), (2, 5.0, 3.5), (3, 9.75, 2.0)],
    "mixed": [(1, 0, 4.5), (2, 5.5, 3), (3, 9, 2)],
    "float rider": [(1, 10, 4), (2, 6.5, 1), (3, 9, 2)],
}


def _side_document(members):
    vertices = [{"id": 0}] + [{"id": v, "release": r} for v, r, _ in members]
    ids = [0] + [v for v, _, _ in members]
    edges = [{"u": a, "v": b, "d": d} for a, b, (_, _, d) in zip(ids, ids[1:], members)]
    return {"vertices": vertices, "edges": edges, "depot": 0}


@pytest.mark.parametrize("kind", SIDE_DOCS)
def test_sides_from_documents_hold_their_numbers_as_arrays(kind):
    doc = _side_document(SIDE_DOCS[kind])
    raw = parse_instance(doc)
    inst = split_at_depot(raw)
    members = [
        (v, raw.release[v], d) for v, d in ref_distances_from_depot(raw).items() if v != raw.depot
    ]
    for side in (inst.right, canonicalize_side(members)):
        assert side.n
        _assert_arrays_match_tuples(side)
    assert inst.left == EMPTY_SIDE
    _assert_arrays_match_tuples(inst.left)
    if kind == "float rider":
        assert inst.right.riders == ((2,), ())
        assert [a.dtype for a in inst.right.arrays] == [np.int64, np.int64]


def test_generated_and_direct_sides_hold_their_numbers_as_arrays():
    side = random_canonical_side(300, seed=5)
    assert "arrays" in vars(side)
    sides = [
        side,
        random_canonical_side(0, seed=5),
        EMPTY_SIDE,
        EX1_SIDE,
        CanonicalSide((0, 1.5), (3, 2), (1, 2), ((), ())),
        CanonicalSide((2**62,), (2**61,), (1,), ((),)),
        CanonicalSide((2**64,), (1,), (1,), ((),)),
        dataclasses.replace(side, r=tuple(x / 2 for x in side.r)),
    ]
    for each in sides:
        _assert_arrays_match_tuples(each)
    assert [a.dtype for a in EMPTY_SIDE.arrays] == [np.float64, np.float64]
    # dataclasses.replace takes no arrays from the side it copies
    assert sides[-1].arrays[0].dtype == np.float64
    assert sides[-1].arrays[1] is not side.arrays[1]


def test_arrays_leave_equality_hash_and_repr_alone():
    for side in (random_canonical_side(50, seed=3), split_at_depot(parse_instance(EX1_DOC)).right):
        bare = CanonicalSide(side.r, side.tau, side.labels, side.riders)
        assert "arrays" not in vars(bare)
        assert side == bare and hash(side) == hash(bare) and repr(side) == repr(bare)
        assert bare.arrays is bare.arrays and "arrays" in vars(bare)
        assert side == bare and hash(side) == hash(bare) and repr(side) == repr(bare)
        assert "array" not in repr(bare)


def test_int_side_past_int64_solves_as_before():
    # outside the admissible input: the linear solver's Python ints
    # stay exact, the int64 baseline wraps, and the origin stays int 0
    side = CanonicalSide((2**62,), (2**61,), (1,), ((),))
    assert [a.dtype for a in side.arrays] == [np.int64, np.int64]
    c = solve_time_linear(side)[0].c
    assert [(type(v), v) for v in c] == [(int, 0), (int, 2**63)]
    assert solve_time_quadratic(side)[0].c == [0, -(2**63)]
