"""The bulk ingest in pathrd.instance against the item-by-item reference
in helpers: equal instances, element types included, on valid
documents, and the same error, type and message, on broken ones.  Then
raw documents end to end, through every solver and the oracle."""

import copy
import importlib.util
import json
import math
import random
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathrd import (
    DISTANCE,
    MAX_MAGNITUDE,
    TIME,
    Infeasible,
    MalformedDocument,
    NegativeValue,
    OutOfRange,
    PathrdError,
    canonicalize_side,
    generate_instance,
    oracle_distance,
    oracle_time,
    parse_instance,
    split_at_depot,
    validate_solution,
)
from pathrd import instance
from pathrd.cli import BASELINE, FAST, SOLVERS, _run

from helpers import ref_canonicalize_side, ref_parse_instance, ref_split_at_depot

# ints and halves from a small range, so releases, lengths and depot
# distances tie often, across int and float
numbers = st.one_of(st.integers(0, 12), st.integers(0, 24).map(lambda x: x / 2))


def _types(values):
    return [type(x) for x in values]


def assert_same_raw(new, ref):
    assert new == ref
    assert _types(new.lengths) == _types(ref.lengths)
    assert list(new.release.items()) == list(ref.release.items())
    assert _types(new.release.values()) == _types(ref.release.values())
    assert type(new.deadline) is type(ref.deadline)


def assert_same_side(new, ref):
    # labels compare by value only: the reference takes path labels from
    # edge endpoints, the bulk ingest from the vertex list, which differ
    # in type only where a decoded dict holds an int subclass
    assert new == ref
    assert _types(new.r) == _types(ref.r)
    assert _types(new.tau) == _types(ref.tau)


def assert_same_ingest(doc):
    raw, ref = parse_instance(doc), ref_parse_instance(doc)
    assert_same_raw(raw, ref)
    inst, ref_inst = split_at_depot(raw), ref_split_at_depot(ref)
    assert_same_side(inst.left, ref_inst.left)
    assert_same_side(inst.right, ref_inst.right)


@st.composite
def path_documents(draw, max_customers=30, chained=False):
    """A valid document: 0..max_customers customers, the depot anywhere
    on the path, the vertex list shuffled or in path order, forward or
    backward, as every generated document lists it.  The edge list is
    shuffled, each edge's u and v possibly swapped; or, chained, it
    lists the path forward or backward, each edge's v the next one's u,
    at most one edge having its u and v swapped, which breaks the
    chain."""
    k = draw(st.integers(0, max_customers))
    order = draw(st.lists(st.integers(-50, 50), min_size=k + 1, max_size=k + 1, unique=True))
    depot = order[draw(st.integers(0, k))]
    vertices = []
    for v in order:
        if v != depot:
            vertices.append({"id": v, "release": draw(numbers)})
        elif draw(st.booleans()):
            vertices.append({"id": v, "release": draw(numbers)})  # ignored
        else:
            vertices.append({"id": v})
    edges = []
    for u, v in zip(order, order[1:]):
        if not chained and draw(st.booleans()):
            u, v = v, u
        edges.append({"u": u, "v": v, "d": draw(numbers)})
    if not chained:
        edges = draw(st.permutations(edges))
    else:
        if draw(st.booleans()):
            edges = [{"u": e["v"], "v": e["u"], "d": e["d"]} for e in reversed(edges)]
        if edges and draw(st.booleans()):
            edge = draw(st.sampled_from(edges))
            edge["u"], edge["v"] = edge["v"], edge["u"]
    layout = draw(st.sampled_from(["shuffled", "forward", "backward"]))
    if layout == "shuffled":
        vertices = draw(st.permutations(vertices))
    elif layout == "backward":
        vertices.reverse()
    doc = {
        "vertices": vertices,
        "edges": edges,
        "depot": depot,
    }
    if draw(st.booleans()):
        doc["deadline"] = draw(st.one_of(st.none(), numbers))
    return doc, order


@settings(max_examples=400, deadline=None)
@given(path_documents())
def test_bulk_ingest_matches_reference(case):
    doc, _ = case
    assert_same_ingest(doc)
    assert_same_ingest(json.dumps(doc))


def _chains(edges):
    return all(e["v"] == f["u"] for e, f in zip(edges, edges[1:]))


@contextmanager
def xor_walks():
    """A list that gets one entry per call of instance._xor_walk made
    inside the block."""
    calls = []
    walk = instance._xor_walk

    def spy(*args):
        calls.append(args)
        return walk(*args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instance, "_xor_walk", spy)
        yield calls


@settings(max_examples=400, deadline=None)
@given(path_documents(chained=True))
def test_chained_ingest_matches_reference(case):
    # edges listed along the path take the chain test; one edge turned
    # around sends the document to the walk
    doc, _ = case
    with xor_walks() as calls:
        assert_same_ingest(doc)
        assert_same_ingest(json.dumps(doc))
    assert len(calls) == (0 if _chains(doc["edges"]) else 2)


@settings(max_examples=300, deadline=None)
@given(path_documents())
def test_endpoint_depot_documents_are_right_only(case):
    # the CLI hands a one-sided instance to the 2-D solvers as it is,
    # and they run its side as the fast row only when the left is empty
    doc, order = case
    inst = split_at_depot(parse_instance(doc))
    at_end = doc["depot"] in (order[0], order[-1])
    assert (inst.left.n == 0) == at_end
    assert (inst.right.n == 0) == (len(order) == 1)


class Label(int):
    """An int subclass, as a decoded dict may carry; not a bool."""


def _unused(order):
    return max(order) + 1


def _mutations(order):
    """Name -> function that breaks a document (or, for the subclass
    cases, keeps it valid through an unusual type), given a draw."""
    nan = st.sampled_from([math.nan, math.inf, -math.inf])
    neg = st.sampled_from([-1, -0.5])

    def vertex(doc, draw):
        return draw(st.sampled_from(doc["vertices"]))

    def edge(doc, draw):
        return draw(st.sampled_from(doc["edges"]))

    def put(value):
        def mutate(doc, draw):
            where = draw(st.sampled_from(["release", "edge", "deadline"]))
            if where == "release":
                vertex(doc, draw)["release"] = draw(value)
            elif where == "edge" and doc["edges"]:
                edge(doc, draw)["d"] = draw(value)
            else:
                doc["deadline"] = draw(value)
        return mutate

    def bool_id(doc, draw):
        vertex(doc, draw)["id"] = draw(st.booleans())

    def float_id(doc, draw):
        item = vertex(doc, draw)
        item["id"] = float(item["id"])

    def duplicate_id(doc, draw):
        a, b = draw(st.permutations(doc["vertices"]))[:2]
        b["id"] = a["id"]

    def missing_key(doc, draw):
        item = draw(st.sampled_from([doc] + doc["vertices"] + doc["edges"]))
        item.pop(draw(st.sampled_from(sorted(item))))

    def string_release(doc, draw):
        vertex(doc, draw)["release"] = "now"

    def non_object_item(doc, draw):
        items = doc[draw(st.sampled_from(["vertices", "edges"]))] or doc["vertices"]
        items[draw(st.integers(0, len(items) - 1))] = [1, 2]

    def bool_endpoint(doc, draw):
        edge(doc, draw)[draw(st.sampled_from("uv"))] = draw(st.booleans())

    def bool_lookalike(doc, draw):
        # True == 1 and False == 0, so list equality cannot tell the bool
        # from the label it stands in for: give a vertex the label the
        # bool equals, then turn one of its ids or endpoints into the bool
        flag = draw(st.booleans())
        relabel = {draw(st.sampled_from(order)): int(flag)}
        relabel.update({v: k for k, v in relabel.items()})
        places = [(item, "id") for item in doc["vertices"]]
        places += [(item, key) for item in doc["edges"] for key in "uv"]
        for item, key in places + [(doc, "depot")]:
            item[key] = relabel.get(item[key], item[key])
        places = [(item, key) for item, key in places if item[key] == int(flag)]
        item, key = draw(st.sampled_from(places))
        item[key] = flag

    def repeated_vertex(doc, draw):
        # list the last-but-one vertex again, in path position where the
        # list is in path order, and chain one more edge back to it: the
        # edges then still run along the vertex list, and only the
        # distinctness of the ids tells the document is broken
        again = next(item for item in doc["vertices"] if item["id"] == order[-2])
        vertices, edges = doc["vertices"], doc["edges"]
        if edges[0]["u"] == order[-1]:
            edges.insert(0, {"u": order[-2], "v": order[-1], "d": 1})
        else:
            edges.append({"u": order[-1], "v": order[-2], "d": 1})
        if vertices[-1]["id"] == order[-1]:
            vertices.append(dict(again))
        elif vertices[0]["id"] == order[-1]:
            vertices.insert(0, dict(again))
        else:
            vertices.insert(draw(st.integers(0, len(vertices))), dict(again))

    def self_loop(doc, draw):
        item = edge(doc, draw)
        item["v"] = item["u"]

    def unknown_endpoint(doc, draw):
        edge(doc, draw)[draw(st.sampled_from("uv"))] = _unused(order)

    def unknown_depot(doc, draw):
        doc["depot"] = _unused(order)

    def extra_edge(doc, draw):
        u, v = draw(st.permutations(order))[:2]
        doc["edges"].append({"u": u, "v": v, "d": 1})

    def missing_edge(doc, draw):
        doc["edges"].pop(draw(st.integers(0, len(doc["edges"]) - 1)))

    def star(doc, draw):
        # re-hang the far end of the last edge on an inner vertex
        hub = order[draw(st.integers(1, len(order) - 3))]
        doc["edges"] = [e for e in doc["edges"] if {e["u"], e["v"]} != {order[-1], order[-2]}]
        doc["edges"].append({"u": hub, "v": order[-1], "d": 1})

    def disconnected(doc, draw):
        # cut after position i and close order[i+1:] into a cycle
        i = draw(st.integers(1, len(order) - 3))
        cut = {order[i], order[i + 1]}
        doc["edges"] = [e for e in doc["edges"] if {e["u"], e["v"]} != cut]
        doc["edges"].append({"u": order[-1], "v": order[i + 1], "d": 1})

    def subclass_numbers(doc, draw):
        item = vertex(doc, draw)
        item["id"] = Label(item["id"])
        if "release" in item:
            item["release"] = Label(int(item["release"]))
        for e in doc["edges"]:
            e["u"], e["v"], e["d"] = Label(e["u"]), Label(e["v"]), Label(int(e["d"]))

    out = {
        "nan": put(nan),
        "negative": put(neg),
        "bool id": bool_id,
        "float id": float_id,
        "missing key": missing_key,
        "string release": string_release,
        "non-object item": non_object_item,
        "unknown depot": unknown_depot,
        "subclass numbers": subclass_numbers,
    }
    if len(order) > 1:
        out.update({
            "duplicate id": duplicate_id,
            "bool endpoint": bool_endpoint,
            "bool lookalike": bool_lookalike,
            "repeated vertex": repeated_vertex,
            "self-loop": self_loop,
            "unknown endpoint": unknown_endpoint,
            "extra edge": extra_edge,
            "missing edge": missing_edge,
        })
    if len(order) > 3:
        out.update({"star": star, "disconnected": disconnected})
    return out


def _outcome(parse, doc):
    try:
        parse(doc)
    except PathrdError as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=600, deadline=None)
@given(path_documents(max_customers=12), st.data())
def test_bulk_ingest_raises_what_the_reference_raises(case, data):
    _assert_mutation_raises_what_the_reference_raises(case, data)


@settings(max_examples=400, deadline=None)
@given(path_documents(max_customers=12, chained=True), st.data())
def test_broken_chained_documents_raise_what_the_reference_raises(case, data):
    _assert_mutation_raises_what_the_reference_raises(case, data)


def _assert_mutation_raises_what_the_reference_raises(case, data):
    doc, order = case
    mutations = _mutations(order)
    name = data.draw(st.sampled_from(sorted(mutations)), label="mutation")
    mutations[name](doc, data.draw)
    expect = _outcome(ref_parse_instance, copy.deepcopy(doc))
    assert _outcome(parse_instance, doc) == expect
    if expect is None:
        assert_same_ingest(doc)


@settings(max_examples=200, deadline=None)
@given(path_documents(max_customers=12), st.data())
def test_over_bound_documents_raise_out_of_range(case, data):
    doc, order = case
    where = data.draw(st.sampled_from(["release", "edge", "deadline"]))
    big = MAX_MAGNITUDE + 1
    if where == "release" and len(order) > 1:
        customer = data.draw(st.sampled_from([v for v in doc["vertices"] if v["id"] != doc["depot"]]))
        customer["release"] = data.draw(st.sampled_from([big, float(2 * big)]))
    elif where == "edge" and doc["edges"]:
        data.draw(st.sampled_from(doc["edges"]))["d"] = data.draw(st.sampled_from([big, 1e300]))
    else:
        doc["deadline"] = big
    ref_parse_instance(doc)  # the reference has no bound
    with pytest.raises(OutOfRange):
        parse_instance(doc)


members = st.lists(
    st.tuples(st.integers(0, 10**6), numbers, numbers),
    max_size=25,
    unique_by=lambda m: m[0],
)


@settings(max_examples=400, deadline=None)
@given(members)
def test_canonicalize_matches_reference(ms):
    assert_same_side(canonicalize_side(ms), ref_canonicalize_side(ms))


def test_canonicalize_rejects_numbers_beyond_the_bound():
    # 2**53 + 1 is no float64, so numbers beyond 2**53 (and ints beyond
    # int64) are refused rather than sorted
    for ms in (
        [(1, 2**53 + 1, 2), (2, float(2**53), 1)],
        [(1, 2**64, 3), (2, 2**64 + 1, 2), (3, 0.5, 2**70)],
        [(1, 7, 2**53 + 1), (2, 7, float(2**53)), (3, 8, 0.5)],
    ):
        with pytest.raises(OutOfRange):
            canonicalize_side(ms)
    # negative numbers are refused too, the large ones of which a
    # float64 key would round
    for ms in ([(1, -(2**60) + 1, 1), (2, float(-(2**60)), 0.5)], [(1, 0, -1)]):
        with pytest.raises(NegativeValue):
            canonicalize_side(ms)
    # so is a member that is no (label, release, tau) triple, before any
    # number is looked at: zip would drop a fourth entry or fail on a
    # short or bare member
    for ms in ([(1, 0, 3), (2, 1, 4, 5)], [(1, 2)], [5], [(1, 0, 3), (2, -1)], [(1, 0, 3), "a12"]):
        with pytest.raises(MalformedDocument, match="triple"):
            canonicalize_side(ms)
    # so are non-numbers, bools and non-finite floats, before the sign and
    # magnitude checks: a NaN would otherwise sort silently
    for bad in (math.nan, True, "3", math.inf, -math.inf):
        for ms in ([(1, 0, 2), (2, 0, bad), (3, 1, 1)], [(1, bad, 2)], [(1, 0, bad)]):
            with pytest.raises(MalformedDocument):
                canonicalize_side(ms)
    # exactly at the bound, 2**52 + 2 * 2 * 2**50 = 2**53, ints and floats
    # mixed: one full tie across types, one pair a unit apart
    for ms in (
        [(1, 2**52, 2**50), (2, float(2**52), float(2**50))],
        [(1, 2**52 - 1, float(2**50)), (2, float(2**52), 2**50 - 1)],
    ):
        assert_same_side(canonicalize_side(ms), ref_canonicalize_side(ms))


def test_canonicalize_rejects_labels_that_are_no_distinct_ints():
    # a repeated label would be a customer delivered twice, which
    # validate_solution counts as served; bools, floats, strings and None
    # are no vertex ids
    for ms in ([(1, 0, 3), (1, 1, 2)], [(2, 0, 1), (5, 1, 1), (2, 3, 4)]):
        with pytest.raises(MalformedDocument, match="repeats"):
            canonicalize_side(ms)
    for bad in (True, False, 2.5, 1.0, "a", None, (1,)):
        for ms in ([(bad, 0, 3)], [(1, 0, 3), (bad, 1, 2)], [(bad, 0, 3), (bad, 1, 2)]):
            with pytest.raises(MalformedDocument, match="label of member"):
                canonicalize_side(ms)
    # shapes first, then labels, then numbers
    with pytest.raises(MalformedDocument, match="triple"):
        canonicalize_side([(True, 0, 3), (2, 1)])
    with pytest.raises(MalformedDocument, match="label of member 0"):
        canonicalize_side([(None, -1, math.nan)])
    with pytest.raises(MalformedDocument, match="label 1 repeats"):
        canonicalize_side([(1, -1, 3), (1, 0, math.nan)])
    # an int subclass is an int, as in parse_instance
    side = canonicalize_side([(Label(1), 0, 3), (2, 1, 2)])
    assert side.labels == (1, 2)


@pytest.mark.parametrize("n", [instance._UNIQUE_KEY_SORT_FROM - 1, instance._UNIQUE_KEY_SORT_FROM, 5000])
def test_release_order_is_lexsorts_order(n):
    # the unique-key sort on long int sides, lexsort elsewhere: full
    # ties are common at these ranges, and input order must break them
    rng = np.random.default_rng(n)
    for top in (3, 50, 10**6):
        r, tau = rng.integers(0, top, n), rng.integers(0, top, n)
        for keys in ((r, tau), (r.astype(float), tau), (r, np.sort(tau)), (r, np.sort(tau)[::-1])):
            assert (instance._release_order(*keys) == np.lexsort((-keys[1], keys[0]))).all()
    # and through canonicalization, against the item-by-item reference
    ms = list(zip(range(n), rng.integers(0, 40, n).tolist(), rng.integers(0, 40, n).tolist()))
    assert_same_side(canonicalize_side(ms), ref_canonicalize_side(ms))


def test_large_shuffled_document_matches_reference():
    # every benchmark generator writes edges in path order; this one
    # does not, so orientation cannot lean on the file's order
    rng = random.Random(4)
    doc = generate_instance(40_000, 60_000, 10, 10**6, seed=4).to_document()
    rng.shuffle(doc["vertices"])
    rng.shuffle(doc["edges"])
    for item in doc["edges"]:
        if rng.random() < 0.5:
            item["u"], item["v"] = item["v"], item["u"]
    assert_same_ingest(doc)


def test_large_chained_document_matches_reference():
    # the edge order generate_instance and the benchmark generators
    # write, forward, and backward with each edge turned around
    doc = generate_instance(40_000, 60_000, 10, 10**6, seed=4).to_document()
    backward = dict(doc, edges=[{"u": e["v"], "v": e["u"], "d": e["d"]} for e in doc["edges"][::-1]])
    with xor_walks() as calls:
        assert_same_ingest(doc)
        assert_same_ingest(backward)
    assert calls == []


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("benchmark_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_generated_and_benchmark_documents_skip_the_walk():
    # a guard: the documents generate and the benchmark write must stay
    # on the chain test over labels, past the index table and the walk,
    # and one whose edges do not chain must still reach both
    def general(*args):
        raise AssertionError("general path ran")

    docs = [
        generate_instance(n_left, n_right, 10, 50, seed).to_document()
        for n_left, n_right in [(0, 1), (1, 0), (0, 7), (7, 0), (1, 1), (3, 4), (6, 1)]
        for seed in range(3)
    ]
    workloads = _benchmark_workloads()
    docs += [
        workloads.raw_dense(300, 1).text,
        workloads.raw_uniform(300, 1)[0],
        workloads.grid_2d(20, 1)[0],
    ]
    rng = random.Random(7)
    shuffled = generate_instance(3, 4, 10, 50, seed=0).to_document()
    rng.shuffle(shuffled["vertices"])
    docs.append(shuffled)  # edges still chain over the same ids
    unchained = generate_instance(3, 4, 10, 50, seed=0).to_document()
    unchained["edges"].reverse()
    scrambled = copy.deepcopy(shuffled)
    rng.shuffle(scrambled["edges"])
    expect = [ref_parse_instance(doc) for doc in docs + [unchained, scrambled]]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(instance, "_edge_table", general)
        mp.setattr(instance, "_xor_walk", general)
        for doc, ref in zip(docs, expect):
            assert_same_raw(parse_instance(doc), ref)
        for doc in (unchained, scrambled):
            with pytest.raises(AssertionError, match="general path ran"):
                parse_instance(doc)
    for doc, ref in zip((unchained, scrambled), expect[-2:]):
        assert_same_raw(parse_instance(doc), ref)


def test_magnitude_bound_is_inclusive():
    def doc(release, d, deadline=None):
        out = {
            "vertices": [{"id": 0}, {"id": 1, "release": release}],
            "edges": [{"u": 0, "v": 1, "d": d}],
            "depot": 0,
        }
        if deadline is not None:
            out["deadline"] = deadline
        return out

    # largest release + 2 * customers * total length
    assert parse_instance(doc(MAX_MAGNITUDE - 2, 1)).release == {1: MAX_MAGNITUDE - 2}
    with pytest.raises(OutOfRange):
        parse_instance(doc(MAX_MAGNITUDE - 1, 1))
    assert parse_instance(doc(0, 0, deadline=MAX_MAGNITUDE)).deadline == MAX_MAGNITUDE
    with pytest.raises(OutOfRange):
        parse_instance(doc(0, 0, deadline=MAX_MAGNITUDE + 1))
    with pytest.raises(OutOfRange):
        parse_instance({"vertices": [{"id": 0}], "edges": [], "depot": 0,
                        "deadline": float(2 * MAX_MAGNITUDE)})


def _solve_all(inst, objective, deadline=None):
    """family -> (trace, solution) of the objective's solvers, or None
    where one finds the deadline infeasible."""
    out = {}
    for solver in SOLVERS:
        if solver.objective != objective:
            continue
        try:
            out[solver.family] = _run(solver, inst, deadline)
        except Infeasible:
            out[solver.family] = None
    return out


def _assert_fast_matches_baseline(runs):
    # tables and plans: the fast solver's trace and Solution equal the
    # baseline's, infeasibility included
    assert runs[FAST] == runs[BASELINE]


@settings(max_examples=300, deadline=None)
@given(
    path_documents(max_customers=12),
    st.one_of(st.integers(1, 40), st.integers(1, 80).map(lambda x: x / 2)),
)
def test_raw_documents_end_to_end(case, slack):
    doc, _ = case
    inst = split_at_depot(parse_instance(doc))
    runs = _solve_all(inst, TIME)
    _assert_fast_matches_baseline(runs)
    best = oracle_time(inst).value
    for _, solution in runs.values():
        assert solution.value == best
        assert validate_solution(inst, solution) == []
    for deadline in (best - 1, best, best + slack):
        runs = _solve_all(inst, DISTANCE, deadline)
        _assert_fast_matches_baseline(runs)
        expect = oracle_distance(inst, deadline).value
        for result in runs.values():
            if result is None:
                assert expect is None
                continue
            solution = result[1]
            assert solution.value == expect
            assert validate_solution(inst, solution, deadline) == []
