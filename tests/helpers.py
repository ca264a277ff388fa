"""Shared fixtures: two small instances worked out by hand, and the
item-by-item ingest that pathrd.instance must match.

EX1 is a one-sided path (depot at an extremity), EX2 has the depot in
the middle.  The canonical forms and optimal values below were derived
manually and double-checked against exhaustive enumeration.

ref_parse_instance, ref_distances_from_depot, ref_canonicalize_side and
ref_split_at_depot are the per-item loops pathrd.instance used before
it validated, oriented and canonicalized over flat arrays, kept here
unchanged (apart from their names) as the reference for equivalence
tests.  They know nothing of MAX_MAGNITUDE.  ref_deliveries is the
per-position loop CanonicalSide.deliveries ran before it sliced.
ref_raw_optimum is an oracle that shares none of the solvers' model:
brute force over set partitions of a parsed instance's customers.

long_run_sides and long_block_sides hold distance lines with long
runs, stretches over which one front holds, shorter and longer than a
block; count_distance_block_fills lists the distance kernel's blocks,
typed_run_lines and spy_block_lines serve the tests that only int
lines take blocks, in either kernel, assert_matches_baseline compares a fast distance
solver with its baseline, and ref_distance_line fills one line of the
distance table from its definition.  long_time_run_sides and
dense_time_sides hold time lines with long runs and with many routes,
count_time_block_fills lists the time kernel's blocks,
spy_fills_by_column_work tells each fill of either kernel by whether
its line has column work, and ref_time_line is the time kernel as it
was before it filled runs, state by state, kept unchanged (apart from
its name and the window it hands _check_line) as the bitwise reference
for the block fills.
ref_time_2d_minqueue is the 2-D time solver as it was before its
column step moved into the line kernel: an inline column step per row,
each column's window a deque of (a, w), then the row kernel merging
the row's right term into the left terms, here ref_time_line, which
the block fills matched bit for bit.  It is kept unchanged apart from
its name and that kernel call, as the bitwise reference for the fused
time kernel.  ref_distance_2d_heap is
the 2-D distance solver as it was before its column step moved into
the line kernel: an inline column step per row, then
ref_distance_merge_line, the kernel of then, merging the row's right
term into the left terms.  Both are kept unchanged apart from their
names, with ref_run_values and its own RUN, as the bitwise reference
for the fused kernel.  corrupt_time_blocks and corrupt_distance_blocks
make the numpy fills write wrong values or types, which check=True
must catch.
"""

import dataclasses
import inspect
import json
import math
from bisect import bisect_left

import pytest

from pathrd import (
    CanonicalSide,
    GeneralInstance,
    Infeasible,
    MalformedDocument,
    NegativeValue,
    NotAPath,
    RawPathInstance,
    UnknownDepot,
    random_canonical_side,
)
from collections import deque

import numpy as np

from pathrd import distance_general, time_extremity, time_general
from pathrd.distance_general import DistDpTrace, _check_top
from pathrd.instance import MAX_MAGNITUDE, table_dtype
from pathrd.solution import LEFT, distance_solution, time_solution
from pathrd.time_general import TimeDpTrace, _check_line

EX1_DOC = {
    "vertices": [
        {"id": 0},
        {"id": 1, "release": 0},
        {"id": 2, "release": 5},
        {"id": 3, "release": 21},
    ],
    "edges": [
        {"u": 0, "v": 3, "d": 3},
        {"u": 3, "v": 2, "d": 3},
        {"u": 2, "v": 1, "d": 4},
    ],
    "depot": 0,
}

EX1_SIDE = CanonicalSide(
    r=(0, 5, 21),
    tau=(10, 6, 3),
    labels=(1, 2, 3),
    riders=((), (), ()),
)

EX2_DOC = {
    "vertices": [
        {"id": 1, "release": 3},
        {"id": 0},
        {"id": 2, "release": 6},
        {"id": 3, "release": 0},
    ],
    "edges": [
        {"u": 1, "v": 0, "d": 4},
        {"u": 0, "v": 2, "d": 2},
        {"u": 2, "v": 3, "d": 3},
    ],
    "depot": 0,
}

EX2_LEFT = CanonicalSide(r=(3,), tau=(4,), labels=(1,), riders=((),))
EX2_RIGHT = CanonicalSide(r=(0, 6), tau=(5, 2), labels=(3, 2), riders=((), ()))
EX2_GENERAL = GeneralInstance(EX2_LEFT, EX2_RIGHT)


def _require(cond, message):
    if not cond:
        raise MalformedDocument(message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x):
    # JSON has no NaN or Infinity, though Python's decoder accepts them
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def ref_parse_instance(doc):
    """Parse a JSON document (text or decoded dict) into a RawPathInstance.

    Raises MalformedDocument, NotAPath, UnknownDepot, or NegativeValue.
    """
    if isinstance(doc, (str, bytes, bytearray)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("vertices", "edges", "depot"):
        _require(key in doc, f"missing {key!r}")

    _require(isinstance(doc["vertices"], list) and doc["vertices"], "vertices must be a nonempty array")
    release = {}
    ids = []
    seen_ids = set()
    for item in doc["vertices"]:
        _require(isinstance(item, dict) and "id" in item, "each vertex needs an 'id'")
        vid = item["id"]
        _require(_is_int(vid), f"vertex id must be an integer, got {vid!r}")
        _require(vid not in seen_ids, f"duplicate vertex id {vid}")
        ids.append(vid)
        seen_ids.add(vid)
        if "release" in item:
            rel = item["release"]
            _require(_is_num(rel), f"release of vertex {vid} must be a number")
            if rel < 0:
                raise NegativeValue(f"release of vertex {vid} is negative")
            release[vid] = rel

    depot = doc["depot"]
    _require(_is_int(depot), "depot must be an integer id")
    if depot not in ids:
        raise UnknownDepot(f"depot {depot} is not a vertex")
    release.pop(depot, None)
    for vid in ids:
        if vid != depot and vid not in release:
            raise MalformedDocument(f"customer {vid} has no release date")

    _require(isinstance(doc["edges"], list), "edges must be an array")
    adj = {v: [] for v in ids}
    for item in doc["edges"]:
        _require(isinstance(item, dict) and {"u", "v", "d"} <= item.keys(), "each edge needs u, v, d")
        u, v, d = item["u"], item["v"], item["d"]
        _require(_is_int(u) and _is_int(v), "edge endpoints must be integer ids")
        _require(_is_num(d), "edge length must be a number")
        if d < 0:
            raise NegativeValue(f"edge {u}-{v} has negative length")
        if u == v:
            raise NotAPath(f"self-loop at vertex {u}")
        if u not in adj or v not in adj:
            raise NotAPath(f"edge {u}-{v} references an unknown vertex")
        adj[u].append((v, d))
        adj[v].append((u, d))

    n = len(ids)
    if len(doc["edges"]) != n - 1:
        raise NotAPath(f"a path on {n} vertices needs {n - 1} edges, got {len(doc['edges'])}")
    for v, nbrs in adj.items():
        if n > 1 and not nbrs:
            raise NotAPath(f"vertex {v} is isolated")
        if len(nbrs) > 2:
            raise NotAPath(f"vertex {v} has degree {len(nbrs)}")

    deadline = None
    if doc.get("deadline") is not None:
        deadline = doc["deadline"]
        _require(_is_num(deadline), "deadline must be a number")
        if deadline < 0:
            raise NegativeValue("deadline is negative")

    if n == 1:
        return RawPathInstance((depot,), (), depot, release, deadline)

    endpoints = sorted(v for v in ids if len(adj[v]) == 1)
    if len(endpoints) != 2:
        raise NotAPath("graph is not a single simple path")
    # orient customers to the right of an extremity depot, otherwise
    # start from the smaller-labeled endpoint
    start = depot if depot in endpoints else endpoints[0]
    order = [start]
    lengths = []
    prev = None
    cur = start
    seen = {start}
    while True:
        steps = [(w, d) for (w, d) in adj[cur] if w != prev]
        if not steps:
            break
        nxt, d = steps[0]
        if nxt in seen:
            raise NotAPath("graph contains a cycle")
        order.append(nxt)
        lengths.append(d)
        seen.add(nxt)
        prev, cur = cur, nxt
    if len(order) != n:
        raise NotAPath("graph is disconnected")
    return RawPathInstance(tuple(order), tuple(lengths), depot, release, deadline)


def ref_distances_from_depot(raw):
    """Map each vertex label to its distance from the depot."""
    pos = raw.order.index(raw.depot)
    dist = {raw.depot: 0}
    acc = 0
    for i in range(pos - 1, -1, -1):
        acc += raw.lengths[i]
        dist[raw.order[i]] = acc
    acc = 0
    for i in range(pos + 1, len(raw.order)):
        acc += raw.lengths[i - 1]
        dist[raw.order[i]] = acc
    return dist


def ref_canonicalize_side(members):
    """Reduce (label, release, tau) triples on one side to canonical form.

    Customers are sorted by release (farther first on ties); a customer
    is dropped when someone at least as far is released no earlier, and
    rides along with the nearest such survivor.
    """
    ordered = sorted(members, key=lambda m: (m[1], -m[2]))
    surv_rev = []
    packs_rev = []
    far = None
    for label, rel, tau in reversed(ordered):
        if far is None or tau > far:
            surv_rev.append((label, rel, tau))
            packs_rev.append([])
            far = tau
        else:
            packs_rev[-1].append(label)
    surv = surv_rev[::-1]
    riders = tuple(tuple(reversed(p)) for p in reversed(packs_rev))
    return CanonicalSide(
        r=tuple(m[1] for m in surv),
        tau=tuple(m[2] for m in surv),
        labels=tuple(m[0] for m in surv),
        riders=riders,
    )


def ref_split_at_depot(raw):
    """Split a parsed instance into canonical left and right sides."""
    dist = ref_distances_from_depot(raw)
    pos = raw.order.index(raw.depot)
    left = [(v, raw.release[v], dist[v]) for v in raw.order[:pos]]
    right = [(v, raw.release[v], dist[v]) for v in raw.order[pos + 1 :]]
    return GeneralInstance(ref_canonicalize_side(left), ref_canonicalize_side(right))


def _set_partitions(items):
    """Every partition of the list items into nonempty blocks."""
    if not items:
        yield []
        return
    first = items[0]
    for part in _set_partitions(items[1:]):
        for k in range(len(part)):
            yield part[:k] + [[first] + part[k]] + part[k + 1 :]
        yield [[first]] + part


def ref_raw_optimum(raw, deadlines):
    """(least makespan, least total distance per deadline or None where
    none is met) of a parsed instance, by brute force over every set
    partition of its customers into routes.

    It knows only the path and the release rule: a route may serve
    customers on both sides, is ready at its largest release, and costs
    twice its farthest reach on each side; a partition's routes run
    earliest-ready-first, which minimizes the makespan of a fixed set of
    routes.  Nothing of canonical sides, dominance, riders or contiguity
    is assumed.  Bell(n) partitions: 4140 at n = 8.
    """
    dist = ref_distances_from_depot(raw)
    pos = raw.order.index(raw.depot)
    left = set(raw.order[:pos])
    best_time = None
    best_distance = [None] * len(deadlines)
    customers = [v for v in raw.order if v != raw.depot]
    for part in _set_partitions(customers):
        routes = []
        for block in part:
            far_left = max((dist[v] for v in block if v in left), default=0)
            far_right = max((dist[v] for v in block if v not in left), default=0)
            routes.append((max(raw.release[v] for v in block), 2 * far_left + 2 * far_right))
        t = 0
        for ready, cost in sorted(routes):
            t = max(t, ready) + cost
        total = sum(cost for _, cost in routes)
        if best_time is None or t < best_time:
            best_time = t
        for k, deadline in enumerate(deadlines):
            if t <= deadline and (best_distance[k] is None or total < best_distance[k]):
                best_distance[k] = total
    return best_time, best_distance


def ref_deliveries(side, lo, hi):
    """Original labels served by a route over positions lo..hi inclusive."""
    out = []
    for i in range(lo, hi + 1):
        out.append(side.labels[i])
        out.extend(side.riders[i])
    return tuple(out)


def stairs_side(n, jump, at_depot=False):
    """n customers one distance unit apart, released in blocks of 40
    that each come jump later than the last; with at_depot the nearest
    sits at the depot.  A tight deadline cuts one long run per block."""
    return CanonicalSide(
        r=tuple(jump * (i // 40) for i in range(n)),
        tau=tuple(range(n - at_depot, -at_depot, -1)),
        labels=tuple(range(1, n + 1)),
        riders=((),) * n,
    )


def rescaled(side, scale, shift=0):
    """side with every release and depot distance times scale, and the
    releases moved up by shift."""
    return dataclasses.replace(
        side,
        r=tuple(shift + x * scale for x in side.r),
        tau=tuple(x * scale for x in side.tau),
    )


def mixed(side, which):
    """side with every other release (which 1), depot distance (2) or
    both (3) turned into a float of the same value."""
    def floats(values, on):
        return tuple(float(v) if on and j % 2 else v for j, v in enumerate(values))

    return dataclasses.replace(side, r=floats(side.r, which & 1), tau=floats(side.tau, which & 2))


def long_run_sides():
    """Sides whose distance lines hold runs, stretches over which one
    front holds, 200 to 240 states long, shorter than _BLOCK: a
    one-route side, a side with one long run only under a loose
    deadline, and staircases.  long_block_sides() holds longer
    versions, whose lines take blocks."""
    return [
        random_canonical_side(200, seed=71),
        random_canonical_side(200, seed=72, max_wait=20, max_step=2),
        stairs_side(240, 200),
        stairs_side(240, 200, at_depot=True),
    ]


def long_block_sides():
    """long_run_sides() at 600 to 720 states, long enough that their
    int distance lines take blocks of distance_general._BLOCK states,
    and a side whose releases jump halfway, so that at its time optimum
    a block's own states reach the next: two blocks in one chain."""
    return [
        random_canonical_side(600, seed=71),
        random_canonical_side(600, seed=72, max_wait=20, max_step=2),
        stairs_side(720, 200),
        stairs_side(720, 200, at_depot=True),
        line_side([0] * 300 + [2500] * 300, range(600, 0, -1)),
    ]


def count_distance_block_fills(monkeypatch):
    """(first state, last state) of every stretch of blocks the distance
    kernel fills, from the top down, 1-D or in a 2-D line, in the order
    they are filled; a block call that fills nothing adds nothing."""
    blocks = []
    fill = distance_general._distance_block

    def counted(side, lam, succ, p, f):
        below, f = fill(side, lam, succ, p, f)
        if below < p - 1:
            blocks.append((p - 1, below + 1))
        return below, f

    monkeypatch.setattr(distance_general, "_distance_block", counted)
    return blocks


def typed_run_lines():
    """(name, side, deadlines): long_run_sides() and the first of
    long_block_sides() as ints, times 0.37, mixed, and with releases shifted to within
    2**20 of 2**53, as ints and as floats, each at int and float
    deadlines from T* to 2 T* + 10, which passes MAX_MAGNITUDE near
    2**53; and sides of 100 and 300 customers whose farthest is 2**70
    out, which gives them object arrays, or 2**62, int64 arrays whose
    int deadline 2**64 numpy cannot take.  Of these only the int lines
    within MAX_MAGNITUDE may take blocks, in either kernel (BLOCK_LINE)."""
    kinds = {
        "int": lambda s: s,
        "x0.37": lambda s: rescaled(s, 0.37),
        "mixed": lambda s: mixed(s, 3),
        "near 2**53 int": lambda s: rescaled(s, 1, 2**53 - 2**20),
        "near 2**53 float": lambda s: rescaled(s, 1, float(2**53 - 2**20)),
    }
    lines = []
    for name, kind in kinds.items():
        for base in long_run_sides() + long_block_sides()[:1]:
            side = kind(base)
            t = time_extremity.solve_time_linear(side)[1].value
            deadlines = [t, t + side.tau[0], 2 * t + 10]
            deadlines += [d + 0.5 if d.__class__ is int else math.floor(d) for d in deadlines]
            lines.append((name, side, deadlines))
    for n in (100, 300):
        for far, deadline in ((2**70, 2**72), (2**62, 2**64)):
            side = line_side([0] * n, [far] + [k * 2**52 for k in range(n - 1, 0, -1)])
            lines.append((f"far {far}", side, [deadline, float(deadline)]))
    return lines


# each kernel's block fill, and where the line it fills holds the
# line's given end: lam[n] for distance, c[0] for time
BLOCK_FILLS = {distance_general: ("_distance_block", -1), time_general: ("_time_block", 0)}


def spy_block_lines(monkeypatch, module=distance_general):
    """The line of every block call of module's kernel, distance's
    unless time_general is given, in order, as (the type of the line's
    given end, the side's two array dtypes, whether that end, r[-1] and
    tau[0] are all within MAX_MAGNITUDE)."""
    seen = []
    name, end = BLOCK_FILLS[module]
    fill = getattr(module, name)

    def spied(side, line, *args):
        rv, tv = side.arrays
        start = line[end]
        seen.append((start.__class__, rv.dtype.name, tv.dtype.name, max(start, side.r[-1], side.tau[0]) <= MAX_MAGNITUDE))
        return fill(side, line, *args)

    monkeypatch.setattr(module, name, spied)
    return seen


# the one kind of line that takes blocks, in either kernel: an int given
# end over int64 arrays, its numbers within MAX_MAGNITUDE
BLOCK_LINE = (int, "int64", "int64", True)


def typed(values):
    """values with their types, so that 1 and 1.0 differ."""
    return [(v.__class__, v) for v in values]


def ref_distance_table(left, right, deadline):
    """lam and succ of the 2-D distance table from their definition: row
    by row from the bottom, each column's left term by a scan of the
    rows below, the largest lam[w][q] - 2 taul[p] whose slack meets the
    threshold at the smallest w, then ref_distance_line over the right
    side with the left terms as the other side's candidates."""
    nl, nr = left.n, right.n
    lam = [None] * (nl + 1)
    succ = [None] * (nl + 1)
    for p in range(nl, -1, -1):
        ext = [None] * (nr + 1)
        ext_pred = [None] * (nr + 1)
        if p == nl:
            ext[nr] = deadline
        else:
            threshold = 2 * left.tau[p]
            for q in range(nr + 1):
                for w in range(p + 1, nl + 1):
                    v = lam[w][q]
                    if v is not None and v - left.r[w - 1] >= threshold:
                        if ext[q] is None or v - threshold > ext[q]:
                            ext[q] = v - threshold
                            ext_pred[q] = (LEFT, w)
        lam[p], succ[p] = ref_distance_line(right.r, right.tau, ext[nr], ext[:nr], ext_pred[:nr])
        succ[p][nr] = ext_pred[nr]
    return lam, succ


def ref_distance_line(r, tau, deadline, ext=None, ext_pred=None):
    """lam and succ of one distance line, lam[n] = deadline, scanning
    every successor q of every state p: the largest lam[q] - 2 tau[p]
    over the q whose slack lam[q] - r[q-1] meets 2 tau[p], the smallest
    such q on ties; ext[p], when not None, is the other side's
    candidate, and wins ties storing ext_pred[p]."""
    n = len(r)
    lam = [None] * n + [deadline]
    succ = [None] * (n + 1)
    for p in range(n - 1, -1, -1):
        threshold = 2 * tau[p]
        for q in range(p + 1, n + 1):
            v = lam[q]
            if v is not None and v - r[q - 1] >= threshold:
                if lam[p] is None or v - threshold > lam[p]:
                    lam[p] = v - threshold
                    succ[p] = q
        if ext is not None and ext[p] is not None and (lam[p] is None or ext[p] >= lam[p]):
            lam[p] = ext[p]
            succ[p] = ext_pred[p]
    return lam, succ


def assert_matches_baseline(fast, baseline, *args):
    """fast(*args, check=True) gives baseline(*args)'s table and plan,
    or raises Infeasible with the same table; returns fast's trace."""
    try:
        want, plan = baseline(*args)
    except Infeasible as exc:
        with pytest.raises(Infeasible) as raised:
            fast(*args, check=True)
        assert raised.value.trace == exc.trace
        return raised.value.trace
    got, got_plan = fast(*args, check=True)
    assert got == want
    assert got_plan == plan
    return got


def ref_time_line(r, tau, c, pred, merge=False, check=False):
    """Fill c[1..n] and pred[1..n] of one line from the given c[0],
    n = len(r); pred[i] is the raw j the minimum was taken at.

    With merge, c[i] and pred[i] already hold the other side's
    candidate, which the kernel reads before it overwrites them; the
    candidate wins ties.  c[0] may exceed the first releases, so the
    cursor starts at -1 and state 0 enters the window like any other.
    check=True asserts _check_line per state.
    """
    # cand holds (a_j, j) with a_j = c[j] + 2 tau[j+1] for j in (k, i-1],
    # values nondecreasing front to back; equal values all stay so the
    # front is always the smallest j among minima
    cand = deque()
    k = -1
    for i in range(1, len(r) + 1):
        last = i - 1
        ri = r[last]
        a = c[last] + 2 * tau[last]
        while cand and cand[-1][0] > a:
            cand.pop()
        cand.append((a, last))
        # grow the released region; its best candidate is always j = k
        # because tau strictly decreases
        while k < last and c[k + 1] <= ri:
            k += 1
            if cand[0][1] <= k:
                cand.popleft()
        if check:
            _check_line(c[:i], tau, ri, k, [v for v, _ in cand], [w for _, w in cand])
        if k >= 0:
            best = ri + 2 * tau[k]
            bj = k
            if cand and cand[0][0] < best:
                best, bj = cand[0]
        else:
            best, bj = cand[0]
        if merge and c[i] <= best:
            best = c[i]
            bj = pred[i]
        c[i] = best
        pred[i] = bj


def ref_time_tables(side):
    """c and pred of side's time line, filled by ref_time_line from the
    origin c[0], the table dtype's zero (0.0 once a float takes part);
    pred[0] is None, where no route ends."""
    c = [np.zeros((), table_dtype(side)).item()] * (side.n + 1)
    pred = [None] * (side.n + 1)
    ref_time_line(side.r, side.tau, c, pred)
    return c, pred


def ref_time_2d_minqueue(inst, check=False):
    """Window-and-cursor solver; output matches solve_time_2d_cubic.

    check=True asserts _check_line on every column and row at every
    state.
    """
    nl = inst.left.n
    nr = inst.right.n
    rl = inst.left.r
    taul = inst.left.tau
    # the origin is the table dtype's zero, as in the cubic baseline
    dt = table_dtype(inst.left, inst.right)
    origin = np.zeros((), dt).item()
    if not nr:
        # an empty right side leaves one line, the left side's
        line = [origin] + [0] * nl
        moves = [None] * (nl + 1)
        ref_time_line(rl, taul, line, moves, False, check)
        left_of = {w: None if w is None else (LEFT, w) for w in set(moves)}
        c = [[v] for v in line]
        pred = [[left_of[w]] for w in moves]
        return TimeDpTrace(c, pred), time_solution(inst.left, inst.right, c, pred)
    # shared left moves for the column step; the row kernel's bare w is a right move
    left_of = [(LEFT, w) for w in range(nl + 1)]
    c = [[0] * (nr + 1) for _ in range(nl + 1)]
    c[0][0] = origin
    pred = [[None] * (nr + 1) for _ in range(nl + 1)]
    # per column, for the left term: a cursor over the released rows
    # and a window of (a, w), a = c[w][j] + 2 taul[w], kept as in
    # _time_line; an empty left side steps no column
    cols = range(nr + 1) if nl else ()
    kl = [-1 for _ in cols]
    wl = [deque() for _ in cols]
    for i in range(nl + 1):
        ci = c[i]
        pi = pred[i]
        if i:
            # column step: each column's line gains state i - 1 and
            # yields its left term at row i
            last = i - 1
            ri = rl[last]
            up = c[last]
            two = 2 * taul[last]
            for j in range(nr + 1):
                win = wl[j]
                a = up[j] + two
                while win and win[-1][0] > a:
                    win.pop()
                win.append((a, last))
                k = kl[j]
                while k < last and c[k + 1][j] <= ri:
                    k += 1
                    if win[0][1] <= k:
                        win.popleft()
                kl[j] = k
                if check:
                    line = [c[w][j] for w in range(i)]
                    _check_line(line, taul, ri, k, [v for v, _ in win], [w for _, w in win])
                if k >= 0:
                    best = ri + 2 * taul[k]
                    w = k
                    if win and win[0][0] < best:
                        best, w = win[0]
                else:
                    best, w = win[0]
                ci[j] = best
                pi[j] = left_of[w]
        # the right term along the row; the left term wins ties
        ref_time_line(inst.right.r, inst.right.tau, ci, pi, i > 0, check)
    return TimeDpTrace(c, pred), time_solution(inst.left, inst.right, c, pred)


def line_side(r, tau):
    """A side with the given releases and depot distances, labels 1..n."""
    return CanonicalSide(
        r=tuple(r), tau=tuple(tau), labels=tuple(range(1, len(r) + 1)), riders=((),) * len(r)
    )


# One customer released at 5, one unit from the depot: beside
# long_time_run_sides()["left"] on the right, its term in row 1 of the
# 2-D table undercuts the right side's run at state 41.
LEFT_CUT_CUSTOMER = line_side([5], [1])


# two left customers, the second released at 4000 one unit out: beside
# dense_time_sides()[0], its term wins some states of row 2 and loses
# the others
BLOCK_LEFT = line_side([0, 4000], [3, 1])


# A block length that the lines of long_time_run_sides(), 60 to 240
# states long, reach: tests monkeypatch time_general._BLOCK to it.
SHORT_BLOCK = 32


def long_time_run_sides():
    """Sides whose time lines hold long runs, stretches of states that
    all take one cursor's released candidate, by name: a one-route side,
    which is one run; a side that waits up to 20; a staircase; and one
    side for each way a run ends, its run from state 2 (22 for "front")
    to the state named:

    - "cursor": releases 0 jump to c[1] = 200 after state 60, so the
      cursor moves at state 61;
    - "front": the cursor jumps to 10 at state 21 and leaves state 11 in
      the window, whose a beats the released candidate by 1 until the
      releases rise by 2 after state 60;
    - "own a": releases flat then rising by 3 a state, tau falling by 1
      a state past a far first customer, so a run state's own a, that
      of state 41, undercuts after state 93;
    - "left": releases rising by 3, whose run in row 1 beside
      LEFT_CUT_CUSTOMER ends after state 40, where the left term wins.
    """
    return {
        "one route": random_canonical_side(120, seed=71),
        "wait 20": random_canonical_side(150, seed=72, max_wait=20, max_step=2),
        "stairs": stairs_side(240, 200),
        "cursor": line_side([0] * 60 + [200] * 40, range(100, 0, -1)),
        "front": line_side(
            [3 * j for j in range(20)] + [2027] * 40 + [2029] * 20,
            [1000] + [500 - j for j in range(1, 80)],
        ),
        "own a": line_side(
            [0] * 40 + [3 * j for j in range(80)],
            [1000] + [120 - j for j in range(1, 120)],
        ),
        "left": line_side([3 * j for j in range(60)], [100] + [60 - j for j in range(1, 60)]),
    }


def count_time_block_fills(monkeypatch):
    """(first state, last state) of every stretch of blocks the time
    kernel fills, 1-D or in a 2-D line, in the order they are filled."""
    blocks = []
    fill = time_general._time_block

    def counted(side, c, pred, i, k, *window):
        last, k = fill(side, c, pred, i, k, *window)
        blocks.append((i + 1, last))
        return last, k

    monkeypatch.setattr(time_general, "_time_block", counted)
    return blocks


def spy_fills_by_column_work(monkeypatch):
    """Spy on both line kernels and their fills, time's _time_block and
    distance's _distance_block: the list returned gains, at each fill, its
    name and whether the kernel call it runs in was given cols, a row
    with column work."""
    fills = []
    # whether each kernel call under way was given cols, innermost last
    calls = []
    for module, kernel, fill in (
        (time_general, "_time_line", "_time_block"),
        (distance_general, "_distance_line", "_distance_block"),
    ):
        line = getattr(module, kernel)
        params = inspect.signature(line)

        def spied_line(*args, line=line, params=params):
            calls.append(params.bind(*args).arguments.get("cols") is not None)
            try:
                return line(*args)
            finally:
                calls.pop()

        def spied_fill(*args, name=fill, filler=getattr(module, fill)):
            fills.append((name, calls[-1]))
            return filler(*args)

        monkeypatch.setattr(module, kernel, spied_line)
        monkeypatch.setattr(module, fill, spied_fill)
    return fills


# two ways a fill can go wrong: a value off by one, or an int written
# as a float, equal in value but not in type
CORRUPTIONS = {"value": lambda v: v - 1, "type": float}


def corrupt_time_blocks(monkeypatch, corrupt):
    """Make every stretch of blocks the time kernel fills write
    corrupt(c) at its last state; the list returned gains that state at
    each."""
    hits = []
    fill = time_general._time_block

    def corrupted(side, c, pred, i, k, *window):
        last, k = fill(side, c, pred, i, k, *window)
        c[last] = corrupt(c[last])
        hits.append(last)
        return last, k

    monkeypatch.setattr(time_general, "_time_block", corrupted)
    return hits


def corrupt_distance_blocks(monkeypatch, corrupt):
    """Make every stretch of blocks the distance kernel fills write
    corrupt(lam) at its last state; the list returned gains that state
    at each."""
    hits = []
    fill = distance_general._distance_block

    def corrupted(side, lam, succ, p, f):
        below, f = fill(side, lam, succ, p, f)
        if below < p - 1:
            lam[below + 1] = corrupt(lam[below + 1])
            hits.append(below + 1)
        return below, f

    monkeypatch.setattr(distance_general, "_distance_block", corrupted)
    return hits


def dense_time_sides():
    """Many-route sides of raw-dense's family, random_canonical_side(n,
    max_wait=50, max_step=2), a few thousand customers each: long enough
    that their time lines take blocks of time_general._BLOCK states."""
    return [
        random_canonical_side(n, seed=seed, max_wait=50, max_step=2)
        for n, seed in ((2500, 801), (4000, 802))
    ]


# the run length of the frozen kernel below: a run longer than this was
# filled by slice
RUN = 32


def ref_run_values(top, side, lo, hi):
    """[top - 2 * t for t in side.tau[lo:hi]], over tau nonincreasing.

    An int top over int64 arrays within MAX_MAGNITUDE gives those exact
    values and types by one int64 operation over the side's arrays;
    any other top or arrays take the comprehension.
    """
    tau = side.tau
    tv = side.arrays[1]
    if (
        top.__class__ is int
        and tv.dtype == np.int64
        and max(abs(top), tau[lo], -tau[hi - 1]) <= MAX_MAGNITUDE
    ):
        return (top - 2 * tv[lo:hi]).tolist()
    return [top - 2 * t for t in tau[lo:hi]]


def _ref_minus_two(t):
    return -2 * t


def ref_distance_merge_line(side, lam, succ, merge=False, check=False):
    """Fill lam[0..n-1] and succ[0..n-1] of side's line from the given
    lam[n], n = side.n, which may be 0; None marks an absent state, and
    succ[p] is the raw q the maximum came from.

    f is the front, -1 when there is none.  With merge, lam[p] and
    succ[p] already hold the other side's candidate, None when it is
    absent, which the kernel reads before it overwrites them; the
    candidate wins ties.  check=True asserts _check_top at every state,
    the ones a run fills included.
    """
    r = side.r
    tau = side.tau
    n = len(r)
    f = -1 if lam[n] is None else n
    fresh = True
    p = n - 1
    while p >= 0:
        # the scalar loop; a run fill leaves it, to resume below the run
        for p in range(p, -1, -1):
            threshold = 2 * tau[p]
            value = None
            while f >= 0:
                top = lam[f]
                slack = top - r[f - 1]
                if slack >= threshold:
                    value = top - threshold
                    q = f
                    break
                # pop: slide to the smallest index of the next lower group
                fresh = True
                f -= 1
                if f == p:
                    f = -1
                    break
                low = lam[f]
                while f - 1 > p and lam[f - 1] == low:
                    f -= 1
            if fresh and value is not None:
                fresh = False
                # a run: every state from p down to the lowest whose
                # threshold slack meets takes top - 2 tau from f; as
                # lam[p] < top, none of them joins f's group
                if (
                    p >= RUN
                    and slack >= 2 * tau[p - RUN]
                    and value < top
                    and (not merge or lam[p] is None or lam[p] < top)
                ):
                    a = bisect_left(tau, -slack, 0, p - RUN, key=_ref_minus_two)
                    vals = ref_run_values(top, side, a, p + 1)
                    if merge:
                        others = lam[a : p + 1]
                        preds = succ[a : p + 1]
                        succ[a : p + 1] = [
                            f if o is None or o < v else w
                            for o, v, w in zip(others, vals, preds)
                        ]
                        lam[a : p + 1] = [
                            v if o is None or o < v else o for o, v in zip(others, vals)
                        ]
                    else:
                        lam[a : p + 1] = vals
                        succ[a : p + 1] = [f] * len(vals)
                    if check:
                        for s in range(p, a - 1, -1):
                            _check_top(lam, r, tau, s, f)
                    p = a - 1
                    break
            if check:
                _check_top(lam, r, tau, p, f)
            if merge:
                other = lam[p]
                if other is not None and (value is None or other >= value):
                    value = other
                    q = succ[p]
            if value is not None:
                lam[p] = value
                succ[p] = q
                # an equal value joins the front's group, which p now leads
                if f < 0 or value == top:
                    f = p
                    fresh = True
        else:
            break


def ref_distance_2d_heap(inst, deadline, check=False):
    """Front-index solver in O(n_l n_r); lam matches
    solve_distance_2d_cubic.  check=True asserts _check_top for every
    column and row front at every state."""
    nl = inst.left.n
    nr = inst.right.n
    rl, taul = inst.left.r, inst.left.tau
    # shared left moves for the column step; the row kernel's bare w is a right move
    left_of = [(LEFT, w) for w in range(nl + 1)]
    lam = [[None] * (nr + 1) for _ in range(nl + 1)]
    succ = [[None] * (nr + 1) for _ in range(nl + 1)]
    lam[nl][nr] = deadline
    # column fronts serve the left term and live for the whole sweep; an
    # empty left side steps no column
    fronts = [-1] * (nr + 1) if nl else []
    for p in range(nl, -1, -1):
        lp = lam[p]
        sp = succ[p]
        if p < nl:
            # column step: each column's line gains state p + 1 and
            # yields its left term at row p
            threshold = 2 * taul[p]
            below = lam[p + 1]
            for q in range(nr + 1):
                f = fronts[q]
                v = below[q]
                if v is not None and (f < 0 or lam[f][q] == v):
                    f = p + 1
                while f >= 0:
                    top = lam[f][q]
                    if top - rl[f - 1] >= threshold:
                        lp[q] = top - threshold
                        sp[q] = left_of[f]
                        break
                    f -= 1
                    if f == p:
                        f = -1
                        break
                    low = lam[f][q]
                    while f - 1 > p and lam[f - 1][q] == low:
                        f -= 1
                fronts[q] = f
                if check:
                    _check_top([row[q] for row in lam], rl, taul, p, f)
        if nr:
            # the right term along the row; the left term wins ties
            ref_distance_merge_line(inst.right, lp, sp, p < nl, check)
    trace = DistDpTrace(lam, succ)
    if deadline < 0 or lam[0][0] is None:
        raise Infeasible(f"no plan finishes by {deadline}", trace)
    return trace, distance_solution(inst.left, inst.right, lam, succ)
