"""Path instance parsing, reduction to canonical sides, and generation.

An instance lives on a simple path with the depot somewhere on it.
Parsing validates the document, orients the path, and records vertices
in path order.  Splitting at the depot gives two independent sides;
each side is sorted by release date and purged of dominated customers
(anyone who can ride along with a later, farther customer), yielding
the canonical form every solver works on: releases nondecreasing,
depot distances strictly decreasing.

Both work over whole lists: validation is a handful of list-wide
predicates, orientation one walk over flat integer arrays, and the
reduction a sort plus a running maximum in numpy.  numpy only computes
positions; every number in the result is the document's own object.
"""

import json
import math
import random
from dataclasses import dataclass
from itertools import accumulate, islice, repeat

import numpy as np

from .errors import (
    MalformedDocument,
    NegativeValue,
    NotAPath,
    OutOfRange,
    UnknownDepot,
)

__all__ = [
    "MAX_MAGNITUDE",
    "RawPathInstance",
    "CanonicalSide",
    "GeneralInstance",
    "parse_instance",
    "canonicalize_side",
    "split_at_depot",
    "generate_instance",
    "random_canonical_side",
]


@dataclass(frozen=True)
class RawPathInstance:
    """A parsed instance: vertices in path order with edge lengths between them."""

    order: tuple[int, ...]
    lengths: tuple[int | float, ...]
    depot: int
    release: dict
    deadline: int | float | None = None

    @property
    def n_customers(self):
        return len(self.order) - 1

    def to_document(self):
        """Dump back to the JSON document shape."""
        vertices = []
        for v in self.order:
            if v == self.depot:
                vertices.append({"id": v})
            else:
                vertices.append({"id": v, "release": self.release[v]})
        edges = [
            {"u": self.order[i], "v": self.order[i + 1], "d": self.lengths[i]}
            for i in range(len(self.lengths))
        ]
        doc = {"vertices": vertices, "edges": edges, "depot": self.depot}
        if self.deadline is not None:
            doc["deadline"] = self.deadline
        return doc


@dataclass(frozen=True)
class CanonicalSide:
    """One side of the depot after sorting and dominance removal.

    r[i] and tau[i] are the release date and depot distance of the i-th
    surviving customer; labels[i] is its original vertex label and
    riders[i] the labels of dominated customers it carries along.  r and
    tau are tuples of the document's own numbers (tau summed from its
    edge lengths), so an int stays an int and a float a float.
    """

    r: tuple
    tau: tuple
    labels: tuple[int, ...]
    riders: tuple[tuple[int, ...], ...]

    @property
    def n(self):
        return len(self.r)

    def check(self):
        """Assert the canonical invariants hold."""
        n = self.n
        assert len(self.tau) == len(self.labels) == len(self.riders) == n
        for i in range(n):
            assert self.r[i] >= 0 and self.tau[i] >= 0
            if i:
                assert self.r[i - 1] <= self.r[i]
                assert self.tau[i - 1] > self.tau[i]

    def deliveries(self, lo, hi):
        """Original labels served by a route over positions lo..hi
        inclusive, each survivor followed by its riders."""
        if not any(self.riders[lo : hi + 1]):
            return tuple(self.labels[lo : hi + 1])
        out = []
        for i in range(lo, hi + 1):
            out.append(self.labels[i])
            out.extend(self.riders[i])
        return tuple(out)


EMPTY_SIDE = CanonicalSide((), (), (), ())


@dataclass(frozen=True)
class GeneralInstance:
    """Two canonical sides of one depot."""

    left: CanonicalSide
    right: CanonicalSide


# Every number a solver computes on a parsed instance is at most the
# largest release plus 2 * customers * total edge length; parse_instance
# keeps that, and the deadline, within 2**53, where float64 holds every
# integer exactly and int64 arithmetic has room to spare.
MAX_MAGNITUDE = 2**53


def table_dtype(*seqs):
    """The dtype the baseline solvers compute in: int64 unless a float
    takes part.  An empty sequence adds nothing, so an empty side (whose
    np.asarray is float64) leaves integer tables integer."""
    return np.result_type(np.int64, *(np.asarray(s) for s in seqs if len(s)))


def _require(cond, message):
    if not cond:
        raise MalformedDocument(message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x):
    # JSON has no NaN or Infinity, though Python's decoder accepts them
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _only(values, *kinds):
    """True when the exact type of every value is one of kinds; bool
    and other subclasses fail it."""
    return set(map(type, values)) <= set(kinds)


def _plain_numbers(values):
    """True when every value is an int or a finite float, none negative."""
    kinds = set(map(type, values))
    if not kinds <= {int, float}:
        return False
    if float in kinds and not all(math.isfinite(x) for x in values if type(x) is float):
        return False
    return min(values, default=0) >= 0


# The bulk checks below are fast sufficient conditions.  When one fails,
# the per-item scan raises what an item-by-item parse raises first; if
# it finds nothing (say, an int subclass in a decoded dict), parsing
# goes on with the bulk results.


def _scan_vertices(verts):
    seen = set()
    for item in verts:
        _require(isinstance(item, dict) and "id" in item, "each vertex needs an 'id'")
        vid = item["id"]
        _require(_is_int(vid), f"vertex id must be an integer, got {vid!r}")
        _require(vid not in seen, f"duplicate vertex id {vid}")
        seen.add(vid)
        if "release" in item:
            rel = item["release"]
            _require(_is_num(rel), f"release of vertex {vid} must be a number")
            if rel < 0:
                raise NegativeValue(f"release of vertex {vid} is negative")


def _scan_edges(edges, index):
    for item in edges:
        _require(isinstance(item, dict) and {"u", "v", "d"} <= item.keys(), "each edge needs u, v, d")
        u, v, d = item["u"], item["v"], item["d"]
        _require(_is_int(u) and _is_int(v), "edge endpoints must be integer ids")
        _require(_is_num(d), "edge length must be a number")
        if d < 0:
            raise NegativeValue(f"edge {u}-{v} has negative length")
        if u == v:
            raise NotAPath(f"self-loop at vertex {u}")
        if u not in index or v not in index:
            raise NotAPath(f"edge {u}-{v} references an unknown vertex")


def _vertex_table(verts):
    """Vertex ids, each id's position, and the releases given by id."""
    try:
        ids = [item["id"] for item in verts]
        index = dict(zip(ids, range(len(ids))))
        release = {item["id"]: item["release"] for item in verts if "release" in item}
        clean = (
            _only(verts, dict)
            and _only(ids, int)
            and len(index) == len(ids)
            and _plain_numbers(release.values())
        )
    except (KeyError, TypeError):
        # only a vertex that is not an object, or whose id is missing or
        # unhashable, gets here, and the scan rejects it
        clean = False
    if not clean:
        _scan_vertices(verts)
    return ids, index, release


def _edge_table(edges, index):
    """Endpoint positions a, b (numpy) and lengths d of the edges."""
    try:
        us = [item["u"] for item in edges]
        vs = [item["v"] for item in edges]
        ds = [item["d"] for item in edges]
        clean = _only(edges, dict) and _only(us, int) and _only(vs, int) and _plain_numbers(ds)
    except (KeyError, TypeError):
        clean = False
    if not clean:
        _scan_edges(edges, index)
    m = len(edges)
    a = np.fromiter(map(index.get, us, repeat(-1)), np.intp, m)
    b = np.fromiter(map(index.get, vs, repeat(-1)), np.intp, m)
    if (a < 0).any() or (b < 0).any() or (a == b).any():
        _scan_edges(edges, index)
    return a, b, ds


def _walk(ids, depot_at, a, b, ds, deg):
    """Labels and edge lengths in path order: from the depot when it is
    an endpoint, otherwise from the smaller-labeled endpoint."""
    n = len(ids)
    ends = np.flatnonzero(deg == 1)
    if len(ends) != 2:
        raise NotAPath("graph is not a single simple path")
    start = depot_at if deg[depot_at] == 1 else min(ends.tolist(), key=ids.__getitem__)
    # one flat slot per vertex holds the XOR of its two neighbours, an
    # endpoint's missing one being -1: XOR with where a walk came from
    # gives where it goes
    link = np.zeros(n, dtype=np.intp)
    np.bitwise_xor.at(link, a, b)
    np.bitwise_xor.at(link, b, a)
    link[ends] ^= -1
    link = link.tolist()
    path = [start]
    prev, cur = -1, start
    for _ in range(n - 1):
        prev, cur = cur, link[cur] ^ prev
        if cur < 0:
            break
        path.append(cur)
    # degrees are at most 2 and the start has degree 1, so the walk
    # never turns back and stops at the other endpoint
    if len(path) != n:
        raise NotAPath("graph is disconnected")
    # edge e joins path positions k and k + 1, k the nearer of its ends
    pos = np.empty(n, dtype=np.intp)
    pos[path] = np.arange(n)
    steps = np.empty(n - 1, dtype=np.intp)
    steps[np.minimum(pos[a], pos[b])] = np.arange(n - 1)
    return tuple(map(ids.__getitem__, path)), tuple(map(ds.__getitem__, steps.tolist()))


def _check_magnitude(releases, lengths, customers, deadline):
    """Raise OutOfRange unless largest release + 2 * customers * total
    edge length, and the deadline, are at most MAX_MAGNITUDE: for a
    document in parse_instance, one side in canonicalize_side, and in
    the CLI the worst instance generate or crosscheck could draw."""
    top = max(releases, default=0)
    # compared on its own first: the sum rounds once a float takes part
    if top <= MAX_MAGNITUDE:
        top += 2 * customers * sum(lengths)
    if top > MAX_MAGNITUDE:
        raise OutOfRange("largest release + 2 * customers * total edge length exceeds 2**53")
    if deadline is not None and deadline > MAX_MAGNITUDE:
        raise OutOfRange(f"deadline {deadline} exceeds 2**53")


def parse_instance(doc):
    """Parse a JSON document (text or decoded dict) into a RawPathInstance.

    Raises MalformedDocument, NotAPath, UnknownDepot, NegativeValue, or
    OutOfRange when the numbers exceed MAX_MAGNITUDE (see
    _check_magnitude).  Each check runs over a whole list at once; the
    first offending item is named in the message.
    """
    if isinstance(doc, (str, bytes, bytearray)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("vertices", "edges", "depot"):
        _require(key in doc, f"missing {key!r}")

    verts = doc["vertices"]
    _require(isinstance(verts, list) and verts, "vertices must be a nonempty array")
    ids, index, release = _vertex_table(verts)
    n = len(ids)

    depot = doc["depot"]
    _require(_is_int(depot), "depot must be an integer id")
    if depot not in index:
        raise UnknownDepot(f"depot {depot} is not a vertex")
    release.pop(depot, None)
    if len(release) != n - 1:
        vid = next(v for v in ids if v != depot and v not in release)
        raise MalformedDocument(f"customer {vid} has no release date")

    edges = doc["edges"]
    _require(isinstance(edges, list), "edges must be an array")
    a, b, ds = _edge_table(edges, index)
    if len(edges) != n - 1:
        raise NotAPath(f"a path on {n} vertices needs {n - 1} edges, got {len(edges)}")
    deg = np.bincount(np.concatenate((a, b)), minlength=n)
    if n > 1:
        bad = np.flatnonzero((deg == 0) | (deg > 2))
        if len(bad):
            k = int(bad[0])
            if deg[k] == 0:
                raise NotAPath(f"vertex {ids[k]} is isolated")
            raise NotAPath(f"vertex {ids[k]} has degree {deg[k]}")

    deadline = None
    if doc.get("deadline") is not None:
        deadline = doc["deadline"]
        _require(_is_num(deadline), "deadline must be a number")
        if deadline < 0:
            raise NegativeValue("deadline is negative")

    if n == 1:
        order, lengths = (depot,), ()
    else:
        order, lengths = _walk(ids, index[depot], a, b, ds, deg)
    _check_magnitude(release.values(), ds, n - 1, deadline)
    return RawPathInstance(order, lengths, depot, release, deadline)


def _depths(lengths):
    """Depot distances of the vertices reached over the given edge
    lengths, summed left to right from 0 as the walk goes out."""
    return list(islice(accumulate(lengths, initial=0), 1, None))


def _canonical(labels, r, tau):
    """The canonical side of customers labels[k], released at r[k] at
    depot distance tau[k].

    numpy only finds indices: r, tau and labels of the result are
    gathered from the given sequences, so each number keeps its type;
    within MAX_MAGNITUDE, float64 keys compare them exactly.
    """
    n = len(labels)
    if n == 0:
        return EMPTY_SIDE
    tau_key = np.asarray(tau)
    # by release, farther first on ties, input order on full ties
    perm = np.lexsort((-tau_key, np.asarray(r)))
    far = tau_key[perm]
    # a customer survives when everyone after it in that order is nearer
    later = np.maximum.accumulate(far[::-1])[::-1]
    keep = np.ones(n, dtype=bool)
    keep[:-1] = far[:-1] > later[1:]
    kept = np.flatnonzero(keep)
    surv = perm[kept].tolist()
    # the customers between two survivors in that order ride on the later one
    gap = np.diff(kept, prepend=-1) - 1
    riders = [()] * len(surv)
    if len(surv) < n:
        rider_labels = list(map(labels.__getitem__, perm[~keep].tolist()))
        start = 0
        for j, count in zip(np.flatnonzero(gap).tolist(), gap[gap > 0].tolist()):
            riders[j] = tuple(rider_labels[start : start + count])
            start += count
    return CanonicalSide(
        r=tuple(map(r.__getitem__, surv)),
        tau=tuple(map(tau.__getitem__, surv)),
        labels=tuple(map(labels.__getitem__, surv)),
        riders=tuple(riders),
    )


def canonicalize_side(members):
    """Reduce (label, release, tau) triples on one side to canonical form.

    Customers are sorted by release (farther first on ties); a customer
    is dropped when someone at least as far is released no earlier, and
    rides along with the nearest such survivor.  Raises
    MalformedDocument on a release or depot distance that is no finite
    int or float (bools included), NegativeValue, or OutOfRange beyond
    parse_instance's bound, largest tau standing for the total edge
    length.
    """
    members = list(members)
    if not members:
        return EMPTY_SIDE
    labels, r, tau = zip(*members)
    if not all(map(_is_num, r + tau)):
        raise MalformedDocument("a release or depot distance is not a finite number")
    if min(r) < 0 or min(tau) < 0:
        raise NegativeValue("a release or depot distance is negative")
    _check_magnitude(r, (max(tau),), len(labels), None)
    return _canonical(labels, r, tau)


def split_at_depot(raw):
    """Split a parsed instance into canonical left and right sides.

    Each side lists its customers in path order, so ties in release and
    distance keep that order.
    """
    pos = raw.order.index(raw.depot)
    left, right = raw.order[:pos], raw.order[pos + 1 :]
    release = raw.release.__getitem__
    return GeneralInstance(
        _canonical(left, list(map(release, left)), _depths(reversed(raw.lengths[:pos]))[::-1]),
        _canonical(right, list(map(release, right)), _depths(raw.lengths[pos:])),
    )


def generate_instance(n_left, n_right, max_edge, max_release, seed):
    """Build a random path instance with the depot between two groups.

    Left customers are labeled 1..n_left from the far end inward, right
    customers continue outward, so splitting recovers the requested
    group sizes whenever both are positive.  With one empty group the
    depot sits at an extremity and all customers end up on the right.
    """
    rng = random.Random(seed)
    if n_left == 0 or n_right == 0:
        order = [0] + list(range(1, n_left + n_right + 1))
    else:
        left_labels = list(range(1, n_left + 1))
        right_labels = list(range(n_left + 1, n_left + n_right + 1))
        order = left_labels + [0] + right_labels
    lengths = tuple(rng.randint(0, max_edge) for _ in range(len(order) - 1))
    release = {v: rng.randint(0, max_release) for v in order if v != 0}
    return RawPathInstance(tuple(order), lengths, 0, release, None)


def random_canonical_side(n, seed, max_wait=3, max_step=5):
    """Sample a canonical side directly; fast enough for n in the millions."""
    rng = np.random.Generator(np.random.PCG64(seed))
    if n == 0:
        return EMPTY_SIDE
    r = np.cumsum(rng.integers(0, max_wait + 1, size=n))
    tau = np.cumsum(rng.integers(1, max_step + 1, size=n))[::-1]
    return CanonicalSide(
        r=tuple(r.tolist()),
        tau=tuple(tau.tolist()),
        labels=tuple(range(1, n + 1)),
        riders=((),) * n,
    )
