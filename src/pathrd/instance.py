"""Path instance parsing, reduction to canonical sides, and generation.

An instance lives on a simple path with the depot somewhere on it.
Parsing validates the document, orients the path, and records vertices
in path order.  Splitting at the depot gives two independent sides;
each side is sorted by release date and purged of dominated customers
(anyone who can ride along with a later, farther customer), yielding
the canonical form every solver works on: releases nondecreasing,
depot distances strictly decreasing.

Parsing takes one of two paths.  A document whose edges as listed
chain along its vertex ids, as every generated and benchmark document's
do, is parsed in a few list-wide passes: the chain test on the endpoint
labels, type and sign checks over whole lists, and one dict of
releases.  Any other document, broken ones included, is checked item by
item, one pass per list, and walked from one end over per-vertex
neighbour lists.  The reduction is a sort in lexsort's order (on a long
integer side, two plain sorts of unique keys) plus a running maximum in
numpy, and Python loops only over the survivors that carry riders.
numpy only computes positions; every number in the result is the
document's own object, and a side builds its arrays
(CanonicalSide.arrays) from those numbers on first use.
"""

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, islice, repeat
from operator import itemgetter

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
    edge lengths), so an int stays an int and a float a float; the
    scalar loops index them.  arrays is the same numbers in numpy, for
    the solvers' numpy steps.
    """

    r: tuple
    tau: tuple
    labels: tuple[int, ...]
    riders: tuple[tuple[int, ...], ...]

    @cached_property
    def arrays(self):
        """(np.asarray(r), np.asarray(tau)), read-only, in numpy's own
        dtypes: int64 for admissible ints, float64 once a float takes
        part or when empty.  Built once, on first use, unless
        random_canonical_side handed over the arrays it drew."""
        return _with_arrays(self, np.asarray(self.r), np.asarray(self.tau)).arrays

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


def _with_arrays(side, r, tau):
    """side, its arrays set to read-only views of r and tau, which must
    equal np.asarray of its tuples in dtype and value.  They go where
    cached_property keeps its value, outside ==, hash and repr, and
    dataclasses.replace does not carry them over."""
    views = r.view(), tau.view()
    for view in views:
        view.flags.writeable = False
    vars(side)["arrays"] = views
    return side


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


def table_dtype(*sides, deadline=0):
    """The dtype of the solvers' tables: int64 unless a float takes part,
    read off the sides' arrays and the deadline.  An empty side adds
    nothing, so an empty side (whose arrays are float64) leaves integer
    tables integer."""
    dtypes = [a.dtype for side in sides if side.n for a in side.arrays]
    return np.result_type(np.int64, np.asarray((deadline,)).dtype, *dtypes)


def _require(cond, message):
    if not cond:
        raise MalformedDocument(message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x):
    # JSON has no NaN or Infinity, though Python's decoder accepts them
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def _admit(value, what):
    """value, if a lone number such as a deadline may take it: an int or
    finite float (no bool), else MalformedDocument; not negative, else
    NegativeValue; at most MAX_MAGNITUDE, else OutOfRange."""
    _require(_is_num(value), f"{what} must be a number")
    if value < 0:
        raise NegativeValue(f"{what} is negative")
    if value > MAX_MAGNITUDE:
        raise OutOfRange(f"{what} {value} exceeds 2**53")
    return value


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


_ABSENT = object()


def _chained(verts, edges, depot):
    """(order, lengths, release, ds) of a document that passes every check
    parse_instance makes before the deadline and whose edges as listed
    chain, each edge's v the next one's u, over its vertex ids; else
    None, and _general checks and walks the document.

    The chain is tested on the endpoint labels themselves, so the path is
    the first u followed by every v, edge k being step k, reversed when
    it does not start where _general's walk would.  It must list the
    vertex ids in order, in reverse, or failing both as the same set of
    n distinct ids; then there are no unknown endpoints, self-loops or
    vertices of degree 0 or 3, and no per-item check is needed.  Types
    are checked before labels are compared, since True == 1 == 1.0.
    """
    n = len(verts)
    if not (isinstance(edges, list) and len(edges) == n - 1 > 0 and type(depot) is int):
        return None
    try:
        # dict's own methods refuse an item that is no dict
        ids = list(map(dict.__getitem__, verts, repeat("id")))
        us = list(map(dict.__getitem__, edges, repeat("u")))
        vs = list(map(dict.__getitem__, edges, repeat("v")))
        ds = list(map(dict.__getitem__, edges, repeat("d")))
    except (KeyError, TypeError):
        return None
    if not (_only(ids, int) and _only(us, int) and _only(vs, int) and us[1:] == vs[:-1]):
        return None
    path = us[:1] + vs
    # releases keyed in vertex order, as the general path keys them
    release = dict(zip(ids, map(dict.get, verts, repeat("release"), repeat(_ABSENT))))
    if not (len(release) == n and depot in release):
        return None
    if not (path == ids or path == ids[::-1] or release.keys() == set(path)):
        return None
    own = release.pop(depot)
    if not (
        _plain_numbers(release.values())
        and _plain_numbers(ds)
        and (own is _ABSENT or _plain_numbers((own,)))
    ):
        return None
    ends = path[0], path[-1]
    lengths = ds
    if path[0] != (depot if depot in ends else min(ends)):
        path.reverse()
        lengths = ds[::-1]
    return tuple(path), tuple(lengths), release, ds


def _check_magnitude(releases, lengths, customers):
    """Raise OutOfRange unless largest release + 2 * customers * total
    edge length is at most MAX_MAGNITUDE: for a document in
    parse_instance, one side in canonicalize_side, and in the CLI the
    worst instance generate or crosscheck could draw.  A deadline is a
    lone number, which _admit bounds."""
    top = max(releases, default=0)
    # compared on its own first: the sum rounds once a float takes part
    if top <= MAX_MAGNITUDE:
        top += 2 * customers * sum(lengths)
    if top > MAX_MAGNITUDE:
        raise OutOfRange("largest release + 2 * customers * total edge length exceeds 2**53")


def parse_instance(doc):
    """Parse a JSON document (text or decoded dict) into a RawPathInstance.

    Raises MalformedDocument, NotAPath, UnknownDepot, NegativeValue, or
    OutOfRange when the numbers exceed MAX_MAGNITUDE (see
    _check_magnitude, and _admit for the deadline).  _chained takes a
    valid document whose edges chain along its vertex ids, checking
    whole lists at once; everything else, broken documents included,
    goes through _general, which checks item by item and names the
    first offending item, so errors and their order do not depend on
    which path looked first.
    """
    if isinstance(doc, (str, bytes, bytearray)):
        try:
            doc = json.loads(doc)
        except ValueError as exc:
            raise MalformedDocument(f"invalid JSON: {exc}") from None
    _require(isinstance(doc, dict), "document must be a JSON object")
    for key in ("vertices", "edges", "depot"):
        _require(key in doc, f"missing {key!r}")

    verts, edges, depot = doc["vertices"], doc["edges"], doc["depot"]
    _require(isinstance(verts, list) and verts, "vertices must be a nonempty array")
    chained = _chained(verts, edges, depot)
    if chained is None:
        order, lengths, release, ds, deadline = _general(doc, verts, edges, depot)
    else:
        order, lengths, release, ds = chained
        deadline = _deadline(doc)
    _check_magnitude(release.values(), ds, len(order) - 1)
    return RawPathInstance(order, lengths, depot, release, deadline)


def _deadline(doc):
    deadline = doc.get("deadline")
    return deadline if deadline is None else _admit(deadline, "deadline")


def _general(doc, verts, edges, depot):
    """parse_instance's checks, item by item in the order the items are
    listed, and its walk, for any document; returns (order, lengths,
    release, ds, deadline), ds the lengths as listed."""
    index, release = {}, {}
    for item in verts:
        _require(isinstance(item, dict) and "id" in item, "each vertex needs an 'id'")
        vid = item["id"]
        _require(_is_int(vid), f"vertex id must be an integer, got {vid!r}")
        _require(vid not in index, f"duplicate vertex id {vid}")
        index[vid] = len(index)
        if "release" in item:
            rel = item["release"]
            _require(_is_num(rel), f"release of vertex {vid} must be a number")
            if rel < 0:
                raise NegativeValue(f"release of vertex {vid} is negative")
            release[vid] = rel
    ids = list(index)
    n = len(ids)

    _require(_is_int(depot), "depot must be an integer id")
    if depot not in index:
        raise UnknownDepot(f"depot {depot} is not a vertex")
    release.pop(depot, None)
    if len(release) != n - 1:
        vid = next(v for v in ids if v != depot and v not in release)
        raise MalformedDocument(f"customer {vid} has no release date")

    _require(isinstance(edges, list), "edges must be an array")
    # nbrs[k] holds (position of the other end, length) per edge at ids[k]
    nbrs = [[] for _ in ids]
    ds = []
    for item in edges:
        _require(isinstance(item, dict) and {"u", "v", "d"} <= item.keys(), "each edge needs u, v, d")
        u, v, d = item["u"], item["v"], item["d"]
        _require(_is_int(u) and _is_int(v), "edge endpoints must be integer ids")
        _require(_is_num(d), "edge length must be a number")
        if d < 0:
            raise NegativeValue(f"edge {u}-{v} has negative length")
        if u == v:
            raise NotAPath(f"self-loop at vertex {u}")
        a, b = index.get(u), index.get(v)
        if a is None or b is None:
            raise NotAPath(f"edge {u}-{v} references an unknown vertex")
        nbrs[a].append((b, d))
        nbrs[b].append((a, d))
        ds.append(d)
    if len(edges) != n - 1:
        raise NotAPath(f"a path on {n} vertices needs {n - 1} edges, got {len(edges)}")
    if n > 1:
        for vid, at in zip(ids, nbrs):
            if not at:
                raise NotAPath(f"vertex {vid} is isolated")
            if len(at) > 2:
                raise NotAPath(f"vertex {vid} has degree {len(at)}")

    deadline = _deadline(doc)
    if n == 1:
        return (depot,), (), release, ds, deadline
    ends = [k for k, at in enumerate(nbrs) if len(at) == 1]
    if len(ends) != 2:
        raise NotAPath("graph is not a single simple path")
    # from the depot when it is an endpoint, otherwise from the
    # smaller-labeled endpoint
    start = index[depot]
    if len(nbrs[start]) != 1:
        start = min(ends, key=ids.__getitem__)
    order, lengths = [ids[start]], []
    prev, cur = -1, start
    # degrees are at most 2 and the start has degree 1, so the walk
    # never turns back and stops at the other endpoint
    while True:
        step = next((s for s in nbrs[cur] if s[0] != prev), None)
        if step is None:
            break
        prev, (cur, d) = cur, step
        order.append(ids[cur])
        lengths.append(d)
    if len(order) != n:
        raise NotAPath("graph is disconnected")
    return tuple(order), tuple(lengths), release, ds, deadline


def _depths(lengths):
    """Depot distances of the vertices reached over the given edge
    lengths, summed left to right from 0 as the walk goes out."""
    return list(islice(accumulate(lengths, initial=0), 1, None))


def _canonical(labels, r, tau):
    """The canonical side of customers labels[k], released at r[k] at
    depot distance tau[k].

    numpy only finds indices (_release_order sorts): r, tau and labels
    of the result are gathered from the given sequences, so each number
    keeps its type; within MAX_MAGNITUDE, float64 keys compare them
    exactly.  Gathers are single itemgetter calls, and the one Python
    loop runs once per survivor that carries riders, each pack a slice
    of the rider labels.
    """
    n = len(labels)
    if n == 0:
        return EMPTY_SIDE
    tau_key = np.asarray(tau)
    perm = _release_order(np.asarray(r), tau_key)
    far = tau_key[perm]
    # a customer survives when everyone after it in that order is nearer
    later = np.maximum.accumulate(far[::-1])[::-1]
    keep = np.ones(n, dtype=bool)
    keep[:-1] = far[:-1] > later[1:]
    kept = np.flatnonzero(keep)
    surv = perm[kept].tolist()
    riders = [()] * len(surv)
    if len(surv) < n:
        # the customers between two survivors in that order ride on the
        # later one, so each survivor j with gap[j] > 0 takes the next
        # gap[j] rider labels
        rider_labels = _gather(labels, perm[~keep].tolist())
        gap = np.diff(kept, prepend=-1) - 1
        hosts = np.flatnonzero(gap)
        ends = np.cumsum(gap[hosts])
        for j, start, end in zip(hosts.tolist(), (ends - gap[hosts]).tolist(), ends.tolist()):
            riders[j] = rider_labels[start:end]
    return CanonicalSide(
        r=_gather(r, surv),
        tau=_gather(tau, surv),
        labels=_gather(labels, surv),
        riders=tuple(riders),
    )


def _gather(values, at):
    """tuple(values[k] for k in at), k a position or, for a dict, a key."""
    if len(at) < 2:
        # itemgetter of one position returns the item itself
        return tuple(map(values.__getitem__, at))
    return itemgetter(*at)(values)


# below this many customers lexsort is as fast, and a side that short
# does not pay for loading numpy's vectorized sort (~0.3 MB of code)
_UNIQUE_KEY_SORT_FROM = 2048


def _release_order(r, tau):
    """np.lexsort((-tau, r)): positions by release, farther first on
    ties, input order on full ties.

    Where both keys are int64, none negative and key * n + n fits int64,
    key * n + position is unique, so an unstable np.sort of it, modulo
    n, is the stable argsort of the key.  Two of those, farther first
    and then by release, give lexsort's order 3-4 times faster on a
    long side.
    """
    n = len(r)
    bound = (np.iinfo(np.int64).max - n) // n
    if not (
        n >= _UNIQUE_KEY_SORT_FROM
        and r.dtype == tau.dtype == np.int64
        and min(r.min(), tau.min()) >= 0
        and max(r.max(), tau.max()) <= bound
    ):
        return np.lexsort((-tau, r))
    at = np.arange(n)
    by_far = np.sort((tau.max() - tau) * n + at) % n
    return by_far[np.sort(r[by_far] * n + at) % n]


def canonicalize_side(members):
    """Reduce (label, release, tau) triples on one side to canonical form.

    Customers are sorted by release (farther first on ties); a customer
    is dropped when someone at least as far is released no earlier, and
    rides along with the nearest such survivor.  Raises
    MalformedDocument on a member that is no tuple or list of three,
    then on a label that is no int (bools included) or that repeats,
    then on a release or depot distance that is no finite int or float;
    NegativeValue; or OutOfRange beyond parse_instance's bound, largest
    tau standing for the total edge length.
    """
    members = list(members)
    if not members:
        return EMPTY_SIDE
    for k, m in enumerate(members):
        if not (isinstance(m, (tuple, list)) and len(m) == 3):
            raise MalformedDocument(f"member {k} is not a (label, release, tau) triple")
    labels, r, tau = zip(*members)
    for k, label in enumerate(labels):
        if not _is_int(label):
            raise MalformedDocument(f"label of member {k} must be an integer, got {label!r}")
    if len(set(labels)) < len(labels):
        label = next(label for label, count in Counter(labels).items() if count > 1)
        raise MalformedDocument(f"label {label} repeats")
    if not all(map(_is_num, r + tau)):
        raise MalformedDocument("a release or depot distance is not a finite number")
    if min(r) < 0 or min(tau) < 0:
        raise NegativeValue("a release or depot distance is negative")
    _check_magnitude(r, (max(tau),), len(labels))
    return _canonical(labels, r, tau)


def split_at_depot(raw):
    """Split a parsed instance into canonical left and right sides.

    Each side lists its customers in path order, so ties in release and
    distance keep that order.
    """
    pos = raw.order.index(raw.depot)
    left, right = raw.order[:pos], raw.order[pos + 1 :]
    return GeneralInstance(
        _canonical(left, _gather(raw.release, left), _depths(reversed(raw.lengths[:pos]))[::-1]),
        _canonical(right, _gather(raw.release, right), _depths(raw.lengths[pos:])),
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
    side = CanonicalSide(
        r=tuple(r.tolist()),
        tau=tuple(tau.tolist()),
        labels=tuple(range(1, n + 1)),
        riders=((),) * n,
    )
    return _with_arrays(side, r, tau)
