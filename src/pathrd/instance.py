"""Path instance parsing, reduction to canonical sides, and generation.

An instance lives on a simple path with the depot somewhere on it.
Parsing validates the document, orients the path, and records vertices
in path order.  Splitting at the depot gives two independent sides;
each side is sorted by release date and purged of dominated customers
(anyone who can ride along with a later, farther customer), yielding
the canonical form every solver works on: releases nondecreasing,
depot distances strictly decreasing.
"""

import json
import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import (
    MalformedDocument,
    NegativeValue,
    NotAPath,
    UnknownDepot,
)

__all__ = [
    "RawPathInstance",
    "CanonicalSide",
    "GeneralInstance",
    "parse_instance",
    "distances_from_depot",
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
    riders[i] the labels of dominated customers it carries along.
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
        """Original labels served by a route over positions lo..hi inclusive."""
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


def _require(cond, message):
    if not cond:
        raise MalformedDocument(message)


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _is_num(x):
    # JSON has no NaN or Infinity, though Python's decoder accepts them
    return _is_int(x) or (isinstance(x, float) and math.isfinite(x))


def parse_instance(doc):
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


def distances_from_depot(raw):
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


def canonicalize_side(members):
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


def split_at_depot(raw):
    """Split a parsed instance into canonical left and right sides."""
    dist = distances_from_depot(raw)
    pos = raw.order.index(raw.depot)
    left = [(v, raw.release[v], dist[v]) for v in raw.order[:pos]]
    right = [(v, raw.release[v], dist[v]) for v in raw.order[pos + 1 :]]
    return GeneralInstance(canonicalize_side(left), canonicalize_side(right))


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
