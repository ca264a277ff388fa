"""Deterministic input generators for the four benchmark workloads.

Each generator turns a seed into the same bytes every time.  Document
workloads return the JSON text of a path instance whose ``deadline`` is
the time optimum T*, so one document serves both objectives; the
canonical workload hands the solvers a side directly and has no
document.  Every number is an integer, so "feasible at T*, infeasible
at T* - 1" pins T* down exactly.
"""

import json
from dataclasses import dataclass, replace

import numpy as np

from pathrd import (
    GeneralInstance,
    generate_instance,
    random_canonical_side,
    solve_time_2d_minqueue,
    solve_time_linear,
    split_at_depot,
)

# sizes are fixed here, not by the caller, so every run of a workload
# measures the same amount of work
RAW_DENSE_N = 100_000
RAW_UNIFORM_N = 100_000
GRID_N = 300
CANONICAL_N = 300_000

RIDER_SHARE = 10  # one rider per this many survivors
UNIFORM_MAX_EDGE = 10
UNIFORM_MAX_RELEASE = 10**6


@dataclass(frozen=True)
class DenseDocument:
    """A raw-dense document plus what its construction intends:
    survivor_labels[i] is canonical position i and riders_of[i] the
    labels meant to ride on it."""

    text: str
    t_star: int
    survivor_labels: tuple
    riders_of: tuple


def _dump(doc):
    return json.dumps(doc, sort_keys=True)


def _path_document(dist, release, depot_pos, deadline):
    """Vertices at the given depot distances, laid out left to right.

    dist and release list the customers in path order; the depot sits
    before position depot_pos and gets id 0, customers get 1, 2, ...
    in path order.  dist is positive away from the depot on each side.
    """
    n = len(dist)
    ids = list(range(1, depot_pos + 1)) + [0] + list(range(depot_pos + 1, n + 1))
    # signed positions on the line: left customers negative
    pos = [-d for d in dist[:depot_pos]] + [0] + list(dist[depot_pos:])
    rel = list(release[:depot_pos]) + [None] + list(release[depot_pos:])
    vertices = [
        {"id": v} if r is None else {"id": v, "release": r} for v, r in zip(ids, rel)
    ]
    edges = [
        {"u": ids[k], "v": ids[k + 1], "d": pos[k + 1] - pos[k]} for k in range(n)
    ]
    return _dump({"vertices": vertices, "edges": edges, "depot": 0, "deadline": deadline})


def raw_dense(n, seed):
    """One-sided document whose canonical form keeps the n survivors of a
    many-route canonical side, plus about n/10 dominated riders.

    A rider of survivor i is released in [r[i-1], r[i]) (r[-1] = 0) and
    sits nearer than tau[i], so in release order it falls between
    survivors i-1 and i and rides on i.  Survivors whose release equals
    their predecessor's get no riders.
    """
    side = random_canonical_side(n, seed, max_wait=50, max_step=2)
    rng = np.random.Generator(np.random.PCG64([seed, 1]))
    r = np.asarray(side.r)
    tau = np.asarray(side.tau)
    prev = np.concatenate(([0], r[:-1]))
    eligible = np.flatnonzero((r > prev) & (tau > 1))
    hosts = np.sort(rng.choice(eligible, size=min(len(eligible), n // RIDER_SHARE), replace=False))
    rider_r = rng.integers(prev[hosts], r[hosts])
    rider_tau = rng.integers(1, tau[hosts])

    dist = np.concatenate((tau, rider_tau))
    release = np.concatenate((r, rider_r))
    order = np.argsort(dist, kind="stable")
    label = np.empty(len(dist), dtype=np.int64)
    label[order] = np.arange(1, len(dist) + 1)
    t_star = solve_time_linear(side)[1].value
    text = _path_document(dist[order].tolist(), release[order].tolist(), 0, t_star)
    riders_of = [[] for _ in range(n)]
    for host, rider in zip(hosts.tolist(), label[n:].tolist()):
        riders_of[host].append(rider)
    return DenseDocument(text, t_star, tuple(label[:n].tolist()), tuple(map(tuple, riders_of)))


def raw_uniform(n, seed):
    """``generate_instance(0, n, ...)`` with T* attached: depot at an end,
    releases uniform over a wide range, so only the ~ln n records of a
    random sequence survive canonicalization.  Returns (text, T*)."""
    raw = generate_instance(0, n, UNIFORM_MAX_EDGE, UNIFORM_MAX_RELEASE, seed)
    t_star = solve_time_linear(split_at_depot(raw).right)[1].value
    return _dump(replace(raw, deadline=t_star).to_document()), t_star


def grid_2d(n, seed):
    """Interior depot with a many-route canonical side of n customers on
    each hand, so the 2-D solvers sweep a full (n+1)^2 table.
    Returns (text, T*)."""
    left = random_canonical_side(n, 2 * seed, max_wait=50, max_step=2)
    right = random_canonical_side(n, 2 * seed + 1, max_wait=50, max_step=2)
    t_star = solve_time_2d_minqueue(GeneralInstance(left, right))[1].value
    # left canonical position 0 is the far end; right runs near to far
    dist = list(left.tau) + list(right.tau[::-1])
    release = list(left.r) + list(right.r[::-1])
    return _path_document(dist, release, n, t_star), t_star


def canonical_default(n, seed):
    """The side ``pathrd bench`` and the scaling gate use."""
    return random_canonical_side(n, seed)
