"""Exhaustive reference solver and plan validation.

The oracle enumerates every way of cutting each side into contiguous
delivery blocks (contiguity in release order loses no optimal plan),
serializes each candidate with the earliest-ready-first rule, and keeps
the best.  Cost is exponential, so a hard size guard applies; the point
is trustworthy answers on small instances, not speed.
"""

from collections import Counter
from dataclasses import dataclass

from .errors import TooLarge
from .solution import DISTANCE, LEFT, RIGHT, TIME, Route, Solution

__all__ = [
    "OracleResult",
    "Violation",
    "ORACLE_MAX_CUSTOMERS",
    "schedule_min_makespan",
    "oracle_time",
    "oracle_distance",
    "validate_solution",
]

ORACLE_MAX_CUSTOMERS = 14


@dataclass(frozen=True)
class OracleResult:
    """Optimal value (None when infeasible), a witness plan, and the
    number of partition pairs enumerated."""

    value: int | float | None
    solution: Solution | None
    pairs: int


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str


def schedule_min_makespan(specs):
    """Serialize route specs back to back, earliest permissible first.

    specs are (min_dispatch, duration, tag) triples.  Dispatching in
    nondecreasing min_dispatch order minimizes the finish time of a
    single vehicle with ready times; the sort is stable so equal ready
    times keep their given order.  Returns (makespan, [(dispatch, spec)]).
    """
    ordered = sorted(specs, key=lambda s: s[0])
    t = 0
    out = []
    for spec in ordered:
        t = max(t, spec[0])
        out.append((t, spec))
        t += spec[1]
    return t, out


def _compositions(n):
    # one bit per gap between consecutive positions; set bit = cut
    if n == 0:
        yield []
        return
    for mask in range(1 << (n - 1)):
        blocks = []
        lo = 0
        for gap in range(n - 1):
            if mask >> gap & 1:
                blocks.append((lo, gap))
                lo = gap + 1
        blocks.append((lo, n - 1))
        yield blocks


def _specs(side, side_name, blocks):
    out = []
    for lo, hi in blocks:
        # max over the block keeps this correct on sides that were never
        # dominance-reduced; on canonical sides it equals tau[lo]
        duration = 2 * max(side.tau[lo : hi + 1])
        out.append((side.r[hi], duration, (side_name, lo, hi)))
    return out


def _plans(inst):
    """Every partition pair of the two sides, as (makespan, schedule,
    specs) with the routes serialized by schedule_min_makespan; an empty
    side has one partition, so there is always a pair."""
    total = inst.left.n + inst.right.n
    if total > ORACLE_MAX_CUSTOMERS:
        raise TooLarge(f"{total} customers exceeds the oracle guard of {ORACLE_MAX_CUSTOMERS}")
    for lblocks in _compositions(inst.left.n):
        lspecs = _specs(inst.left, LEFT, lblocks)
        for rblocks in _compositions(inst.right.n):
            specs = lspecs + _specs(inst.right, RIGHT, rblocks)
            yield (*schedule_min_makespan(specs), specs)


def _to_solution(inst, objective, value, scheduled):
    routes = []
    for dispatch, (_, duration, (side_name, lo, hi)) in scheduled:
        side = inst.left if side_name == LEFT else inst.right
        routes.append(
            Route(side_name, lo, hi, dispatch, duration, side.deliveries(lo, hi))
        )
    return Solution(objective, value, tuple(routes))


def oracle_time(inst):
    """Minimize the completion time of the last route by enumeration."""
    best = None
    for pairs, (makespan, sched, _) in enumerate(_plans(inst), 1):
        if best is None or makespan < best:
            best = makespan
            best_sched = sched
    return OracleResult(best, _to_solution(inst, TIME, best, best_sched), pairs)


def oracle_distance(inst, deadline):
    """Minimize total travel subject to finishing by the deadline."""
    best = None
    for pairs, (makespan, sched, specs) in enumerate(_plans(inst), 1):
        if makespan > deadline:
            continue
        total = sum(duration for _, duration, _ in specs)
        if best is None or total < best:
            best = total
            best_sched = sched
    if best is None:
        return OracleResult(None, None, pairs)
    return OracleResult(best, _to_solution(inst, DISTANCE, best, best_sched), pairs)


def validate_solution(inst, solution, deadline=None):
    """Check a plan against its instance; returns a list of Violations.

    Verifies that blocks partition each side, each route delivers its
    block's labels and riders (in any order), dispatches respect
    releases, routes are serialized in order, durations match the
    blocks, the deadline (when given) is met, and the stated value
    agrees with the routes.  Partition plus deliveries means every raw
    customer is served exactly once.
    """
    out = []
    sides = {LEFT: inst.left, RIGHT: inst.right}
    covered = {LEFT: [], RIGHT: []}
    for route in solution.routes:
        side = sides.get(route.side)
        if side is None:
            out.append(Violation("partition", f"unknown side {route.side!r}"))
            continue
        if not (0 <= route.lo <= route.hi < side.n):
            out.append(
                Violation("partition", f"block {route.lo}..{route.hi} out of range on {route.side}")
            )
            continue
        covered[route.side].extend(range(route.lo, route.hi + 1))
        served = side.deliveries(route.lo, route.hi)
        if sorted(route.deliveries) != sorted(served):
            claimed, served = Counter(route.deliveries), Counter(served)
            out.append(
                Violation(
                    "deliveries",
                    f"{route.side} block {route.lo}..{route.hi} misses "
                    f"{(served - claimed).total()} and adds "
                    f"{(claimed - served).total()} deliveries",
                )
            )
        ready = max(side.r[route.lo : route.hi + 1])
        if route.dispatch < ready:
            out.append(
                Violation(
                    "release",
                    f"{route.side} block {route.lo}..{route.hi} dispatched at "
                    f"{route.dispatch}, released {ready}",
                )
            )
        want = 2 * max(side.tau[route.lo : route.hi + 1])
        if route.duration != want:
            out.append(
                Violation(
                    "duration",
                    f"{route.side} block {route.lo}..{route.hi} lasts {route.duration}, "
                    f"expected {want}",
                )
            )
    for side_name, side in sides.items():
        seen = sorted(covered[side_name])
        if seen != list(range(side.n)):
            out.append(
                Violation("partition", f"{side_name} side covers positions {seen}, not 0..{side.n - 1}")
            )
    for prev, route in zip(solution.routes, solution.routes[1:]):
        if route.dispatch < prev.completion:
            out.append(
                Violation(
                    "serialization",
                    f"dispatch at {route.dispatch} before previous return at {prev.completion}",
                )
            )
    finish = solution.routes[-1].completion if solution.routes else 0
    if deadline is not None and finish > deadline:
        out.append(Violation("deadline", f"finished at {finish}, deadline {deadline}"))
    if solution.objective == TIME:
        want = finish
    else:
        want = sum(route.duration for route in solution.routes)
    if solution.value != want:
        out.append(Violation("value", f"stated value {solution.value}, routes give {want}"))
    return out
