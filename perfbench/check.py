"""Correctness checks on the reports the timed cases write.

The benchmark never trusts a timed answer: each report is read back
and held against the problem's definition.  A check returns a list of
problems; an empty list means the operation succeeded.
"""

from collections import Counter

from pathrd import Route, Solution, validate_solution
from pathrd.solution import DISTANCE, LEFT, RIGHT, TIME


def _solution(report):
    routes = tuple(
        Route(
            side=item["side"],
            lo=item["lo"],
            hi=item["hi"],
            dispatch=item["dispatch"],
            duration=item["duration"],
            deliveries=tuple(item["deliveries"]),
        )
        for item in report["routes"]
    )
    return Solution(report["objective"], report["value"], routes)


def delivery_problems(inst, customers, solution):
    """Each route delivers its block's labels plus their riders, and the
    plan serves every raw customer exactly once.

    ``validate_solution`` ignores ``deliveries``, so this is the only
    check that a report names the right customers.
    """
    sides = {LEFT: inst.left, RIGHT: inst.right}
    out = []
    for route in solution.routes:
        side = sides.get(route.side)
        if side is None or not 0 <= route.lo <= route.hi < side.n:
            continue  # validate_solution reports the bad block
        if route.deliveries != side.deliveries(route.lo, route.hi):
            out.append(f"{route.side} block {route.lo}..{route.hi} delivers the wrong labels")
    served = Counter(label for route in solution.routes for label in route.deliveries)
    missing = customers - served.keys()
    extra = served.keys() - customers
    repeated = sum(1 for count in served.values() if count > 1)
    if missing or extra or repeated:
        out.append(
            f"deliveries miss {len(missing)}, invent {len(extra)} "
            f"and repeat {repeated} customers"
        )
    return out


def report_problems(inst, customers, report, objective, t_star):
    """Problems with one solve report.

    The time report must state T* and the distance report must be
    optimal at deadline T*; both plans must validate and deliver every
    customer once.  With distance infeasible at T* - 1, which the
    harness checks once per document, this proves the time value
    optimal on integer data.
    """
    try:
        if report["status"] != "optimal":
            return [f"status {report['status']!r}, expected 'optimal'"]
        if report["objective"] != objective:
            return [f"objective {report['objective']!r}, expected {objective!r}"]
        solution = _solution(report)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed report: {exc!r}"]
    out = []
    if objective == TIME and solution.value != t_star:
        out.append(f"time value {solution.value} != T* {t_star}")
    deadline = t_star if objective == DISTANCE else None
    out.extend(f"{v.kind}: {v.detail}" for v in validate_solution(inst, solution, deadline))
    out.extend(delivery_problems(inst, customers, solution))
    return out

