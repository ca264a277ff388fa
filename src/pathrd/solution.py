"""Dispatch plans: the Route and Solution containers, the two plan walks, and name_side."""

from dataclasses import dataclass, replace

__all__ = ["Route", "Solution", "LEFT", "RIGHT", "TIME", "DISTANCE"]

LEFT = "left"
RIGHT = "right"

TIME = "time"
DISTANCE = "distance"


@dataclass(frozen=True)
class Route:
    """One round trip from the depot.

    lo and hi are 0-based positions into the canonical side arrays,
    inclusive on both ends.  The vehicle leaves at dispatch, serves the
    block, and is back after duration time units.  deliveries lists the
    original vertex labels served, dominated customers included.
    """

    side: str
    lo: int
    hi: int
    dispatch: int | float
    duration: int | float
    deliveries: tuple[int, ...]

    @property
    def completion(self):
        return self.dispatch + self.duration


def make_route(label, side, lo, hi, dispatch):
    """The route that serves canonical positions lo..hi of side, leaving
    at dispatch: a round trip to its farthest customer, tau[lo].  A
    nonempty block is also what makes every plan reconstruction end."""
    assert lo <= hi, f"empty block {lo}..{hi}"
    return Route(label, lo, hi, dispatch, 2 * side.tau[lo], side.deliveries(lo, hi))


@dataclass(frozen=True)
class Solution:
    """A full plan: routes in dispatch order plus the objective value."""

    objective: str
    value: int | float
    routes: tuple[Route, ...]


def name_side(label, plan=None):
    """A right-only plan with its routes on side label: plan itself for
    RIGHT, a copy for LEFT; any other label raises ValueError, plan or none."""
    if label not in (LEFT, RIGHT):
        raise ValueError(f"side {label!r} is neither {LEFT!r} nor {RIGHT!r}")
    if label == LEFT and plan is not None:
        return replace(plan, routes=tuple(replace(r, side=LEFT) for r in plan.routes))
    return plan


def time_solution(left, right, c, pred):
    """The plan of a completion-time table c[i][j], walking pred back
    from the full state; the value is c[n_l][n_r].  Every table writes a
    move one way: None where no route ends or leaves, a bare w for a
    RIGHT route and (LEFT, w) for a left one, so a 1-D trace is one row
    with an EMPTY_SIDE left.  A route leaves once the vehicle is back and
    its block is released, max(prev, r) written out."""
    i = left.n
    j = right.n
    rev = []
    while i or j:
        w = pred[i][j]
        if w.__class__ is tuple:
            w = w[1]
            prev, r = c[w][j], left.r[i - 1]
            rev.append(make_route(LEFT, left, w, i - 1, prev if prev >= r else r))
            i = w
            continue
        prev, r = c[i][w], right.r[j - 1]
        rev.append(make_route(RIGHT, right, w, j - 1, prev if prev >= r else r))
        j = w
    rev.reverse()
    return Solution(TIME, c[left.n][right.n], tuple(rev))


def distance_solution(left, right, lam, succ):
    """The plan of a latest-dispatch table lam[p][q], walking succ
    forward from the origin, with moves as in time_solution.  The value
    sums the durations: deadline - lam[0][0] exactly on integer data,
    and consistent with the routes on floats too."""
    p = 0
    q = 0
    nl = left.n
    nr = right.n
    routes = []
    while p < nl or q < nr:
        w = succ[p][q]
        dispatch = lam[p][q]
        if w.__class__ is tuple:
            w = w[1]
            routes.append(make_route(LEFT, left, p, w - 1, dispatch))
            p = w
            continue
        routes.append(make_route(RIGHT, right, q, w - 1, dispatch))
        q = w
    value = sum(route.duration for route in routes)
    return Solution(DISTANCE, value, tuple(routes))
