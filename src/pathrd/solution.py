"""Containers for dispatch plans."""

from dataclasses import dataclass

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
