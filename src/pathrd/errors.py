"""Exception types shared across the package."""


class PathrdError(Exception):
    """Base class for errors raised by this package."""


class MalformedDocument(PathrdError):
    """Instance document is not valid JSON or is missing required fields."""


class NotAPath(PathrdError):
    """Instance graph is not a single simple path."""


class UnknownDepot(PathrdError):
    """Depot id does not name a vertex of the instance."""


class NegativeValue(PathrdError):
    """A release date, edge length, or deadline is negative."""


class OutOfRange(PathrdError):
    """A number of the instance exceeds the admissible magnitude."""


class Infeasible(PathrdError):
    """No dispatch plan completes by the deadline.  trace is the distance
    solver's table, as a feasible solve returns it: the suffixes that could."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class TooLarge(PathrdError):
    """Instance exceeds the exhaustive oracle's size guard."""
