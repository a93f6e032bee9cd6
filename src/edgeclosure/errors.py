"""Exception hierarchy shared across the package, and the wall-clock check.

The errors of a wrong argument value also derive from ValueError, so a
caller that catches ValueError for a wrong value catches them too.
"""
from __future__ import annotations

import time


class EdgeClosureError(Exception):
    """Base class for all errors raised by this package."""


class DimensionMismatchError(EdgeClosureError, ValueError):
    """Vectors or certificates with incompatible lengths."""


class ZeroIdealError(EdgeClosureError, ValueError):
    """Operation requires a nonzero ideal (at least one generator)."""


class UnitIdealError(EdgeClosureError, ValueError):
    """Operation rejects the unit ideal (zero-vector generator)."""


class GraphFormatError(EdgeClosureError):
    """Invalid graph JSON; the message carries the offending position."""


class InfeasibleInstanceError(EdgeClosureError, ValueError):
    """Path-cover instance violates its inequality system."""


class ResourceCapError(EdgeClosureError):
    """A configured resource cap (lattice volume, nodes, wall clock) was hit."""


def check_deadline(deadline: float | None) -> None:
    """Raise ResourceCapError once the monotonic clock passes `deadline`."""
    if deadline is not None and time.monotonic() > deadline:
        raise ResourceCapError("wall-clock cap exceeded")
