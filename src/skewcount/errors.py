"""Exception types shared across the library, and the one place a cap is enforced."""

from typing import Iterable, Iterator


class SkewCountError(Exception):
    """Base class for all skewcount errors."""


class ShapeError(SkewCountError, ValueError):
    """Invalid partition or skew-shape input (bad grammar included)."""


class NonMonotoneError(ShapeError):
    """Partition parts are not weakly decreasing."""


class NegativePartError(ShapeError):
    """A partition part is negative."""


class NotContainedError(ShapeError):
    """The inner partition is not contained in the outer one."""


class RowOutOfRangeError(SkewCountError, IndexError):
    """Row index outside 1..n."""


class NotSquareError(SkewCountError, ValueError):
    """Determinant requested for a non-square matrix."""


class CapExceededError(SkewCountError, RuntimeError):
    """An enumeration produced more items than the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded cap of {cap} items")
        self.cap = cap


def capped(items: Iterable, cap: int | None) -> Iterator:
    """Yield the items, raising CapExceededError in place of item cap + 1.

    Draws from ``items`` only as the caller draws, so a consumer that stops
    early never meets the cap. ``None`` means no cap.
    """
    if cap is None:
        yield from items
        return
    for i, item in enumerate(items):
        if i == cap:
            raise CapExceededError(cap)
        yield item


def count_capped(items: Iterable, cap: int | None) -> int:
    """Number of items, drawn one at a time through :func:`capped` and dropped."""
    return sum(1 for _ in capped(items, cap))


class WrongEndpointsError(SkewCountError, ValueError):
    """Path endpoints do not match the shape's corners."""


class NotAdmissibleError(SkewCountError, ValueError):
    """Path is not contained between the shape's boundary profiles."""


class MalformedFamilyError(SkewCountError, ValueError):
    """A rhombus-path family does not have the structure an operation requires."""


class InvariantError(SkewCountError, RuntimeError):
    """Internal invariant violation: a result breaks a property the math guarantees.

    Raised in place of ``assert`` so that the check also runs under ``python -O``.
    """


class DegenerateBoundaryError(SkewCountError, RuntimeError):
    """Internal invariant violation: a region boundary walk self-intersects."""


class ComplementNotPairableError(SkewCountError, RuntimeError):
    """Internal invariant violation: leftover triangles do not pair into cells."""


class BadIndexError(SkewCountError, ValueError):
    """Requested item index outside the enumerated range."""
