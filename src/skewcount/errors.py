"""Exception types shared across the library, and the one place a cap is enforced."""

import sys
from typing import Iterable, Iterator


class SkewCountError(Exception):
    """Base class for all skewcount errors."""


class ShapeError(SkewCountError, ValueError):
    """Invalid user input: a partition, a skew shape, path steps or a usage error."""


class NonMonotoneError(ShapeError):
    """Partition parts are not weakly decreasing."""


class NegativePartError(ShapeError):
    """A partition part is negative."""


class NotContainedError(ShapeError):
    """The inner partition is not contained in the outer one."""


class NotAdmissibleError(ShapeError):
    """Path is not contained between the shape's boundary profiles."""


class WrongEndpointsError(NotAdmissibleError):
    """Path endpoints do not match the shape's corners."""


class NotSquareError(SkewCountError, ValueError):
    """Determinant requested for a non-square matrix."""


class CapExceededError(SkewCountError, RuntimeError):
    """An enumeration produced more items than the configured cap."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded cap of {cap} items")
        self.cap = cap

    def __reduce__(self):
        # rebuilt from the cap, not from args (the message), on crossing a process pool
        return type(self), (self.cap,)


def capped(items: Iterable, cap: int | None) -> Iterator:
    """Yield the items, raising CapExceededError in place of item cap + 1.

    Draws from ``items`` only as the caller draws, so a consumer that stops
    early never meets the cap. ``None`` means no cap. The searches recurse
    once per lozenge, path step or row, so a search too deep for Python's
    recursion limit raises ShapeError here, the one place every search is drawn.
    """
    try:
        for i, item in enumerate(items):
            if i == cap:
                raise CapExceededError(cap)
            yield item
    except RecursionError:
        raise _too_deep() from None


def _too_deep() -> ShapeError:
    return ShapeError(
        f"shape too large to search: deeper than Python's recursion limit "
        f"of {sys.getrecursionlimit()}"
    )


def check_depth(depth: int) -> None:
    """Raise :func:`capped`'s too-deep ShapeError up front for a search this deep."""
    if depth > sys.getrecursionlimit():
        raise _too_deep()


# Sizes past which a route refuses a shape before it allocates for it. A region
# costs about 330 B a lozenge, and at 200,000 lozenges `render --path` already
# takes about 7 s and writes 34 MB; `dp` sweeps a row of width + 1 ints per row.
MAX_REGION_LOZENGES = 200_000
MAX_DP_CELLS = 10_000_000


def check_size(size: int, limit: int, unit: str) -> None:
    """Raise ShapeError, naming both numbers, if size is past limit."""
    if size > limit:
        raise ShapeError(f"shape too large: {size} {unit}, past the limit of {limit}")


def count_capped(items: Iterable, cap: int | None) -> int:
    """Number of items, drawn one at a time through :func:`capped` and dropped."""
    return sum(1 for _ in capped(items, cap))


class MalformedFamilyError(SkewCountError, ValueError):
    """A rhombus-path family does not have the structure an operation requires."""


class InvariantError(SkewCountError, RuntimeError):
    """Internal invariant violation: a result breaks a property the math guarantees.

    Raised in place of ``assert`` so that the check also runs under ``python -O``.
    """
