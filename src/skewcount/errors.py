"""Exception types shared across the library, and the one place a cap is enforced."""

import sys
from typing import Callable


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


class _Enough(Exception):
    """Raised by a visitor that has every leaf it wants: the walk ends there."""


def drive(walk: Callable[[Callable], None], visit: Callable) -> None:
    """Run ``walk(visit)``: the one place a search is run.

    A search is a walk that calls ``visit(leaf)`` at each of its leaves in
    order. The searches recurse once per lozenge, path step or row, so a walk
    too deep for Python's recursion limit raises the one-line ShapeError here.
    """
    try:
        walk(visit)
    except _Enough:
        pass
    except RecursionError:
        raise _too_deep() from None


def take_leaves(walk: Callable, take: Callable, cap: int | None, stop: int | None = None) -> int:
    """Call ``take(leaf)`` at the walk's leaves 0, ..., stop - 1, in walk order,
    and return how many it took. The walk ends at leaf stop - 1 (``None``: at
    its own end), so no leaf past it is searched for, and leaf cap + 1 raises
    CapExceededError in its place. ``None`` means no cap."""
    taken = 0

    def visit(leaf) -> None:
        nonlocal taken
        if taken == cap:
            raise CapExceededError(cap)
        take(leaf)
        taken += 1
        if taken == stop:
            raise _Enough

    if stop != 0:
        drive(walk, visit)
    return taken


def count_leaves(walk: Callable, cap: int | None) -> int:
    """Number of leaves the walk visits, through :func:`take_leaves`'s cap."""
    return take_leaves(walk, lambda leaf: None, cap)


def list_leaves(walk: Callable, build: Callable, cap: int | None) -> list:
    """``build(leaf)`` for each of the walk's leaves, through :func:`take_leaves`'s cap."""
    items = []
    take_leaves(walk, lambda leaf: items.append(build(leaf)), cap)
    return items


def _too_deep() -> ShapeError:
    return ShapeError(
        f"shape too large to search: deeper than Python's recursion limit "
        f"of {sys.getrecursionlimit()}"
    )


def check_depth(depth: int) -> None:
    """Raise :func:`drive`'s too-deep ShapeError up front for a search this deep."""
    if depth > sys.getrecursionlimit():
        raise _too_deep()


# Sizes past which a route refuses a shape before it allocates for it. A region
# costs about 330 B a lozenge, and at 200,000 lozenges `render --path` already
# takes about 7 s and writes 34 MB; `dp` sweeps a row of width + 1 ints per row.
# `det` and `gv_det` build n^2 matrix entries; `count` of 3,162 rows of 1 takes 3 s, 94 MB.
MAX_REGION_LOZENGES = 200_000
MAX_DP_CELLS = 10_000_000
MAX_MATRIX_ENTRIES = 10_000_000


def check_size(size: int, limit: int, unit: str) -> None:
    """Raise ShapeError, naming both numbers, if size is past limit."""
    if size > limit:
        raise ShapeError(f"shape too large: {format_count(size)} {unit}, past the limit of {limit}")


def format_count(count: int) -> str:
    """A count in decimal, every digit: past the digits ``str`` converts (4,300
    where the interpreter has a limit), its halves are written apart."""
    try:
        return str(count)
    except ValueError:
        half = count.bit_length() * 3 // 20  # about half the digits: log10(2) > 0.3
        high, low = divmod(count, 10**half)
        return format_count(high) + format_count(low).zfill(half)


class MalformedFamilyError(SkewCountError, ValueError):
    """A rhombus-path family does not have the structure an operation requires."""


class InvariantError(SkewCountError, RuntimeError):
    """Internal invariant violation: a result breaks a property the math guarantees.

    Raised in place of ``assert`` so that the check also runs under ``python -O``.
    """
