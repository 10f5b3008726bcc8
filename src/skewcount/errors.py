"""Exception types shared across the library, the driver of the searches and their guards."""

import sys
from typing import Callable, NamedTuple


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
    """A search's dp count, or its walk, passed the cap; only the CLI raises it."""

    def __init__(self, cap: int):
        super().__init__(f"enumeration exceeded cap of {cap} items")
        self.cap = cap

    def __reduce__(self):
        # rebuilt from the cap, not from args (the message), on crossing a process pool
        return type(self), (self.cap,)


class _Enough(Exception):
    """Raised by a visitor that has every leaf it wants: the walk ends there."""


def take_leaves(walk: Callable, take: Callable, stop: int | None = None) -> int:
    """Run ``walk(visit)``, the one place any search runs: call ``take(leaf)`` at
    the walk's leaves 0, ..., stop - 1, in walk order, and return how many it took.
    The walk ends at leaf stop - 1 (``None``: at its own end), so no leaf past it
    is searched for.

    A walk calls ``visit(leaf)`` at each leaf, in order. The leaf is live: the
    walk changes it as it goes on, so a visitor that keeps it must copy it.
    Counting the leaves builds no item.

    The searches recurse once per row, lozenge or row a path crosses, and
    :func:`judge` refuses one too deep before it starts. This catch is the
    backstop for a caller whose own stack is deeper than that guard's
    allowance, ``SEARCH_FRAMES``: its walk raises the same one-line ShapeError.
    """
    taken = 0

    def visit(leaf) -> None:
        nonlocal taken
        take(leaf)
        taken += 1
        if taken == stop:
            raise _Enough

    if stop != 0:
        try:
            walk(visit)
        except _Enough:
            pass
        except RecursionError:
            raise _too_deep() from None
    return taken


def count_leaves(walk: Callable, stop: int | None = None) -> int:
    """Number of leaves the walk visits, up to ``stop`` (see :func:`take_leaves`)."""
    return take_leaves(walk, lambda leaf: None, stop)


def list_leaves(walk: Callable, build: Callable) -> list:
    """``build(leaf)`` for each of the walk's leaves."""
    items = []
    take_leaves(walk, lambda leaf: items.append(build(leaf)))
    return items


def clip(text: str, limit: int = 40) -> str:
    """At most `limit` characters of text echoed into an error line, then "..." if cut."""
    return text if len(text) <= limit else f"{text[:limit]}..."


def _too_large(reason: str) -> ShapeError:
    """Every guard's refusal: a search too deep, or a size past its limit."""
    return ShapeError(f"shape too large{reason}")


def _too_deep() -> ShapeError:
    limit = sys.getrecursionlimit()
    return _too_large(f" to search: deeper than Python's recursion limit of {limit}")


# the frames a search may find on the stack beyond its depth: the CLI's
# deepest listing, families under `python -m`, takes 21 on Python 3.11 with its
# printing, and the rest is slack, so a frame more or less on the way down
# moves no refusal
SEARCH_FRAMES = 32

# a search's cost, read off its shape before it walks: the frames its walk
# takes down to a leaf, and the characters of one item's text, at least
Budget = NamedTuple("Budget", [("depth", int), ("item", int)])


def judge(listing: tuple, cap: int | None = None, items: Callable | None = None, shown: int = 0):
    """A listing's walk and builder once its budget passes, in one order: its depth and
    ``SEARCH_FRAMES`` within the recursion limit, ``items()`` within the cap, then the
    text of ``shown`` items within ``MAX_OUTPUT_CHARS``. The library meets the first."""
    walk, build, budget = listing
    if budget.depth + SEARCH_FRAMES > sys.getrecursionlimit():
        raise _too_deep()
    if cap is not None and items() > cap:
        raise CapExceededError(cap)
    check_size(shown * budget.item, MAX_OUTPUT_CHARS, "output characters")
    return walk, build


# Sizes past which a route refuses a shape before it allocates for it. A region
# costs about 330 B a lozenge, and at 200,000 lozenges `render --path` already
# takes about 7 s and writes 34 MB; `dp` adds m + n counts, which `render --tiling` keeps:
# at 10^9 bits of them, a band three cells wide of 11,170 rows draws in 1.2 s at 117 MB.
# A path is a string of width + n steps, judged as built: 3 of 10,000,002 list in 1.1 s, 34 MB.
# `det` and `gv_det` build n^2 matrix entries; `count` of 3,162 rows of 1 takes 3 s, 94 MB.
# A listing prints each item at its leaf, so its output costs time: 10^8 characters
# take 0.9 s as `enumerate 9999 paths` (15 MB) and 12.5 s as tilings of 30 rows of 30.
MAX_REGION_LOZENGES = 200_000
MAX_DP_CELLS = 10_000_000
MAX_TABLE_BITS = 1_000_000_000
MAX_PATH_STEPS = 20_000_000
MAX_MATRIX_ENTRIES = 10_000_000
MAX_OUTPUT_CHARS = 100_000_000


def check_size(size: int, limit: int, unit: str) -> None:
    """Raise ShapeError, naming both numbers, if size is past limit; the size is
    clipped, so the line keeps its unit and the limit however long the size."""
    if size > limit:
        raise _too_large(f": {clip(format_count(size))} {unit}, past the limit of {limit}")


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
