"""Partitions, skew shapes, and the text that names them.

A skew shape pairs an outer partition with a contained inner one. With x
eastward, y upward and row n at the bottom, a monotone path from the
southwestern corner (0, 0) to the northeastern corner (width, n) lies in the
shape iff each north step, read bottom-up, is within its row's inner and
outer parts: :meth:`SkewShape.north_step_bounds`.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple

from .errors import (
    NegativePartError,
    NonMonotoneError,
    NotContainedError,
    ShapeError,
    clip,
)

# README's integer grammar: ASCII digits with whitespace around them and an
# optional leading "-"; int() alone would also take "1_0", "+3" and other scripts
_INTEGER = re.compile(r"\s*(-?[0-9]+)\s*")


def parse_integer(text: str, what: str, low: int) -> int:
    """Read a shape part, or a CLI flag or variable, as an int at least `low`.

    The only reader of outside text as an int; its one-line ShapeError names
    `what` and echoes the text through :func:`clip`.
    """
    match = _INTEGER.fullmatch(text)
    if match is None:
        raise ShapeError(f"{what} must be an integer, got {clip(repr(text))}")
    digits = match.group(1)
    try:
        value = int(digits)
    except ValueError:  # more digits than int() converts
        raise ShapeError(f"{what} of {len(digits.lstrip('-'))} digits is too long") from None
    if value < low:
        raise ShapeError(f"{what} must be at least {low}, got {value}")
    return value


class Partition(tuple):
    """Weakly decreasing tuple of nonnegative parts; trailing zeros are trimmed."""

    __slots__ = ()

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        if type(parts) is cls:  # already checked and trimmed
            return parts
        parts = tuple(parts)
        for i, p in enumerate(parts, 1):
            # no coercion: int() would take 2.5, "3" or True and count a different shape
            if type(p) is not int:
                raise ShapeError(f"partition part {clip(repr(p))} is not an int")
            if p < 0:
                raise NegativePartError(f"part {i} ({p}) is negative")
        for i, (a, b) in enumerate(zip(parts, parts[1:]), 1):
            if b > a:
                raise NonMonotoneError(f"part {i + 1} ({b}) is larger than part {i} ({a})")
        # weakly decreasing and nonnegative, so its zeros are the trailing parts
        return super().__new__(cls, parts[: len(parts) - parts.count(0)])

    @property
    def size(self) -> int:
        """Total number of cells."""
        return sum(self)

    @property
    def width(self) -> int:
        """First (largest) part, 0 for the empty partition."""
        return self[0] if self else 0

    def part(self, i: int) -> int:
        """0-based part access, zero-padded beyond the last part."""
        return self[i] if 0 <= i < len(self) else 0


class SkewShape(NamedTuple("SkewShape", [("outer", Partition), ("inner", Partition)])):
    """A pair of partitions inner ⊆ outer; rows are counted by the outer one."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, outer: Iterable[int], inner: Iterable[int] = ()) -> "SkewShape":
        outer, inner = Partition(outer), Partition(inner)
        if len(inner) > len(outer):
            raise NotContainedError(
                f"inner partition has {len(inner)} rows, outer has {len(outer)}"
            )
        for i in range(len(inner)):
            if inner[i] > outer[i]:
                raise NotContainedError(
                    f"row {i + 1}: inner part {inner[i]} exceeds outer {outer[i]}"
                )
        return super().__new__(cls, outer, inner)

    @property
    def n(self) -> int:
        """Row count: the number of nonzero outer parts."""
        return len(self.outer)

    @property
    def m(self) -> int:
        """Cell count of the skew diagram."""
        return self.outer.size - self.inner.size

    @property
    def width(self) -> int:
        return self.outer.width

    def north_step_bounds(self) -> tuple[tuple[int, int], ...]:
        """Per-north-step (lo, hi) x-bounds, bottom-up: step k is row n-k+1."""
        n = self.n
        return tuple(
            (self.inner.part(n - k), self.outer.part(n - k)) for k in range(1, n + 1)
        )


def parse_shape(text: str) -> SkewShape:
    """Parse ``parts ( "/" parts )?`` with comma-separated decimal parts.

    ``"9,7,6,2/3,1"`` is outer/inner; a missing "/inner" means the empty
    inner partition. A lone "0" denotes the empty partition. Each part is
    one or more ASCII digits, with optional whitespace around it; signs,
    underscores and other digit scripts are rejected.
    """

    def parse_parts(chunk: str, label: str) -> Partition:
        parts = [parse_integer(t, f"{label} part", 0) for t in chunk.split(",")]
        if "-" in chunk:  # a "-0": the integer grammar takes a sign, a shape part does not
            raise ShapeError(f"{label} part takes no sign")
        return Partition(parts)

    pieces = text.split("/")
    if len(pieces) > 2:
        raise ShapeError("more than one '/' in the shape")
    outer = parse_parts(pieces[0], "outer")
    inner = parse_parts(pieces[1], "inner") if len(pieces) == 2 else Partition()
    return SkewShape(outer, inner)


def format_shape(shape: SkewShape) -> str:
    """Canonical text: outer parts, then "/inner" unless the inner is empty."""
    outer = ",".join(str(p) for p in shape.outer) or "0"
    if not len(shape.inner):
        return outer
    return outer + "/" + ",".join(str(p) for p in shape.inner)


def partitions_in_box(rows: int, cols: int) -> list[tuple[int, ...]]:
    """All partitions with at most `rows` parts, each at most `cols`, sorted."""
    return subpartitions((cols,) * rows)


def subpartitions(outer: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions contained in `outer`, sorted.

    A depth-first walk with an explicit stack, so a tall `outer` is no deeper
    than a short one; each prefix comes before its extensions and smaller
    next parts before larger ones, which is sorted order.
    """
    outer = tuple(outer)
    out: list[tuple[int, ...]] = []
    stack: list[tuple[int, ...]] = [()]
    while stack:
        prefix = stack.pop()
        out.append(prefix)
        i = len(prefix)
        if i < len(outer):
            limit = min(outer[i], prefix[-1]) if prefix else outer[0]
            # pushed largest first, so the smallest is popped first
            stack.extend(prefix + (p,) for p in range(limit, 0, -1))
    return out
