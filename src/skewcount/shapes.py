"""Partitions, skew shapes, and the boundary profile paths that define containment.

A skew shape pairs an outer partition with a contained inner one. Its two
*profiles* are the monotone boundary paths from the southwestern corner
(0, 0) to the northeastern corner (width, n), with x eastward, y upward and
row n at the bottom; a lattice path lies in the shape iff it runs weakly
between them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator

from .errors import (
    NegativePartError,
    NonMonotoneError,
    NotContainedError,
    ShapeError,
)
from .paths import LatticePath, path_from_north_record

_DIGITS = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative parts; trailing zeros are trimmed."""

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        parts = tuple(self.parts)
        for p in parts:
            # no coercion: int() would take 2.5, "3" or True and count a different shape
            if type(p) is not int:
                raise ShapeError(f"partition part {p!r} is not an int")
            if p < 0:
                raise NegativePartError(f"negative part {p} in {parts}")
        for a, b in zip(parts, parts[1:]):
            if b > a:
                raise NonMonotoneError(f"parts not weakly decreasing: {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    @property
    def size(self) -> int:
        """Total number of cells."""
        return sum(self.parts)

    @property
    def width(self) -> int:
        """First (largest) part, 0 for the empty partition."""
        return self.parts[0] if self.parts else 0

    def part(self, i: int) -> int:
        """0-based part access, zero-padded beyond the last part."""
        return self.parts[i] if 0 <= i < len(self.parts) else 0


@dataclass(frozen=True)
class SkewShape:
    """A pair of partitions inner ⊆ outer; rows are counted by the outer one."""

    outer: Partition
    inner: Partition = Partition()

    def __post_init__(self) -> None:
        outer = self.outer if isinstance(self.outer, Partition) else Partition(tuple(self.outer))
        inner = self.inner if isinstance(self.inner, Partition) else Partition(tuple(self.inner))
        if len(inner) > len(outer):
            raise NotContainedError(
                f"inner partition {inner.parts} has more rows than outer {outer.parts}"
            )
        for i in range(len(inner)):
            if inner.part(i) > outer.part(i):
                raise NotContainedError(
                    f"row {i + 1}: inner part {inner.part(i)} exceeds outer {outer.part(i)}"
                )
        object.__setattr__(self, "outer", outer)
        object.__setattr__(self, "inner", inner)

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


@dataclass(frozen=True)
class ProfilePair:
    """The shape's two boundary paths; both run from (0, 0) to (width, n)."""

    mu_profile: LatticePath
    lambda_profile: LatticePath


def profiles(shape: SkewShape) -> ProfilePair:
    """Boundary profiles of the shape.

    The k-th north step (bottom-up) of the inner profile sits at
    x = inner_{n-k+1}, of the outer profile at x = outer_{n-k+1}; the shape
    is everything weakly between them.
    """
    bounds = shape.north_step_bounds()
    width = shape.width
    return ProfilePair(
        mu_profile=path_from_north_record(tuple(lo for lo, _ in bounds), width),
        lambda_profile=path_from_north_record(tuple(hi for _, hi in bounds), width),
    )


def parse_shape(text: str) -> SkewShape:
    """Parse ``parts ( "/" parts )?`` with comma-separated decimal parts.

    ``"9,7,6,2/3,1"`` is outer/inner; a missing "/inner" means the empty
    inner partition. A lone "0" denotes the empty partition. Each part is
    one or more ASCII digits, with optional whitespace around it; signs,
    underscores and other digit scripts are rejected.
    """

    def parse_parts(chunk: str, label: str) -> Partition:
        items = [t.strip() for t in chunk.split(",")]
        if any(not t for t in items):
            raise ShapeError(f"empty {label} part in {text!r}")
        parts = []
        for t in items:
            # int() alone would also take "1_0", "+3" and non-ASCII digits
            if not _DIGITS.fullmatch(t):
                raise ShapeError(
                    f"bad {label} part {t!r} in {text!r}: parts are ASCII digits 0-9"
                )
            try:
                parts.append(int(t))
            except ValueError:  # more digits than int() converts
                raise ShapeError(f"{label} part of {len(t)} digits is too long") from None
        return Partition(tuple(parts))

    body = text.strip()
    if not body:
        raise ShapeError("empty shape text")
    pieces = body.split("/")
    if len(pieces) > 2:
        raise ShapeError(f"more than one '/' in {text!r}")
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
    out: list[tuple[int, ...]] = []

    def go(prefix: list[int], limit: int, left: int) -> None:
        out.append(tuple(prefix))
        if left == 0:
            return
        for p in range(1, limit + 1):
            prefix.append(p)
            go(prefix, p, left - 1)
            prefix.pop()

    go([], cols, rows)
    return sorted(out)


def subpartitions(outer: tuple[int, ...]) -> list[tuple[int, ...]]:
    """All partitions contained in `outer`, sorted."""
    outer = tuple(outer)
    out: list[tuple[int, ...]] = []

    def go(prefix: list[int], i: int) -> None:
        out.append(tuple(prefix))
        if i >= len(outer):
            return
        limit = min(outer[i], prefix[-1] if prefix else outer[0] if outer else 0)
        for p in range(1, limit + 1):
            prefix.append(p)
            go(prefix, i + 1)
            prefix.pop()

    go([], 0)
    return sorted(set(out))
