"""Monotone lattice paths: admissibility, enumeration and dynamic-programming counts.

A monotone path uses unit east/north steps only. Paths through a skew shape
run from the southwestern corner (0, 0) to the northeastern corner
(width, n); such a path is determined by its *north record*, the weakly
increasing sequence of x-coordinates of its north steps, read bottom-up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from .errors import ShapeError, WrongEndpointsError, capped
from .exact import binomial

if TYPE_CHECKING:  # pragma: no cover
    from .shapes import SkewShape

Point = tuple[int, int]

STEP_EAST = "E"
STEP_NORTH = "N"


@dataclass(frozen=True)
class LatticePath:
    """Monotone E/N path with integer start point; steps is a string over {E, N}."""

    start: Point
    steps: str

    def __post_init__(self) -> None:
        bad = set(self.steps) - {STEP_EAST, STEP_NORTH}
        if bad:
            raise ShapeError(f"path steps must be E or N, got {sorted(bad)}")

    @property
    def end(self) -> Point:
        x, y = self.start
        return (x + self.steps.count(STEP_EAST), y + self.steps.count(STEP_NORTH))

    def vertices(self) -> list[Point]:
        """All visited lattice points, start first."""
        x, y = self.start
        out = [(x, y)]
        for s in self.steps:
            if s == STEP_EAST:
                x += 1
            else:
                y += 1
            out.append((x, y))
        return out

    def north_xs(self) -> tuple[int, ...]:
        """x-coordinate of each north step in order (the north record)."""
        x = self.start[0]
        rec = []
        for s in self.steps:
            if s == STEP_EAST:
                x += 1
            else:
                rec.append(x)
        return tuple(rec)

    def to_json(self) -> dict:
        return {"start": list(self.start), "steps": self.steps,
                "vertices": [list(v) for v in self.vertices()]}


def path_from_north_record(record: tuple[int, ...], width: int) -> LatticePath:
    """Inverse of :meth:`LatticePath.north_xs` for paths from (0, 0) to (width, n)."""
    if any(b < a for a, b in zip(record, record[1:])):
        raise ValueError(f"north record not weakly increasing: {record}")
    if record and not (0 <= record[0] and record[-1] <= width):
        raise ValueError(f"north record {record} outside width {width}")
    steps = []
    x = 0
    for c in record:
        steps.append(STEP_EAST * (c - x))
        steps.append(STEP_NORTH)
        x = c
    steps.append(STEP_EAST * (width - x))
    return LatticePath((0, 0), "".join(steps))


def _check_endpoints(shape: "SkewShape", path: LatticePath) -> None:
    if path.start != (0, 0) or path.end != (shape.width, shape.n):
        raise WrongEndpointsError(
            f"path runs {path.start}->{path.end}, "
            f"shape corners are (0, 0)->({shape.width}, {shape.n})"
        )


def is_admissible(shape: "SkewShape", path: LatticePath) -> bool:
    """True iff the path lies weakly between the shape's two boundary profiles.

    Equivalently, its north record c satisfies lo_k <= c_k <= hi_k where
    (lo_k, hi_k) are the shape's bottom-up north-step bounds.
    """
    _check_endpoints(shape, path)
    record = path.north_xs()
    return all(
        lo <= c <= hi for c, (lo, hi) in zip(record, shape.north_step_bounds())
    )


def iter_paths(shape: "SkewShape") -> Iterator[LatticePath]:
    """All admissible paths of the shape, lazily, lexicographically by north record."""
    bounds = shape.north_step_bounds()
    n, width = len(bounds), shape.width
    rec: list[int] = []

    def go(k: int, floor: int) -> Iterator[LatticePath]:
        if k == n:
            yield path_from_north_record(tuple(rec), width)
            return
        lo, hi = bounds[k]
        for c in range(max(lo, floor), hi + 1):
            rec.append(c)
            yield from go(k + 1, c)
            rec.pop()

    return go(0, 0)


def enumerate_paths(shape: "SkewShape", cap: int | None = None) -> list[LatticePath]:
    """All admissible paths of the shape, ordered lexicographically by north record."""
    return list(capped(iter_paths(shape), cap))


def count_paths_dp(shape: "SkewShape") -> int:
    """Number of admissible paths, by a row-by-row prefix-sum recurrence.

    Runs in O(n * width) time and never enumerates paths, so it has no cap.
    """
    bounds = shape.north_step_bounds()
    if not bounds:
        return 1
    width = shape.width
    # counts[x] = number of valid prefixes whose last north step is at x
    counts = [0] * (width + 1)
    lo, hi = bounds[0]
    for x in range(lo, hi + 1):
        counts[x] = 1
    for lo, hi in bounds[1:]:
        acc = 0
        nxt = [0] * (width + 1)
        for x in range(width + 1):
            acc += counts[x]
            if lo <= x <= hi:
                nxt[x] = acc
        counts = nxt
    return sum(counts)


def count_monotone(a: Point, b: Point) -> int:
    """Number of monotone E/N paths from a to b (0 if b is unreachable)."""
    dx = b[0] - a[0]
    dy = b[1] - a[1]
    if dx < 0 or dy < 0:
        return 0
    return binomial(dx + dy, dy)

