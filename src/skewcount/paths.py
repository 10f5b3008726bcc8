"""Monotone lattice paths: admissibility, enumeration and dynamic-programming counts.

A monotone path uses unit east/north steps only. Paths through a skew shape
run from the southwestern corner (0, 0) to the northeastern corner
(width, n); such a path is determined by its *north record*, the weakly
increasing sequence of x-coordinates of its north steps, read bottom-up.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Iterator, NamedTuple

from .errors import (
    MAX_DP_CELLS, MAX_PATH_STEPS, Budget, ShapeError, WrongEndpointsError, check_size, judge,
    list_leaves,
)
from .exact import binomial
from .shapes import SkewShape

Point = tuple[int, int]

STEP_EAST = "E"
STEP_NORTH = "N"


class LatticePath(NamedTuple("LatticePath", [("start", Point), ("steps", str)])):
    """Monotone E/N path with integer start point; steps is a string over {E, N}."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, start: Point, steps: str) -> "LatticePath":
        bad = set(steps) - {STEP_EAST, STEP_NORTH}
        if bad:
            raise ShapeError(f"path steps must be E or N, got {sorted(bad)}")
        return super().__new__(cls, start, steps)

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
        return {"start": list(self.start), "steps": self.steps}

    def to_text(self) -> str:
        return self.steps


def path_from_north_record(record: tuple[int, ...], width: int) -> LatticePath:
    """Inverse of :meth:`LatticePath.north_xs` for paths from (0, 0) to (width, n). Each path
    built from a record is written here, and refused here, unwritten, past ``MAX_PATH_STEPS``."""
    check_size(width + len(record), MAX_PATH_STEPS, "path steps")
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


def _check_endpoints(shape: SkewShape, path: LatticePath) -> None:
    if path.start != (0, 0) or path.end != (shape.width, shape.n):
        raise WrongEndpointsError(
            f"path runs {path.start}->{path.end}, "
            f"shape corners are (0, 0)->({shape.width}, {shape.n})"
        )


def is_admissible(shape: SkewShape, path: LatticePath) -> bool:
    """True iff the path lies weakly between the shape's two boundary profiles.

    Equivalently, its north record c satisfies lo_k <= c_k <= hi_k where
    (lo_k, hi_k) are the shape's bottom-up north-step bounds.
    """
    _check_endpoints(shape, path)
    record = path.north_xs()
    return all(
        lo <= c <= hi for c, (lo, hi) in zip(record, shape.north_step_bounds())
    )


def walk_paths(shape: SkewShape, visit: Callable[[list[int]], None]) -> None:
    """Call ``visit(record)`` at each admissible path of the shape, in
    lexicographic order of its north record. The walk recurses once per row:
    run it through :func:`~skewcount.errors.take_leaves`.
    """
    bounds = shape.north_step_bounds()
    n = len(bounds)
    rec = [0] * n

    def go(k: int, floor: int) -> None:
        if k == n:
            visit(rec)
            return
        lo, hi = bounds[k]
        for c in range(max(lo, floor), hi + 1):
            rec[k] = c
            go(k + 1, c)

    go(0, 0)


def path_listing(shape: SkewShape) -> tuple[Callable, Callable[[list[int]], LatticePath], Budget]:
    """The path walk, the builder of a path from its leaf, and the budget: a frame a row, and
    the width + n characters of a path's ``to_text()``, its steps, judged as the path is built."""
    width = shape.width
    build = lambda rec: path_from_north_record(rec, width)
    return partial(walk_paths, shape), build, Budget(shape.n, width + shape.n)


def enumerate_paths(shape: SkewShape) -> list[LatticePath]:
    """All admissible paths of the shape, ordered lexicographically by north record."""
    return list_leaves(*judge(path_listing(shape)))


def suffix_counts(shape: SkewShape) -> Iterator[list[int]]:
    """Row k of the shape's table, top row first: ``tail[j]`` counts the ends
    c_k <= ... <= c_(n-1) of an admissible north record with c_k >= lo_k + j,
    one addition for each of the m + n cells of the rows' spans. Past
    ``MAX_DP_CELLS`` of those cells the shape is refused at the call, before a
    row is read."""
    check_size(shape.m + shape.n, MAX_DP_CELLS, "dp cells")

    def rows() -> Iterator[list[int]]:
        above, above_lo = [1], shape.width  # the one empty end past the top row
        for lo, hi in reversed(shape.north_step_bounds()):
            # the ends above that may follow c_k = lo + j, those with
            # c_(k+1) >= max(lo + j, above_lo): bounds rise with k, and the
            # span holds hi - lo + 1 of them
            span = hi - lo + 1
            follow = ([above[0]] * min(above_lo - lo, span) + above)[:span]
            tail, ends = [], 0
            for start in reversed(follow):
                ends += start
                tail.append(ends)
            tail.reverse()
            yield tail
            above, above_lo = tail, lo

    return rows()


def count_paths_dp(shape: SkewShape) -> int:
    """Number of admissible paths: the first entry of :func:`suffix_counts`'s
    bottom row, in O(m + n) additions with two rows held at a time. It never
    enumerates paths, so it has no cap; past :func:`suffix_counts`'s guard it
    refuses the shape."""
    tail = [1]  # the one path of a shape with no rows
    for tail in suffix_counts(shape):
        pass
    return tail[0]


def count_monotone(a: Point, b: Point) -> int:
    """Number of monotone E/N paths from a to b (``binomial`` gives 0 if b is unreachable)."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    return binomial(dx + dy, dy)
