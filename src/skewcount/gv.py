"""Non-intersecting path families on Z² whose count matrix is the binomial matrix.

For a shape with n rows, fix start points A_i = (inner_i - i, i) and end
points B_j = (outer_j - j, j + 1), i, j = 1..n, index 1 first. The number of
monotone paths A_i -> B_j is exactly entry (i, j) of the shape's binomial
matrix, so by the Gessel-Viennot lemma the number of pairwise vertex-disjoint
path families equals its determinant. The brute-force family enumerator here
validates that at desk scale.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple

from .errors import InvariantError, capped
from .exact import IntMatrix, det_exact
from .paths import STEP_EAST, STEP_NORTH, LatticePath, Point, count_monotone
from .shapes import SkewShape


class GVConfig(NamedTuple("GVConfig", [("starts", tuple), ("ends", tuple)])):
    """Start and end point sequences; starts[i] pairs with ends[i] under identity."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, starts: tuple[Point, ...], ends: tuple[Point, ...]) -> "GVConfig":
        if len(starts) != len(ends):
            raise ValueError("starts and ends differ in length")
        return super().__new__(cls, starts, ends)

    @property
    def n(self) -> int:
        return len(self.starts)


class PathFamily(NamedTuple):
    """A tuple of monotone paths, one per start point."""

    paths: tuple[LatticePath, ...]

    def is_vertex_disjoint(self) -> bool:
        for p, q in combinations(self.paths, 2):
            if set(p.vertices()) & set(q.vertices()):
                return False
        return True

    def to_json(self) -> dict:
        return {"paths": [{"start": list(p.start), "steps": p.steps} for p in self.paths]}


def gv_endpoints(shape: SkewShape) -> GVConfig:
    """The fixed start/end realization for the shape."""
    starts = tuple((shape.inner.part(i - 1) - i, i) for i in range(1, shape.n + 1))
    ends = tuple((shape.outer.part(j - 1) - j, j + 1) for j in range(1, shape.n + 1))
    return GVConfig(starts, ends)


def gv_matrix(config: GVConfig) -> IntMatrix:
    """Matrix of pairwise monotone path counts starts[i] -> ends[j]."""
    n = config.n
    return IntMatrix(
        n,
        n,
        tuple(
            count_monotone(config.starts[i], config.ends[j])
            for i in range(n)
            for j in range(n)
        ),
    )


def gv_count(config: GVConfig) -> int:
    """Number of vertex-disjoint families, as the exact determinant."""
    return det_exact(gv_matrix(config))


def iter_disjoint_families(config: GVConfig) -> Iterator[PathFamily]:
    """All pairwise vertex-disjoint families, any end permutation, brute force, lazily.

    Each family is built from a leaf of :func:`family_leaves`, so families come
    in its ascending north-record order, and a non-identity family raises
    InvariantError there.
    """
    return (_family(config.starts, finished) for finished in family_leaves(config))


def _family(starts: tuple[Point, ...], finished: list[list[str]]) -> PathFamily:
    return PathFamily(tuple(LatticePath(s, "".join(steps)) for s, steps in zip(starts, finished)))


def family_leaves(config: GVConfig) -> Iterator[list[list[str]]]:
    """The search behind :func:`iter_disjoint_families`: at each leaf, its live
    list of the finished paths' step lists, path i from start i.

    The lists change as the search resumes, so a caller that keeps a family
    copies them; counting the leaves builds no path. Paths grow north first
    and stop at an occupied vertex, so families come in ascending north-record
    order; a family not pairing start i with end i raises InvariantError.

    Built once per configuration, before the search: each end's last start
    that can reach it, for the cut of partial families that cannot complete,
    and integer vertex ids, so occupancy is a set of ints.
    """
    n = config.n
    starts, ends = config.starts, config.ends
    identity = list(range(n))
    # vertex (x, y) is y * width + x: a path's x runs from its start's to its
    # end's, so every x lies among the width values from the leftmost start to
    # the rightmost end, and ids are distinct
    width = max((x for x, _ in ends), default=0) - min((x for x, _ in starts), default=0) + 1
    last = [
        max((i for i, (sx, sy) in enumerate(starts) if ex >= sx and ey >= sy), default=-1)
        for ex, ey in ends
    ]
    used_ends = [False] * n
    pairing: list[int] = []
    occupied: set[int] = set()
    finished: list[list[str]] = []

    def place() -> Iterator[list[list[str]]]:
        k = len(finished)
        if k == n:
            if pairing != identity:
                raise InvariantError(f"non-identity family {_family(starts, finished)}")
            yield finished
            return
        # cut a branch that cannot complete: an unused end no remaining start can reach
        for j in range(n):
            if last[j] < k and not used_ends[j]:
                return
        sx, sy = starts[k]
        for j, (ex, ey) in enumerate(ends):
            if not used_ends[j] and ex >= sx and ey >= sy:
                used_ends[j] = True
                pairing.append(j)
                yield from grow(sy * width + sx, ex - sx, ey - sy, [])
                pairing.pop()
                used_ends[j] = False

    def grow(v: int, east: int, north: int, steps: list[str]) -> Iterator[list[list[str]]]:
        # the next path, having taken `steps`, enters vertex v with `east` and
        # `north` steps still to take
        if v in occupied:
            return
        occupied.add(v)
        if not east and not north:
            finished.append(steps)
            yield from place()
            finished.pop()
        if north:
            steps.append(STEP_NORTH)
            yield from grow(v + width, east, north - 1, steps)
            steps.pop()
        if east:
            steps.append(STEP_EAST)
            yield from grow(v + 1, east - 1, north, steps)
            steps.pop()
        occupied.discard(v)

    return place()


def enumerate_disjoint_families(config: GVConfig, cap: int | None = None) -> list[PathFamily]:
    """All pairwise vertex-disjoint families as a list, in ascending north-record order."""
    return list(capped(iter_disjoint_families(config), cap))
