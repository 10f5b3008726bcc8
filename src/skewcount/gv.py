"""Non-intersecting path families on Z² whose count matrix is the binomial matrix.

For a shape with n rows, fix start points A_i = (inner_i - i, i) and end
points B_j = (outer_j - j, j + 1), i, j = 1..n, index 1 first. The number of
monotone paths A_i -> B_j is exactly entry (i, j) of the shape's binomial
matrix, so by the Gessel-Viennot lemma the number of pairwise vertex-disjoint
path families equals its determinant. The brute-force family enumerator here
validates that at desk scale.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

from .errors import InvariantError, capped
from .exact import IntMatrix, det_exact
from .paths import STEP_EAST, STEP_NORTH, LatticePath, Point, count_monotone
from .shapes import SkewShape


@dataclass(frozen=True)
class GVConfig:
    """Start and end point sequences; starts[i] pairs with ends[i] under identity."""

    starts: tuple[Point, ...]
    ends: tuple[Point, ...]

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.ends):
            raise ValueError("starts and ends differ in length")

    @property
    def n(self) -> int:
        return len(self.starts)

    def to_json(self) -> dict:
        return {"starts": [list(p) for p in self.starts],
                "ends": [list(p) for p in self.ends]}


@dataclass(frozen=True)
class PathFamily:
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

    Paths grow north first and stop at an occupied vertex, so families come in
    ascending north-record order; a family not pairing start i with end i raises InvariantError.
    """
    used_ends = [False] * config.n
    occupied: set[Point] = set()

    def place(paths: tuple[LatticePath, ...]) -> Iterator[PathFamily]:
        if len(paths) == config.n:
            if any(p.end != end for p, end in zip(paths, config.ends)):
                raise InvariantError(f"non-identity family {PathFamily(paths)}")
            yield PathFamily(paths)
            return
        x, y = config.starts[len(paths)]
        for j, (ex, ey) in enumerate(config.ends):
            if not used_ends[j] and ex >= x and ey >= y:
                used_ends[j] = True
                yield from grow(paths, x, y, ex, ey, "")
                used_ends[j] = False

    def grow(paths: tuple, x: int, y: int, ex: int, ey: int, steps: str) -> Iterator[PathFamily]:
        # the next path, having taken `steps`, enters (x, y) on its way to (ex, ey)
        if (x, y) in occupied:
            return
        occupied.add((x, y))
        if x == ex and y == ey:
            yield from place(paths + (LatticePath(config.starts[len(paths)], steps),))
        if y < ey:
            yield from grow(paths, x, y + 1, ex, ey, steps + STEP_NORTH)
        if x < ex:
            yield from grow(paths, x + 1, y, ex, ey, steps + STEP_EAST)
        occupied.discard((x, y))

    return place(())


def enumerate_disjoint_families(config: GVConfig, cap: int | None = None) -> list[PathFamily]:
    """All pairwise vertex-disjoint families as a list, in ascending north-record order."""
    return list(capped(iter_disjoint_families(config), cap))
