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
from .paths import LatticePath, Point, count_monotone, iter_monotone_paths
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


def enumerate_disjoint_families(config: GVConfig, cap: int | None = None) -> list[PathFamily]:
    """All pairwise vertex-disjoint families, any end permutation, brute force.

    Paths are assigned start by start, each start may connect to any unused
    end. The result is sorted by the paths' north records; for these skew
    configurations every family found connects start i to end i (checked).
    """
    n = config.n
    chosen: list[LatticePath] = []
    used_ends = [False] * n
    occupied: set[Point] = set()

    def go(i: int) -> Iterator[PathFamily]:
        if i == n:
            yield PathFamily(tuple(chosen))
            return
        for j in range(n):
            if used_ends[j]:
                continue
            for path in iter_monotone_paths(config.starts[i], config.ends[j]):
                verts = set(path.vertices())
                if verts & occupied:
                    continue
                used_ends[j] = True
                occupied.update(verts)
                chosen.append(path)
                yield from go(i + 1)
                chosen.pop()
                occupied.difference_update(verts)
                used_ends[j] = False

    found = sorted(capped(go(0), cap),
                   key=lambda f: tuple((p.north_xs(), p.end) for p in f.paths))
    for family in found:
        # identity permutation is forced for skew-shape endpoint configurations
        if any(p.end != config.ends[k] for k, p in enumerate(family.paths)):
            raise InvariantError(f"non-identity family {family}")
    return found
