"""Non-intersecting path families on Z² whose count matrix is the binomial matrix.

For a shape with n rows, fix start points A_i = (inner_i - i, i) and end
points B_j = (outer_j - j, j + 1), i, j = 1..n, index 1 first. The number of
monotone paths A_i -> B_j is exactly entry (i, j) of the shape's binomial
matrix, so by the Gessel-Viennot lemma the number of pairwise vertex-disjoint
path families equals its determinant. The brute-force family enumerator here
validates that at desk scale.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, NamedTuple

from .errors import MAX_MATRIX_ENTRIES, Budget, InvariantError, check_size, judge, list_leaves
from .exact import IntMatrix, det_exact
from .paths import LatticePath, Point, count_monotone, path_from_north_record
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

    def to_json(self) -> dict:
        return {"paths": [path.to_json() for path in self.paths]}


def gv_endpoints(shape: SkewShape) -> GVConfig:
    """The fixed start/end realization for the shape."""
    starts = tuple((shape.inner.part(i - 1) - i, i) for i in range(1, shape.n + 1))
    ends = tuple((shape.outer.part(j - 1) - j, j + 1) for j in range(1, shape.n + 1))
    return GVConfig(starts, ends)


def gv_matrix(config: GVConfig) -> IntMatrix:
    """Matrix of pairwise monotone path counts starts[i] -> ends[j]."""
    n = config.n
    check_size(n * n, MAX_MATRIX_ENTRIES, "matrix entries")
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


def walk_families(config: GVConfig, visit: Callable[[list[list[int]]], None]) -> None:
    """Call ``visit(records)`` at each pairwise vertex-disjoint family, any end
    permutation, brute force: ``records[k]`` is the north record of path k, the
    x of each of its north steps, bottom-up.

    A path entering row y at x holds the run [x, c] of that row, which must
    miss every run an earlier path holds there; below its end's row it steps
    north at c, each c tried lowest first, and in its end's row the run must
    reach the end. So families come in ascending north-record order; a family
    not pairing start i with end i raises InvariantError. The walk recurses
    once per row a path crosses: run it through
    :func:`~skewcount.errors.take_leaves`.

    Built once per configuration, before the walk: the ends each start is
    the last to reach, so that no start picks an end that leaves one unused.
    Occupancy holds one run per row a path grown so far crosses, never a
    table of the configuration's bounding box.
    """
    n = config.n
    starts, ends = config.starts, config.ends
    identity = list(range(n))
    # stranded[k]: the ends that no start from k on can reach, as start k - 1
    # was the last that could (stranded[0]: those no start reaches)
    stranded: list[list[int]] = [[] for _ in range(n + 1)]
    for j, (ex, ey) in enumerate(ends):
        last = max((i for i, (sx, sy) in enumerate(starts) if ex >= sx and ey >= sy), default=-1)
        stranded[last + 1].append(j)
    used_ends = [False] * n
    pairing: list[int] = []
    records: list[list[int]] = []
    held: dict[int, list[tuple[int, int]]] = {}  # row -> the runs paths hold in it

    def place(k: int) -> None:
        # paths 0..k-1 are grown; start path k
        if k == n:
            if pairing != identity:
                paired = tuple(ends[j] for j in pairing)
                raise InvariantError(f"non-identity family {_read_family(starts, paired, records)}")
            visit(records)
            return
        sx, sy = starts[k]
        for j, (ex, ey) in enumerate(ends):
            if not used_ends[j] and ex >= sx and ey >= sy:
                used_ends[j] = True
                # grow no path for a pick that leaves unused an end no later
                # start reaches; ends stranded before k + 1 passed an earlier pick
                for s in stranded[k + 1]:
                    if not used_ends[s]:
                        break
                else:
                    pairing.append(j)
                    records.append([])
                    grow(k, sx, sy, ex, ey)
                    records.pop()
                    pairing.pop()
                used_ends[j] = False

    def grow(k: int, x: int, y: int, ex: int, ey: int) -> None:
        # path k enters row y at x; its run there may reach `last`, short of the next held run
        runs = held.setdefault(y, [])
        last = ex
        for a, b in runs:
            if a <= x <= b:
                return
            if x < a <= last:
                last = a - 1
        if y == ey:
            if last == ex:
                runs.append((x, ex))
                place(k + 1)
                runs.pop()
            return
        record = records[k]
        for c in range(x, last + 1):
            runs.append((x, c))
            record.append(c)
            grow(k, c, y + 1, ex, ey)
            record.pop()
            runs.pop()

    if not stranded[0]:  # an end no start reaches: no family
        place(0)


def _read_family(
    starts: tuple[Point, ...], ends: tuple[Point, ...], records: list[list[int]]
) -> PathFamily:
    """The family whose path k runs from starts[k] to ends[k] with north record records[k]."""
    return PathFamily(tuple(
        path_from_north_record(tuple(c - sx for c in record), ex - sx)._replace(start=(sx, sy))
        for (sx, sy), (ex, _), record in zip(starts, ends, records)
    ))


def family_listing(config: GVConfig) -> tuple[Callable, Callable[..., PathFamily], Budget]:
    """The family walk, a builder of a family from its leaf, and the budget: a frame a north
    step and two a path, and "(x,y):" and steps a path, the same for every pairing of ends."""
    starts, ends = config.starts, config.ends
    north = sum(ey - sy for (_, sy), (_, ey) in zip(starts, ends))
    steps = north + sum(ex - sx for (sx, _), (ex, _) in zip(starts, ends))
    build = lambda records: _read_family(starts, ends, records)
    return partial(walk_families, config), build, Budget(north + 2 * config.n, steps + 6 * config.n)


def enumerate_disjoint_families(config: GVConfig) -> list[PathFamily]:
    """All pairwise vertex-disjoint families as a list, in ascending north-record order."""
    return list_leaves(*judge(family_listing(config)))
