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

from .errors import MAX_MATRIX_ENTRIES, InvariantError, check_depth, check_size, list_leaves
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


def walk_families(config: GVConfig, visit: Callable[[dict[int, int]], None]) -> None:
    """Call ``visit(occupied)`` at each pairwise vertex-disjoint family, any end
    permutation, brute force: ``occupied`` maps each vertex a path of the
    family visits, by its id (see :func:`_id_width`), to that path's index.

    The leaf is live: the walk changes it as it goes on, so a visitor that
    keeps it copies it. Counting the leaves builds no path.

    Paths grow north first and stop at an occupied vertex, so families come
    in ascending north-record order; a family not pairing start i with end i
    raises InvariantError. The walk recurses once per path step: run it
    through :func:`~skewcount.errors.drive`.

    Built once per configuration, before the walk: the ends each start is
    the last to reach, so that no start picks an end that leaves one unused.
    Occupancy holds only the vertices of the paths grown so far, never a table
    of the configuration's bounding box.
    """
    n = config.n
    starts, ends = config.starts, config.ends
    identity = list(range(n))
    width = _id_width(config)
    # stranded[k]: the ends that no start from k on can reach, as start k - 1
    # was the last that could (stranded[0]: those no start reaches)
    stranded: list[list[int]] = [[] for _ in range(n + 1)]
    for j, (ex, ey) in enumerate(ends):
        last = max((i for i, (sx, sy) in enumerate(starts) if ex >= sx and ey >= sy), default=-1)
        stranded[last + 1].append(j)
    used_ends = [False] * n
    pairing: list[int] = []
    occupied: dict[int, int] = {}

    def place(k: int) -> None:
        # paths 0..k-1 are grown; start path k
        if k == n:
            if pairing != identity:
                paired = tuple(ends[j] for j in pairing)
                raise InvariantError(
                    f"non-identity family {_read_family(starts, paired, width, occupied)}"
                )
            visit(occupied)
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
                    grow(k, sy * width + sx, ex - sx, ey - sy)
                    pairing.pop()
                used_ends[j] = False

    def grow(k: int, v: int, east: int, north: int) -> None:
        # path k enters vertex v with `east` and `north` steps still to take
        if v in occupied:
            return
        occupied[v] = k
        if north:
            grow(k, v + width, east, north - 1)
            if east:
                grow(k, v + 1, east - 1, north)
        elif east:
            grow(k, v + 1, east - 1, north)
        else:
            place(k + 1)
        del occupied[v]

    if not stranded[0]:  # an end no start reaches: no family
        place(0)


def _id_width(config: GVConfig) -> int:
    # vertex (x, y) has id y * width + x: a path's x runs from its start's to its
    # end's, so every x lies among the width values from the leftmost start to
    # the rightmost end, and ids are distinct
    starts, ends = config.starts, config.ends
    return max((x for x, _ in ends), default=0) - min((x for x, _ in starts), default=0) + 1


def _read_family(
    starts: tuple[Point, ...], ends: tuple[Point, ...], width: int, occupied: dict[int, int]
) -> PathFamily:
    """The family whose path k runs from starts[k] to ends[k] through the
    vertices ``occupied`` gives to k: from each vertex it steps N when the
    vertex above is k's, else E (a monotone path never holds both)."""
    paths = []
    for k, ((sx, sy), (ex, ey)) in enumerate(zip(starts, ends)):
        v, east, north = sy * width + sx, ex - sx, ey - sy
        steps = []
        while east or north:
            if north and occupied.get(v + width) == k:
                steps.append(STEP_NORTH)
                v, north = v + width, north - 1
            else:
                steps.append(STEP_EAST)
                v, east = v + 1, east - 1
        paths.append(LatticePath((sx, sy), "".join(steps)))
    return PathFamily(tuple(paths))


def family_listing(config: GVConfig) -> tuple[Callable, Callable[[dict[int, int]], PathFamily]]:
    """The family walk of the configuration, and the builder of a family from its
    leaf. Its leaves lie at least a frame a path step and a start deep (every
    pairing takes the same steps), so past the recursion limit it is refused here."""
    starts, ends, width = config.starts, config.ends, _id_width(config)
    check_depth(sum(ex - sx + ey - sy for (sx, sy), (ex, ey) in zip(starts, ends)) + config.n)
    return (
        partial(walk_families, config),
        lambda occupied: _read_family(starts, ends, width, occupied),
    )


def enumerate_disjoint_families(config: GVConfig) -> list[PathFamily]:
    """All pairwise vertex-disjoint families as a list, in ascending north-record order."""
    return list_leaves(*family_listing(config))
