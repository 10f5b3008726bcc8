"""Seeded inputs for each workload: only shape and path texts reach the CLI.

Every generator is a stream of blocks of :class:`Op` drawn from
``random.Random(seed)``, so one seed gives one sequence; a run takes whole
blocks until its time is up. Every block covers the same spread of sizes,
and the seed picks the shapes and paths within each size, so that the
median of a run depends on the seed as little as possible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

from reference import Shape, count_paths, format_shape, north_bounds

BOX = 5  # verify samples come from the 5x5 box: 19,404 shapes, about 7 ms each
VERIFY_BATCH = 30  # shapes per verify call
COUNT_ROWS = (110, 130)
COUNT_WIDTH = (150, 200)
ENUM_LIMIT = 10
RENDER_ROWS = (25, 45)
STRATA = 9  # count and render calls per block, one per size (odd: the median lands on a size)


@dataclass(frozen=True)
class Op:
    """One CLI call: its kind, the shapes it covers and what the check needs."""

    kind: str  # count | verify | enumerate | render
    shapes: tuple[Shape, ...]
    what: str = ""  # enumerate: paths | tilings | families
    limit: int = 0  # enumerate: --limit
    steps: str = ""  # render: --path

    def argv(self, output: str = "") -> list[str]:
        texts = [format_shape(s) for s in self.shapes]
        if self.kind == "count":
            return ["count", *texts]
        if self.kind == "verify":
            return ["verify", *texts, "--jobs", "1"]
        if self.kind == "enumerate":
            return ["enumerate", *texts, self.what, "--limit", str(self.limit)]
        return ["render", *texts, "--path", self.steps, "-o", output]


def random_shape(rng: random.Random, rows: int, width: int, inner_frac: float) -> Shape:
    """An outer partition with exactly ``rows`` rows and first part ``width``,
    and an inner one with parts up to ``inner_frac * width``."""
    outer = [width] + sorted((rng.randint(1, width) for _ in range(rows - 1)), reverse=True)
    cut = sorted((rng.randint(0, int(inner_frac * width)) for _ in range(rows)), reverse=True)
    inner = [min(c, o) for c, o in zip(cut, outer)]
    while inner and inner[-1] == 0:
        inner.pop()
    return tuple(outer), tuple(inner)


def _sizes(rng: random.Random, rows: tuple[int, int],
           width: tuple[int, int]) -> list[tuple[int, int]]:
    """STRATA evenly spaced (rows, width) sizes from the smallest to the largest,
    in seeded order: every block covers the size class the same way."""
    def level(lo: int, hi: int, k: int) -> int:
        return lo + (hi - lo) * k // (STRATA - 1)

    sizes = [(level(*rows, k), level(*width, k)) for k in range(STRATA)]
    rng.shuffle(sizes)
    return sizes


def box_shapes(rows: int, cols: int) -> list[Shape]:
    """Every outer partition in a rows x cols box with every inner one it contains."""

    def partitions(limits: tuple[int, ...]) -> list[tuple[int, ...]]:
        out = [()]
        for i, cap in enumerate(limits):
            out += [
                p + (v,)
                for p in out if len(p) == i
                for v in range(1, min(cap, p[-1] if p else cap) + 1)
            ]
        return out

    return [
        (outer, inner)
        for outer in partitions((cols,) * rows)
        for inner in partitions(outer)
    ]


def verify_ops(seed: int) -> Iterator[list[Op]]:
    """Batches of distinct 5x5-box shapes, one shape from each cost stratum.

    The strata sort the box by path count, the proxy for the two brute-force
    routes (tilings, gv_enum) that take over 90% of verify time here. The
    stream ends after 646 calls, when every stratum is used up.
    """
    rng = random.Random(seed)
    shapes = sorted(box_shapes(BOX, BOX), key=lambda s: (count_paths(s), s))
    size = len(shapes) // VERIFY_BATCH
    strata = [shapes[k * size : (k + 1) * size] for k in range(VERIFY_BATCH)]
    for stratum in strata:
        rng.shuffle(stratum)
    for i in range(size):
        batch = [stratum[i] for stratum in strata]
        rng.shuffle(batch)
        yield [Op("verify", tuple(batch))]


def count_ops(seed: int) -> Iterator[list[Op]]:
    """``count`` on one size class: 110-130 rows, first part 150-200."""
    rng = random.Random(seed)
    while True:
        sizes = _sizes(rng, COUNT_ROWS, COUNT_WIDTH)
        yield [Op("count", (random_shape(rng, n, width, 0.5),)) for n, width in sizes]


def _shape_with_count(rng: random.Random, rows: tuple[int, int], width: tuple[int, int],
                      lo: int, hi: int) -> Shape:
    while True:
        shape = random_shape(rng, rng.randint(*rows), rng.randint(*width), 1.0)
        if lo <= count_paths(shape) <= hi:
            return shape


def enumerate_ops(seed: int) -> Iterator[list[Op]]:
    """Prefix listings: paths on shapes with 10^3-10^4 paths, tilings on
    shapes with 10^3-3*10^3, the first family on shapes of at most 5 rows
    with 10^2-10^3 families.

    Tilings stop at 3*10^3 because the search time per tiling varies
    threefold between shapes; a tail up to 10^4 tilings left the p75 of a
    run to a handful of calls.
    """
    rng = random.Random(seed)
    strata = {
        "paths": [(1000, 2000), (2000, 5000), (5000, 10000)],
        "tilings": [(1000, 1400), (1400, 2000), (2000, 3000)],
        "families": [(100, 200), (200, 500), (500, 1000)],
    }
    while True:
        block = []
        for what, counts in strata.items():
            for lo, hi in counts:
                if what == "families":
                    shape = _shape_with_count(rng, (3, 5), (3, 12), lo, hi)
                    block.append(Op("enumerate", (shape,), what=what, limit=1))
                else:
                    shape = _shape_with_count(rng, (4, 10), (4, 12), lo, hi)
                    block.append(Op("enumerate", (shape,), what=what, limit=ENUM_LIMIT))
        yield block


def uniform_path(rng: random.Random, shape: Shape) -> str:
    """A uniformly random admissible path, sampled forward over backward counts."""
    bounds = north_bounds(shape)
    width = shape[0][0] if shape[0] else 0
    # after[k][x]: ways to place north steps k.. given the previous one sits at x
    after = [[1] * (width + 1)]
    for lo, hi in reversed(bounds):
        nxt = after[0]
        ways = [0] * (width + 2)
        for x in range(width, -1, -1):
            ways[x] = ways[x + 1] + (nxt[x] if lo <= x <= hi else 0)
        after.insert(0, ways[: width + 1])
    steps = []
    x = 0
    for k, (lo, hi) in enumerate(bounds):
        pick = rng.randrange(after[k][x])
        for c in range(max(x, lo), hi + 1):
            pick -= after[k + 1][c]
            if pick < 0:
                break
        steps.append("E" * (c - x) + "N")
        x = c
    steps.append("E" * (width - x))
    return "".join(steps)


def render_ops(seed: int) -> Iterator[list[Op]]:
    """``render --path`` on shapes of 25-45 rows with uniform admissible paths."""
    rng = random.Random(seed)
    while True:
        block = []
        for n, width in _sizes(rng, RENDER_ROWS, RENDER_ROWS):
            shape = random_shape(rng, n, width, 0.5)
            block.append(Op("render", (shape,), steps=uniform_path(rng, shape)))
        yield block
