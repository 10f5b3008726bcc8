"""Triangular-lattice regions, lozenge tilings, and their path correspondences.

Points are oblique integer pairs (a, b) meaning a*e1 + b*e2, where e1 is the
unit vector at 0 degrees and e2 the one at 60 degrees; Cartesian position is
(a + b/2, b*sqrt(3)/2). The third unit direction is v = e1 - e2 = (1, -1),
pointing at -60 degrees.

Shearing the square grid by east -> e1, north -> e2 turns a skew diagram's
unit cells into rhombi; translating its outer boundary profile by v opens up
the shape into a region whose lozenge tilings are in bijection with the
monotone paths through the shape. That bijection, and the chain structure
that carries tilings to families of disjoint paths on Z^2, is what this
module implements.

Unit triangles come in two orientations,

    UP(a, b)   = {(a, b), (a+1, b), (a, b+1)}
    DOWN(a, b) = {(a+1, b), (a, b+1), (a+1, b+1)}

and a lozenge is a pair of adjacent triangles of opposite orientation. The
three kinds, each keyed by the coordinates of its UP triangle:

    kind 1 (T1): UP(a, b) + DOWN(a, b)     internal edge at 120 degrees
    kind 2 (T2): UP(a, b) + DOWN(a-1, b)   internal edge at 60 degrees
    kind 3 (T3): UP(a, b) + DOWN(a, b-1)   internal edge at 0 degrees

T1 lozenges are the sheared unit cells; T2/T3 are the two rhombi a path step
sweeps when the boundary is pulled apart.
"""

from __future__ import annotations

import math
from functools import partial
from typing import TYPE_CHECKING, Callable, Iterator, NamedTuple

from .errors import (
    MAX_REGION_LOZENGES, MAX_TABLE_BITS, Budget, InvariantError, MalformedFamilyError,
    NotAdmissibleError, ShapeError, check_size, judge, list_leaves,
)
from .paths import (
    STEP_EAST, STEP_NORTH, LatticePath, is_admissible, path_from_north_record, suffix_counts,
)
from .shapes import SkewShape, format_shape

if TYPE_CHECKING:  # gv is loaded only when family_B_to_z2_paths runs
    from .gv import PathFamily

T1 = 1
T2 = 2
T3 = 3


class TriPoint(NamedTuple):
    a: int
    b: int


class Triangle(NamedTuple):
    a: int
    b: int
    up: bool


class Lozenge(NamedTuple):
    kind: int
    a: int
    b: int


# offsets from a key (a, b), as the module docstring draws them: a kind's DOWN
# triangle and its corners in cyclic order, and an orientation's vertices
_KINDS = {
    T1: ((0, 0), ((0, 0), (1, 0), (1, 1), (0, 1))),
    T2: ((-1, 0), ((0, 0), (1, 0), (0, 1), (-1, 1))),
    T3: ((0, -1), ((0, 0), (1, -1), (1, 0), (0, 1))),
}
_VERTICES = {True: ((0, 0), (1, 0), (0, 1)), False: ((1, 0), (0, 1), (1, 1))}


def triangle_vertices(t: Triangle) -> tuple[TriPoint, TriPoint, TriPoint]:
    return tuple(TriPoint(t.a + da, t.b + db) for da, db in _VERTICES[t.up])


def _kind_row(loz: Lozenge) -> tuple:
    if loz.kind not in _KINDS:
        raise ValueError(f"unknown lozenge kind {loz.kind}")
    return _KINDS[loz.kind]


def lozenge_triangles(loz: Lozenge) -> tuple[Triangle, Triangle]:
    """The UP and DOWN triangle a lozenge covers."""
    (da, db), _ = _kind_row(loz)
    return (Triangle(loz.a, loz.b, True), Triangle(loz.a + da, loz.b + db, False))


def lozenge_corners(loz: Lozenge) -> tuple[TriPoint, TriPoint, TriPoint, TriPoint]:
    """The rhombus corners in cyclic order."""
    return tuple(TriPoint(loz.a + da, loz.b + db) for da, db in _kind_row(loz)[1])


class Tiling(NamedTuple):
    lozenges: frozenset[Lozenge]

    def sorted_lozenges(self) -> list[Lozenge]:
        return sorted(self.lozenges)

    def to_json(self) -> dict:
        return {"lozenges": [[loz.kind, loz.a, loz.b] for loz in self.sorted_lozenges()]}


class RhombusPathFamily(NamedTuple):
    """Chains of lozenges crossing sides of one fixed direction.

    direction "a" chains cross the v-parallel sides (kinds T2/T3), "b" the
    e2-parallel sides (T1/T3), "c" the e1-parallel sides (T1/T2). Paths are
    ordered top to bottom by their starting side.
    """

    direction: str
    paths: tuple[tuple[Lozenge, ...], ...]


# direction -> {kind: (entry, exit) offsets of its two direction-parallel sides
# from the lozenge's key (a, b)}; a chain reads its first kind as E, its second
# as N. A side's key names one unit segment: a v-side by its upper vertex, an
# e2-side by its lower vertex, an e1-side by its left vertex. Lozenges sharing
# a full side therefore share a key, which is what chains on.
_CHAIN_SIDES = {
    "a": {T2: ((-1, 1), (0, 1)), T3: ((0, 0), (0, 1))},
    "b": {T1: ((0, 0), (1, 0)), T3: ((0, 0), (1, -1))},
    "c": {T1: ((0, 0), (0, 1)), T2: ((0, 0), (-1, 1))},
}


def _row_spans(shape: SkewShape) -> list[tuple[int, range, range, int]]:
    """The region's rows of unit triangles, bottom up, behind the size guard:
    each row is (b, ups, downs, base), holding UP(a, b) for a in ``ups`` and
    DOWN(a, b) for a in ``downs``.

    Row b, between heights b and b+1, runs from the inner profile's north step
    b+1 to the pushed outer profile's step b+2; the v-edges that close the
    walk, (1,-1)-(0,0) and (width+1,n-1)-(width,n), take the first UP out of
    the bottom row b = -1 and add one UP to the end of the top row b = n-1.
    Numbered row by row, a ascending, UP before DOWN (the tiling search's
    order), UP(a, b) is number base + 2a and DOWN(a, b) number base + 2a + 1.
    """
    region_lozenges(shape)
    bounds = shape.north_step_bounds()
    n = len(bounds)
    firsts = (0, *(lo for lo, _ in bounds))
    lasts = (*(hi for _, hi in bounds), shape.width - 1)
    rows = []
    start = 0
    for b, first, last in zip(range(-1, n), firsts, lasts):
        ups = range(first + (b == -1), last + (b == n - 1) + 1)
        downs = range(first, last + 1)
        rows.append((b, ups, downs, start - ups.start - downs.start))
        start += len(ups) + len(downs)
    return rows


def region_lozenges(shape: SkewShape) -> int:
    """The number of lozenges in the shape's region, m + width + n (the T1, T2
    and T3 counts of its every tiling), read off the shape alone. Past
    ``MAX_REGION_LOZENGES`` it is a ShapeError."""
    lozenges = shape.m + shape.width + shape.n
    check_size(lozenges, MAX_REGION_LOZENGES, "region lozenges")
    return lozenges


def _boundary(shape: SkewShape) -> tuple[TriPoint, ...]:
    """The outline of the shape's region, to draw: the inner profile, then the
    outer profile pushed one unit along v, walked as a closed polygon, behind
    the size guard of :func:`region_lozenges`."""
    region_lozenges(shape)
    if shape.n == 0:
        return ()
    # the inner and outer profiles: the paths whose north records are the lo and hi bounds
    los, his = zip(*shape.north_step_bounds())
    near = [TriPoint(x, y) for x, y in path_from_north_record(los, shape.width).vertices()]
    far = [TriPoint(x + 1, y - 1) for x, y in path_from_north_record(his, shape.width).vertices()]
    walk = tuple(near + far[::-1])
    if len(set(walk)) != len(walk):
        raise InvariantError(
            f"boundary walk revisits a vertex for shape {format_shape(shape)}"
        )
    return walk


def walk_tilings(shape: SkewShape, visit: Callable[[list[int]], None]) -> None:
    """Call ``visit(cover)`` at each tiling of the shape's region, by
    backtracking perfect-matching search; ``cover`` holds, at the number
    :func:`_row_spans` gives each UP triangle, the kind of the lozenge keyed
    by that triangle.

    Always pairs the first uncovered triangle in the fixed (b, a, UP<DOWN)
    order, trying kinds T1, T2, T3; the leaf order is the search order.
    Deliberately knows nothing about paths, so it can serve as an oracle for
    the path-based counts.

    That order is the paths' in reverse: leaf k is the
    :func:`lattice_path_to_tiling` of path N - 1 - k in the lexicographic
    north-record order of :func:`~skewcount.paths.walk_paths`. For each vertex
    (a, b) the path leaves, the search's one choice is at DOWN(a, b-1): it
    tries T2 (the path steps E) before T3 (it steps N). Those DOWNs come in the
    path's own order, so tilings come out in descending north-record order.

    The pairing table, built once by arithmetic on the row spans, lists at
    each triangle's number the (kind, partner number) of each lozenge that can
    cover it with a partner later in the order: a partner earlier in the order
    is covered whenever its triangle is the first uncovered one. That leaves
    T1 for an UP triangle, and T2 and T3 for a DOWN one. ``cover`` marks both
    triangles of a chosen lozenge with its kind, and 0 an uncovered one. The
    walk recurses once per lozenge, as :func:`tiling_listing`'s budget counts:
    run it through :func:`~skewcount.errors.take_leaves`.
    """
    rows = _row_spans(shape)
    size = sum(len(ups) + len(downs) for _, ups, downs, _ in rows)
    options: list[tuple[tuple[int, int], ...]] = [()] * size
    no_row = (None, range(0), None, 0)  # above the top row
    for (_, ups, downs, base), (_, above, _, above_base) in zip(rows, [*rows[1:], no_row]):
        for a in downs:
            here = base + 2 * a + 1
            if a in ups:
                options[here - 1] = ((T1, here),)
            pairs = []
            if a + 1 in ups:
                pairs.append((T2, here + 1))
            if a in above:
                pairs.append((T3, above_base + 2 * a))
            options[here] = tuple(pairs)
    cover = [0] * (size + 1)  # the trailing 0 ends the scan for the next uncovered triangle

    def go(i: int) -> None:
        while cover[i]:
            i += 1
        if i == size:
            visit(cover)
            return
        for kind, j in options[i]:
            if not cover[j]:
                cover[i] = cover[j] = kind
                go(i + 1)
                cover[j] = 0
        cover[i] = 0

    go(0)


def tiling_listing(shape: SkewShape) -> tuple[Callable, Callable[[list[int]], Tiling], Budget]:
    """The tiling walk, a builder of a tiling from its leaf that reads its keys at its
    first call, and the budget: a frame and a "Tk(a,b)" a lozenge of the region."""
    lozenges = region_lozenges(shape)
    keys = []

    def build(cover: list[int]) -> Tiling:
        if not keys:
            keys.extend((base + 2 * a, a, b) for b, ups, _, base in _row_spans(shape) for a in ups)
        return Tiling(frozenset([Lozenge(cover[i], a, b) for i, a, b in keys]))

    return partial(walk_tilings, shape), build, Budget(lozenges, 7 * lozenges)


def enumerate_tilings(shape: SkewShape) -> list[Tiling]:
    """All tilings of the shape's region, in the search order of :func:`walk_tilings`."""
    return list_leaves(*judge(tiling_listing(shape)))


def tiling_at(shape: SkewShape, index: int) -> Tiling:
    """Tiling ``index`` of :func:`enumerate_tilings`, with no search: the tiling
    of path N - 1 - index in :func:`~skewcount.paths.walk_paths`'s order, as
    :func:`walk_tilings` shows. An index outside 0..N-1 is a ShapeError.

    It unranks from :func:`~skewcount.paths.suffix_counts`, the table ``dp``
    counts from, kept whole: m + n counts, none past C(width + n, n), below both
    2^(width + n) and (width + n)^min(width, n). So after the region guard, and
    before a row is kept, it is bounded by m + n counts of the fewer bits.
    """
    region_lozenges(shape)
    steps = shape.width + shape.n
    count_bits = min(steps, min(shape.width, shape.n) * steps.bit_length())
    check_size((shape.m + shape.n) * count_bits, MAX_TABLE_BITS, "table bits")
    tails = list(suffix_counts(shape))[::-1]  # bottom row first
    total = tails[0][0] if tails else 1
    if not 0 <= index < total:
        raise ShapeError(f"tiling index {index} outside 0..{total - 1}")
    record = []
    later = index  # the paths after the one sought, among those still in reach
    for (lo, hi), tail in zip(shape.north_step_bounds(), tails):
        x, passed = hi, 0
        while tail[x - lo] <= later:  # every end with c_k >= x comes after it
            passed = tail[x - lo]
            x -= 1
        record.append(x)
        later -= passed
    return lattice_path_to_tiling(shape, path_from_north_record(record, shape.width))


def _side_keys(direction: str, loz: Lozenge) -> tuple[TriPoint, TriPoint]:
    """(entry, exit) keys of a lozenge's two direction-parallel sides. Each
    caller has already refused an unknown direction or a kind without such sides."""
    (ea, eb), (xa, xb) = _CHAIN_SIDES[direction][loz.kind]
    return (TriPoint(loz.a + ea, loz.b + eb), TriPoint(loz.a + xa, loz.b + xb))


def extract_family(tiling: Tiling, direction: str) -> RhombusPathFamily:
    """Chain the tiling's lozenges across sides of the given direction.

    A chain starts at a side no lozenge exits through (a boundary side) and
    follows shared sides until it leaves the region. Every lozenge with
    sides of the direction lands on exactly one chain.
    """
    if direction not in _CHAIN_SIDES:
        raise ValueError(f"unknown chain direction {direction!r}")
    kinds = _CHAIN_SIDES[direction]
    by_entry: dict[TriPoint, tuple[Lozenge, TriPoint]] = {}
    for loz in tiling.lozenges:
        if loz.kind not in kinds:
            continue
        entry, leave = _side_keys(direction, loz)
        # in a tiling at most one lozenge sits forward of any given segment
        if entry in by_entry:
            raise InvariantError(f"two lozenges enter through {entry}")
        by_entry[entry] = (loz, leave)
    exits = {leave for _, leave in by_entry.values()}
    starts = sorted((k for k in by_entry if k not in exits), key=lambda p: (-p.b, p.a))
    chains = []
    used = 0
    for key in starts:
        chain = []
        while key in by_entry:
            loz, key = by_entry[key]
            chain.append(loz)
        chains.append(tuple(chain))
        used += len(chain)
    if used != len(by_entry):
        raise InvariantError("chains failed to cover every eligible lozenge")
    return RhombusPathFamily(direction, tuple(chains))


def _read_chain(direction: str, chain: tuple[Lozenge, ...]) -> tuple[TriPoint, str]:
    """A chain's first entry key and its steps: the direction's first kind E, second N.

    Re-walks the chain, so a lozenge of another kind, a lozenge that does not
    enter where its predecessor leaves, or an empty chain is malformed.
    """
    east, north = _CHAIN_SIDES[direction]
    if not chain:
        raise MalformedFamilyError(f"empty {direction!r} chain")
    for loz in chain:
        if loz.kind not in (east, north):
            raise MalformedFamilyError(f"kind {loz.kind} lozenge in a {direction!r} chain")
    start = key = _side_keys(direction, chain[0])[0]
    for loz in chain:
        entry, leave = _side_keys(direction, loz)
        if entry != key:
            raise MalformedFamilyError(f"chain breaks at {loz}")
        key = leave
    return start, "".join(STEP_EAST if loz.kind == east else STEP_NORTH for loz in chain)


def family_A_to_lattice_path(family: RhombusPathFamily) -> LatticePath:
    """Read the single "a"-direction chain as a monotone path: T2 -> E, T3 -> N.

    The chain's entry sides are keyed by exactly the lattice points the path
    visits, so the result runs from the shape's southwestern corner to its
    northeastern one. An empty family (empty region) gives the empty path.
    """
    if family.direction != "a":
        raise MalformedFamilyError(f"expected direction 'a', got {family.direction!r}")
    if not family.paths:
        return LatticePath((0, 0), "")
    if len(family.paths) != 1:
        raise MalformedFamilyError(f"expected a single chain, got {len(family.paths)}")
    start, steps = _read_chain("a", family.paths[0])
    return LatticePath((start.a, start.b), steps)


def lattice_path_to_tiling(shape: SkewShape, path: LatticePath) -> Tiling:
    """Tile the shape's region so the "a"-direction chain traces the path.

    Each E step at (a, b) lays Lozenge(T2, a+1, b-1), each N step
    Lozenge(T3, a, b); every other UP(a, b) of the region's rows keys a
    sheared cell, Lozenge(T1, a, b). Their :func:`lozenge_triangles` must
    cover the rows' triangles once each. It reads the rows, not the outline,
    and the row reader's size guard bounds it, since it does not recurse.
    """
    if not is_admissible(shape, path):  # wrong corners raise WrongEndpointsError
        raise NotAdmissibleError(
            f"path {path.steps!r} leaves shape {format_shape(shape)}"
        )
    rows = _row_spans(shape)
    lozenges = []
    a, b = path.start
    for s in path.steps:
        if s == STEP_EAST:
            lozenges.append(Lozenge(T2, a + 1, b - 1))
            a += 1
        else:
            lozenges.append(Lozenge(T3, a, b))
            b += 1
    on_path = {(loz.a, loz.b) for loz in lozenges}
    triangles = set()  # plain (a, b, up) tuples: a Triangle equals its tuple
    for y, ups, downs, _ in rows:
        lozenges += [Lozenge(T1, x, y) for x in ups if (x, y) not in on_path]
        triangles.update((x, y, True) for x in ups)
        triangles.update((x, y, False) for x in downs)
    covered = [t for loz in lozenges for t in lozenge_triangles(loz)]
    if len(covered) != len(triangles) or set(covered) != triangles:
        raise InvariantError(f"path {path.steps!r} does not tile {format_shape(shape)}")
    return Tiling(frozenset(lozenges))


def family_B_to_z2_paths(family: RhombusPathFamily, shape: SkewShape) -> PathFamily:
    """Read the "b"-direction chains as disjoint monotone paths on Z^2.

    Chain i (top to bottom) maps by T1 -> E, T3 -> N onto the path from the
    i-th fixed start point to the i-th end point of the shape's endpoint
    configuration; an entry side keyed (a, b) sits at Z^2 point
    (a + b - n, n - b).
    """
    from .gv import PathFamily, gv_endpoints

    if family.direction != "b":
        raise MalformedFamilyError(f"expected direction 'b', got {family.direction!r}")
    n = shape.n
    if len(family.paths) != n:
        raise MalformedFamilyError(f"expected {n} chains, got {len(family.paths)}")
    config = gv_endpoints(shape)
    out = []
    for i, chain in enumerate(family.paths):
        key, steps = _read_chain("b", chain)
        path = LatticePath((key.a + key.b - n, n - key.b), steps)
        if path.start != config.starts[i] or path.end != config.ends[i]:
            raise MalformedFamilyError(
                f"chain {i + 1} runs {path.start}->{path.end}, "
                f"expected {config.starts[i]}->{config.ends[i]}"
            )
        out.append(path)
    return PathFamily(tuple(out))


_SQRT3_2 = math.sqrt(3.0) / 2.0
_SCALE = 36.0
_LIGHT = "#d9d9d9"
_DARK = "#7a7a7a"
_PLAIN = "#ffffff"


def _cart(p: TriPoint) -> tuple[float, float]:
    # y negated: the lattice's b axis points up, SVG's y axis points down
    # (negating the integer, not the product, keeps zero positive)
    return (_SCALE * (p.a + p.b / 2.0), _SCALE * (-p.b) * _SQRT3_2)


def _fmt_points(points: Iterator[TriPoint]) -> str:
    return " ".join(f"{x:.3f},{y:.3f}" for x, y in map(_cart, points))


def render_svg(shape: SkewShape, tiling: Tiling | None = None, shade: str = "both") -> str:
    """Deterministic SVG: the contour of the shape's region, plus the tiling if given.

    shade "a" fills light gray the kinds a direction-a chain holds in
    _CHAIN_SIDES (the single path's), "b" fills dark gray those of direction
    b (the disjoint family's), "both" does both, b last, so dark wins on the
    kind the two share.
    """
    if shade not in ("a", "b", "both"):
        raise ValueError(f"unknown shade option {shade!r}")
    boundary = _boundary(shape)
    if not boundary:
        return '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 1 1"/>\n'
    corners = [_cart(p) for p in boundary]
    pad = 0.25 * _SCALE
    x0 = min(x for x, _ in corners) - pad
    y0 = min(y for _, y in corners) - pad
    w = max(x for x, _ in corners) + pad - x0
    h = max(y for _, y in corners) + pad - y0
    lines = [
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="{x0:.3f} {y0:.3f} {w:.3f} {h:.3f}">'
    ]
    if tiling is not None:
        fills = {}  # kind -> colour; b after a, so dark wins on the shared kind
        for direction, colour in (("a", _LIGHT), ("b", _DARK)):
            if shade in (direction, "both"):
                fills.update(dict.fromkeys(_CHAIN_SIDES[direction], colour))
        for loz in tiling.sorted_lozenges():
            lines.append(
                f'  <polygon points="{_fmt_points(lozenge_corners(loz))}" '
                f'fill="{fills.get(loz.kind, _PLAIN)}" stroke="#000000" stroke-width="1.2" '
                'stroke-linejoin="round"/>'
            )
    lines.append(
        f'  <polygon points="{_fmt_points(boundary)}" fill="none" '
        'stroke="#000000" stroke-width="2.6" stroke-linejoin="round"/>'
    )
    lines.append("</svg>\n")
    return "\n".join(lines)
