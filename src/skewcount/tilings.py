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
from dataclasses import dataclass
from typing import Iterator, NamedTuple

from .errors import (
    InvariantError,
    MalformedFamilyError,
    NotAdmissibleError,
    WrongEndpointsError,
    capped,
)
from .gv import PathFamily, gv_endpoints
from .paths import STEP_EAST, STEP_NORTH, LatticePath, is_admissible
from .shapes import SkewShape, format_shape, profiles

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


def triangle_vertices(t: Triangle) -> tuple[TriPoint, TriPoint, TriPoint]:
    if t.up:
        return (TriPoint(t.a, t.b), TriPoint(t.a + 1, t.b), TriPoint(t.a, t.b + 1))
    return (TriPoint(t.a + 1, t.b), TriPoint(t.a, t.b + 1), TriPoint(t.a + 1, t.b + 1))


def lozenge_triangles(loz: Lozenge) -> tuple[Triangle, Triangle]:
    """The UP and DOWN triangle a lozenge covers."""
    a, b = loz.a, loz.b
    up = Triangle(a, b, True)
    if loz.kind == T1:
        return (up, Triangle(a, b, False))
    if loz.kind == T2:
        return (up, Triangle(a - 1, b, False))
    if loz.kind == T3:
        return (up, Triangle(a, b - 1, False))
    raise ValueError(f"unknown lozenge kind {loz.kind}")


def lozenge_corners(loz: Lozenge) -> tuple[TriPoint, TriPoint, TriPoint, TriPoint]:
    """The rhombus corners in cyclic order."""
    a, b = loz.a, loz.b
    if loz.kind == T1:
        return (TriPoint(a, b), TriPoint(a + 1, b), TriPoint(a + 1, b + 1), TriPoint(a, b + 1))
    if loz.kind == T2:
        return (TriPoint(a, b), TriPoint(a + 1, b), TriPoint(a, b + 1), TriPoint(a - 1, b + 1))
    if loz.kind == T3:
        return (TriPoint(a, b), TriPoint(a + 1, b - 1), TriPoint(a + 1, b), TriPoint(a, b + 1))
    raise ValueError(f"unknown lozenge kind {loz.kind}")


@dataclass(frozen=True)
class Region:
    """A boundary polygon (closed implicitly) and the unit triangles inside it."""

    boundary: tuple[TriPoint, ...]
    triangles: frozenset[Triangle]

    @property
    def up_count(self) -> int:
        return sum(1 for t in self.triangles if t.up)

    @property
    def down_count(self) -> int:
        return sum(1 for t in self.triangles if not t.up)


@dataclass(frozen=True)
class Tiling:
    lozenges: frozenset[Lozenge]

    def sorted_lozenges(self) -> list[Lozenge]:
        return sorted(self.lozenges)

    def to_json(self) -> dict:
        return {"lozenges": [[loz.kind, loz.a, loz.b] for loz in self.sorted_lozenges()]}


@dataclass(frozen=True)
class RhombusPathFamily:
    """Chains of lozenges crossing sides of one fixed direction.

    direction "a" chains cross the v-parallel sides (kinds T2/T3), "b" the
    e2-parallel sides (T1/T3), "c" the e1-parallel sides (T1/T2). Paths are
    ordered top to bottom by their starting side.
    """

    direction: str
    paths: tuple[tuple[Lozenge, ...], ...]


_CHAIN_KINDS = {"a": (T2, T3), "b": (T1, T3), "c": (T1, T2)}


def _interior_triangles(boundary: tuple[TriPoint, ...]) -> list[Triangle]:
    # even-odd scanline over any lattice polygon. The chart (a, b) -> (2a + b, b)
    # is linear and injective, so containment transfers; scaled by 3, row b's
    # centroids are integral, UP(a, b) at (6a + 3b + 3, 3b + 1) and DOWN(a, b)
    # at (6a + 3b + 6, 3b + 2), and those heights never meet a vertex height
    # (0 mod 3). So an edge from height b1 to b2 > b1 crosses both scan lines
    # of rows b1..b2-1 cleanly. Each crossing is cut down, by exact floor
    # division, to (first a whose centroid lies right of it, last a whose
    # centroid lies left of it); that pair sorts crossings as finely as any
    # centroid can see, and a centroid strictly between crossings 2k and 2k+1
    # of its line is inside. O(edges + triangles), integers only.
    lines: dict[tuple[int, bool], list[tuple[int, int]]] = {}
    for p, q in zip(boundary, boundary[1:] + boundary[:1]):
        if p.b == q.b:
            continue
        if p.b > q.b:
            p, q = q, p
        dx, dy = 6 * (q.a - p.a) + 3 * (q.b - p.b), 3 * (q.b - p.b)
        for b in range(p.b, q.b):
            for up, h, c in ((True, 1, 3), (False, 2, 6)):
                # dy * (crossing x - x of the line's a = 0 centroid); a steps by 6
                num = (6 * p.a + 3 * (p.b - b) - c) * dy + (3 * (b - p.b) + h) * dx
                cuts = lines.setdefault((b, up), [])
                cuts.append((num // (6 * dy) + 1, -(-num // (6 * dy)) - 1))
    out = []
    for (b, up), cuts in lines.items():
        cuts.sort()
        for (first, _), (_, last) in zip(cuts[::2], cuts[1::2]):
            out.extend(Triangle(a, b, up) for a in range(first, last + 1))
    return out


def region_from_shape(shape: SkewShape) -> Region:
    """The tiling region of a shape: inner profile, then the outer profile
    pushed one unit along v, walked as a closed polygon."""
    if shape.n == 0:
        return Region((), frozenset())
    pair = profiles(shape)
    near = [TriPoint(x, y) for x, y in pair.mu_profile.vertices()]
    far = [TriPoint(x + 1, y - 1) for x, y in pair.lambda_profile.vertices()]
    walk = tuple(near + far[::-1])
    if len(set(walk)) != len(walk):
        raise InvariantError(
            f"boundary walk revisits a vertex for shape {format_shape(shape)}"
        )
    triangles = _interior_triangles(walk)
    ups = sum(1 for t in triangles if t.up)
    if 2 * ups != len(triangles):
        raise InvariantError("region has unequal UP/DOWN triangle counts")
    return Region(walk, frozenset(triangles))


def _triangle_key(t: Triangle) -> tuple[int, int, int]:
    return (t.b, t.a, 0 if t.up else 1)


def _pairings(t: Triangle) -> tuple[tuple[Lozenge, Triangle], ...]:
    """The three lozenges that could cover t, with the partner each needs."""
    a, b = t.a, t.b
    if t.up:
        return (
            (Lozenge(T1, a, b), Triangle(a, b, False)),
            (Lozenge(T2, a, b), Triangle(a - 1, b, False)),
            (Lozenge(T3, a, b), Triangle(a, b - 1, False)),
        )
    return (
        (Lozenge(T1, a, b), Triangle(a, b, True)),
        (Lozenge(T2, a + 1, b), Triangle(a + 1, b, True)),
        (Lozenge(T3, a, b + 1), Triangle(a, b + 1, True)),
    )


def iter_tilings(region: Region) -> Iterator[Tiling]:
    """All tilings of the region, lazily, by backtracking perfect-matching search.

    Always pairs the first uncovered triangle in the fixed (b, a, UP<DOWN)
    order, trying kinds T1, T2, T3; the output order is the search order.
    Deliberately knows nothing about paths, so it can serve as an oracle
    for the path-based counts.
    """
    order = sorted(region.triangles, key=_triangle_key)
    present = region.triangles
    covered: set[Triangle] = set()
    chosen: list[Lozenge] = []

    def go(start: int) -> Iterator[Tiling]:
        i = start
        while i < len(order) and order[i] in covered:
            i += 1
        if i == len(order):
            yield Tiling(frozenset(chosen))
            return
        t = order[i]
        covered.add(t)
        for loz, partner in _pairings(t):
            if partner in present and partner not in covered:
                covered.add(partner)
                chosen.append(loz)
                yield from go(i + 1)
                chosen.pop()
                covered.remove(partner)
        covered.remove(t)

    return go(0)


def enumerate_tilings(region: Region, cap: int | None = None) -> list[Tiling]:
    """All tilings of the region, in the search order of :func:`iter_tilings`."""
    return list(capped(iter_tilings(region), cap))


def _side_keys(direction: str, loz: Lozenge) -> tuple[TriPoint, TriPoint]:
    """(entry, exit) keys of a lozenge's two direction-parallel sides.

    Each key names one unit segment: a v-side by its upper vertex, an
    e2-side by its lower vertex, an e1-side by its left vertex. Lozenges
    sharing a full side therefore share a key, which is what chains on.
    """
    a, b = loz.a, loz.b
    if direction == "a":
        if loz.kind == T2:
            return (TriPoint(a - 1, b + 1), TriPoint(a, b + 1))
        if loz.kind == T3:
            return (TriPoint(a, b), TriPoint(a, b + 1))
    elif direction == "b":
        if loz.kind == T1:
            return (TriPoint(a, b), TriPoint(a + 1, b))
        if loz.kind == T3:
            return (TriPoint(a, b), TriPoint(a + 1, b - 1))
    elif direction == "c":
        if loz.kind == T1:
            return (TriPoint(a, b), TriPoint(a, b + 1))
        if loz.kind == T2:
            return (TriPoint(a, b), TriPoint(a - 1, b + 1))
    else:
        raise ValueError(f"unknown chain direction {direction!r}")
    raise ValueError(f"kind {loz.kind} lozenges have no {direction!r}-parallel sides")


def extract_family(tiling: Tiling, direction: str) -> RhombusPathFamily:
    """Chain the tiling's lozenges across sides of the given direction.

    A chain starts at a side no lozenge exits through (a boundary side) and
    follows shared sides until it leaves the region. Every lozenge with
    sides of the direction lands on exactly one chain.
    """
    if direction not in _CHAIN_KINDS:
        raise ValueError(f"unknown chain direction {direction!r}")
    kinds = _CHAIN_KINDS[direction]
    by_entry: dict[TriPoint, Lozenge] = {}
    exits: set[TriPoint] = set()
    members = 0
    for loz in tiling.lozenges:
        if loz.kind not in kinds:
            continue
        entry, leave = _side_keys(direction, loz)
        # in a tiling at most one lozenge sits forward of any given segment
        if entry in by_entry:
            raise InvariantError(f"two lozenges enter through {entry}")
        by_entry[entry] = loz
        exits.add(leave)
        members += 1
    starts = sorted((k for k in by_entry if k not in exits), key=lambda p: (-p.b, p.a))
    chains = []
    used = 0
    for key in starts:
        chain = []
        while key in by_entry:
            loz = by_entry[key]
            chain.append(loz)
            key = _side_keys(direction, loz)[1]
        chains.append(tuple(chain))
        used += len(chain)
    if used != members:
        raise InvariantError("chains failed to cover every eligible lozenge")
    return RhombusPathFamily(direction, tuple(chains))


def _read_chain(direction: str, chain: tuple[Lozenge, ...]) -> tuple[TriPoint, str]:
    """A chain's first entry key and its steps: the direction's first kind E, second N.

    Re-walks the chain, so a lozenge of another kind, a lozenge that does not
    enter where its predecessor leaves, or an empty chain is malformed.
    """
    east, north = _CHAIN_KINDS[direction]
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
    Lozenge(T3, a, b); the rest of the region splits uniquely into sheared
    cells (T1 lozenges).
    """
    try:
        ok = is_admissible(shape, path)
    except WrongEndpointsError as exc:
        raise NotAdmissibleError(str(exc)) from exc
    if not ok:
        raise NotAdmissibleError(
            f"path {path.steps!r} leaves shape {format_shape(shape)}"
        )
    region = region_from_shape(shape)
    lozenges = []
    covered: set[Triangle] = set()
    a, b = path.start
    for s in path.steps:
        if s == STEP_EAST:
            loz = Lozenge(T2, a + 1, b - 1)
            a += 1
        else:
            loz = Lozenge(T3, a, b)
            b += 1
        lozenges.append(loz)
        covered.update(lozenge_triangles(loz))
    if not covered <= region.triangles:
        raise InvariantError("path lozenges escaped the region")
    rest = region.triangles - covered
    downs = {t for t in rest if not t.up}
    for t in sorted((t for t in rest if t.up), key=_triangle_key):
        partner = Triangle(t.a, t.b, False)
        if partner not in downs:
            raise InvariantError(f"no cell partner for {t}")
        downs.remove(partner)
        lozenges.append(Lozenge(T1, t.a, t.b))
    if downs:
        raise InvariantError(f"unpaired triangles {sorted(downs)}")
    return Tiling(frozenset(lozenges))


def family_B_to_z2_paths(family: RhombusPathFamily, shape: SkewShape) -> PathFamily:
    """Read the "b"-direction chains as disjoint monotone paths on Z^2.

    Chain i (top to bottom) maps by T1 -> E, T3 -> N onto the path from the
    i-th fixed start point to the i-th end point of the shape's endpoint
    configuration; an entry side keyed (a, b) sits at Z^2 point
    (a + b - n, n - b).
    """
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


def tiling_type_census(tiling: Tiling) -> tuple[int, int, int]:
    """(T1, T2, T3) counts; always (m, width, n) for a tiling of a shape's region."""
    counts = [0, 0, 0]
    for loz in tiling.lozenges:
        counts[loz.kind - 1] += 1
    return tuple(counts)


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


def render_svg(region: Region, tiling: Tiling | None = None, shade: str = "both") -> str:
    """Deterministic SVG: the region contour, plus the tiling if given.

    shade "a" fills the lozenges of the single-path chain (T2/T3) light
    gray, "b" fills the disjoint-family chains (T1/T3) dark gray, "both"
    does both with dark winning on the shared T3 kind.
    """
    if shade not in ("a", "b", "both"):
        raise ValueError(f"unknown shade option {shade!r}")
    if not region.boundary:
        return '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" viewBox="0 0 1 1"/>\n'
    corners = [_cart(p) for p in region.boundary]
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
        for loz in tiling.sorted_lozenges():
            fill = _PLAIN
            if shade in ("a", "both") and loz.kind in (T2, T3):
                fill = _LIGHT
            if shade in ("b", "both") and loz.kind in (T1, T3):
                fill = _DARK
            lines.append(
                f'  <polygon points="{_fmt_points(lozenge_corners(loz))}" '
                f'fill="{fill}" stroke="#000000" stroke-width="1.2" '
                'stroke-linejoin="round"/>'
            )
    lines.append(
        f'  <polygon points="{_fmt_points(region.boundary)}" fill="none" '
        'stroke="#000000" stroke-width="2.6" stroke-linejoin="round"/>'
    )
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
