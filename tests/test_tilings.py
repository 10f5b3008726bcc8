import math
import random
from functools import partial

import pytest
from hypothesis import example, given

from skewcount.errors import (
    InvariantError,
    MalformedFamilyError,
    NotAdmissibleError,
    ShapeError,
    count_leaves,
)
from skewcount.gv import enumerate_disjoint_families, gv_endpoints
from skewcount.kreweras import kreweras_count
from skewcount.paths import LatticePath, count_paths_dp, enumerate_paths, path_from_north_record
from skewcount.shapes import (
    Partition,
    SkewShape,
    format_shape,
    parse_shape,
    partitions_in_box,
    subpartitions,
)
from skewcount.tilings import (
    T1,
    T2,
    T3,
    Lozenge,
    RhombusPathFamily,
    Tiling,
    Triangle,
    TriPoint,
    _CHAIN_SIDES,
    _boundary,
    _row_spans,
    _side_keys,
    enumerate_tilings,
    extract_family,
    family_A_to_lattice_path,
    family_B_to_z2_paths,
    lattice_path_to_tiling,
    lozenge_corners,
    lozenge_triangles,
    render_svg,
    tiling_at,
    tiling_listing,
    triangle_vertices,
    walk_tilings,
)
from test_gv import is_vertex_disjoint
from test_kreweras import skew_shapes

HEXAGON = parse_shape("1")

# the two tilings of the unit hexagon, in canonical search order
HEX_TILINGS = [
    frozenset({Lozenge(T1, 0, 0), Lozenge(T2, 1, -1), Lozenge(T3, 1, 0)}),
    frozenset({Lozenge(T1, 1, -1), Lozenge(T2, 1, 0), Lozenge(T3, 0, 0)}),
]


def sweep(rows, cols):
    for lam in partitions_in_box(rows, cols):
        for mu in subpartitions(lam):
            yield SkewShape(Partition(lam), Partition(mu))


def colex_paths(shape):
    """The shape's paths in lexicographic order of the reversed north record."""
    return sorted(enumerate_paths(shape), key=lambda p: p.north_xs()[::-1])


# shapes small enough to list every tiling of
small_shapes = skew_shapes(max_rows=8, max_width=8).filter(lambda s: count_paths_dp(s) <= 3000)


def ray_cast_triangles(boundary):
    """Reference region interior: every triangle of the bounding box, kept iff
    an exact even-odd ray cast toward +x from its centroid crosses the
    boundary an odd number of times (chart (a, b) -> (2a + b, b), scaled by 3).
    The crossings of each scan height are computed once, not per triangle."""
    if not boundary:
        return set()
    poly = [(3 * (2 * p.a + p.b), 3 * p.b) for p in boundary]
    edges = list(zip(poly, poly[1:] + poly[:1]))
    a_lo, a_hi = min(p.a for p in boundary) - 1, max(p.a for p in boundary) + 1
    b_lo, b_hi = min(p.b for p in boundary) - 1, max(p.b for p in boundary) + 1
    out = set()
    for b in range(b_lo, b_hi + 1):
        for up, h, dx in ((True, 1, 3), (False, 2, 6)):
            py = 3 * b + h
            crossings = []
            for (x1, y1), (x2, y2) in edges:
                if y1 != y2 and min(y1, y2) < py < max(y1, y2):
                    num, den = x1 * (y2 - y1) + (py - y1) * (x2 - x1), y2 - y1
                    crossings.append((num, den) if den > 0 else (-num, -den))
            for a in range(a_lo, a_hi + 1):
                px = 6 * a + 3 * b + dx
                if sum(num > px * den for num, den in crossings) % 2:
                    out.add(Triangle(a, b, up))
    return out


def interior_triangles(shape):
    """The region's triangles read off its row spans, in the tiling search's
    order: row by row, a ascending, UP before DOWN."""
    triangles = [
        Triangle(a, b, up)
        for b, ups, downs, _ in _row_spans(shape)
        for up, span in ((True, ups), (False, downs))
        for a in span
    ]
    return sorted(triangles, key=lambda t: (t.b, t.a, not t.up))


def region_triangles(shape):
    """The region's triangles by the ray cast of its boundary alone."""
    return ray_cast_triangles(_boundary(shape))


def up_down_counts(triangles):
    """(UP, DOWN) counts of a list of triangles."""
    ups = sum(1 for t in triangles if t.up)
    return ups, len(triangles) - ups


def type_census(tiling):
    """(T1, T2, T3) counts; always (m, width, n) for a tiling of a shape's region."""
    counts = [0, 0, 0]
    for loz in tiling.lozenges:
        counts[loz.kind - 1] += 1
    return tuple(counts)


def _pairings(t):
    """The three lozenges that could cover t, with the partner each needs,
    written out from each triangle's side apart from lozenge_triangles."""
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


def set_search_tilings(present):
    """Reference tiling search of the region whose triangles are the set
    ``present``: the same backtracking order as walk_tilings, but with
    coverage as a set of triangles and each triangle's pairings looked up at
    every node."""
    order = sorted(present, key=lambda t: (t.b, t.a, 0 if t.up else 1))
    covered = set()
    chosen = []

    def go(start):
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


class TestGeometry:
    def test_triangle_vertices(self):
        assert triangle_vertices(Triangle(2, 3, True)) == (
            TriPoint(2, 3), TriPoint(3, 3), TriPoint(2, 4)
        )
        assert triangle_vertices(Triangle(2, 3, False)) == (
            TriPoint(3, 3), TriPoint(2, 4), TriPoint(3, 4)
        )

    def test_lozenge_triangles_share_an_edge(self):
        for kind in (T1, T2, T3):
            up, down = lozenge_triangles(Lozenge(kind, 0, 0))
            assert up.up and not down.up
            shared = set(triangle_vertices(up)) & set(triangle_vertices(down))
            assert len(shared) == 2

    def test_lozenge_corners_cover_both_triangles(self):
        for kind in (T1, T2, T3):
            loz = Lozenge(kind, 1, 2)
            up, down = lozenge_triangles(loz)
            union = set(triangle_vertices(up)) | set(triangle_vertices(down))
            assert set(lozenge_corners(loz)) == union

    def test_unknown_kind(self):
        # both lookups meet the one refusal, word for word
        for kind in (0, 4, -1):
            for lookup in (lozenge_triangles, lozenge_corners):
                with pytest.raises(ValueError, match=f"^unknown lozenge kind {kind}$"):
                    lookup(Lozenge(kind, 2, 3))

    def test_each_kind_pairs_as_the_pairings_say(self):
        # each triangle's three pairings, written out apart from the kind table
        for t in (Triangle(2, 3, True), Triangle(2, 3, False)):
            for loz, partner in _pairings(t):
                up, down = (t, partner) if t.up else (partner, t)
                assert lozenge_triangles(loz) == (up, down), loz


class TestRegion:
    def test_unit_hexagon(self):
        assert _boundary(HEXAGON) == (
            TriPoint(0, 0), TriPoint(0, 1), TriPoint(1, 1),
            TriPoint(2, 0), TriPoint(2, -1), TriPoint(1, -1),
        )
        triangles = interior_triangles(HEXAGON)
        assert len(triangles) == 6
        assert up_down_counts(triangles) == (3, 3)

    def test_square_shape_hexagon(self):
        assert _boundary(parse_shape("2,2")) == (
            TriPoint(0, 0), TriPoint(0, 1), TriPoint(0, 2),
            TriPoint(1, 2), TriPoint(2, 2),
            TriPoint(3, 1), TriPoint(3, 0), TriPoint(3, -1),
            TriPoint(2, -1), TriPoint(1, -1),
        )
        assert len(interior_triangles(parse_shape("2,2"))) == 16

    def test_empty_shape(self):
        shape = parse_shape("0")
        assert _boundary(shape) == ()
        assert interior_triangles(shape) == []

    def test_triangle_count_formula(self):
        for shape in sweep(2, 3):
            triangles = interior_triangles(shape)
            assert set(triangles) == region_triangles(shape), shape
            expected = shape.m + shape.width + shape.n
            assert up_down_counts(triangles) == (expected, expected)

    def test_ribbon_of_empty_rows(self):
        # fully degenerate shape: the region is a width-one ribbon, tiled one way
        shape = parse_shape("2,1/2,1")
        assert len(region_triangles(shape)) == len(interior_triangles(shape)) == 8
        assert len(enumerate_tilings(shape)) == 1

    def test_matches_ray_cast_on_5x5_box(self):
        # the rows list each triangle once, and exactly those the outline holds
        for shape in sweep(5, 5):
            triangles = interior_triangles(shape)
            assert len(set(triangles)) == len(triangles), shape
            assert set(triangles) == region_triangles(shape), shape

    # the inner parts are rowwise mins, so some rows come out empty
    @given(skew_shapes(max_rows=25, max_width=25))
    @example(parse_shape("2,1/2,1"))
    @example(parse_shape("20,20,15,9,9,4,1/20,15,15,9,4,4"))
    def test_matches_ray_cast_on_random_shapes(self, shape):
        triangles = interior_triangles(shape)
        assert len(set(triangles)) == len(triangles)
        assert set(triangles) == region_triangles(shape)
        expected = shape.m + shape.width + shape.n
        assert up_down_counts(triangles) == (expected, expected)

    def test_staircase_200_scales(self):
        # a bounding-box ray cast would take minutes here; this guards the
        # O(rows + triangles) build without timing it
        shape = SkewShape(Partition(tuple(range(200, 0, -1))))
        expected = shape.m + shape.width + shape.n
        assert expected == 20500
        assert up_down_counts(interior_triangles(shape)) == (expected, expected)
        # the outline walks both profiles, n + width + 1 vertices each
        assert len(_boundary(shape)) == 2 * (shape.n + shape.width + 1)


class TestEnumerateTilings:
    def test_unit_hexagon_order(self):
        got = enumerate_tilings(HEXAGON)
        assert [t.lozenges for t in got] == HEX_TILINGS

    def test_counts_match_determinant(self):
        for shape in sweep(2, 2):
            assert len(enumerate_tilings(shape)) == kreweras_count(shape)

    def test_square_shape(self):
        assert len(enumerate_tilings(parse_shape("2,2"))) == 6

    def test_empty_region(self):
        assert enumerate_tilings(parse_shape("0")) == [Tiling(frozenset())]

    def test_tilings_cover_region_exactly(self):
        shape = parse_shape("2,1")
        present = region_triangles(shape)
        for tiling in enumerate_tilings(shape):
            covered = [t for loz in tiling.lozenges for t in lozenge_triangles(loz)]
            assert len(covered) == len(set(covered))
            assert set(covered) == present

    def test_to_json_sorted(self):
        tiling = enumerate_tilings(HEXAGON)[0]
        assert tiling.to_json() == {"lozenges": [[1, 0, 0], [2, 1, -1], [3, 1, 0]]}

    def test_matches_set_search_on_4x4_box(self):
        for shape in sweep(4, 4):
            present = region_triangles(shape)
            assert enumerate_tilings(shape) == list(set_search_tilings(present)), shape

    @given(skew_shapes(max_rows=6, max_width=6))
    @example(parse_shape("2,1/2,1"))
    @example(parse_shape("20,20,15,9,9,4,1/20,15,15,9,4,4"))
    def test_matches_set_search_on_random_shapes(self, shape):
        present = region_triangles(shape)
        assert enumerate_tilings(shape) == list(set_search_tilings(present))

    def test_pairing_table_is_built_once(self, monkeypatch):
        # one read of the row spans per walk, and no lozenge's triangles looked up
        calls = []

        def counted(shape):
            calls.append(shape)
            return row_spans(shape)

        def no_lookup(loz):
            raise AssertionError("looked up a lozenge's triangles")

        row_spans = _row_spans
        monkeypatch.setattr("skewcount.tilings._row_spans", counted)
        monkeypatch.setattr("skewcount.tilings.lozenge_triangles", no_lookup)
        shape = parse_shape("7,7,6,5,4/3,2")
        assert count_leaves(partial(walk_tilings, shape), None) == 680
        assert calls == [shape]

    def test_row_numbers_follow_the_triangle_order(self):
        # UP(a, b) is number base + 2a and DOWN(a, b) base + 2a + 1, in the
        # order interior_triangles lists them
        for shape in sweep(4, 4):
            numbers = {
                Triangle(a, b, up): base + 2 * a + (not up)
                for b, ups, downs, base in _row_spans(shape)
                for up, span in ((True, ups), (False, downs))
                for a in span
            }
            order = interior_triangles(shape)
            assert numbers == {t: i for i, t in enumerate(order)}, shape

    def test_too_deep_is_refused_at_the_call(self, monkeypatch):
        # 1,201 lozenges, past the default recursion limit of 1,000: a walk run
        # without the judge meets take_leaves' backstop, with the same one line
        with pytest.raises(ShapeError, match="deeper than Python's recursion limit"):
            count_leaves(partial(walk_tilings, SkewShape((600,))), None)

        # the listing reads its budget off the shape, and the library's judge
        # refuses it before a row is read or an outline built
        def no_rows(shape):
            raise AssertionError("read rows too deep to search")

        monkeypatch.setattr("skewcount.tilings._boundary", no_rows)
        monkeypatch.setattr("skewcount.tilings._row_spans", no_rows)
        assert tiling_listing(SkewShape((600,)))[2] == (1201, 7 * 1201)
        with pytest.raises(ShapeError, match="deeper than Python's recursion limit"):
            enumerate_tilings(SkewShape((600,)))


class TestTilingAt:
    def test_matches_the_search_on_3x3_box(self):
        for shape in sweep(3, 3):
            tilings = enumerate_tilings(shape)
            assert [tiling_at(shape, i) for i in range(len(tilings))] == tilings, shape

    @given(small_shapes)
    @example(parse_shape("2,1/2,1"))
    @example(parse_shape("8,8,8,8,8,8/3,3,1"))
    def test_matches_the_search_on_random_shapes(self, shape):
        tilings = enumerate_tilings(shape)
        assert [tiling_at(shape, i) for i in range(len(tilings))] == tilings

    def test_empty_region(self):
        assert tiling_at(parse_shape("0"), 0) == Tiling(frozenset())

    @pytest.mark.parametrize("index", [-1, 5, 10**20])
    def test_index_out_of_range(self, index):
        # raised, not asserted, so it holds under python -O too
        with pytest.raises(ShapeError, match=f"^tiling index {index} outside 0..4$"):
            tiling_at(parse_shape("2,1"), index)

    @pytest.mark.parametrize(
        "shape, unit",
        [
            (SkewShape((200_000,)), "region lozenges"),
            # a band three cells wide, 49,999 rows: 199,997 lozenges, but its
            # table's ints grow with the rows, and the table guard refuses it
            (SkewShape(range(50_000, 1, -1), range(49_998, -1, -1)), "table bits"),
        ],
        ids=["wide-row", "long-band"],
    )
    def test_past_a_size_guard_builds_no_table(self, monkeypatch, shape, unit):
        def no_bounds(self):
            raise AssertionError("read the bounds of a shape past a size guard")

        monkeypatch.setattr(SkewShape, "north_step_bounds", no_bounds)
        with pytest.raises(ShapeError, match=f"^shape too large: .* {unit}, past"):
            tiling_at(shape, 0)

    def test_far_index_of_a_large_box(self):
        # 40 rows of 40: C(80, 40) tilings, a region past the recursion
        # limit that no search could walk
        shape = SkewShape((40,) * 40)
        total = math.comb(80, 40)
        first, last = tiling_at(shape, 0), tiling_at(shape, total - 1)
        # tiling 0 is the path along the outer profile, the last along the inner one
        assert family_A_to_lattice_path(extract_family(first, "a")).steps == "E" * 40 + "N" * 40
        assert family_A_to_lattice_path(extract_family(last, "a")).steps == "N" * 40 + "E" * 40


class TestSearchOrders:
    """The three searches list their items in the orders the bijections fix."""

    @given(small_shapes)
    def test_tilings_run_the_paths_backwards(self, shape):
        paths = enumerate_paths(shape)
        assert enumerate_tilings(shape) == [lattice_path_to_tiling(shape, p) for p in reversed(paths)]

    @given(skew_shapes(max_rows=5, max_width=6).filter(lambda s: count_paths_dp(s) <= 500))
    @example(parse_shape("4,4,3,1/2"))
    def test_families_follow_the_paths_in_colex_order(self, shape):
        assert enumerate_disjoint_families(gv_endpoints(shape)) == [
            family_B_to_z2_paths(extract_family(lattice_path_to_tiling(shape, p), "b"), shape)
            for p in colex_paths(shape)
        ]


class TestCensus:
    def test_unit_hexagon(self):
        for tiling in enumerate_tilings(HEXAGON):
            assert type_census(tiling) == (1, 1, 1)

    def test_census_is_shape_data(self):
        for shape in sweep(2, 2):
            for tiling in enumerate_tilings(shape):
                assert type_census(tiling) == (shape.m, shape.width, shape.n)

    def test_empty(self):
        assert type_census(Tiling(frozenset())) == (0, 0, 0)


class TestChainExtraction:
    def test_single_chain_for_direction_a(self):
        for tiling in enumerate_tilings(HEXAGON):
            family = extract_family(tiling, "a")
            assert len(family.paths) == 1
            assert sorted(loz.kind for loz in family.paths[0]) == [T2, T3]

    def test_chain_counts_per_direction(self):
        for shape in sweep(2, 3):
            if shape.n == 0:
                continue
            tiling = enumerate_tilings(shape)[0]
            assert len(extract_family(tiling, "a").paths) == 1
            assert len(extract_family(tiling, "b").paths) == shape.n
            assert len(extract_family(tiling, "c").paths) == shape.width

    def test_direction_c_partitions_its_kinds(self):
        shape = parse_shape("3,2/1")
        for tiling in enumerate_tilings(shape):
            family = extract_family(tiling, "c")
            chained = [loz for chain in family.paths for loz in chain]
            eligible = [loz for loz in tiling.lozenges if loz.kind in (T1, T2)]
            assert sorted(chained) == sorted(eligible)
            assert len(chained) == len(set(chained))

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            extract_family(Tiling(frozenset()), "d")

    def test_two_lozenges_through_one_side(self):
        # a T1 and a T3 at (0, 0) share a triangle, so no tiling holds both
        tiling = Tiling(frozenset({Lozenge(T1, 0, 0), Lozenge(T3, 0, 0)}))
        with pytest.raises(InvariantError, match="two lozenges enter through"):
            extract_family(tiling, "b")

    @pytest.mark.parametrize("direction, unit", [("a", (1, -1)), ("b", (0, 1)), ("c", (1, 0))])
    def test_side_keys_name_sides_of_the_lozenge(self, direction, unit):
        # the table against lozenge_corners: a key names the unit segment from
        # the key to key + unit, and a kind with no such side has no keys
        for kind in (T1, T2, T3):
            loz = Lozenge(kind, 3, 5)
            corners = lozenge_corners(loz)
            sides = set()
            for p, q in zip(corners, corners[1:] + corners[:1]):
                step = (q.a - p.a, q.b - p.b)
                if step in (unit, (-unit[0], -unit[1])):
                    sides.add(p if step == unit else q)
            if not sides:
                assert kind not in _CHAIN_SIDES[direction]
                continue
            entry, leave = _side_keys(direction, loz)
            assert {entry, leave} == sides


class TestPathBijection:
    def test_hexagon_labels(self):
        tilings = enumerate_tilings(HEXAGON)
        steps = [family_A_to_lattice_path(extract_family(t, "a")).steps for t in tilings]
        assert steps == ["EN", "NE"]

    def test_path_to_tiling_hexagon(self):
        tiling = lattice_path_to_tiling(HEXAGON, LatticePath((0, 0), "EN"))
        assert tiling.lozenges == HEX_TILINGS[0]

    def test_round_trip_is_identity(self):
        for shape in sweep(2, 2):
            for path in enumerate_paths(shape):
                tiling = lattice_path_to_tiling(shape, path)
                back = family_A_to_lattice_path(extract_family(tiling, "a"))
                assert back == path

    @given(skew_shapes(max_rows=12, max_width=12))
    @example(parse_shape("20,20,15,9,9,4,1/20,15,15,9,4,4"))
    def test_round_trip_on_random_shapes(self, shape):
        # one admissible path per shape, from a generator seeded with it: each
        # north step at an x within its bounds and not left of the last one
        rng = random.Random(format_shape(shape))
        record, x = [], 0
        for lo, hi in shape.north_step_bounds():
            x = rng.randint(max(lo, x), hi)
            record.append(x)
        path = path_from_north_record(tuple(record), shape.width)
        tiling = lattice_path_to_tiling(shape, path)
        assert family_A_to_lattice_path(extract_family(tiling, "a")) == path

    def test_paths_biject_onto_tilings(self):
        shape = parse_shape("2,1")
        paths = enumerate_paths(shape)
        images = {lattice_path_to_tiling(shape, p) for p in paths}
        assert len(images) == len(paths) == 5
        assert images == set(enumerate_tilings(shape))

    def test_builds_no_region(self, monkeypatch):
        # the bijection reads the region's rows; it needs no outline
        def no_region(shape):
            raise AssertionError("built an outline")

        monkeypatch.setattr("skewcount.tilings._boundary", no_region)
        for shape in sweep(3, 3):
            images = [lattice_path_to_tiling(shape, p) for p in enumerate_paths(shape)]
            tilings = enumerate_tilings(shape)
            assert len(images) == len(tilings) and set(images) == set(tilings)

    def test_path_length(self):
        for shape in sweep(2, 3):
            for tiling in enumerate_tilings(shape):
                path = family_A_to_lattice_path(extract_family(tiling, "a"))
                assert len(path.steps) == shape.width + shape.n

    def test_empty_shape(self):
        shape = parse_shape("0")
        tiling = lattice_path_to_tiling(shape, LatticePath((0, 0), ""))
        assert tiling == Tiling(frozenset())
        assert family_A_to_lattice_path(extract_family(tiling, "a")) == LatticePath((0, 0), "")

    def test_cover_check_reads_lozenge_triangles(self, monkeypatch):
        # a T1 cell paired with the wrong DOWN triangle no longer tiles the region
        def shifted(loz):
            up, down = lozenge_triangles(loz)
            return (up, Triangle(loz.a + 1, loz.b, False)) if loz.kind == T1 else (up, down)

        monkeypatch.setattr("skewcount.tilings.lozenge_triangles", shifted)
        with pytest.raises(InvariantError, match="'NENE'"):
            lattice_path_to_tiling(parse_shape("2,1"), LatticePath((0, 0), "NENE"))

    @pytest.mark.parametrize("cover", [
        pytest.param(lambda up, down: (up, Triangle(1, 0, False)), id="covered-twice"),
        pytest.param(lambda up, down: (up,), id="left-bare"),
    ])
    def test_cover_check_takes_each_triangle_once(self, monkeypatch, cover):
        # T3(1,1) covers DOWN(1,0) of NENE's tiling: a T1(2,0) that takes it too finds it
        # gone from the region's set, and one that covers only its UP leaves DOWN(2,0)
        def patched(loz):
            up, down = lozenge_triangles(loz)
            return cover(up, down) if loz == Lozenge(T1, 2, 0) else (up, down)

        monkeypatch.setattr("skewcount.tilings.lozenge_triangles", patched)
        with pytest.raises(InvariantError, match="'NENE' does not tile 2,1"):
            lattice_path_to_tiling(parse_shape("2,1"), LatticePath((0, 0), "NENE"))

    def test_not_admissible(self):
        with pytest.raises(NotAdmissibleError):
            lattice_path_to_tiling(parse_shape("2,1"), LatticePath((0, 0), "EENN"))
        with pytest.raises(NotAdmissibleError):
            # wrong endpoints are reported the same way
            lattice_path_to_tiling(HEXAGON, LatticePath((0, 0), "E"))


class TestFamilyB:
    def test_hexagon_paths(self):
        config = gv_endpoints(HEXAGON)
        seen = set()
        for tiling in enumerate_tilings(HEXAGON):
            family = family_B_to_z2_paths(extract_family(tiling, "b"), HEXAGON)
            (path,) = family.paths
            assert path.start == config.starts[0]
            assert path.end == config.ends[0]
            seen.add(path.steps)
        assert seen == {"EN", "NE"}

    def test_images_equal_disjoint_families(self):
        shape = parse_shape("2,1")
        tilings = enumerate_tilings(shape)
        images = {
            family_B_to_z2_paths(extract_family(t, "b"), shape) for t in tilings
        }
        assert images == set(enumerate_disjoint_families(gv_endpoints(shape)))

    def test_step_counts_per_row(self):
        for shape in sweep(2, 3):
            if shape.n == 0:
                continue
            tiling = enumerate_tilings(shape)[0]
            family = family_B_to_z2_paths(extract_family(tiling, "b"), shape)
            for i, path in enumerate(family.paths):
                assert len(path.steps) == shape.outer.part(i) - shape.inner.part(i) + 1

    def test_disjointness(self):
        shape = parse_shape("3,2,1")
        for tiling in enumerate_tilings(shape):
            family = family_B_to_z2_paths(extract_family(tiling, "b"), shape)
            assert is_vertex_disjoint(family)

    def test_empty_shape(self):
        family = family_B_to_z2_paths(
            extract_family(Tiling(frozenset()), "b"), parse_shape("0")
        )
        assert family.paths == ()


class TestMalformedFamilies:
    def test_wrong_direction(self):
        tiling = enumerate_tilings(HEXAGON)[0]
        with pytest.raises(MalformedFamilyError):
            family_A_to_lattice_path(extract_family(tiling, "b"))
        with pytest.raises(MalformedFamilyError):
            family_B_to_z2_paths(extract_family(tiling, "a"), HEXAGON)

    def test_too_many_chains(self):
        chain = ((Lozenge(T2, 1, -1),),)
        with pytest.raises(MalformedFamilyError):
            family_A_to_lattice_path(RhombusPathFamily("a", chain + chain))

    def test_too_few_chains(self):
        # a "b" family has one chain per row
        with pytest.raises(MalformedFamilyError, match="expected 2 chains, got 0"):
            family_B_to_z2_paths(RhombusPathFamily("b", ()), parse_shape("2,1"))

    def test_broken_chain(self):
        family = RhombusPathFamily("a", ((Lozenge(T2, 1, -1), Lozenge(T3, 5, 5)),))
        with pytest.raises(MalformedFamilyError):
            family_A_to_lattice_path(family)

    def test_lozenge_of_another_kind(self):
        # a T1 cell has no v-parallel sides, so it cannot sit on an "a" chain
        family = RhombusPathFamily("a", ((Lozenge(T2, 1, -1), Lozenge(T1, 0, 0)),))
        with pytest.raises(MalformedFamilyError, match="kind 1"):
            family_A_to_lattice_path(family)
        family = RhombusPathFamily("b", ((Lozenge(T2, 1, -1),),))
        with pytest.raises(MalformedFamilyError, match="kind 2"):
            family_B_to_z2_paths(family, HEXAGON)

    def test_empty_chain(self):
        with pytest.raises(MalformedFamilyError):
            family_A_to_lattice_path(RhombusPathFamily("a", ((),)))
        with pytest.raises(MalformedFamilyError):
            family_B_to_z2_paths(RhombusPathFamily("b", ((),)), HEXAGON)

    def test_shape_mismatch(self):
        tiling = enumerate_tilings(parse_shape("2,2"))[0]
        family = extract_family(tiling, "b")
        with pytest.raises(MalformedFamilyError):
            family_B_to_z2_paths(family, parse_shape("2,1"))


class TestRenderSvg:
    def test_deterministic(self):
        shape = parse_shape("2,1")
        tiling = enumerate_tilings(shape)[0]
        assert render_svg(shape, tiling) == render_svg(shape, tiling)

    def test_structure(self):
        tiling = enumerate_tilings(HEXAGON)[0]
        svg = render_svg(HEXAGON, tiling, "both")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        # one polygon per lozenge plus the contour
        assert svg.count("<polygon") == len(tiling.lozenges) + 1
        assert "-0.000" not in svg

    @staticmethod
    def fills(svg):
        return svg.count('fill="#d9d9d9"'), svg.count('fill="#7a7a7a"')

    def test_shading_modes(self):
        # every tiling holds m T1, width T2 and n T3 lozenges: "a" lights the
        # T2/T3 of the path's chain, "b" darkens the T1/T3 of the family's
        # chains, "both" does both with dark on T3
        for shape in sweep(2, 3):
            m, width, n = shape.m, shape.width, shape.n
            for tiling in enumerate_tilings(shape):
                assert self.fills(render_svg(shape, tiling, "a")) == (width + n, 0)
                assert self.fills(render_svg(shape, tiling, "b")) == (0, m + n)
                assert self.fills(render_svg(shape, tiling, "both")) == (width, m + n)
        # the same in numbers: 2,1 has m = 3, width = 2, n = 2
        shape = parse_shape("2,1")
        tiling = lattice_path_to_tiling(shape, LatticePath((0, 0), "NENE"))
        svgs = [render_svg(shape, tiling, s) for s in ("a", "b", "both")]
        assert [self.fills(svg) for svg in svgs] == [(4, 0), (0, 5), (2, 5)]

    def test_exact_text(self):
        # the unit hexagon tiled by the path EN: T1 at (0, 0), then T2 at
        # (1, -1) and T3 at (1, 0), each kind filled by the shade's colour
        def drawing(t1, t2, t3):
            lozenge = 'stroke="#000000" stroke-width="1.2" stroke-linejoin="round"/>\n'
            return (
                '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
                'viewBox="-9.000 -40.177 90.000 80.354">\n'
                '  <polygon points="0.000,0.000 36.000,0.000 54.000,-31.177 18.000,-31.177" '
                f'fill="{t1}" {lozenge}'
                '  <polygon points="18.000,31.177 54.000,31.177 36.000,0.000 0.000,0.000" '
                f'fill="{t2}" {lozenge}'
                '  <polygon points="36.000,0.000 54.000,31.177 72.000,0.000 54.000,-31.177" '
                f'fill="{t3}" {lozenge}'
                '  <polygon points="0.000,0.000 18.000,-31.177 54.000,-31.177 72.000,0.000 '
                '54.000,31.177 18.000,31.177" fill="none" stroke="#000000" stroke-width="2.6" '
                'stroke-linejoin="round"/>\n'
                "</svg>\n"
            )

        plain, light, dark = "#ffffff", "#d9d9d9", "#7a7a7a"
        tiling = lattice_path_to_tiling(HEXAGON, LatticePath((0, 0), "EN"))
        svgs = {shade: render_svg(HEXAGON, tiling, shade) for shade in ("a", "b", "both")}
        assert svgs == {
            "a": drawing(plain, light, light),
            "b": drawing(dark, plain, dark),
            "both": drawing(dark, light, dark),
        }
        assert [len(svg) for svg in svgs.values()] == [732] * 3

    def test_contour_only(self):
        svg = render_svg(parse_shape("2,2"))
        assert svg.count("<polygon") == 1

    def test_empty_region(self):
        svg = render_svg(parse_shape("0"))
        assert svg.startswith("<svg ") and svg.endswith("/>\n")

    def test_bad_shade(self):
        with pytest.raises(ValueError):
            render_svg(HEXAGON, None, "c")
