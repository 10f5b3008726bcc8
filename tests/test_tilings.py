import pytest
from hypothesis import example, given

from skewcount.errors import (
    CapExceededError,
    MalformedFamilyError,
    NotAdmissibleError,
)
from skewcount.gv import enumerate_disjoint_families, gv_endpoints
from skewcount.kreweras import kreweras_count
from skewcount.paths import LatticePath, enumerate_paths
from skewcount.shapes import Partition, SkewShape, parse_shape, partitions_in_box, subpartitions
from skewcount.tilings import (
    T1,
    T2,
    T3,
    Lozenge,
    Region,
    RhombusPathFamily,
    Tiling,
    Triangle,
    TriPoint,
    enumerate_tilings,
    extract_family,
    family_A_to_lattice_path,
    family_B_to_z2_paths,
    lattice_path_to_tiling,
    lozenge_corners,
    lozenge_triangles,
    region_from_shape,
    render_svg,
    tiling_type_census,
    triangle_vertices,
)
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
        with pytest.raises(ValueError):
            lozenge_triangles(Lozenge(4, 0, 0))


class TestRegion:
    def test_unit_hexagon(self):
        region = region_from_shape(HEXAGON)
        assert region.boundary == (
            TriPoint(0, 0), TriPoint(0, 1), TriPoint(1, 1),
            TriPoint(2, 0), TriPoint(2, -1), TriPoint(1, -1),
        )
        assert len(region.triangles) == 6
        assert region.up_count == region.down_count == 3

    def test_square_shape_hexagon(self):
        region = region_from_shape(parse_shape("2,2"))
        assert region.boundary == (
            TriPoint(0, 0), TriPoint(0, 1), TriPoint(0, 2),
            TriPoint(1, 2), TriPoint(2, 2),
            TriPoint(3, 1), TriPoint(3, 0), TriPoint(3, -1),
            TriPoint(2, -1), TriPoint(1, -1),
        )
        assert len(region.triangles) == 16

    def test_empty_shape(self):
        region = region_from_shape(parse_shape("0"))
        assert region == Region((), frozenset())

    def test_triangle_count_formula(self):
        for shape in sweep(2, 3):
            region = region_from_shape(shape)
            expected = shape.m + shape.width + shape.n
            assert region.up_count == region.down_count == expected

    def test_ribbon_of_empty_rows(self):
        # fully degenerate shape: the region is a width-one ribbon, tiled one way
        region = region_from_shape(parse_shape("2,1/2,1"))
        assert len(region.triangles) == 8
        assert len(enumerate_tilings(region)) == 1

    def test_matches_ray_cast_on_5x5_box(self):
        for shape in sweep(5, 5):
            region = region_from_shape(shape)
            assert region.triangles == ray_cast_triangles(region.boundary), shape

    # the inner parts are rowwise mins, so some rows come out empty
    @given(skew_shapes(max_rows=25, max_width=25))
    @example(parse_shape("2,1/2,1"))
    @example(parse_shape("20,20,15,9,9,4,1/20,15,15,9,4,4"))
    def test_matches_ray_cast_on_random_shapes(self, shape):
        region = region_from_shape(shape)
        assert region.triangles == ray_cast_triangles(region.boundary)
        expected = shape.m + shape.width + shape.n
        assert region.up_count == region.down_count == expected

    def test_staircase_200_scales(self):
        # a bounding-box ray cast would take minutes here; this guards the
        # O(edges + triangles) build without timing it
        shape = SkewShape(Partition(tuple(range(200, 0, -1))))
        region = region_from_shape(shape)
        expected = shape.m + shape.width + shape.n
        assert expected == 20500
        assert region.up_count == region.down_count == expected


class TestEnumerateTilings:
    def test_unit_hexagon_order(self):
        got = enumerate_tilings(region_from_shape(HEXAGON))
        assert [t.lozenges for t in got] == HEX_TILINGS

    def test_counts_match_determinant(self):
        for shape in sweep(2, 2):
            region = region_from_shape(shape)
            assert len(enumerate_tilings(region)) == kreweras_count(shape)

    def test_square_shape(self):
        assert len(enumerate_tilings(region_from_shape(parse_shape("2,2")))) == 6

    def test_empty_region(self):
        assert enumerate_tilings(Region((), frozenset())) == [Tiling(frozenset())]

    def test_tilings_cover_region_exactly(self):
        region = region_from_shape(parse_shape("2,1"))
        for tiling in enumerate_tilings(region):
            covered = [t for loz in tiling.lozenges for t in lozenge_triangles(loz)]
            assert len(covered) == len(set(covered))
            assert set(covered) == region.triangles

    def test_cap(self):
        with pytest.raises(CapExceededError):
            enumerate_tilings(region_from_shape(parse_shape("2,2")), cap=3)

    def test_to_json_sorted(self):
        tiling = enumerate_tilings(region_from_shape(HEXAGON))[0]
        assert tiling.to_json() == {"lozenges": [[1, 0, 0], [2, 1, -1], [3, 1, 0]]}


class TestCensus:
    def test_unit_hexagon(self):
        for tiling in enumerate_tilings(region_from_shape(HEXAGON)):
            assert tiling_type_census(tiling) == (1, 1, 1)

    def test_census_is_shape_data(self):
        for shape in sweep(2, 2):
            region = region_from_shape(shape)
            for tiling in enumerate_tilings(region):
                assert tiling_type_census(tiling) == (shape.m, shape.width, shape.n)

    def test_empty(self):
        assert tiling_type_census(Tiling(frozenset())) == (0, 0, 0)


class TestChainExtraction:
    def test_single_chain_for_direction_a(self):
        for tiling in enumerate_tilings(region_from_shape(HEXAGON)):
            family = extract_family(tiling, "a")
            assert len(family.paths) == 1
            assert sorted(loz.kind for loz in family.paths[0]) == [T2, T3]

    def test_chain_counts_per_direction(self):
        for shape in sweep(2, 3):
            if shape.n == 0:
                continue
            region = region_from_shape(shape)
            tiling = enumerate_tilings(region)[0]
            assert len(extract_family(tiling, "a").paths) == 1
            assert len(extract_family(tiling, "b").paths) == shape.n
            assert len(extract_family(tiling, "c").paths) == shape.width

    def test_direction_c_partitions_its_kinds(self):
        shape = parse_shape("3,2/1")
        for tiling in enumerate_tilings(region_from_shape(shape)):
            family = extract_family(tiling, "c")
            chained = [loz for chain in family.paths for loz in chain]
            eligible = [loz for loz in tiling.lozenges if loz.kind in (T1, T2)]
            assert sorted(chained) == sorted(eligible)
            assert len(chained) == len(set(chained))

    def test_unknown_direction(self):
        with pytest.raises(ValueError):
            extract_family(Tiling(frozenset()), "d")


class TestPathBijection:
    def test_hexagon_labels(self):
        tilings = enumerate_tilings(region_from_shape(HEXAGON))
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

    def test_paths_biject_onto_tilings(self):
        shape = parse_shape("2,1")
        paths = enumerate_paths(shape)
        images = {lattice_path_to_tiling(shape, p) for p in paths}
        assert len(images) == len(paths) == 5
        assert images == set(enumerate_tilings(region_from_shape(shape)))

    def test_path_length(self):
        for shape in sweep(2, 3):
            region = region_from_shape(shape)
            for tiling in enumerate_tilings(region):
                path = family_A_to_lattice_path(extract_family(tiling, "a"))
                assert len(path.steps) == shape.width + shape.n

    def test_empty_shape(self):
        shape = parse_shape("0")
        tiling = lattice_path_to_tiling(shape, LatticePath((0, 0), ""))
        assert tiling == Tiling(frozenset())
        assert family_A_to_lattice_path(extract_family(tiling, "a")) == LatticePath((0, 0), "")

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
        for tiling in enumerate_tilings(region_from_shape(HEXAGON)):
            family = family_B_to_z2_paths(extract_family(tiling, "b"), HEXAGON)
            (path,) = family.paths
            assert path.start == config.starts[0]
            assert path.end == config.ends[0]
            seen.add(path.steps)
        assert seen == {"EN", "NE"}

    def test_images_equal_disjoint_families(self):
        shape = parse_shape("2,1")
        tilings = enumerate_tilings(region_from_shape(shape))
        images = {
            family_B_to_z2_paths(extract_family(t, "b"), shape) for t in tilings
        }
        assert images == set(enumerate_disjoint_families(gv_endpoints(shape)))

    def test_step_counts_per_row(self):
        for shape in sweep(2, 3):
            if shape.n == 0:
                continue
            tiling = enumerate_tilings(region_from_shape(shape))[0]
            family = family_B_to_z2_paths(extract_family(tiling, "b"), shape)
            for i, path in enumerate(family.paths):
                assert len(path.steps) == shape.outer.part(i) - shape.inner.part(i) + 1

    def test_disjointness(self):
        shape = parse_shape("3,2,1")
        for tiling in enumerate_tilings(region_from_shape(shape)):
            family = family_B_to_z2_paths(extract_family(tiling, "b"), shape)
            assert family.is_vertex_disjoint()

    def test_empty_shape(self):
        family = family_B_to_z2_paths(
            extract_family(Tiling(frozenset()), "b"), parse_shape("0")
        )
        assert family.paths == ()


class TestMalformedFamilies:
    def test_wrong_direction(self):
        tiling = enumerate_tilings(region_from_shape(HEXAGON))[0]
        with pytest.raises(MalformedFamilyError):
            family_A_to_lattice_path(extract_family(tiling, "b"))
        with pytest.raises(MalformedFamilyError):
            family_B_to_z2_paths(extract_family(tiling, "a"), HEXAGON)

    def test_too_many_chains(self):
        chain = ((Lozenge(T2, 1, -1),),)
        with pytest.raises(MalformedFamilyError):
            family_A_to_lattice_path(RhombusPathFamily("a", chain + chain))

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
        tiling = enumerate_tilings(region_from_shape(parse_shape("2,2")))[0]
        family = extract_family(tiling, "b")
        with pytest.raises(MalformedFamilyError):
            family_B_to_z2_paths(family, parse_shape("2,1"))


class TestRenderSvg:
    def test_deterministic(self):
        region = region_from_shape(parse_shape("2,1"))
        tiling = enumerate_tilings(region)[0]
        assert render_svg(region, tiling) == render_svg(region, tiling)

    def test_structure(self):
        region = region_from_shape(HEXAGON)
        tiling = enumerate_tilings(region)[0]
        svg = render_svg(region, tiling, "both")
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        # one polygon per lozenge plus the contour
        assert svg.count("<polygon") == len(tiling.lozenges) + 1
        assert "-0.000" not in svg

    def test_shading_modes(self):
        region = region_from_shape(HEXAGON)
        tiling = enumerate_tilings(region)[0]
        light_only = render_svg(region, tiling, "a")
        assert "#d9d9d9" in light_only and "#7a7a7a" not in light_only
        dark_only = render_svg(region, tiling, "b")
        assert "#7a7a7a" in dark_only and "#d9d9d9" not in dark_only
        both = render_svg(region, tiling, "both")
        assert "#d9d9d9" in both and "#7a7a7a" in both

    def test_contour_only(self):
        region = region_from_shape(parse_shape("2,2"))
        svg = render_svg(region)
        assert svg.count("<polygon") == 1

    def test_empty_region(self):
        svg = render_svg(Region((), frozenset()))
        assert svg.startswith("<svg ") and svg.endswith("/>\n")

    def test_bad_shade(self):
        with pytest.raises(ValueError):
            render_svg(region_from_shape(HEXAGON), None, "c")
