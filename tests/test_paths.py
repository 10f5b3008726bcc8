import itertools
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcount.errors import MAX_PATH_STEPS, ShapeError, WrongEndpointsError
from skewcount.kreweras import kreweras_count
from skewcount.paths import (
    LatticePath,
    count_monotone,
    count_paths_dp,
    enumerate_paths,
    is_admissible,
    path_from_north_record,
    suffix_counts,
)
from skewcount.shapes import Partition, SkewShape, parse_shape, partitions_in_box, subpartitions
from test_kreweras import skew_shapes


def brute_force_count(shape):
    """Count admissible paths by trying every E/N arrangement. Slow, independent."""
    total = 0
    for positions in itertools.combinations(range(shape.width + shape.n), shape.n):
        steps = ["E"] * (shape.width + shape.n)
        for i in positions:
            steps[i] = "N"
        if is_admissible(shape, LatticePath((0, 0), "".join(steps))):
            total += 1
    return total


class TestLatticePath:
    def test_end_and_vertices(self):
        p = LatticePath((0, 0), "ENE")
        assert p.end == (2, 1)
        assert p.vertices() == [(0, 0), (1, 0), (1, 1), (2, 1)]

    def test_north_xs(self):
        assert LatticePath((0, 0), "NENE").north_xs() == (0, 1)
        assert LatticePath((0, 0), "EEE").north_xs() == ()

    def test_rejects_bad_steps(self):
        with pytest.raises(ShapeError, match=r"path steps must be E or N, got \['X'\]"):
            LatticePath((0, 0), "ENX")

    def test_to_json(self):
        j = LatticePath((1, 2), "N").to_json()
        assert j == {"start": [1, 2], "steps": "N"}


class TestNorthRecord:
    def test_decode(self):
        assert path_from_north_record((0, 2), 3).steps == "NEENE"
        assert path_from_north_record((), 2).steps == "EE"

    def test_rejects_decreasing(self):
        with pytest.raises(ValueError):
            path_from_north_record((2, 1), 3)

    def test_rejects_out_of_width(self):
        with pytest.raises(ValueError):
            path_from_north_record((4,), 3)

    def test_refuses_a_path_past_the_step_limit(self):
        # width + n steps, north steps counted too, judged before a step is written
        assert len(path_from_north_record((), MAX_PATH_STEPS).steps) == MAX_PATH_STEPS
        line = f"shape too large: {MAX_PATH_STEPS + 1} path steps, past the limit of {MAX_PATH_STEPS}"
        for record, width in (((), MAX_PATH_STEPS + 1), ((0,), MAX_PATH_STEPS)):
            with pytest.raises(ShapeError) as refused:
                path_from_north_record(record, width)
            assert str(refused.value) == line

    @given(st.lists(st.integers(0, 5), min_size=0, max_size=5))
    def test_round_trip(self, xs):
        record = tuple(sorted(xs))
        assert path_from_north_record(record, 5).north_xs() == record


class TestAdmissibility:
    def test_single_cell_both_ways(self):
        s = parse_shape("1")
        assert is_admissible(s, LatticePath((0, 0), "EN"))
        assert is_admissible(s, LatticePath((0, 0), "NE"))

    def test_bound_violation(self):
        s = parse_shape("2,1")
        assert is_admissible(s, LatticePath((0, 0), "NNEE"))
        # first north step at x=2 would overshoot the second row
        assert not is_admissible(s, LatticePath((0, 0), "EENN"))

    def test_empty_shape_empty_path(self):
        s = parse_shape("0")
        assert is_admissible(s, LatticePath((0, 0), ""))

    def test_wrong_endpoints(self):
        with pytest.raises(WrongEndpointsError):
            is_admissible(parse_shape("1"), LatticePath((0, 0), "E"))
        with pytest.raises(WrongEndpointsError):
            is_admissible(parse_shape("1"), LatticePath((1, 0), "N"))


class TestEnumeratePaths:
    def test_single_cell_order(self):
        assert [p.steps for p in enumerate_paths(parse_shape("1"))] == ["NE", "EN"]

    def test_two_one(self):
        got = [p.steps for p in enumerate_paths(parse_shape("2,1"))]
        assert got == ["NNEE", "NENE", "NEEN", "ENNE", "ENEN"]

    def test_empty_shape(self):
        got = enumerate_paths(parse_shape("0"))
        assert got == [LatticePath((0, 0), "")]

    def test_all_admissible_and_distinct(self):
        s = parse_shape("3,2/1")
        got = enumerate_paths(s)
        assert len(set(got)) == len(got)
        assert all(is_admissible(s, p) for p in got)

    def test_records_sorted(self):
        records = [p.north_xs() for p in enumerate_paths(parse_shape("3,3,1"))]
        assert records == sorted(records)

    def test_past_the_step_limit_is_refused(self):
        # two rows of one cell, each of its two paths 20,000,002 steps
        with pytest.raises(ShapeError) as refused:
            enumerate_paths(parse_shape("20000001/20000000"))
        assert str(refused.value) == (
            "shape too large: 20000002 path steps, past the limit of 20000000"
        )


class TestCountDp:
    def test_examples(self):
        assert count_paths_dp(parse_shape("2,1")) == 5
        assert count_paths_dp(parse_shape("2,2")) == 6
        assert count_paths_dp(parse_shape("3,1/2")) == 4
        assert count_paths_dp(parse_shape("0")) == 1

    def test_rectangle_closed_form(self):
        for a in range(1, 5):
            for b in range(1, 5):
                s = SkewShape(Partition((b,) * a))
                assert count_paths_dp(s) == count_monotone((0, 0), (b, a))

    @given(st.sampled_from(partitions_in_box(3, 3)))
    def test_matches_enumeration(self, lam):
        for mu in subpartitions(lam):
            s = SkewShape(Partition(lam), Partition(mu))
            assert count_paths_dp(s) == len(enumerate_paths(s))

    def test_matches_step_brute_force(self):
        for text in ["2,1", "3,1/2", "3,2,1", "2,2/1"]:
            s = parse_shape(text)
            assert count_paths_dp(s) == brute_force_count(s)

    def test_band_of_500_rows_matches_det(self):
        # 502,501,...,3 / 500,499,...,1: a span of three cells a row, and a
        # count of 210 digits, far past the box sweeps and hypothesis shapes
        band = SkewShape(range(502, 2, -1), range(500, 0, -1))
        assert count_paths_dp(band) == kreweras_count(band)


class TestSuffixCounts:
    @given(skew_shapes())
    def test_table_holds_m_plus_n_cells(self, shape):
        assert sum(map(len, suffix_counts(shape))) == shape.m + shape.n

    def test_rows_of_two_one(self):
        # top row first, over its span 0..2, then the bottom row over 0..1:
        # 5 paths in all, 2 of them with their first north step at x = 1
        assert list(suffix_counts(parse_shape("2,1"))) == [[3, 2, 1], [5, 2]]

    def test_refused_at_the_call(self, monkeypatch):
        def no_bounds(self):
            raise AssertionError("read the bounds of a shape past the dp guard")

        monkeypatch.setattr(SkewShape, "north_step_bounds", no_bounds)
        with pytest.raises(ShapeError, match="^shape too large: 10000001 dp cells, past"):
            suffix_counts(parse_shape("10000000"))

    @pytest.mark.parametrize(
        "text, count", [("10000000,10000000/9999999,9999999", 3), ("10000000,1/10000000", 2)]
    )
    def test_guard_counts_the_cells_it_adds(self, text, count):
        # m + n = 4 and 3 cells on rows 10^7 wide: each row's prefix is clipped
        # to its span, so no row of the width is built
        tracemalloc.start()
        try:
            assert count_paths_dp(parse_shape(text)) == count
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


class TestCountMonotone:
    def test_examples(self):
        assert count_monotone((0, 0), (2, 1)) == 3
        assert count_monotone((0, 0), (0, 0)) == 1
        assert count_monotone((0, 0), (-1, 2)) == 0
        assert count_monotone((5, 5), (3, 9)) == 0

    @given(st.integers(-3, 6), st.integers(-3, 6), st.integers(-3, 6), st.integers(-3, 6))
    def test_first_step_recurrence(self, ax, ay, bx, by):
        a, b = (ax, ay), (bx, by)
        if a == b:
            assert count_monotone(a, b) == 1
        else:
            east = count_monotone((ax + 1, ay), b)
            north = count_monotone((ax, ay + 1), b)
            assert count_monotone(a, b) == east + north

    def test_iter_matches_count(self):
        # brute force: every E/N string of length 5, kept when it ends at b
        a, b = (1, -1), (4, 1)
        got = [s for s in itertools.product("EN", repeat=5) if LatticePath(a, "".join(s)).end == b]
        assert len(got) == count_monotone(a, b) == 10
