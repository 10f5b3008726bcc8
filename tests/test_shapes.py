import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcount.errors import (
    NegativePartError,
    NonMonotoneError,
    NotContainedError,
    ShapeError,
)
from skewcount.shapes import (
    Partition,
    SkewShape,
    format_shape,
    parse_shape,
    partitions_in_box,
    subpartitions,
)


def test_partition_trims_trailing_zeros():
    assert tuple(Partition((2, 1, 0, 0))) == (2, 1)
    assert tuple(Partition((0,))) == ()
    assert len(Partition()) == 0


def test_partition_rejects_bad_parts():
    with pytest.raises(NonMonotoneError):
        Partition((1, 2))
    with pytest.raises(NegativePartError):
        Partition((3, -1))


@pytest.mark.parametrize("part", [2.5, "3", True], ids=["float", "str", "bool"])
def test_partition_rejects_parts_that_are_not_int(part):
    # coercing them would count a different shape: 2.5 -> 2, True -> 1
    with pytest.raises(ShapeError, match="is not an int"):
        Partition((part,))
    with pytest.raises(ShapeError):
        SkewShape(Partition((3, 1)), (part,))


def test_partition_accessors():
    p = Partition((4, 2, 1))
    assert (p.size, p.width) == (7, 4)
    assert [p.part(i) for i in range(5)] == [4, 2, 1, 0, 0]


def test_skew_shape_counts():
    s = parse_shape("9,7,6,2/3,1")
    assert (s.n, s.m, s.width) == (4, 20, 9)


def test_skew_shape_no_inner():
    s = parse_shape("2,1")
    assert tuple(s.inner) == ()
    assert (s.n, s.m) == (2, 3)


def test_containment_enforced():
    with pytest.raises(NotContainedError):
        SkewShape(Partition((2, 1)), Partition((3,)))
    with pytest.raises(NotContainedError):
        SkewShape(Partition(()), Partition((1,)))  # inner without any outer rows
    with pytest.raises(NotContainedError):
        SkewShape(Partition((3,)), Partition((1, 1)))


def test_degenerate_rows_accepted():
    # rows may fail to overlap; only per-row containment is required
    s = parse_shape("3,1/2")
    assert (s.n, s.m) == (2, 2)


def test_parse_rejects_garbage():
    for bad in ["", "1,2", "2,,1", "a", "1/2/3", "2/-1"]:
        with pytest.raises(ShapeError):
            parse_shape(bad)


@pytest.mark.parametrize("bad", ["1_0", "+3", "\u0663", "1 0", "2,1/\u0663", "-0", "2/ -0"])
def test_parse_accepts_only_ascii_digits(bad):
    # int() takes "1_0" as 10, "+3" as 3 and the Arabic-Indic digit as 3
    with pytest.raises(ShapeError):
        parse_shape(bad)


def test_parse_allows_whitespace_around_parts():
    assert parse_shape(" 3 , 2 / 1 ") == parse_shape("3,2/1")


def test_parse_zero_is_empty():
    s = parse_shape("0")
    assert (s.n, s.m) == (0, 0)
    assert format_shape(s) == "0"


def test_format_omits_empty_inner():
    assert format_shape(parse_shape("2,1")) == "2,1"
    assert format_shape(parse_shape("9,7,6,2/3,1")) == "9,7,6,2/3,1"


@given(st.sampled_from(partitions_in_box(4, 4)))
def test_parse_format_round_trip(lam):
    for mu in subpartitions(lam):
        s = SkewShape(Partition(lam), Partition(mu))
        assert parse_shape(format_shape(s)) == s


def test_partitions_in_box_small():
    assert partitions_in_box(2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]


def test_subpartitions_small():
    assert subpartitions((2, 1)) == [(), (1,), (1, 1), (2,), (2, 1)]


def test_subpartitions_count_of_square():
    # partitions inside a k x k square, counted two ways
    assert len(subpartitions((4, 4, 4, 4))) == len(partitions_in_box(4, 4)) == 70


def recursive_partitions_under(bounds):
    """Reference: every partition with part i at most bounds[i], by recursion, sorted."""
    if not bounds:
        return [()]
    out = {()}
    for first in range(1, bounds[0] + 1):
        rest = tuple(min(b, first) for b in bounds[1:])
        out.update((first, *tail) for tail in recursive_partitions_under(rest))
    return sorted(out)


@pytest.mark.parametrize("rows", range(6))
def test_walks_match_a_recursive_reference(rows):
    for cols in range(6):
        box = partitions_in_box(rows, cols)
        assert box == recursive_partitions_under((cols,) * rows)
        for lam in box:
            assert subpartitions(lam) == recursive_partitions_under(lam)


def test_tall_boxes_do_not_recurse():
    # one call frame per row would pass Python's recursion limit of 1000
    assert len(partitions_in_box(1500, 1)) == 1501
    assert len(subpartitions((1,) * 1500)) == 1501
