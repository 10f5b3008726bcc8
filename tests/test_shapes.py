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
    profiles,
    subpartitions,
)


def test_partition_trims_trailing_zeros():
    assert Partition((2, 1, 0, 0)).parts == (2, 1)
    assert Partition((0,)).parts == ()
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
    assert s.inner.parts == ()
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


@pytest.mark.parametrize("bad", ["1_0", "+3", "\u0663", "1 0", "2,1/\u0663"])
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


class TestProfiles:
    def test_square(self):
        pair = profiles(parse_shape("2,2"))
        assert pair.lambda_profile.steps == "EENN"
        assert pair.mu_profile.steps == "NNEE"

    def test_single_cell(self):
        pair = profiles(parse_shape("1"))
        assert pair.lambda_profile.steps == "EN"
        assert pair.mu_profile.steps == "NE"

    def test_degenerate(self):
        pair = profiles(parse_shape("3,1/2"))
        assert pair.mu_profile.steps == "NEENE"
        assert pair.lambda_profile.steps == "ENEEN"
        assert pair.mu_profile.end == pair.lambda_profile.end == (3, 2)

    def test_north_step_positions(self):
        s = parse_shape("9,7,6,2/3,1")
        pair = profiles(s)
        n = s.n
        # k-th north step (bottom-up) sits at the (n-k+1)-th part
        assert pair.mu_profile.north_xs() == tuple(s.inner.part(n - k) for k in range(1, n + 1))
        assert pair.lambda_profile.north_xs() == tuple(s.outer.part(n - k) for k in range(1, n + 1))

    @given(st.sampled_from(partitions_in_box(4, 4)))
    def test_profiles_share_endpoints_and_nest(self, lam):
        for mu in subpartitions(lam):
            s = SkewShape(Partition(lam), Partition(mu))
            pair = profiles(s)
            assert pair.mu_profile.start == pair.lambda_profile.start == (0, 0)
            assert pair.mu_profile.end == pair.lambda_profile.end == (s.width, s.n)
            assert all(
                a <= b
                for a, b in zip(pair.mu_profile.north_xs(), pair.lambda_profile.north_xs())
            )


def test_partitions_in_box_small():
    assert partitions_in_box(2, 2) == [(), (1,), (1, 1), (2,), (2, 1), (2, 2)]


def test_subpartitions_small():
    assert subpartitions((2, 1)) == [(), (1,), (1, 1), (2,), (2, 1)]


def test_subpartitions_count_of_square():
    # partitions inside a k x k square, counted two ways
    assert len(subpartitions((4, 4, 4, 4))) == len(partitions_in_box(4, 4)) == 70
