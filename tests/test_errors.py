import pickle
import sys

import pytest

from skewcount.errors import (
    MAX_OUTPUT_CHARS,
    Budget,
    CapExceededError,
    NotAdmissibleError,
    ShapeError,
    WrongEndpointsError,
    check_size,
    count_leaves,
    format_count,
    judge,
    list_leaves,
    take_leaves,
)
from skewcount.gv import gv_endpoints, gv_matrix
from skewcount.kreweras import kreweras_matrix
from skewcount.paths import count_paths_dp
from skewcount.shapes import SkewShape
from skewcount.tilings import render_svg


def counting(n):
    """A walk over the leaves 0..n-1, and the list of leaves it has visited."""
    visited = []

    def walk(visit):
        for i in range(n):
            visited.append(i)
            visit(i)

    return walk, visited


class TestCapped:
    """The walks have one bound, ``stop``; the CLI alone judges the cap, and
    walks a count under it to leaf cap + 1 at most."""

    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_yields_exactly_cap_then_raises(self, cap):
        # stopped one leaf past a cap, a walk takes cap + 1 leaves and searches
        # for no more; no bound raises
        walk, visited = counting(10)
        built = []
        assert take_leaves(walk, built.append, cap + 1) == cap + 1
        assert built == visited == list(range(cap + 1))
        assert count_leaves(counting(10)[0], cap + 1) == cap + 1

    def test_cap_equal_to_length_does_not_raise(self):
        # a stop past the walk's end ends nothing early
        walk, _ = counting(4)
        assert list_leaves(walk, str) == ["0", "1", "2", "3"]
        assert count_leaves(walk, 4) == count_leaves(walk, 5) == 4

    def test_none_is_unbounded(self):
        walk, visited = counting(5000)
        assert count_leaves(walk, None) == 5000
        assert len(visited) == 5000

    @pytest.mark.parametrize("stop", [None, 2, 10])
    def test_draws_only_what_is_asked(self, stop):
        walk, visited = counting(100)
        taken = []
        wanted = 100 if stop is None else stop
        assert take_leaves(walk, taken.append, stop) == wanted
        assert taken == visited == list(range(wanted))

    def test_stop_at_zero_walks_nothing(self):
        walk, visited = counting(100)
        assert take_leaves(walk, pytest.fail, 0) == 0
        assert visited == []

    @pytest.mark.parametrize("search", [
        lambda walk: take_leaves(walk, pytest.fail),
        lambda walk: take_leaves(walk, pytest.fail, 5),
        count_leaves,
        lambda walk: list_leaves(walk, pytest.fail),
    ], ids=["take_leaves", "take_leaves_stop", "count_leaves", "list_leaves"])
    def test_too_deep_search_is_a_shape_error(self, search):
        # every way a search is run meets the one recursion backstop
        def deep(visit):
            deep(visit)

        with pytest.raises(ShapeError, match="recursion limit") as exc:
            search(deep)
        assert "\n" not in str(exc.value)


class TestJudge:
    """One judge of a listing's budget, in one order: depth, then cap, then output."""

    def test_refusals_come_in_order(self):
        walk, build = object(), object()
        asked = []

        def items():
            asked.append(1)
            return 6

        past_all = Budget(sys.getrecursionlimit(), MAX_OUTPUT_CHARS)
        with pytest.raises(ShapeError, match="recursion limit"):
            judge((walk, build, past_all), 5, items, 10)
        assert asked == []  # a search too deep reads no count
        with pytest.raises(CapExceededError):
            judge((walk, build, past_all._replace(depth=0)), 5, items, 10)
        with pytest.raises(ShapeError, match=(
            f"^shape too large: {10 * MAX_OUTPUT_CHARS} output characters, "
            f"past the limit of {MAX_OUTPUT_CHARS}$"
        )):
            judge((walk, build, past_all._replace(depth=0)), 6, items, 10)
        assert judge((walk, build, Budget(0, MAX_OUTPUT_CHARS)), 6, items, 1) == (walk, build)

    def test_the_library_is_judged_on_depth_alone(self):
        # it has no cap and prints nothing
        walk, build = object(), object()
        assert judge((walk, build, Budget(0, 10**100))) == (walk, build)
        with pytest.raises(ShapeError, match="recursion limit"):
            judge((walk, build, Budget(sys.getrecursionlimit(), 0)))


def test_bad_path_errors_are_shape_errors():
    # the CLI maps exactly ShapeError to exit 2
    assert issubclass(WrongEndpointsError, NotAdmissibleError)
    assert issubclass(NotAdmissibleError, ShapeError)


def test_cap_error_survives_pickling():
    # a process pool pickles a worker's exception back to the parent
    original = CapExceededError(2)
    copy = pickle.loads(pickle.dumps(original))
    assert str(copy) == str(original) == "enumeration exceeded cap of 2 items"
    assert copy.cap == 2


@pytest.mark.parametrize(
    "build, outer",
    [
        (render_svg, (200_000,)),
        (count_paths_dp, (10_000_000,)),
        (kreweras_matrix, (1,) * 3163),
        (lambda shape: gv_matrix(gv_endpoints(shape)), (1,) * 3163),
    ],
    ids=["region", "dp", "det", "gv_det"],
)
def test_one_row_past_a_size_guard_is_a_shape_error(build, outer):
    with pytest.raises(ShapeError, match="^shape too large: ") as exc:
        build(SkewShape(outer))
    assert "\n" not in str(exc.value)


@pytest.mark.parametrize("digits", [80, 4300, 4301, 4936, 20000])
def test_format_count_writes_every_digit(digits):
    # str() refuses an int past 4,300 digits where the interpreter has that limit
    count = 10 ** (digits - 1) + 7 * 10 ** (digits // 2) + 3
    text = format_count(count)
    assert len(text) == digits
    assert (text[0], text[-(digits // 2) - 1], text[-1], text.count("0")) == ("1", "7", "3", digits - 3)
    assert format_count(10**digits - 1) == "9" * digits


def test_size_past_the_digit_limit_is_named():
    # the size is clipped inside the message, so the unit and the limit survive
    # the CLI's clip of the whole line
    with pytest.raises(ShapeError, match=r"^shape too large: 1(0{39})\.\.\. cells, past the limit of 5$"):
        check_size(10**4400, 5, "cells")
