import itertools
import pickle

import pytest

from skewcount.errors import (
    CapExceededError,
    NotAdmissibleError,
    ShapeError,
    WrongEndpointsError,
    capped,
)
from skewcount.paths import count_paths_dp
from skewcount.shapes import SkewShape
from skewcount.tilings import region_from_shape


def counting(n):
    """Yield 0..n-1 and record how many items were drawn."""
    drawn = []

    def gen():
        for i in range(n):
            drawn.append(i)
            yield i

    return gen(), drawn


class TestCapped:
    @pytest.mark.parametrize("cap", [0, 1, 3])
    def test_yields_exactly_cap_then_raises(self, cap):
        items, drawn = counting(10)
        it = capped(items, cap)
        assert list(itertools.islice(it, cap)) == list(range(cap))
        with pytest.raises(CapExceededError) as exc:
            next(it)
        assert exc.value.cap == cap
        assert drawn == list(range(cap + 1))

    def test_cap_equal_to_length_does_not_raise(self):
        items, _ = counting(4)
        assert list(capped(items, 4)) == [0, 1, 2, 3]

    def test_none_is_unbounded(self):
        items, drawn = counting(5000)
        assert sum(capped(items, None)) == sum(range(5000))
        assert len(drawn) == 5000

    @pytest.mark.parametrize("cap", [None, 2, 10])
    def test_draws_only_what_is_asked(self, cap):
        items, drawn = counting(100)
        assert list(itertools.islice(capped(items, cap), 2)) == [0, 1]
        assert drawn == [0, 1]

    def test_too_deep_search_is_a_shape_error(self):
        def deep(k):
            yield from deep(k + 1)

        with pytest.raises(ShapeError, match="recursion limit") as exc:
            next(capped(deep(0), None))
        assert "\n" not in str(exc.value)


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
    "build, width",
    [(region_from_shape, 200_000), (count_paths_dp, 10_000_000)],
    ids=["region", "dp"],
)
def test_one_row_past_a_size_guard_is_a_shape_error(build, width):
    with pytest.raises(ShapeError, match="^shape too large: ") as exc:
        build(SkewShape((width,)))
    assert "\n" not in str(exc.value)
