import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from skewcount.errors import NotSquareError
from skewcount.exact import IntMatrix, binomial, det_exact, det_hessenberg


def laplace_det(rows):
    """Cofactor expansion along the first row; exponential-time test oracle."""
    n = len(rows)
    if n == 0:
        return 1
    if n == 1:
        return rows[0][0]
    total = 0
    for j, x in enumerate(rows[0]):
        if x == 0:
            continue
        minor = [r[:j] + r[j + 1 :] for r in rows[1:]]
        total += (-1) ** j * x * laplace_det(minor)
    return total


class TestBinomial:
    def test_small_values(self):
        assert binomial(2, 1) == 2
        assert binomial(4, 2) == 6
        assert binomial(0, 0) == 1

    def test_zero_outside_convention(self):
        assert binomial(1, 2) == 0
        assert binomial(3, -1) == 0
        assert binomial(-2, 0) == 0
        assert binomial(-5, -7) == 0

    def test_against_additive_recurrence(self):
        # rebuild a Pascal triangle row by row, no factorials involved
        row = [1]
        for t in range(1, 31):
            row = [1] + [row[b - 1] + row[b] for b in range(1, t)] + [1]
        assert binomial(30, 15) == row[15]
        assert all(binomial(30, b) == row[b] for b in range(31))

    @given(st.integers(1, 40), st.integers(-3, 45))
    def test_pascal_recurrence(self, t, b):
        assert binomial(t, b) == binomial(t - 1, b - 1) + binomial(t - 1, b)

    @given(st.integers(0, 25), st.integers(0, 25))
    def test_matches_math_comb_in_range(self, t, b):
        if b <= t:
            assert binomial(t, b) == math.comb(t, b)


class TestIntMatrix:
    def test_from_rows_and_entry(self):
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert (m.rows, m.cols) == (2, 2)
        assert m.entry(1, 0) == 3
        assert m.row_lists() == [[1, 2], [3, 4]]

    def test_entry_bounds(self):
        m = IntMatrix.from_rows([[1]])
        with pytest.raises(IndexError):
            m.entry(0, 1)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            IntMatrix(2, 2, (1, 2, 3))
        with pytest.raises(ValueError):
            IntMatrix.from_rows([[1, 2], [3]])


class TestDetExact:
    def test_fixture_2x2(self):
        assert det_exact(IntMatrix.from_rows([[3, 1], [1, 2]])) == 5

    def test_identity(self):
        eye = IntMatrix.from_rows(
            [[1 if i == j else 0 for j in range(4)] for i in range(4)]
        )
        assert det_exact(eye) == 1

    def test_empty_matrix_is_one(self):
        assert det_exact(IntMatrix(0, 0, ())) == 1

    def test_upper_triangular(self):
        m = IntMatrix.from_rows([[2, 5, 7], [0, 3, 1], [0, 0, -4]])
        assert det_exact(m) == -24

    def test_singular(self):
        m = IntMatrix.from_rows([[1, 2], [2, 4]])
        assert det_exact(m) == 0

    def test_zero_pivot_needs_swap(self):
        m = IntMatrix.from_rows([[0, 1], [1, 0]])
        assert det_exact(m) == -1

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            det_exact(IntMatrix.from_rows([[1, 2, 3], [4, 5, 6]]))

    def test_exact_beyond_float(self):
        big = 10**20
        m = IntMatrix.from_rows([[big, 3], [7, big]])
        assert det_exact(m) == big * big - 21

    @given(
        st.integers(0, 4).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                min_size=n,
                max_size=n,
            )
        )
    )
    def test_agrees_with_laplace(self, rows):
        assert det_exact(IntMatrix.from_rows(rows)) == laplace_det(rows)

    @given(
        st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3), min_size=3, max_size=3),
        st.sampled_from([(0, 1), (0, 2), (1, 2)]),
    )
    def test_row_swap_negates(self, rows, swap):
        i, j = swap
        swapped = list(rows)
        swapped[i], swapped[j] = swapped[j], swapped[i]
        assert det_exact(IntMatrix.from_rows(swapped)) == -det_exact(
            IntMatrix.from_rows(rows)
        )


def unit_hessenberg(n, upper):
    """n x n matrix: 1 on the subdiagonal, 0 below it, `upper` read row-major above."""
    values = iter(upper)
    return [
        [1 if j == i - 1 else 0 if j < i - 1 else next(values) for j in range(n)]
        for i in range(n)
    ]


unit_hessenberg_rows = st.integers(0, 7).flatmap(
    lambda n: st.lists(
        st.integers(-9, 9), min_size=n * (n + 1) // 2, max_size=n * (n + 1) // 2
    ).map(lambda upper: unit_hessenberg(n, upper))
)


class TestDetHessenberg:
    def test_fixture_2x2(self):
        assert det_hessenberg(IntMatrix.from_rows([[3, 1], [1, 2]])) == 5

    def test_empty_matrix_is_one(self):
        assert det_hessenberg(IntMatrix(0, 0, ())) == 1

    @given(unit_hessenberg_rows)
    def test_agrees_with_laplace(self, rows):
        m = IntMatrix.from_rows(rows)
        assert det_hessenberg(m) == laplace_det(rows) == det_exact(m)

    def test_not_square(self):
        with pytest.raises(NotSquareError):
            det_hessenberg(IntMatrix.from_rows([[1, 2, 3], [1, 5, 6]]))

    @pytest.mark.parametrize("sub", [0, 2, -1])
    def test_rejects_non_unit_subdiagonal(self, sub):
        rows = unit_hessenberg(3, range(1, 7))
        rows[2][1] = sub
        with pytest.raises(ValueError, match="subdiagonal"):
            det_hessenberg(IntMatrix.from_rows(rows))

    def test_rejects_entry_below_subdiagonal(self):
        rows = unit_hessenberg(4, range(1, 11))
        rows[3][1] = 5
        with pytest.raises(ValueError, match="below the subdiagonal"):
            det_hessenberg(IntMatrix.from_rows(rows))
