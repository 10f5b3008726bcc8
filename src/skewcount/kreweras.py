"""The determinant formula for skew path counts.

The count N(outer/inner) equals the determinant of the n x n matrix with
(i, j)-entry binomial(outer_j - inner_i + 1, j - i + 1); with an empty inner
partition the entries reduce to binomial(outer_j + 1, j - i + 1).

The matrix is upper Hessenberg with a unit subdiagonal: an entry with j < i-1
has a negative bottom, so it is 0, and an entry with j = i-1 is binomial(., 0)
= 1 because outer_{i-1} >= inner_{i-1} >= inner_i. So the determinant is an
O(n^2) expansion (`det_hessenberg`), not an O(n^3) elimination.
"""

from __future__ import annotations

from .errors import MAX_MATRIX_ENTRIES, InvariantError, check_size
from .exact import IntMatrix, binomial, det_hessenberg
from .shapes import SkewShape, format_shape


def kreweras_matrix(shape: SkewShape) -> IntMatrix:
    """The n x n binomial matrix of the shape (0x0 when the shape is empty)."""
    n = shape.n
    check_size(n * n, MAX_MATRIX_ENTRIES, "matrix entries")
    outer = shape.outer
    inner = shape.inner + (0,) * (n - len(shape.inner))
    entries = tuple(
        binomial(outer[j] - inner[i] + 1, j - i + 1) if j >= i - 1 else 0
        for i in range(n)
        for j in range(n)
    )
    return IntMatrix(n, n, entries)


def kreweras_count(shape: SkewShape) -> int:
    """N(outer/inner) as the exact determinant of the binomial matrix."""
    value = det_hessenberg(kreweras_matrix(shape))
    # the determinant counts paths, so a negative value means a convention bug
    if value < 0:
        raise InvariantError(f"negative path count {value} for {format_shape(shape)}")
    return value

