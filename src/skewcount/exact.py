"""Exact integer arithmetic: path-counting binomials and fraction-free determinants.

Everything here is plain Python `int` (arbitrary precision); no floating
point is used anywhere on a counting code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import mul
from typing import Iterable, Sequence

from .errors import NotSquareError


def binomial(top: int, bottom: int) -> int:
    """Binomial coefficient with the path-counting convention.

    Returns 0 whenever ``bottom < 0`` or ``bottom > top`` (in particular
    for every negative ``top``), so that binomial(t, b) always equals the
    number of monotone lattice paths with b north steps among t steps.
    """
    if bottom < 0 or bottom > top:
        return 0
    return math.comb(top, bottom)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable row-major integer matrix."""

    rows: int
    cols: int
    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.rows < 0 or self.cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        row_list = [tuple(int(x) for x in row) for row in rows]
        if not row_list:
            return cls(0, 0, ())
        cols = len(row_list[0])
        if any(len(r) != cols for r in row_list):
            raise ValueError("rows have unequal lengths")
        return cls(len(row_list), cols, tuple(x for r in row_list for x in r))

    def entry(self, i: int, j: int) -> int:
        """Entry at 0-based (i, j)."""
        if not (0 <= i < self.rows and 0 <= j < self.cols):
            raise IndexError(f"({i}, {j}) outside {self.rows}x{self.cols} matrix")
        return self.entries[i * self.cols + j]

    def row_lists(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    All intermediate divisions are exact over the integers; row swaps are
    tracked by sign. The empty 0x0 matrix has determinant 1.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    if n == 0:
        return 1
    a = m.row_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                # division by the previous pivot is exact (Bareiss identity)
                a[i][j] = (pivot * a[i][j] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_hessenberg(m: IntMatrix) -> int:
    """Exact determinant of an upper Hessenberg matrix with a unit subdiagonal.

    Expanding the leading k+1 by k+1 minor along its last column gives
    D_0 = 1 and D_{k+1} = sum_{i<=k} (-1)^(k-i) h_{i,k} D_i, which is O(n^2)
    multiply-adds and no division. With E_i = (-1)^i D_i the recurrence is
    sign-free: E_{k+1} = -sum_{i<=k} h_{i,k} E_i, and D_n = (-1)^n E_n.

    Raises ValueError unless every subdiagonal entry is 1 and every entry
    below the subdiagonal is 0, since the recurrence would silently give a
    wrong value for any other matrix.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    a = m.entries
    for i in range(1, n):
        row = i * n
        if a[row + i - 1] != 1:
            raise ValueError(f"subdiagonal entry ({i}, {i - 1}) is {a[row + i - 1]}, not 1")
        if any(a[row : row + i - 1]):
            raise ValueError(f"row {i} has a nonzero entry below the subdiagonal")
    signed = [1]
    for k in range(n):
        # rows 0..k of column k
        signed.append(-sum(map(mul, a[k : (k + 1) * n : n], signed)))
    return signed[n] if n % 2 == 0 else -signed[n]
