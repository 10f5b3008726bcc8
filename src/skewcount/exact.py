"""Exact integer arithmetic: path-counting binomials and fraction-free determinants.

Everything here is plain Python `int` (arbitrary precision); no floating
point is used anywhere on a counting code path.
"""

from __future__ import annotations

import math
from operator import mul
from typing import Iterable, NamedTuple, Sequence

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


class IntMatrix(NamedTuple("IntMatrix", [("rows", int), ("cols", int), ("entries", tuple)])):
    """Immutable row-major integer matrix."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, rows: int, cols: int, entries: tuple[int, ...]) -> "IntMatrix":
        if rows < 0 or cols < 0:
            raise ValueError("matrix dimensions must be nonnegative")
        if len(entries) != rows * cols:
            raise ValueError(f"expected {rows * cols} entries, got {len(entries)}")
        # no coercion: int() would take 2.5, "3" or True and give another determinant
        kinds = set(map(type, entries)) - {int}
        if kinds:
            names = ", ".join(sorted(k.__name__ for k in kinds))
            raise ValueError(f"matrix entries must be int, got {names}")
        return super().__new__(cls, rows, cols, entries)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "IntMatrix":
        row_list = [tuple(row) for row in rows]
        if not row_list:
            return cls(0, 0, ())
        cols = len(row_list[0])
        if any(len(r) != cols for r in row_list):
            raise ValueError("rows have unequal lengths")
        return cls(len(row_list), cols, tuple(x for r in row_list for x in r))

    def row_lists(self) -> list[list[int]]:
        return [
            list(self.entries[i * self.cols : (i + 1) * self.cols])
            for i in range(self.rows)
        ]


def det_exact(m: IntMatrix) -> int:
    """Exact determinant by fraction-free Bareiss elimination.

    All intermediate divisions are exact over the integers; row swaps are
    tracked by sign. The empty 0x0 matrix has determinant 1. A step would only
    rescale a row with a zero in the pivot column, so it is left alone until
    next read: by Sylvester's identity, on which Bareiss rests, an entry x last
    written under divisor D_s is exactly x * D_k // D_s under D_k. So a
    Gessel-Viennot matrix, with one nonzero below each pivot, takes O(n^2) steps.
    """
    if m.rows != m.cols:
        raise NotSquareError(f"matrix is {m.rows}x{m.cols}")
    n = m.rows
    a = m.row_lists()
    since = [1] * n  # the divisor each row was last written under
    sign = prev = 1
    for k in range(n):
        p = k
        while p < n and a[p][k] == 0:
            p += 1
        if p == n:
            return 0
        if p != k:
            a[k], a[p], since[k], since[p] = a[p], a[k], since[p], since[k]
            sign = -sign
        for i in range(k, n):  # row k first: its entry in column k is the pivot
            row, old = a[i], since[i]
            if row[k] == 0:  # the step would only rescale it
                continue
            if old != prev:
                for j in range(k, n):
                    row[j] = row[j] * prev // old
            if i == k:
                top, pivot = row, row[k]
                continue
            x = row[k]
            for j in range(k + 1, n):
                # division by the previous pivot is exact (Bareiss identity)
                row[j] = (pivot * row[j] - x * top[j]) // prev
            since[i] = pivot
        prev = pivot
    return sign * prev


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
