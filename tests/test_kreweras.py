import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import skewcount
import skewcount.kreweras as kreweras
from skewcount.errors import InvariantError
from skewcount.exact import binomial, det_exact, det_hessenberg
from skewcount.kreweras import kreweras_count, kreweras_matrix
from skewcount.paths import count_paths_dp
from skewcount.shapes import Partition, SkewShape, parse_shape, partitions_in_box, subpartitions

# pinned after first computation; also the value behind the 4x4 matrix below
BIG_SHAPE = "9,7,6,2/3,1"
BIG_COUNT = 399
BIG_MATRIX = [
    [7, 10, 4, 0],
    [1, 7, 15, 0],
    [0, 1, 7, 3],
    [0, 0, 1, 3],
]


def remove_empty_rows(shape):
    """Drop every row with outer_i == inner_i, keeping the rest in order."""
    kept = [
        (shape.outer.part(i), shape.inner.part(i))
        for i in range(shape.n)
        if shape.outer.part(i) != shape.inner.part(i)
    ]
    return SkewShape(tuple(o for o, _ in kept), tuple(i for _, i in kept))


def test_matrix_two_one():
    km = kreweras_matrix(parse_shape("2,1"))
    assert km.row_lists() == [[3, 1], [1, 2]]


def test_matrix_single_cell():
    assert kreweras_matrix(parse_shape("1")).row_lists() == [[2]]


def test_matrix_empty_shape():
    m = kreweras_matrix(parse_shape("0"))
    assert (m.rows, m.cols) == (0, 0)


def test_matrix_big_fixture():
    km = kreweras_matrix(parse_shape(BIG_SHAPE))
    assert km.row_lists() == BIG_MATRIX


def test_count_examples():
    assert kreweras_count(parse_shape("2,1")) == 5
    assert kreweras_count(parse_shape("0")) == 1
    assert kreweras_count(parse_shape("2,2")) == 6
    assert kreweras_count(parse_shape("3,1/2")) == 4


def test_count_big_fixture():
    s = parse_shape(BIG_SHAPE)
    assert kreweras_count(s) == BIG_COUNT
    assert count_paths_dp(s) == BIG_COUNT


def test_empty_inner_entry_reduction():
    for lam in [(3,), (3, 2), (4, 2, 1), (2, 2, 2)]:
        s = SkewShape(Partition(lam))
        m = kreweras_matrix(s)
        n = s.n
        for i in range(n):
            for j in range(n):
                assert m.row_lists()[i][j] == binomial(s.outer.part(j) + 1, j - i + 1)


class TestRemoveEmptyRows:
    def test_drops_matching_row(self):
        got = remove_empty_rows(parse_shape("2,1,1/1,1"))
        assert got == parse_shape("2,1/1")

    def test_no_empty_rows_unchanged(self):
        s = parse_shape("3,2/1")
        assert remove_empty_rows(s) == s

    def test_all_rows_empty(self):
        assert remove_empty_rows(parse_shape("2,1/2,1")) == parse_shape("0")

    def test_count_unchanged(self):
        s = parse_shape("2,1,1/1,1")
        assert kreweras_count(s) == kreweras_count(remove_empty_rows(s)) == 4


@given(st.sampled_from(partitions_in_box(3, 3)))
def test_determinant_equals_dp(lam):
    # one slice of the central identity; the acceptance suite sweeps 4x4
    for mu in subpartitions(lam):
        s = SkewShape(Partition(lam), Partition(mu))
        assert kreweras_count(s) == count_paths_dp(s)


@st.composite
def skew_shapes(draw, max_rows=60, max_width=60):
    n = draw(st.integers(0, max_rows))
    parts = st.lists(st.integers(0, max_width), min_size=n, max_size=n)
    outer = sorted(draw(parts), reverse=True)
    # the rowwise min of two weakly decreasing sequences is weakly decreasing
    inner = [min(o, i) for o, i in zip(outer, sorted(draw(parts), reverse=True))]
    return SkewShape(Partition(tuple(outer)), Partition(tuple(inner)))


@given(skew_shapes())
def test_hessenberg_equals_bareiss_equals_dp(shape):
    m = kreweras_matrix(shape)
    assert det_hessenberg(m) == det_exact(m) == count_paths_dp(shape)


def test_staircase_200_is_catalan():
    # staircase n,...,1 has Catalan(n+1) paths; far beyond a Laplace oracle,
    # so a wrong sign convention in the expansion shows here
    shape = SkewShape(Partition(tuple(range(200, 0, -1))))
    assert kreweras_count(shape) == math.comb(402, 201) // 202


def test_negative_count_raises(monkeypatch):
    monkeypatch.setattr(kreweras, "det_hessenberg", lambda m: -1)
    # the message names the shape in its text form, as every other message does
    with pytest.raises(InvariantError, match="^negative path count -1 for 2,1$"):
        kreweras_count(parse_shape("2,1"))
    with pytest.raises(InvariantError, match="^negative path count -1 for 3,2/1$"):
        kreweras_count(parse_shape("3,2/1"))


def test_negative_count_raises_under_optimize():
    script = (
        "import skewcount.kreweras as k\n"
        "from skewcount import InvariantError, parse_shape\n"
        "k.det_hessenberg = lambda m: -1\n"
        "try:\n"
        "    k.kreweras_count(parse_shape('2,1'))\n"
        "except InvariantError:\n"
        "    print('raised')\n"
    )
    src = str(Path(skewcount.__file__).resolve().parents[1])
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    done = subprocess.run(
        [sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout == "raised\n"
