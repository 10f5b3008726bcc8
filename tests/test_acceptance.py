"""Acceptance suite: one test per criterion, one PASS/FAIL line per criterion.

Run with `pytest -v` (the project enables -rA, so the per-criterion lines
are echoed in the PASSES section) or directly with
`pytest tests/test_acceptance.py -s` to watch them stream.
"""

import math
import random
from contextlib import contextmanager

from skewcount.exact import IntMatrix, det_exact
from skewcount.gv import (
    enumerate_disjoint_families,
    gv_count,
    gv_endpoints,
    gv_matrix,
)
from skewcount.kreweras import kreweras_count, kreweras_matrix
from skewcount.paths import count_paths_dp, enumerate_paths
from skewcount.shapes import Partition, SkewShape, parse_shape, partitions_in_box, subpartitions
from skewcount.tilings import (
    enumerate_tilings,
    extract_family,
    family_A_to_lattice_path,
    family_B_to_z2_paths,
    lattice_path_to_tiling,
)
from test_gv import is_vertex_disjoint
from test_kreweras import remove_empty_rows
from test_tilings import colex_paths, interior_triangles, type_census, up_down_counts

BIG_FIXTURE = parse_shape("9,7,6,2/3,1")
BIG_FIXTURE_COUNT = 399  # pinned after first computation


@contextmanager
def criterion(num, name):
    ok = True
    try:
        yield
    except BaseException:
        ok = False
        raise
    finally:
        print(f"[acceptance] {num:2d} {name}: {'PASS' if ok else 'FAIL'}")


def box_shapes(rows, cols):
    for lam in partitions_in_box(rows, cols):
        for mu in subpartitions(lam):
            yield SkewShape(Partition(lam), Partition(mu))


def laplace_det(rows):
    if not rows:
        return 1
    if len(rows) == 1:
        return rows[0][0]
    total = 0
    for j, head in enumerate(rows[0]):
        if head == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * head * laplace_det(minor)
    return total


def catalan_numbers(count):
    # built by the convolution recurrence, independent of any counting route
    values = [1]
    while len(values) <= count:
        values.append(sum(values[i] * values[-1 - i] for i in range(len(values))))
    return values


def test_01_three_routes_agree():
    with criterion(1, "det = dp = enumeration over the 4x4 sweep"):
        for shape in box_shapes(4, 4):
            det = kreweras_count(shape)
            assert det == count_paths_dp(shape)
            assert det == len(enumerate_paths(shape))


def test_02_tiling_counts_match_determinant():
    with criterion(2, "tiling enumeration matches det over the 3x3 sweep"):
        for shape in box_shapes(3, 3):
            assert len(enumerate_tilings(shape)) == kreweras_count(shape)


def test_03_disjoint_families_match_determinants():
    with criterion(3, "disjoint families match both determinants, rigidly"):
        for shape in box_shapes(3, 3):
            config = gv_endpoints(shape)
            families = enumerate_disjoint_families(config)
            assert len(families) == gv_count(config)
            assert len(families) == kreweras_count(shape)
            for family in families:
                assert is_vertex_disjoint(family)
                # only the identity pairing of starts to ends ever occurs
                for i, path in enumerate(family.paths):
                    assert path.start == config.starts[i]
                    assert path.end == config.ends[i]


def test_04_matrices_agree_entrywise():
    with criterion(4, "path-count matrix equals binomial matrix entrywise"):
        shapes = list(box_shapes(4, 4)) + [BIG_FIXTURE]
        for shape in shapes:
            lhs = gv_matrix(gv_endpoints(shape))
            rhs = kreweras_matrix(shape)
            assert lhs.row_lists() == rhs.row_lists()


def test_05_round_trip_bijection():
    with criterion(5, "path-tiling round trip is a bijection over 3x3"):
        for shape in box_shapes(3, 3):
            paths = enumerate_paths(shape)
            tilings = set()
            for path in paths:
                tiling = lattice_path_to_tiling(shape, path)
                back = family_A_to_lattice_path(extract_family(tiling, "a"))
                assert back == path
                tilings.add(tiling)
            assert len(tilings) == len(paths)
            all_tilings = enumerate_tilings(shape)
            assert tilings == set(all_tilings)
            images = {
                family_B_to_z2_paths(extract_family(t, "b"), shape)
                for t in all_tilings
            }
            assert images == set(enumerate_disjoint_families(gv_endpoints(shape)))


def test_06_closed_forms():
    with criterion(6, "rectangle binomials and staircase Catalans"):
        for a in range(1, 6):
            for b in range(1, 6):
                shape = SkewShape(Partition((b,) * a))
                assert kreweras_count(shape) == math.comb(a + b, a)
        catalan = catalan_numbers(6)
        for k in range(1, 7):
            staircase = SkewShape(Partition(tuple(range(k - 1, 0, -1))))
            assert kreweras_count(staircase) == catalan[k]


def test_07_balance_and_census():
    with criterion(7, "region balance and per-tiling type census over 3x3"):
        for shape in box_shapes(3, 3):
            ups, downs = up_down_counts(interior_triangles(shape))
            expected = shape.m + shape.width + shape.n
            assert ups == expected
            assert downs == expected
            for tiling in enumerate_tilings(shape):
                assert type_census(tiling) == (shape.m, shape.width, shape.n)


def test_08_empty_row_invariance():
    with criterion(8, "count invariant under empty-row insertion/removal"):
        for shape in box_shapes(4, 4):
            row = max(shape.width, 1)
            extended = SkewShape(
                Partition((row, *shape.outer)),
                Partition((row, *shape.inner)),
            )
            base = kreweras_count(shape)
            assert kreweras_count(extended) == base
            assert kreweras_count(remove_empty_rows(extended)) == base


def test_09_determinant_against_laplace():
    with criterion(9, "det_exact matches Laplace oracle on 500 random matrices"):
        rng = random.Random(20123)
        for _ in range(500):
            size = rng.randint(0, 6)
            rows = [
                [rng.randint(-9, 9) for _ in range(size)] for _ in range(size)
            ]
            assert det_exact(IntMatrix.from_rows(rows)) == laplace_det(rows)


def test_10_big_fixture_regression():
    with criterion(10, "pinned regression value for the 9,7,6,2/3,1 fixture"):
        assert kreweras_count(BIG_FIXTURE) == BIG_FIXTURE_COUNT
        assert count_paths_dp(BIG_FIXTURE) == BIG_FIXTURE_COUNT


def test_11_tiling_search_order():
    with criterion(11, "tiling k is the tiling of path N-1-k over the 4x4 sweep"):
        for shape in box_shapes(4, 4):
            paths = enumerate_paths(shape)
            assert enumerate_tilings(shape) == [
                lattice_path_to_tiling(shape, p) for p in reversed(paths)
            ]


def test_12_family_search_order():
    with criterion(12, "family k is the b family of colex path k over the 3x3 sweep"):
        for shape in box_shapes(3, 3):
            assert enumerate_disjoint_families(gv_endpoints(shape)) == [
                family_B_to_z2_paths(extract_family(lattice_path_to_tiling(shape, p), "b"), shape)
                for p in colex_paths(shape)
            ]
