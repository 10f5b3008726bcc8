from functools import partial
from itertools import combinations

import pytest
from hypothesis import example, given

from skewcount.errors import InvariantError, count_leaves
from skewcount.exact import det_exact
from skewcount.gv import (
    GVConfig,
    PathFamily,
    enumerate_disjoint_families,
    gv_count,
    gv_endpoints,
    gv_matrix,
    walk_families,
)
from skewcount.kreweras import kreweras_count, kreweras_matrix
from skewcount.paths import LatticePath, count_monotone
from skewcount.shapes import Partition, SkewShape, parse_shape, partitions_in_box, subpartitions
from test_cli import run_python
from test_kreweras import skew_shapes


def is_vertex_disjoint(family):
    """Whether no two paths of the family share a vertex."""
    for p, q in combinations(family.paths, 2):
        if set(p.vertices()) & set(q.vertices()):
            return False
    return True


def set_search_families(config):
    """Reference family search: the same growth order as walk_families,
    but with vertices as (x, y) pairs in a set, steps as strings extended at
    every node, and reachability checked against the remaining starts at every
    partial family."""
    used_ends = [False] * config.n
    occupied = set()

    def place(paths):
        if len(paths) == config.n:
            if any(p.end != end for p, end in zip(paths, config.ends)):
                raise InvariantError(f"non-identity family {PathFamily(paths)}")
            yield PathFamily(paths)
            return
        rest = config.starts[len(paths):]
        for used, (ex, ey) in zip(used_ends, config.ends):
            if not used and not any(ex >= sx and ey >= sy for sx, sy in rest):
                return
        x, y = rest[0]
        for j, (ex, ey) in enumerate(config.ends):
            if not used_ends[j] and ex >= x and ey >= y:
                used_ends[j] = True
                yield from grow(paths, x, y, ex, ey, "")
                used_ends[j] = False

    def grow(paths, x, y, ex, ey, steps):
        if (x, y) in occupied:
            return
        occupied.add((x, y))
        if x == ex and y == ey:
            yield from place(paths + (LatticePath(config.starts[len(paths)], steps),))
        if y < ey:
            yield from grow(paths, x, y + 1, ex, ey, steps + "N")
        if x < ex:
            yield from grow(paths, x + 1, y, ex, ey, steps + "E")
        occupied.discard((x, y))

    return place(())


def test_endpoints_two_one():
    config = gv_endpoints(parse_shape("2,1"))
    assert config.starts == ((-1, 1), (-2, 2))
    assert config.ends == ((1, 2), (-1, 3))


def test_endpoints_single_cell():
    config = gv_endpoints(parse_shape("1"))
    assert config.starts == ((-1, 1),)
    assert config.ends == ((0, 2),)
    assert count_monotone(config.starts[0], config.ends[0]) == 2


def test_entry_identity_explicit():
    # start 1 to end 1 of shape 2,1: three monotone paths, matching entry (1,1)
    assert count_monotone((-1, 1), (1, 2)) == 3
    km = kreweras_matrix(parse_shape("2,1"))
    assert km.row_lists()[0][0] == 3


def test_matrix_equals_binomial_matrix():
    for text in ["2,1", "9,7,6,2/3,1", "3,1/2", "2,2,2/1"]:
        shape = parse_shape(text)
        assert gv_matrix(gv_endpoints(shape)).entries == kreweras_matrix(shape).entries


def test_matrix_empty():
    m = gv_matrix(gv_endpoints(parse_shape("0")))
    assert (m.rows, m.cols) == (0, 0)
    assert det_exact(m) == 1


def test_config_length_mismatch():
    with pytest.raises(ValueError):
        GVConfig(((0, 0),), ())


def test_gv_count_examples():
    assert gv_count(gv_endpoints(parse_shape("2,1"))) == 5
    assert gv_count(gv_endpoints(parse_shape("2,2"))) == 6
    assert gv_count(gv_endpoints(parse_shape("0"))) == 1


class TestDisjointFamilies:
    def test_single_cell(self):
        families = enumerate_disjoint_families(gv_endpoints(parse_shape("1")))
        assert len(families) == 2
        steps = sorted(f.paths[0].steps for f in families)
        assert steps == ["EN", "NE"]

    def test_two_one(self):
        config = gv_endpoints(parse_shape("2,1"))
        families = enumerate_disjoint_families(config)
        assert len(families) == 5
        for fam in families:
            assert len(fam.paths) == 2
            assert is_vertex_disjoint(fam)
            # identity permutation: path i runs from start i to end i
            for i, p in enumerate(fam.paths):
                assert p.start == config.starts[i]
                assert p.end == config.ends[i]

    def test_empty_shape_one_empty_family(self):
        families = enumerate_disjoint_families(gv_endpoints(parse_shape("0")))
        assert families == [PathFamily(())]

    def test_canonical_order_is_sorted(self):
        for lam in partitions_in_box(3, 3):
            for mu in subpartitions(lam):
                config = gv_endpoints(SkewShape(Partition(lam), Partition(mu)))
                families = enumerate_disjoint_families(config)
                keys = [tuple((p.north_xs(), p.end) for p in f.paths) for f in families]
                assert keys == sorted(keys)

    def test_non_identity_family_raises(self):
        # the only disjoint family pairs start 0 with end 1
        config = GVConfig(((0, 0), (1, 0)), ((1, 1), (0, 1)))
        with pytest.raises(InvariantError):
            enumerate_disjoint_families(config)

    def test_non_identity_family_raises_while_counting(self):
        # the check sits in the walk, so counting without building meets it too
        config = GVConfig(((0, 0), (1, 0)), ((1, 1), (0, 1)))
        with pytest.raises(InvariantError, match=r"non-identity family PathFamily"):
            count_leaves(partial(walk_families, config), None)

    def test_pick_that_strands_an_end_grows_no_path(self):
        # only start 0 reaches end 0, so start 0 may not take end 1: growing
        # its million-step path there first would pass the recursion limit
        config = GVConfig(((0, 0), (999_999, 0)), ((1, 1), (1_000_000, 1)))
        families = enumerate_disjoint_families(config)
        assert [[p.steps for p in f.paths] for f in families] == [
            ["NE", "NE"], ["NE", "EN"], ["EN", "NE"], ["EN", "EN"]
        ]

    def test_walk_recurses_once_per_row_a_path_crosses(self):
        # two paths of 201 and 301 steps cross two rows each, so the walk stays
        # inside a recursion limit of 60 that a frame a path step would pass
        done = run_python("-c", (
            "import sys\n"
            "from functools import partial\n"
            "from skewcount.errors import count_leaves\n"
            "from skewcount.gv import gv_endpoints, walk_families\n"
            "from skewcount.paths import count_paths_dp\n"
            "from skewcount.shapes import parse_shape\n"
            "shape = parse_shape('300,300/100')\n"
            "sys.setrecursionlimit(60)\n"
            "print(count_leaves(partial(walk_families, gv_endpoints(shape)), None),"
            " count_paths_dp(shape))\n"
        ))
        assert (done.returncode, done.stdout, done.stderr) == (0, "40401 40401\n", "")

    def test_count_matches_determinant_on_sweep(self):
        for lam in partitions_in_box(2, 3):
            for mu in subpartitions(lam):
                shape = SkewShape(Partition(lam), Partition(mu))
                config = gv_endpoints(shape)
                assert len(enumerate_disjoint_families(config)) == gv_count(config)

    def test_matches_set_search_on_4x4_box(self):
        for lam in partitions_in_box(4, 4):
            for mu in subpartitions(lam):
                config = gv_endpoints(SkewShape(Partition(lam), Partition(mu)))
                assert enumerate_disjoint_families(config) == list(set_search_families(config))

    @given(skew_shapes(max_rows=6, max_width=6))
    @example(parse_shape("2,1/2,1"))
    @example(parse_shape("20,20,15,9,9,4,1/20,15,15,9,4,4"))
    def test_matches_set_search_on_random_shapes(self, shape):
        config = gv_endpoints(shape)
        assert enumerate_disjoint_families(config) == list(set_search_families(config))


class TestPathFamily:
    def test_disjoint_predicate(self):
        apart = PathFamily(
            (LatticePath((0, 0), "E"), LatticePath((0, 5), "E"))
        )
        assert is_vertex_disjoint(apart)
        crossing = PathFamily(
            (LatticePath((0, 0), "EN"), LatticePath((1, 0), "N"))
        )
        assert not is_vertex_disjoint(crossing)

    def test_to_json(self):
        fam = PathFamily((LatticePath((-1, 1), "EN"),))
        assert fam.to_json() == {"paths": [{"start": [-1, 1], "steps": "EN"}]}


def test_gv_equals_kreweras_count_on_sweep():
    for lam in partitions_in_box(3, 3):
        for mu in subpartitions(lam):
            shape = SkewShape(Partition(lam), Partition(mu))
            assert gv_count(gv_endpoints(shape)) == kreweras_count(shape)
