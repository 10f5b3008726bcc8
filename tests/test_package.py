import pickle

import pytest
from test_cli import run_python

import skewcount
from skewcount import (
    LatticePath,
    NotContainedError,
    Partition,
    ShapeError,
    enumerate_disjoint_families,
    extract_family,
    gv_endpoints,
    kreweras_matrix,
    lattice_path_to_tiling,
    parse_shape,
)


def test_every_export_resolves():
    namespace = {}
    exec(f"from skewcount import {', '.join(skewcount.__all__)}", namespace)
    for name in skewcount.__all__:
        assert getattr(skewcount, name) is namespace[name]


def test_dir_lists_every_export():
    assert set(skewcount.__all__) <= set(dir(skewcount))


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        skewcount.no_such_name
    assert not hasattr(skewcount, "no_such_name")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from skewcount import *", namespace)
    assert set(skewcount.__all__) <= set(namespace)


def test_import_loads_a_submodule_on_first_use():
    code = (
        "import sys, skewcount\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.startswith('skewcount.'))\n"
        "print(loaded(), set(skewcount.__all__) <= set(dir(skewcount)))\n"
        "skewcount.binomial\n"
        "print(loaded())\n"
    )
    result = run_python("-c", code)
    assert result.stdout == "[] True\n['skewcount.errors', 'skewcount.exact']\n"


SHAPE = parse_shape("2,1")
TILING = lattice_path_to_tiling(SHAPE, LatticePath((0, 0), "NENE"))

# one value of each public value type, with one of its fields
VALUES = {
    "Partition": (Partition((2, 1)), "width"),
    "SkewShape": (parse_shape("3,2/1"), "outer"),
    "LatticePath": (LatticePath((0, 0), "NENE"), "steps"),
    "IntMatrix": (kreweras_matrix(SHAPE), "entries"),
    "GVConfig": (gv_endpoints(SHAPE), "starts"),
    "Tiling": (TILING, "lozenges"),
    "PathFamily": (enumerate_disjoint_families(gv_endpoints(SHAPE))[0], "paths"),
    "RhombusPathFamily": (extract_family(TILING, "b"), "direction"),
}


@pytest.mark.parametrize("name", VALUES)
def test_value_types_are_immutable_tuples_that_pickle(name):
    value, field = VALUES[name]
    assert type(value).__name__ == name
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    # README: a value equals the plain tuple of its fields
    assert value == tuple(value)
    # verify --jobs sends shapes and reports through pickle
    back = pickle.loads(pickle.dumps(value))
    assert type(back) is type(value)
    assert back == value


@pytest.mark.parametrize(
    "name, change, error",
    [
        ("SkewShape", {"inner": (4,)}, NotContainedError),
        ("LatticePath", {"steps": "NX"}, ShapeError),
        ("IntMatrix", {"entries": (1,)}, ValueError),
        ("GVConfig", {"ends": ()}, ValueError),
    ],
)
def test_replace_checks_like_the_constructor(name, change, error):
    value, _ = VALUES[name]
    with pytest.raises(error):
        value._replace(**change)
