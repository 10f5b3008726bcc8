import pytest
from test_cli import run_python

import skewcount


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
