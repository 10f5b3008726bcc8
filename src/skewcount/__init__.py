"""Exact counting of monotone lattice paths in skew Young diagrams.

The same number is computed by several mutually independent routes — a
binomial determinant, a dynamic program, explicit path enumeration, lozenge
tilings of a sheared region, and disjoint path families on Z^2 — and the
bijections tying those routes together are constructed explicitly.

A submodule is imported the first time one of its names is used (PEP 562),
so ``import skewcount`` and the CLI load only the routes they run.
"""

from importlib import import_module

# every public name -> the submodule that defines it
_SUBMODULE = {
    name: module
    for module, names in {
        "errors": (
            "CapExceededError", "InvariantError", "MalformedFamilyError",
            "NegativePartError", "NonMonotoneError", "NotAdmissibleError",
            "NotContainedError", "NotSquareError", "ShapeError", "SkewCountError",
            "WrongEndpointsError",
        ),
        "exact": ("IntMatrix", "binomial", "det_exact", "det_hessenberg"),
        "gv": (
            "GVConfig", "PathFamily", "enumerate_disjoint_families", "gv_count",
            "gv_endpoints", "gv_matrix",
        ),
        "kreweras": ("kreweras_count", "kreweras_matrix"),
        "paths": (
            "LatticePath", "count_monotone", "count_paths_dp", "enumerate_paths",
            "is_admissible", "path_from_north_record",
        ),
        "shapes": (
            "Partition", "SkewShape", "format_shape", "parse_shape", "partitions_in_box",
            "subpartitions",
        ),
        "tilings": (
            "T1", "T2", "T3", "Lozenge", "RhombusPathFamily", "Tiling",
            "Triangle", "TriPoint", "enumerate_tilings", "extract_family",
            "family_A_to_lattice_path", "family_B_to_z2_paths", "lattice_path_to_tiling",
            "lozenge_corners", "lozenge_triangles", "render_svg",
        ),
    }.items()
    for name in names
}

__version__ = "0.1.0"

__all__ = [*sorted(_SUBMODULE), "__version__"]


def __getattr__(name: str):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_SUBMODULE[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
