"""Run one skewcount CLI call with a span around every call into each module.

Usage (with the package's ``src`` on PYTHONPATH)::

    python benchmarks/traced_cli.py SPANS.json CALL_ID CLI_ARG...

Before ``skewcount.cli.main`` runs, the names that modules import from each
other are replaced by timing wrappers; spans stay in memory and are written
to SPANS.json when the call ends. Each span is
``[name, start_s, end_s, parent_index, call_id, extra]``, where ``extra``
holds the work a call did: items an enumerator handed out, the matrix size
of a determinant, triangles in a region, bytes of SVG. A name missing at
the commit under test is skipped.
"""

from __future__ import annotations

import sys
import time

# the imported names each module looks up at call time, by module
WRAPPED = {
    "skewcount.cli": (
        "parse_shape", "kreweras_count", "det_exact", "count_paths_dp", "enumerate_paths",
        "gv_matrix", "enumerate_disjoint_families", "region_from_shape",
        "enumerate_tilings", "lattice_path_to_tiling", "render_svg",
    ),
    "skewcount.kreweras": ("kreweras_matrix", "det_exact"),
    "skewcount.tilings": ("region_from_shape",),
}


class Tracer:
    def __init__(self, call_id: str) -> None:
        self.call_id = call_id
        self.spans: list[list] = []
        self.open: list[int] = []
        self.wrappers: dict[int, object] = {}

    def wrap(self, func):
        """One wrapper per function, shared by every module that imports it."""
        if id(func) in self.wrappers:
            return self.wrappers[id(func)]
        name = func.__module__.rsplit(".", 1)[-1] + "." + func.__name__
        tracer = self

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer.open[-1] if tracer.open else None, tracer.call_id, {}]
            tracer.open.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer.open.pop()
            _note(name, args, result, span[5])
            if hasattr(result, "__next__"):
                return _Counted(result, span)
            return result

        self.wrappers[id(func)] = traced
        return traced

    def install(self) -> None:
        import importlib

        for module_name, names in WRAPPED.items():
            module = importlib.import_module(module_name)
            for attr in names:
                func = getattr(module, attr, None)
                if callable(func):
                    setattr(module, attr, self.wrap(func))


def _note(name: str, args: tuple, result, extra: dict) -> None:
    if isinstance(result, (list, tuple)) and ".enumerate_" in name:
        extra["items"] = len(result)
    elif name == "exact.det_exact":
        extra["n"] = getattr(args[0], "rows", 0)
    elif name == "tilings.region_from_shape":
        extra["triangles"] = len(getattr(result, "triangles", ()))
    elif name == "tilings.render_svg":
        extra["bytes"] = len(result.encode("utf-8"))


class _Counted:
    """A lazy result: counts the items the caller draws and the time each takes."""

    def __init__(self, it, span: list) -> None:
        self.it = it
        self.span = span
        span[5]["items"] = 0
        span[5]["draw_s"] = 0.0

    def __iter__(self):
        return self

    def __next__(self):
        t0 = time.perf_counter()
        try:
            item = next(self.it)
        finally:
            self.span[5]["draw_s"] += time.perf_counter() - t0
        self.span[5]["items"] += 1
        return item


def main(argv: list[str]) -> int:
    spans_path, call_id, cli_args = argv[0], argv[1], argv[2:]
    tracer = Tracer(call_id)
    tracer.install()
    from skewcount.cli import main as cli_main

    code = 1
    try:
        code = cli_main(cli_args)
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code if isinstance(exc.code, int) else 2
    finally:
        import json

        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
