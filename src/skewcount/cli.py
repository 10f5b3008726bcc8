"""Command line front end: counting, cross-verification sweeps, listings, rendering.

Exit codes: 0 success (verify: all methods agree), 1 verify disagreement,
2 malformed input, 3 enumeration cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from functools import partial
from itertools import islice

from .errors import (
    BadIndexError,
    CapExceededError,
    NotAdmissibleError,
    ShapeError,
    WrongEndpointsError,
    capped,
    count_capped,
)
from .gv import gv_count, gv_endpoints, iter_disjoint_families
from .kreweras import kreweras_count
from .paths import LatticePath, count_paths_dp, iter_paths
from .shapes import (
    Partition,
    SkewShape,
    format_shape,
    parse_shape,
    partitions_in_box,
    subpartitions,
)
from .tilings import iter_tilings, lattice_path_to_tiling, region_from_shape, render_svg

DEFAULT_CAP = 1_000_000
CAP_ENV = "SKEWCOUNT_CAP"

# every route, in verify's order; lambdas look names up at call time, so patches take effect
METHODS = {
    "det": lambda shape, cap: kreweras_count(shape),
    "dp": lambda shape, cap: count_paths_dp(shape),
    "enum": lambda shape, cap: count_capped(iter_paths(shape), cap),
    "tilings": lambda shape, cap: count_capped(iter_tilings(region_from_shape(shape)), cap),
    "gv_enum": lambda shape, cap: count_capped(iter_disjoint_families(gv_endpoints(shape)), cap),
    "gv_det": lambda shape, cap: gv_count(gv_endpoints(shape)),
}

# the shape-part grammar (ASCII digits, whitespace around them) plus a sign;
# int() alone would also take "1_0", "+3" and non-ASCII digits
_INTEGER = re.compile(r"\s*(-?[0-9]+)\s*")


def _int_at_least(name: str, raw: str, low: int) -> int:
    """Parse an integer flag or variable and check its lower bound."""
    bad = ShapeError(f"{name} must be an integer, got {raw!r}")
    match = _INTEGER.fullmatch(raw)
    if match is None:
        raise bad
    try:
        value = int(match.group(1))
    except ValueError:  # more digits than int() converts
        raise bad from None
    if value < low:
        raise ShapeError(f"{name} must be at least {low}, got {value}")
    return value


def _resolve_cap(args: argparse.Namespace) -> int:
    if args.cap is not None:
        return _int_at_least("--cap", args.cap, 0)
    raw = os.environ.get(CAP_ENV)
    return DEFAULT_CAP if raw is None else _int_at_least(CAP_ENV, raw, 0)


def cmd_count(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    method = "gv_det" if args.method == "gv" else args.method
    print(METHODS[method](shape, _resolve_cap(args)))
    return 0


def _verify_one(text: str, cap: int) -> dict:
    shape = parse_shape(text)
    counts = {}
    elapsed = {}
    for name, count in METHODS.items():
        t0 = time.perf_counter()
        counts[name] = count(shape, cap)
        elapsed[name] = round((time.perf_counter() - t0) * 1000.0, 3)
    return {
        "shape": format_shape(shape),
        "counts": {k: str(v) for k, v in counts.items()},
        "agree": len(set(counts.values())) == 1,
        "elapsed_ms": elapsed,
    }


def _box_sweep(box_text: str) -> list[str]:
    match = re.fullmatch(r"([0-9]+)[xX]([0-9]+)", box_text.strip())
    if not match:
        raise ShapeError(f"--box wants AxB, got {box_text!r}")
    try:
        rows, cols = int(match.group(1)), int(match.group(2))
    except ValueError:  # more digits than int() converts
        side = max(match.groups(), key=len)
        raise ShapeError(f"--box side of {len(side)} digits is too long") from None
    out = []
    for lam in partitions_in_box(rows, cols):
        for mu in subpartitions(lam):
            out.append(format_shape(SkewShape(Partition(lam), Partition(mu))))
    return out


def cmd_verify(args: argparse.Namespace) -> int:
    if args.box and args.shapes:
        raise ShapeError("give either --box or explicit shapes, not both")
    if args.box:
        texts = _box_sweep(args.box)
    elif args.shapes:
        texts = list(args.shapes)
    else:
        raise ShapeError("nothing to verify: give shapes or --box AxB")
    jobs = _int_at_least("--jobs", args.jobs, 1)
    cap = _resolve_cap(args)
    # a pool forks all its workers at the first submit, so never ask for more
    # than there are shapes or CPUs
    workers = min(jobs, len(texts), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            first_bad = _emit_reports(pool.map(partial(_verify_one, cap=cap), texts))
    else:
        first_bad = _emit_reports(_verify_one(t, cap) for t in texts)
    if first_bad is not None:
        print(
            f"disagreement on {first_bad['shape']}: {first_bad['counts']}",
            file=sys.stderr,
        )
        return 1
    return 0


def _emit_reports(reports) -> dict | None:
    first_bad = None
    for report in reports:
        print(json.dumps(report, sort_keys=True), flush=True)
        if not report["agree"] and first_bad is None:
            first_bad = report
    return first_bad


def cmd_enumerate(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    cap = _resolve_cap(args)
    limit = None if args.limit is None else _int_at_least("--limit", args.limit, 0)
    if args.what == "paths":
        items = iter_paths(shape)
        as_text = lambda p: p.steps
    elif args.what == "tilings":
        items = iter_tilings(region_from_shape(shape))
        as_text = lambda t: " ".join(f"T{l.kind}({l.a},{l.b})" for l in t.sorted_lozenges())
    else:
        items = iter_disjoint_families(gv_endpoints(shape))
        as_text = lambda f: " | ".join(f"({p.start[0]},{p.start[1]}):{p.steps}" for p in f.paths)
    # one item past the limit tells whether to mark the listing truncated;
    # everything is drawn before anything prints, so a cap error prints no item
    drawn = list(islice(capped(items, cap), None if limit is None else limit + 1))
    shown = drawn[:limit]
    for item in shown:
        if args.fmt == "json":
            print(json.dumps(item.to_json(), sort_keys=True))
        else:
            print(as_text(item))
    if len(shown) < len(drawn):
        total = count_paths_dp(shape)
        if args.fmt == "json":
            print(json.dumps({"truncated": True, "shown": len(shown), "total": total}))
        else:
            print(f"... truncated: showing {len(shown)} of {total}")
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    region = region_from_shape(shape)
    if args.tiling is not None:
        tilings = capped(iter_tilings(region), _resolve_cap(args))
        index = _int_at_least("--tiling", args.tiling, 0)
        tiling = next(islice(tilings, index, None), None)
        if tiling is None:
            total = count_paths_dp(shape)
            raise BadIndexError(f"tiling index {index} outside 0..{total - 1}")
    else:
        tiling = lattice_path_to_tiling(shape, LatticePath((0, 0), args.path))
    svg = render_svg(region, tiling, args.shade)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(svg)
    except OSError as exc:  # a missing directory, a directory as the target, ...
        raise ShapeError(f"cannot write {args.output}: {exc.strerror}") from None
    return 0


def _add_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap",
        default=None,
        metavar="N",
        help=f"enumeration item cap (default {DEFAULT_CAP}, or ${CAP_ENV})",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewcount",
        description="Count monotone lattice paths in a skew shape by several "
        "mutually independent methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print the path count of one shape")
    p.add_argument("shape", help='shape text, e.g. "9,7,6,2/3,1"')
    p.add_argument(
        "--method",
        choices=(*METHODS, "gv"),
        default="det",
        help="counting method (default det; gv is gv_det)",
    )
    _add_cap(p)
    p.set_defaults(func=cmd_count)

    p = sub.add_parser(
        "verify",
        help="run every method and report agreement, one JSON line per shape",
    )
    p.add_argument("shapes", nargs="*", help="explicit shape texts")
    p.add_argument(
        "--box",
        metavar="AxB",
        help="sweep every outer shape in an AxB box with every contained inner one",
    )
    p.add_argument("--jobs", default="1", help="worker processes (default 1)")
    _add_cap(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("enumerate", help="list paths, tilings, or disjoint families")
    p.add_argument("shape")
    p.add_argument("what", choices=("paths", "tilings", "families"))
    p.add_argument("--limit", default=None, metavar="K",
                   help="show at most K items, with a truncation marker")
    p.add_argument("--format", dest="fmt", choices=("text", "json"), default="text")
    _add_cap(p)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("render", help="write an SVG of a tiling of the shape's region")
    p.add_argument("shape")
    pick = p.add_mutually_exclusive_group(required=True)
    pick.add_argument("--tiling", metavar="INDEX",
                      help="index into the canonical tiling order")
    pick.add_argument("--path", metavar="STEPS",
                      help="admissible path whose induced tiling to draw")
    p.add_argument("--shade", choices=("a", "b", "both"), default="both")
    p.add_argument("-o", "--output", required=True, metavar="FILE")
    _add_cap(p)
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CapExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ShapeError, BadIndexError, NotAdmissibleError, WrongEndpointsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
