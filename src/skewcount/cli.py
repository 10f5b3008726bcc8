"""Command line front end: counting, cross-verification sweeps, listings, rendering.

Exit codes: 0 success (verify: all methods agree), 1 verify disagreement,
2 malformed input, 3 enumeration cap exceeded, 141 stdout closed early.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from functools import partial
from importlib import import_module
from typing import Callable, NamedTuple

from .errors import (
    CapExceededError, InvariantError, ShapeError, clip, count_leaves, format_count, judge,
    take_leaves,
)
from .kreweras import kreweras_count
from .paths import LatticePath, count_paths_dp
from .shapes import (
    SkewShape, format_shape, parse_integer, parse_shape, partitions_in_box, subpartitions,
)

DEFAULT_CAP = 1_000_000

# the lazy-import rule: a command loads `gv` and `tilings` through _load only
# when it runs them (and `json` and the process pool only where it uses them),
# which keeps them out of every other call's start-up. Each table row looks its
# function up on the module at call time, so patches take effect.
def _load(name: str):
    return import_module(f".{name}", __package__)


class Route(NamedTuple):
    """A search's enumerate word ``what`` and ``listing(shape)`` (walk, leaf builder, budget),
    whose items write their own ``to_text()`` and ``to_json()``, or a count's ``count(shape)``."""

    what: str | None = None
    listing: Callable | None = None
    count: Callable | None = None


def _run(route: Route, shape: SkewShape, cap: int, wanted: int | None = None, as_text=None) -> int:
    """A route's count; a search's once :func:`judge` has passed its budget for ``wanted``
    leaves (dp's count if None). A listing prints ``as_text`` of each leaf; a count stops
    one leaf past the cap, raises there unless handed ``wanted``, and builds no item."""
    if route.listing is None:
        return route.count(shape)
    items = lambda: count_paths_dp(shape) if wanted is None else wanted
    walk, build = judge(route.listing(shape), cap, items, 0 if as_text is None else wanted)
    if as_text is not None:
        return take_leaves(walk, lambda leaf: print(as_text(build(leaf))), wanted)
    count = count_leaves(walk, cap + 1)
    if wanted is None and count > cap:
        raise CapExceededError(cap)
    return count


# every route, each under one name, in verify's order: count --method's choices
ROUTES = {
    "det": Route(count=lambda shape: kreweras_count(shape)),
    "dp": Route(count=lambda shape: count_paths_dp(shape)),
    "enum": Route("paths", lambda shape: _load("paths").path_listing(shape)),
    "tilings": Route("tilings", lambda shape: _load("tilings").tiling_listing(shape)),
    "gv_enum": Route(
        "families", lambda shape: _load("gv").family_listing(_load("gv").gv_endpoints(shape)),
    ),
    "gv_det": Route(count=lambda shape: _load("gv").gv_count(_load("gv").gv_endpoints(shape))),
}


def cmd_count(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    cap = parse_integer(args.cap, "--cap", 0)
    print(format_count(_run(ROUTES[args.method], shape, cap)))
    return 0


def _verify_one(shape: SkewShape, cap: int) -> dict:
    """The shape's report line: every route's count and time, "capped" for a
    search past the cap, and whether the counts that finished agree."""
    # every route's module is loaded before the first clock starts, so
    # elapsed_ms is route time only, in a pool worker too
    _load("gv")
    _load("tilings")

    counts = {}
    elapsed = {}
    for name, route in ROUTES.items():
        t0 = time.perf_counter()
        try:
            # a search is handed dp's count, so dp counts once a shape
            counts[name] = _run(route, shape, cap, counts.get("dp"))
        except CapExceededError:
            counts[name] = None
        elapsed[name] = round((time.perf_counter() - t0) * 1000.0, 3)
    return {
        "shape": format_shape(shape),
        "counts": {k: "capped" if v is None else format_count(v) for k, v in counts.items()},
        "agree": len(set(counts.values()) - {None}) == 1,
        "elapsed_ms": elapsed,
    }


def _box_sides(box_text: str) -> tuple[int, int]:
    sides = box_text.replace("X", "x").split("x")
    if len(sides) != 2:
        raise ShapeError("--box wants AxB: two sides split by one x")
    return tuple(parse_integer(side, "--box side", 0) for side in sides)


def _sweep_size(rows: int, cols: int, cap: int) -> int:
    """The number of shapes a rows x cols box sweeps, or, once that is known
    to exceed cap, a smaller number that already does.

    A pair inner <= outer in the box is a plane partition in a rows x cols x 2
    box, so the count is MacMahon's product of (i+j+1)/(i+j-1) over i <= rows,
    j <= cols. Row i's factors telescope to (i+c)(i+c+1)/(i(i+1)), and the
    first i rows give the count of an i x c box, an integer, so each step
    divides exactly. Rows run over the shorter side (the count is symmetric),
    where every row factor is at least 3, so the loop stops within a few
    thousand rows of any cap.
    """
    short, c = sorted((rows, cols))
    size = 1
    for i in range(1, short + 1):
        if size > cap:
            break
        size = size * (i + c) * (i + c + 1) // (i * (i + 1))
    return size


def _box_sweep(rows: int, cols: int, cap: int) -> list[SkewShape]:
    """Every outer partition in the box with every inner one it contains,
    or CapExceededError before any is built if there are more than cap. A
    list that is not :func:`_sweep_size` long, whose every shape would still
    agree, is an InvariantError."""
    size = _sweep_size(rows, cols, cap)
    if size > cap:
        raise CapExceededError(cap)
    shapes = [
        SkewShape(lam, mu)
        for lam in partitions_in_box(rows, cols)
        for mu in subpartitions(lam)
    ]
    if len(shapes) != size:
        raise InvariantError(f"{rows}x{cols} box swept {len(shapes)} shapes, not MacMahon's {size}")
    return shapes


def cmd_verify(args: argparse.Namespace) -> int:
    if args.box and args.shapes:
        raise ShapeError("give either --box or explicit shapes, not both")
    # every shape is parsed before any route runs, so bad input prints no report
    if args.box:
        sides = _box_sides(args.box)
    elif args.shapes:
        shapes = [parse_shape(text) for text in args.shapes]
    else:
        raise ShapeError("nothing to verify: give shapes or --box AxB")
    jobs = parse_integer(args.jobs, "--jobs", 1)
    cap = parse_integer(args.cap, "--cap", 0)
    if args.box:
        shapes = _box_sweep(*sides, cap)
    # a pool forks all its workers when it is made, so never ask for more
    # than there are shapes or CPUs this process may run on
    workers = min(jobs, len(shapes), _usable_cpus())
    if workers > 1:
        import multiprocessing

        # leaving the block terminates the workers, however it is left: at the
        # sweep's end, on a closed stdout, a worker's error or Ctrl-C
        with multiprocessing.Pool(workers) as pool:
            # about 8 tasks a worker: a task per shape pays a round trip through
            # the pool's queues for each, while a few tasks a worker still even
            # out shapes of unequal cost
            chunk = max(1, len(shapes) // (8 * workers))
            first_bad, capped = _emit_reports(
                pool.imap(partial(_verify_one, cap=cap), shapes, chunksize=chunk)
            )
    else:
        first_bad, capped = _emit_reports(_verify_one(shape, cap) for shape in shapes)
    # a disagreement outranks a cap: exit 1 over exit 3
    if first_bad is not None:
        print(
            f"disagreement on {first_bad['shape']}: {first_bad['counts']}",
            file=sys.stderr,
        )
        return 1
    if capped:
        raise CapExceededError(cap)
    return 0


def _usable_cpus() -> int:
    """How many CPUs this process may run on: the size of its affinity mask where the
    platform keeps one, else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _emit_reports(reports) -> tuple[dict | None, bool]:
    """Print each report line; return the first that disagrees, and whether any was capped."""
    import json

    first_bad = None
    capped = False
    for report in reports:
        print(json.dumps(report, sort_keys=True), flush=True)
        capped = capped or "capped" in report["counts"].values()
        if not report["agree"] and first_bad is None:
            first_bad = report
    return first_bad, capped


def cmd_enumerate(args: argparse.Namespace) -> int:
    shape = parse_shape(args.shape)
    cap = parse_integer(args.cap, "--cap", 0)
    limit = None if args.limit is None else parse_integer(args.limit, "--limit", 0)
    route = next(route for route in ROUTES.values() if route.what == args.what)
    as_text = lambda item: item.to_text()
    # dp's count fixes how many items print, judged before any walk; each prints at its leaf
    total = count_paths_dp(shape)
    shown = total if limit is None else min(limit, total)
    marker = f"... truncated: showing {shown} of {total}"
    if args.fmt == "json":
        import json

        as_text = lambda item: json.dumps(item.to_json(), sort_keys=True)
        marker = json.dumps({"truncated": True, "shown": shown, "total": total})
    printed = _run(route, shape, cap, shown, as_text)
    if printed != shown:  # short of dp's count; for families, Gessel-Viennot fails
        raise InvariantError(f"{args.what} of {format_shape(shape)}: {printed}, not dp's {total}")
    if shown < total:
        print(marker)
    return 0


def cmd_render(args: argparse.Namespace) -> int:
    tilings = _load("tilings")
    shape = parse_shape(args.shape)
    # neither branch searches, so render reads no cap; each checks its input
    # before it builds the region, so a bad index or path on a large shape
    # exits 2 without allocating one
    if args.tiling is not None:
        tiling = tilings.tiling_at(shape, parse_integer(args.tiling, "--tiling", 0))
    else:
        tiling = tilings.lattice_path_to_tiling(shape, LatticePath((0, 0), args.path))
    # a line at a time; the outline's guard runs at the first line, before the file opens
    lines = tilings._svg_lines(shape, tiling, args.shade)
    first = next(lines)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(first)
            fh.writelines(lines)
    except OSError as exc:  # a missing directory, a directory as the target, ...
        raise ShapeError(f"cannot write {args.output}: {exc.strerror}") from None
    return 0


def _add_cap(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cap",
        default=str(DEFAULT_CAP),
        metavar="N",
        help=f"enumeration item cap (default {DEFAULT_CAP})",
    )


class _Parser(argparse.ArgumentParser):
    """Hands usage errors to main as ShapeErrors, so they print its one line."""

    def error(self, message: str):
        # argparse echoes the words it was given: each word is clipped, and
        # main clips the line, as `unrecognized arguments:` lists every extra word
        words = " ".join(map(clip, message.split(" ")))
        raise ShapeError(f"{self.prog}: {words}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewcount",
        description="Count monotone lattice paths in a skew shape by several "
        "mutually independent methods.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="print the path count of one shape")
    p.add_argument("shape", help='shape text, e.g. "9,7,6,2/3,1"')
    p.add_argument(
        "--method",
        choices=ROUTES,
        default="det",
        help="counting method (default det)",
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
    p.add_argument("what", choices=[route.what for route in ROUTES.values() if route.what])
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
    p.set_defaults(func=cmd_render)
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head -1` does: the flush at exit
        # writes to devnull, and the status is that of a death by SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    # a message may echo outside input whole, so its line is clipped here
    except (CapExceededError, ShapeError) as exc:
        print(f"error: {clip(str(exc), 170)}", file=sys.stderr)
        return 3 if isinstance(exc, CapExceededError) else 2


if __name__ == "__main__":
    sys.exit(main())
