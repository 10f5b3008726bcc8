"""The skewcount benchmark: the real CLI, in child processes, on seeded workloads.

Run from the root of a checkout::

    python3 benchmarks/run.py --workload count_large --seed 1 --seconds 15 --trace 0

Each workload is a closed loop from this one process: the next CLI call
(``python -m skewcount.cli ...`` with ``PYTHONPATH=src``) starts when the
previous one has exited. Every output is checked against the benchmark's own
reference (``reference.py``); a call fails when it exits non-zero, gives a
wrong count, reports a disagreement, lists the wrong number of items or a
wrong truncation total, lists an inadmissible path or writes an empty SVG.

With ``--trace 0`` the run reports the end-to-end metrics, timed per child
from spawn to exit. With ``--trace 1`` it runs each call twice in a row,
plain and under ``traced_cli.py``, and reports per-module numbers from the
spans; the pairs give the tracing overhead.
Earlier stdout lines hold the environment and diagnostics (child CPU time
next to wall time, and the metrics under their per-command names); the last
line is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from reference import Shape, count_paths, format_shape, is_admissible
from workloads import Op, count_ops, enumerate_ops, render_ops, verify_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_CALLS = 15  # `count 0` calls per run, whose median is setup_s
MIN_CALLS = 40  # p75 needs ten samples beyond it
IMPORT_PAIRS = 9  # traced run: `-c "import skewcount.cli"` against `-c pass`
HARD_STOP_S = 120.0  # a run stops starting calls after this, whatever --seconds says

WORKLOADS = {
    "verify_sample": verify_ops,
    "count_large": count_ops,
    "enumerate_prefix": enumerate_ops,
    "render_path": render_ops,
}

# per-command names of the end-to-end metrics, printed as diagnostics
NAMED = {
    "verify_sample": {"shapes_per_s": "verify_shapes_per_s"},
    "count_large": {"call_p50_ms": "count_p50_ms", "call_p75_ms": "count_p75_ms"},
    "enumerate_prefix": {"call_p50_ms": "enumerate_p50_ms", "call_p75_ms": "enumerate_p75_ms"},
    "render_path": {"call_p50_ms": "render_p50_ms", "call_p75_ms": "render_p75_ms"},
}


@dataclass
class Call:
    """One finished child process."""

    code: int
    out: str
    wall_s: float
    cpu_s: float
    rss_kb: int
    err: str
    spans: list = field(default_factory=list)


class Runner:
    """Spawns CLI calls, one at a time, and reads each child's own rusage."""

    def __init__(self, workdir: Path) -> None:
        self.workdir = workdir
        self.env = {k: v for k, v in os.environ.items() if k != "SKEWCOUNT_CAP"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.calls = 0

    def spawn(self, args: list[str]) -> Call:
        self.calls += 1
        with open(self.workdir / "stderr.txt", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                [sys.executable, *args], cwd=ROOT, env=self.env,
                stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, stderr=err,
            )
            try:
                out = proc.stdout.read()
                proc.stdout.close()
                # wait4 reaps the child and gives its own rusage (with the pool
                # workers it waited for), unlike the cumulative RUSAGE_CHILDREN
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            err_text = err.read().decode("utf-8", "replace")
        return Call(proc.returncode, out.decode("utf-8", "replace"), wall,
                    usage.ru_utime + usage.ru_stime, usage.ru_maxrss, err_text)

    def cli(self, argv: list[str]) -> Call:
        return self.spawn(["-m", "skewcount.cli", *argv])

    def traced(self, argv: list[str]) -> Call:
        spans_file = self.workdir / "spans.json"
        spans_file.unlink(missing_ok=True)
        call = self.spawn([str(HERE / "traced_cli.py"), str(spans_file), str(self.calls), *argv])
        if spans_file.exists():
            call.spans = json.loads(spans_file.read_text(encoding="utf-8"))
        return call


# --- checks against the reference -------------------------------------------

_LOZENGE = re.compile(r"T[123]\(-?\d+,-?\d+\)")
_FAMILY_PATH = re.compile(r"\((-?\d+),(-?\d+)\):([EN]*)")


def _lozenges(shape: Shape) -> int:
    """Lozenges in any tiling of the shape's region: cells + width + rows."""
    outer, inner = shape
    return sum(outer) - sum(inner) + outer[0] + len(outer)


def _family_ok(shape: Shape, line: str) -> bool:
    """One disjoint family: path i runs (inner_i - i, i) -> (outer_i - i, i + 1)."""
    outer, inner = shape
    parts = line.split(" | ")
    if len(parts) != len(outer):
        return False
    seen: set[tuple[int, int]] = set()
    for i, part in enumerate(parts, start=1):
        m = _FAMILY_PATH.fullmatch(part)
        if not m:
            return False
        x, y, steps = int(m.group(1)), int(m.group(2)), m.group(3)
        if (x, y) != ((inner[i - 1] if i <= len(inner) else 0) - i, i):
            return False
        points = [(x, y)]
        for s in steps:
            x, y = (x + 1, y) if s == "E" else (x, y + 1)
            points.append((x, y))
        if (x, y) != (outer[i - 1] - i, i + 1) or seen.intersection(points):
            return False
        seen.update(points)
    return True


def check(op: Op, call: Call, svg: Path | None) -> bool:
    """True iff the call's output is right by the reference."""
    if call.code != 0:
        return False
    lines = call.out.splitlines()
    if op.kind == "count":
        return lines == [str(count_paths(op.shapes[0]))]
    if op.kind == "verify":
        if len(lines) != len(op.shapes):
            return False
        for shape, line in zip(op.shapes, lines):
            report = json.loads(line)
            want = str(count_paths(shape))
            if (report["shape"] != format_shape(shape) or report["agree"] is not True
                    or set(report["counts"].values()) != {want}):
                return False
        return True
    if op.kind == "enumerate":
        shape = op.shapes[0]
        total = count_paths(shape)
        shown = min(op.limit, total)
        marker = [f"... truncated: showing {shown} of {total}"] if shown < total else []
        items = lines[:shown]
        if len(items) != shown or lines[shown:] != marker or len(set(items)) != shown:
            return False
        if op.what == "paths":
            return all(is_admissible(shape, steps) for steps in items)
        if op.what == "tilings":
            lozenges = _lozenges(shape)
            return all(len(_LOZENGE.findall(t)) == lozenges == len(t.split()) for t in items)
        return all(_family_ok(shape, line) for line in items)
    # render: one polygon per lozenge, plus the region's outline
    text = svg.read_text(encoding="utf-8") if svg is not None and svg.exists() else ""
    return (text.startswith("<svg") and text.endswith("</svg>\n")
            and text.count("<polygon") == _lozenges(op.shapes[0]) + 1)


# --- passes ------------------------------------------------------------------


@dataclass
class Record:
    op: Op
    call: Call
    ok: bool


class Bench:
    def __init__(self, runner: Runner) -> None:
        self.runner = runner
        self.attempted = 0
        self.failed = 0
        self.first_failure: dict | None = None
        self.peak_rss_kb = 0

    def _count(self, argv: list[str], call: Call, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        if not ok and self.first_failure is None:
            self.first_failure = {"argv": argv, "code": call.code, "stderr": call.err[-2000:]}
        self.peak_rss_kb = max(self.peak_rss_kb, call.rss_kb)

    def setup_call(self) -> float:
        """Wall time of `count 0`: interpreter start, import and argparse."""
        call = self.runner.cli(["count", "0"])
        self._count(["count", "0"], call, call.code == 0 and call.out == "1\n")
        return call.wall_s

    def run_op(self, op: Op, traced: bool = False) -> Record:
        svg = self.runner.workdir / "render.svg" if op.kind == "render" else None
        if svg is not None:
            svg.unlink(missing_ok=True)
        argv = op.argv(str(svg) if svg else "")
        call = self.runner.traced(argv) if traced else self.runner.cli(argv)
        try:
            ok = check(op, call, svg)
        except (ValueError, LookupError, TypeError, AttributeError):  # garbled output
            ok = False
        self._count(argv, call, ok)
        return Record(op, call, ok)

    def loop(self, blocks, seconds: float, min_calls: int,
             after=None) -> tuple[list[Record], list[float]]:
        """Closed loop over whole blocks until both the time and the call count
        are reached, or until HARD_STOP_S has passed.

        SETUP_CALLS set-up calls are spread over the loop, so that their
        median sees the same host as the workload's calls; ``after`` runs
        right after each call, for the same reason.
        """
        records: list[Record] = []
        setup: list[float] = []
        t0 = time.perf_counter()
        for block in blocks:
            elapsed = time.perf_counter() - t0
            if (elapsed >= seconds and len(records) >= min_calls) or elapsed >= HARD_STOP_S:
                break
            for op in block:
                while len(setup) < SETUP_CALLS * min(1.0, (time.perf_counter() - t0) / seconds):
                    setup.append(self.setup_call())
                records.append(self.run_op(op))
                if after is not None:
                    after(records[-1])
        while len(setup) < SETUP_CALLS:
            setup.append(self.setup_call())
        return records, setup


def _median_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0


def end_to_end(bench: Bench, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    blocks = WORKLOADS[name](seed)
    bench.run_op(next(blocks)[0])  # warm the file cache and the bytecode cache
    records, setup = bench.loop(blocks, seconds, MIN_CALLS)
    walls = [r.call.wall_s for r in records]
    shapes = sum(len(r.op.shapes) for r in records)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "call_p50_ms": (_median_ms(walls), "ms"),
        "call_p75_ms": (statistics.quantiles(walls, n=4)[2] * 1000.0, "ms"),
        "shapes_per_s": (shapes / sum(walls), "1/s"),
        "peak_rss_mb": (bench.peak_rss_kb / 1024.0, "MB"),
    }
    cpu = [r.call.cpu_s for r in records]
    diagnostics = {
        "calls": len(records),
        "shapes": shapes,
        "child_cpu_p50_ms": _median_ms(cpu),
        "child_wall_p50_ms": _median_ms(walls),
        "child_cpu_over_wall": sum(cpu) / sum(walls),
        "named": {
            new: {"value": metrics[old][0], "unit": metrics[old][1]}
            for old, new in NAMED[name].items()
        },
    }
    return metrics, diagnostics


# per-layer metrics: (metric, span name, statistic, unit)
LAYER_SPANS = [
    ("shapes.parse_shape.ms", "shapes.parse_shape", "ms", "ms/call"),
    ("shapes.parse_shape.calls", "shapes.parse_shape", "calls", "count/call"),
    ("kreweras.kreweras_count.ms", "kreweras.kreweras_count", "ms", "ms/call"),
    ("kreweras.kreweras_matrix.ms", "kreweras.kreweras_matrix", "ms", "ms/call"),
    ("exact.det_exact.ms", "exact.det_exact", "ms", "ms/call"),
    ("exact.det_exact.calls", "exact.det_exact", "calls", "count/call"),
    ("exact.det_exact.n_max", "exact.det_exact", "n_max", "rows"),
    ("paths.count_paths_dp.ms", "paths.count_paths_dp", "ms", "ms/call"),
    ("paths.enumerate_paths.ms", "paths.enumerate_paths", "ms", "ms/call"),
    ("paths.enumerate_paths.items", "paths.enumerate_paths", "items", "count/call"),
    ("tilings.enumerate_tilings.ms", "tilings.enumerate_tilings", "ms", "ms/call"),
    ("tilings.enumerate_tilings.items", "tilings.enumerate_tilings", "items", "count/call"),
    ("gv.enumerate_disjoint_families.ms", "gv.enumerate_disjoint_families", "ms", "ms/call"),
    ("gv.enumerate_disjoint_families.items", "gv.enumerate_disjoint_families", "items",
     "count/call"),
    ("gv.gv_matrix.ms", "gv.gv_matrix", "ms", "ms/call"),
    ("tilings.region_from_shape.ms", "tilings.region_from_shape", "ms", "ms/call"),
    ("tilings.region_from_shape.triangles", "tilings.region_from_shape", "triangles", "count"),
    ("tilings.lattice_path_to_tiling.ms", "tilings.lattice_path_to_tiling", "self_ms", "ms/call"),
    ("tilings.render_svg.ms", "tilings.render_svg", "ms", "ms/call"),
    ("tilings.render_svg.bytes", "tilings.render_svg", "bytes", "B"),
]


ENUMERATORS = (
    "paths.enumerate_paths", "tilings.enumerate_tilings", "gv.enumerate_disjoint_families",
)


def _span_stats(records: list[Record]) -> dict[str, dict[str, float]]:
    stats: dict[str, dict[str, float]] = {}
    for record in records:
        spans = record.call.spans
        child_s = [0.0] * len(spans)
        for name, start, end, parent, _, extra in spans:
            if parent is not None:
                child_s[parent] += end - start
        for i, (name, start, end, _, _, extra) in enumerate(spans):
            s = stats.setdefault(name, dict.fromkeys(
                ("ms", "self_ms", "calls", "items", "n_max", "triangles", "bytes"), 0.0))
            busy = end - start + extra.get("draw_s", 0.0)
            s["ms"] += busy * 1000.0
            s["self_ms"] += (busy - child_s[i]) * 1000.0
            s["calls"] += 1
            s["items"] += extra.get("items", 0)
            s["n_max"] = max(s["n_max"], extra.get("n", 0))
            s["triangles"] += extra.get("triangles", 0)
            s["bytes"] += extra.get("bytes", 0)
    return stats


def _import_ms(runner: Runner) -> float:
    """A fresh interpreter's `import skewcount.cli`, minus `python -c pass`."""
    cost = []
    bare = []
    for _ in range(IMPORT_PAIRS):
        cost.append(runner.spawn(["-c", "import skewcount.cli"]).wall_s)
        bare.append(runner.spawn(["-c", "pass"]).wall_s)
    return _median_ms(cost) - _median_ms(bare)


def _verify_overhead_ms(records: list[Record], setup_s: float) -> float:
    """Median verify wall time not spent in the routes or in start-up."""
    if not records or records[0].op.kind != "verify":
        return 0.0
    spare = []
    for r in records:
        routes_ms = sum(
            sum(json.loads(line)["elapsed_ms"].values()) for line in r.call.out.splitlines()
        )
        spare.append((r.call.wall_s - setup_s) * 1000.0 - routes_ms)
    return statistics.median(spare)


def per_layer(bench: Bench, name: str, seed: int, seconds: float) -> tuple[dict, dict]:
    blocks = WORKLOADS[name](seed)
    bench.run_op(next(blocks)[0])
    import_ms = _import_ms(bench.runner)
    traced: list[Record] = []

    def twin(record: Record) -> None:
        traced.append(bench.run_op(record.op, traced=True))

    plain, setup = bench.loop(blocks, seconds, max(1, MIN_CALLS // 2), twin)
    setup_s = statistics.median(setup)
    overhead_ms = _verify_overhead_ms([r for r in plain if r.ok], setup_s)

    stats = _span_stats(traced)
    calls = len(traced)
    metrics: dict[str, tuple[float, str]] = {}
    for metric, span, stat, unit in LAYER_SPANS:
        s = stats.get(span)
        if s is None:
            value = 0.0
        elif stat == "n_max":
            value = s[stat]
        elif stat in ("triangles", "bytes"):
            value = s[stat] / s["calls"]
        else:
            value = s[stat] / calls
        metrics[metric] = (value, unit)
    drawn = sum(stats.get(span, {}).get("items", 0) for span in ENUMERATORS)
    shown = sum(min(r.op.limit, count_paths(r.op.shapes[0]))
                for r in traced if r.op.kind == "enumerate" and r.ok)
    metrics["enumerate.items_per_shown"] = (drawn / shown if shown else 0.0, "ratio")
    metrics["cli.import_ms"] = (import_ms, "ms")
    metrics["cli.verify.overhead_ms"] = (overhead_ms, "ms/call")
    plain_s = sum(r.call.wall_s for r in plain)
    traced_s = sum(r.call.wall_s for r in traced)
    metrics["trace.overhead_pct"] = ((traced_s / plain_s - 1.0) * 100.0, "%")
    metrics["fail_rate"] = (bench.failed / bench.attempted, "ratio")
    diagnostics = {"calls": calls, "plain_s": plain_s, "traced_s": traced_s, "setup_s": setup_s}
    return metrics, diagnostics


def environment() -> dict:
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                check=True, timeout=30,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "nproc": _cpus(),
        "platform": platform.platform(),
        "commit": commit,
    }


def _cpus() -> int | None:
    """The CPUs this process may run on, as ``nproc`` prints them."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count()


def _terminate(signum, frame):
    raise SystemExit(128 + signum)


def main(argv: list[str] | None = None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "skewcount" / "cli.py").is_file():
        print(f"error: no skewcount sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=tmp_root))
    try:
        bench = Bench(Runner(workdir))
        measure = per_layer if args.trace else end_to_end
        metrics, diagnostics = measure(bench, args.workload, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            tmp_root.rmdir()
        except OSError:
            pass
    print(json.dumps({"env": environment(), "workload": args.workload, "seed": args.seed,
                      "trace": args.trace, "diagnostics": diagnostics,
                      "first_failure": bench.first_failure}))
    print(json.dumps({
        "correct": bench.failed == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
