import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import skewcount
import skewcount.cli as cli
from skewcount.cli import main
from skewcount.errors import MAX_OUTPUT_CHARS, SEARCH_FRAMES, InvariantError, judge, take_leaves


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def package_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(skewcount.__file__).resolve().parents[1])
    path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(path)}


def run_python(*args, timeout=20):
    """``python ARGS...`` in a fresh interpreter that imports this package."""
    return subprocess.run(
        [sys.executable, *args], env=package_env(), capture_output=True, text=True,
        timeout=timeout,
    )


def run_process(*argv, timeout=20):
    """``python -m skewcount.cli ARGV...`` in a fresh interpreter, at its own stack depth."""
    return run_python("-m", "skewcount.cli", *argv, timeout=timeout)


def set_cpus(monkeypatch, cpus):
    """Let this process run on `cpus` CPUs; for None, on a platform that keeps no
    affinity mask and cannot count its CPUs."""
    if cpus is None:
        monkeypatch.delattr(cli.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: None)
    else:
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(cpus)),
                            raising=False)


class TestCount:
    @pytest.mark.parametrize("method", ["det", "dp", "enum", "tilings", "gv_det"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "count", "2,1", "--method", method)
        assert code == 0
        assert out == "5\n"

    def test_enum_counts_paths_too_long_to_build(self, capsys):
        # a count walks north records and builds no path, so no path step is judged
        assert run(capsys, "count", "20000001/20000000", "--method", "enum") == (0, "2\n", "")

    def test_default_method(self, capsys):
        code, out, _ = run(capsys, "count", "9,7,6,2/3,1")
        assert code == 0
        assert out == "399\n"

    def test_unit_hexagon_tilings(self, capsys):
        code, out, _ = run(capsys, "count", "1", "--method", "tilings")
        assert code == 0
        assert out == "2\n"

    def test_parse_error(self, capsys):
        code, out, err = run(capsys, "count", "1,2")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "text",
        [
            pytest.param("1" * 5000, id="outer-5000-digits"),
            pytest.param("3,2/" + "1" * 5000, id="inner-5000-digits"),
        ],
    )
    def test_part_past_int_digit_limit(self, capsys, text):
        code, out, err = run(capsys, "count", text)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "part of 5000 digits is too long" in err
        assert err.count("\n") == 1

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "count", "3,2,1", "--method", "enum", "--cap", "2")
        assert code == 3
        assert "cap" in err

    def test_env_cap(self, capsys, monkeypatch):
        # --cap alone sets the cap: a SKEWCOUNT_CAP below the 14 paths stops nothing
        monkeypatch.setenv("SKEWCOUNT_CAP", "2")
        code, out, err = run(capsys, "count", "3,2,1", "--method", "enum")
        assert (code, out, err) == (0, "14\n", "")

    def test_flag_overrides_env(self, capsys, monkeypatch):
        # the flag decides whatever the variable holds, above or below the count
        monkeypatch.setenv("SKEWCOUNT_CAP", "2")
        code, out, _ = run(capsys, "count", "3,2,1", "--method", "enum", "--cap", "100")
        assert (code, out) == (0, "14\n")
        monkeypatch.setenv("SKEWCOUNT_CAP", "100")
        code, out, err = run(capsys, "count", "3,2,1", "--method", "enum", "--cap", "2")
        assert (code, out, err) == (3, "", "error: enumeration exceeded cap of 2 items\n")

    def test_gv_is_no_method(self, capsys):
        # gv_det is the one name of the Gessel-Viennot determinant
        code, out, err = run(capsys, "count", "2,1", "--method", "gv")
        assert (code, out) == (2, "")
        assert err.startswith("error: skewcount count: argument --method: invalid choice: 'gv' ")
        assert err.count("\n") == 1

    def test_non_ascii_digit_shape(self, capsys):
        code, out, err = run(capsys, "count", "+3,\u0663")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["det", "enum"])
    def test_negative_cap(self, capsys, method):
        code, out, err = run(capsys, "count", "3,2,1", "--method", method, "--cap", "-5")
        assert code == 2
        assert out == ""
        assert err == "error: --cap must be at least 0, got -5\n"

    def test_negative_env_cap(self, capsys, monkeypatch):
        # a negative SKEWCOUNT_CAP is no error, as the variable is not read
        monkeypatch.setenv("SKEWCOUNT_CAP", "-5")
        code, out, err = run(capsys, "count", "3,2,1", "--method", "enum")
        assert (code, out, err) == (0, "14\n", "")

    def test_count_past_the_digit_limit_prints_whole(self, capsys):
        # C(10^100 + 50, 50) has 4,936 digits, past the 4,300 that str() converts
        code, out, err = run(capsys, "count", ",".join([str(10**100)] * 50))
        assert (code, err, len(out)) == (0, "", 4937)
        expected = math.comb(10**100 + 50, 50)
        assert int(out[:2000]) * 10 ** 2936 + int(out[2000:]) == expected

    def test_det_ignores_cap(self, capsys):
        code, out, _ = run(capsys, "count", "5,4,3,2,1", "--cap", "1")
        assert code == 0
        assert out == "132\n"


class TestVerify:
    def test_single_shape_report(self, capsys):
        code, out, _ = run(capsys, "verify", "3,1/2")
        assert code == 0
        (line,) = out.splitlines()
        report = json.loads(line)
        assert report["shape"] == "3,1/2"
        assert report["agree"] is True
        assert set(report["counts"]) == {"det", "dp", "enum", "tilings", "gv_enum", "gv_det"}
        assert set(report["counts"].values()) == {"4"}
        assert set(report["elapsed_ms"]) == set(report["counts"])

    def test_box_sweep(self, capsys):
        code, out, _ = run(capsys, "verify", "--box", "2x2")
        assert code == 0
        lines = out.splitlines()
        # 6 partitions in the box, each with its subpartitions: 1+2+3+3+5+6
        assert len(lines) == 20
        reports = [json.loads(line) for line in lines]
        assert all(r["agree"] for r in reports)
        shapes = [r["shape"] for r in reports]
        assert shapes[0] == "0"
        assert len(set(shapes)) == len(shapes)

    def test_box_sweep_parallel_matches_serial(self, capsys):
        code, serial, _ = run(capsys, "verify", "--box", "2x1")
        assert code == 0
        code, parallel, _ = run(capsys, "verify", "--box", "2x1", "--jobs", "2")
        assert code == 0

        def strip_timings(text):
            rows = [json.loads(line) for line in text.splitlines()]
            for row in rows:
                row.pop("elapsed_ms")
            return rows

        assert strip_timings(serial) == strip_timings(parallel)

    def test_disagreement_exits_1(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "kreweras_count", lambda shape: 999)
        code, out, err = run(capsys, "verify", "1")
        assert code == 1
        report = json.loads(out.splitlines()[0])
        assert report["agree"] is False
        assert report["counts"]["det"] == "999"
        assert "disagree" in err and "1" in err

    def test_bad_box(self, capsys):
        code, _, err = run(capsys, "verify", "--box", "2by2")
        assert code == 2
        assert err.startswith("error:")

    def test_box_wants_ascii_digits(self, capsys):
        code, out, err = run(capsys, "verify", "--box", "2x\u0662")
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "box",
        [
            pytest.param("1" * 5000 + "x1", id="rows-5000-digits"),
            pytest.param("1x" + "1" * 5000, id="cols-5000-digits"),
        ],
    )
    def test_box_side_past_int_digit_limit(self, capsys, box):
        code, out, err = run(capsys, "verify", "--box", box)
        assert (code, out) == (2, "")
        assert err == "error: --box side of 5000 digits is too long\n"
        # the side is read before the sweep's size is checked against the cap
        assert run(capsys, "verify", "--box", box, "--cap", "0") == (code, out, err)

    def test_box_past_the_cap_exits_before_any_shape(self, capsys):
        start = time.perf_counter()
        code, out, err = run(capsys, "verify", "--box", "30x30")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (3, "")
        assert err == "error: enumeration exceeded cap of 1000000 items\n"

    @pytest.mark.parametrize("cap, code, reports", [("49", 3, 0), ("50", 0, 50)])
    def test_box_sweep_size_meets_the_cap(self, capsys, cap, code, reports):
        # the 2x3 box holds 50 shapes
        got, out, _ = run(capsys, "verify", "--box", "2x3", "--cap", cap)
        assert (got, len(out.splitlines())) == (code, reports)

    def test_default_cap_admits_6x6_not_7x7(self):
        assert cli._sweep_size(6, 6, cli.DEFAULT_CAP) == 226_512
        assert cli._sweep_size(7, 7, 10**7) == 2_760_615
        assert cli._sweep_size(7, 7, cli.DEFAULT_CAP) > cli.DEFAULT_CAP

    @pytest.mark.parametrize("rows", range(6))
    def test_sweep_size_counts_the_sweep(self, rows):
        for cols in range(6):
            shapes = cli._box_sweep(rows, cols, cli.DEFAULT_CAP)
            assert cli._sweep_size(rows, cols, cli.DEFAULT_CAP) == len(shapes)

    def test_sweep_that_drops_a_shape_is_refused(self, monkeypatch):
        # every count of the shapes left would still agree
        real = cli.subpartitions
        monkeypatch.setattr(cli, "subpartitions", lambda outer: real(outer)[:-1])
        with pytest.raises(InvariantError, match="^2x2 box swept 14 shapes, not MacMahon's 20$"):
            cli._box_sweep(2, 2, cli.DEFAULT_CAP)

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one(self, capsys, jobs):
        code, out, err = run(capsys, "verify", "1", "--jobs", jobs)
        assert code == 2
        assert out == ""
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"

    def test_box_and_shapes_conflict(self, capsys):
        code, _, err = run(capsys, "verify", "--box", "2x2", "1")
        assert code == 2
        assert err.startswith("error:")

    def test_no_target(self, capsys):
        code, _, err = run(capsys, "verify")
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_cap_error_line(self, capsys, monkeypatch, jobs):
        # two CPUs, so --jobs 2 runs a real pool, which pickles the error back
        set_cpus(monkeypatch, 2)
        code, _, err = run(capsys, "verify", "3,2,1", "2,1", "--cap", "2", "--jobs", jobs)
        assert (code, err) == (3, "error: enumeration exceeded cap of 2 items\n")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_capped_shape_gets_a_line_and_the_sweep_goes_on(self, capsys, monkeypatch, jobs):
        # 2,1 has 5 paths, 9,7,6,2/3,1 has 399 and 2,2 has 6: only the middle one
        # passes 10, and its report compares the counts that finished
        set_cpus(monkeypatch, 2)
        code, out, err = run(capsys, "verify", "2,1", "9,7,6,2/3,1", "2,2", "--cap", "10",
                             "--jobs", jobs)
        assert (code, err) == (3, "error: enumeration exceeded cap of 10 items\n")
        first, capped, last = map(json.loads, out.splitlines())
        assert first["shape"] == "2,1" and last["shape"] == "2,2"
        assert first["agree"] and last["agree"]
        assert (capped["shape"], capped["agree"], set(capped["elapsed_ms"])) == (
            "9,7,6,2/3,1", True, set(cli.ROUTES)
        )
        assert capped["counts"] == {"det": "399", "dp": "399", "enum": "capped",
                                    "tilings": "capped", "gv_enum": "capped", "gv_det": "399"}

    def test_worker_error_crosses_the_pool(self, capsys, monkeypatch):
        # 99999 is too deep to search: a real pool re-raises the worker's
        # ShapeError after the 2,1 report, as the serial loop raises it
        set_cpus(monkeypatch, 2)
        results = []
        for jobs in ["1", "2"]:
            code, out, err = run(capsys, "verify", "2,1", "99999", "--jobs", jobs)
            reports = [json.loads(line) for line in out.splitlines()]
            for report in reports:
                del report["elapsed_ms"]
            results.append((code, reports, err))
        assert results[0] == results[1]
        code, reports, err = results[1]
        assert (code, [r["shape"] for r in reports]) == (2, ["2,1"])
        assert err.startswith("error: shape too large to search: ") and err.count("\n") == 1

    def test_disagreement_outranks_a_cap(self, capsys, monkeypatch):
        # det is wrong on 1 alone; 9,7,6,2/3,1 agrees, with its searches capped
        count = cli.kreweras_count
        monkeypatch.setattr(cli, "kreweras_count", lambda shape: 999 if shape.n == 1 else count(shape))
        code, out, err = run(capsys, "verify", "9,7,6,2/3,1", "1", "--cap", "10")
        assert code == 1
        reports = [json.loads(line) for line in out.splitlines()]
        assert [(r["agree"], r["counts"]["enum"]) for r in reports] == [(True, "capped"), (False, "2")]
        assert err.startswith("disagreement on 1: ")

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_bad_shape_stops_before_any_report(self, capsys, jobs):
        # every shape is parsed before the first route runs
        code, out, err = run(capsys, "verify", "2,1", "3,x", "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


# runs the CLI, then prints which of the named modules were loaded
LOADED = """
import sys
from skewcount import cli
cli.main(sys.argv[1:])
print([m for m in {modules!r} if m in sys.modules])
"""
# LOADED for the modules only some commands need
ROUTES_LOADED = LOADED.format(
    modules=("skewcount.gv", "skewcount.tilings", "multiprocessing.pool", "json")
)

# runs verify with the det route wrapped to record what was loaded when it first ran
FIRST_ROUTE = """
import sys
from skewcount import cli
det = cli.ROUTES["det"]
seen = []
def probe(shape):
    seen.append("skewcount.tilings" in sys.modules)
    return det.count(shape)
cli.ROUTES["det"] = det._replace(count=probe)
cli.main(["verify", "2,1"])
print(seen[0])
"""


class TestImportBudget:
    @pytest.mark.parametrize(
        "argv, loaded",
        [
            pytest.param(["count", "9,7,6,2/3,1"], [], id="count-det"),
            *(
                pytest.param(["count", "2,1", "--method", method], loaded, id=f"count-{method}")
                for method, loaded in [
                    ("dp", []),
                    ("enum", []),
                    # tilings loads gv only for family_B_to_z2_paths, which no command runs
                    ("tilings", ["skewcount.tilings"]),
                    ("gv_enum", ["skewcount.gv"]),
                    ("gv_det", ["skewcount.gv"]),
                ]
            ),
            # json is loaded only to write JSON: by verify, and by --format json
            pytest.param(
                ["verify", "2,1"], ["skewcount.gv", "skewcount.tilings", "json"], id="verify"
            ),
            pytest.param(["enumerate", "2,1", "paths"], [], id="enumerate-paths"),
            pytest.param(
                ["enumerate", "2,1", "paths", "--limit", "1"], [], id="enumerate-paths-limit"
            ),
            pytest.param(
                ["enumerate", "2,1", "paths", "--format", "json"], ["json"], id="enumerate-json"
            ),
            pytest.param(
                ["enumerate", "2,1", "tilings"], ["skewcount.tilings"], id="enumerate-tilings"
            ),
            pytest.param(["enumerate", "2,1", "families"], ["skewcount.gv"], id="enumerate-families"),
            pytest.param(
                ["render", "2,1", "--path", "NENE", "-o", os.devnull],
                ["skewcount.tilings"],
                id="render-path",
            ),
            pytest.param(
                ["render", "2,1", "--tiling", "0", "-o", os.devnull],
                ["skewcount.tilings"],
                id="render-tiling",
            ),
        ],
    )
    def test_command_loads_only_its_route_modules(self, argv, loaded):
        result = run_python("-c", ROUTES_LOADED, *argv)
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == repr(loaded)

    def test_shapes_loads_no_other_module(self):
        # shapes reads no path, so it imports only errors
        loaded = "sorted(m for m in sys.modules if m.startswith('skewcount.'))"
        result = run_python("-c", f"import sys, skewcount.shapes; print({loaded})")
        assert result.stdout == "['skewcount.errors', 'skewcount.shapes']\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ["count", "9,7,6,2/3,1"],
            ["verify", "2,1"],
            ["enumerate", "2,1", "families"],
            ["render", "2,1", "--path", "NENE", "-o", os.devnull],
        ],
        ids=lambda argv: argv[0],
    )
    def test_no_command_loads_dataclasses(self, argv):
        # dataclasses, with the inspect it imports, costs 10-13 ms of start-up
        result = run_python("-c", LOADED.format(modules=("dataclasses", "inspect")), *argv)
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "[]"

    def test_verify_loads_every_route_before_timing_one(self):
        # an import inside the first route's clock would count toward its elapsed_ms
        result = run_python("-c", FIRST_ROUTE)
        assert result.returncode == 0
        assert result.stdout.splitlines()[-1] == "True"


class TestEnumerate:
    def test_paths_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "paths")
        assert code == 0
        assert out == "NE\nEN\n"

    def test_paths_limit_marker(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2,1", "paths", "--limit", "2")
        assert code == 0
        assert out.splitlines() == ["NNEE", "NENE", "... truncated: showing 2 of 5"]

    def test_limit_covers_everything(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "paths", "--limit", "9")
        assert code == 0
        assert "truncated" not in out

    def test_negative_limit(self, capsys):
        code, out, err = run(capsys, "enumerate", "2,1", "paths", "--limit", "-1")
        assert code == 2
        assert out == ""
        assert err == "error: --limit must be at least 0, got -1\n"

    def test_zero_limit(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2,1", "paths", "--limit", "0")
        assert code == 0
        assert out == "... truncated: showing 0 of 5\n"

    def test_paths_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "paths", "--format", "json")
        assert code == 0
        items = [json.loads(line) for line in out.splitlines()]
        # a line holds the start and the steps, which give every vertex
        assert items == [{"start": [0, 0], "steps": "NE"}, {"start": [0, 0], "steps": "EN"}]

    def test_json_truncation(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2,1", "paths", "--limit", "2", "--format", "json")
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert lines[-1] == {"truncated": True, "shown": 2, "total": 5}
        assert [p["steps"] for p in lines[:-1]] == ["NNEE", "NENE"]

    def test_tilings_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "tilings")
        assert code == 0
        assert out.splitlines() == [
            "T1(0,0) T2(1,-1) T3(1,0)",
            "T1(1,-1) T2(1,0) T3(0,0)",
        ]

    def test_families_text(self, capsys):
        code, out, _ = run(capsys, "enumerate", "1", "families")
        assert code == 0
        assert out.splitlines() == ["(-1,1):NE", "(-1,1):EN"]

    def test_families_json(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2,1", "families", "--format", "json")
        assert code == 0
        items = [json.loads(line) for line in out.splitlines()]
        assert len(items) == 5
        first = items[0]["paths"]
        assert [p["start"] for p in first] == [[-1, 1], [-2, 2]]

    @pytest.mark.parametrize("shape", list(dict.fromkeys([
        *(cli.SkewShape(lam, mu) for lam in cli.partitions_in_box(3, 3)
          for mu in cli.subpartitions(lam)),
        cli.parse_shape("2,1"),
    ])), ids=cli.format_shape)
    def test_each_line_is_the_library_items_text_or_json(self, capsys, shape):
        # enumerate prints each item's to_text(), or its to_json() with sorted keys,
        # in the library's order, and the marker after the first 2 when --limit 2 cuts
        from skewcount import (
            enumerate_disjoint_families, enumerate_paths, enumerate_tilings, gv_endpoints,
        )

        listed = {
            "paths": enumerate_paths(shape),
            "tilings": enumerate_tilings(shape),
            "families": enumerate_disjoint_families(gv_endpoints(shape)),
        }
        total = len(listed["paths"])
        markers = {
            "text": f"... truncated: showing 2 of {total}",
            "json": json.dumps({"truncated": True, "shown": 2, "total": total}),
        }
        for what, items in listed.items():
            forms = {
                "text": [item.to_text() for item in items],
                "json": [json.dumps(item.to_json(), sort_keys=True) for item in items],
            }
            for fmt, lines in forms.items():
                argv = ("enumerate", cli.format_shape(shape), what, "--format", fmt)
                assert run(capsys, *argv) == (0, "\n".join(lines) + "\n", "")
                cut = lines[:2] + [markers[fmt]] * (total > 2)
                assert run(capsys, *argv, "--limit", "2") == (0, "\n".join(cut) + "\n", "")

    def test_cap_applies(self, capsys):
        code, _, err = run(capsys, "enumerate", "3,2,1", "paths", "--cap", "3")
        assert code == 3
        assert "cap" in err


class TestRender:
    def test_tiling_index(self, capsys, tmp_path):
        out_file = tmp_path / "hex.svg"
        code, _, _ = run(capsys, "render", "1", "--tiling", "0", "-o", str(out_file))
        assert code == 0
        text = out_file.read_text()
        assert text.startswith("<svg ")
        assert text.count("<polygon") == 4

    def test_deterministic_output(self, capsys, tmp_path):
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "render", "2,1", "--tiling", "1", "-o", str(a))
        run(capsys, "render", "2,1", "--tiling", "1", "-o", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_tiling_index_draws_the_searchs_tiling(self, capsys, tmp_path):
        # render reads tiling I off a path, never off the search, so the search
        # is the oracle for every index of every 3x3-box shape
        from skewcount.shapes import SkewShape, format_shape, partitions_in_box, subpartitions
        from skewcount.tilings import enumerate_tilings, render_svg

        out_file = tmp_path / "t.svg"
        for lam in partitions_in_box(3, 3):
            for mu in subpartitions(lam):
                shape = SkewShape(lam, mu)
                for index, tiling in enumerate(enumerate_tilings(shape)):
                    for shade in ("a", "b", "both"):
                        code, _, _ = run(capsys, "render", format_shape(shape),
                                         "--tiling", str(index), "--shade", shade,
                                         "-o", str(out_file))
                        assert code == 0
                        expected = render_svg(shape, tiling, shade).encode()
                        assert out_file.read_bytes() == expected, (shape, index, shade)

    def test_path_render_builds_one_region(self, capsys, monkeypatch, tmp_path):
        # the bijection reads the rows, so the one outline built is the one drawn
        import skewcount.tilings as tilings

        calls = []
        build = tilings._boundary
        monkeypatch.setattr(tilings, "_boundary", lambda s: calls.append(s) or build(s))
        code, _, _ = run(capsys, "render", "2,1", "--path", "NENE", "-o", str(tmp_path / "p.svg"))
        assert (code, len(calls)) == (0, 1)

    def test_shade_flag(self, capsys, tmp_path):
        out_file = tmp_path / "shade.svg"
        code, _, _ = run(capsys, "render", "1", "--tiling", "0", "--shade", "a", "-o", str(out_file))
        assert code == 0
        assert "#7a7a7a" not in out_file.read_text()

    def test_index_out_of_range(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "1", "--tiling", "99", "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert err.startswith("error:")

    def test_inadmissible_path(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "2,1", "--path", "EENN", "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert err.startswith("error:")

    def test_path_is_checked_before_the_region_is_built(self, capsys, tmp_path, monkeypatch):
        # the region of a 10^7-wide row would not fit in memory
        def build(shape):
            pytest.fail("region built before the path was checked")

        monkeypatch.setattr("skewcount.tilings._boundary", build)
        code, out, err = run(capsys, "render", "10000000", "--path", "E", "-o", str(tmp_path / "x.svg"))
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1

    def test_bad_step_characters(self, capsys, tmp_path):
        code, out, err = run(capsys, "render", "1", "--path", "EX", "-o", str(tmp_path / "x.svg"))
        assert (code, out) == (2, "")
        assert err == "error: path steps must be E or N, got ['X']\n"

    @pytest.mark.parametrize("target", ["no/such/x.svg", "."], ids=["missing-dir", "a-dir"])
    def test_unwritable_output(self, capsys, tmp_path, target):
        target = tmp_path / target
        code, out, err = run(capsys, "render", "2,1", "--tiling", "0", "-o", str(target))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {target}: ") and err.count("\n") == 1

    def test_tiling_and_path_conflict(self, capsys, tmp_path):
        code, out, err = run(
            capsys, "render", "1", "--tiling", "0", "--path", "EN", "-o", str(tmp_path / "x.svg")
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: skewcount render: argument --path: not allowed")
        assert err.count("\n") == 1

    def test_cap_is_a_usage_error(self, capsys, tmp_path):
        out_file = tmp_path / "x.svg"
        code, out, err = run(capsys, "render", "2,1", "--tiling", "0", "--cap", "5",
                             "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err == "error: skewcount: unrecognized arguments: --cap 5\n"
        assert not out_file.exists()

    def test_both_picks_draw(self, capsys, tmp_path):
        for pick in (["--tiling", "0"], ["--path", "NENE"]):
            out_file = tmp_path / "x.svg"
            assert run(capsys, "render", "2,1", *pick, "-o", str(out_file)) == (0, "", "")
            assert out_file.read_text().startswith("<svg ")

    def test_a_wide_band_draws_its_tiling(self, capsys, tmp_path):
        # 2,000 rows of 3 cells, 10,000 wide: n rows of width + 1 are 20,002,000,
        # but the table holds 8,000 counts under 9.6 * 10^7 bits
        outer = [10_000 - 5 * i for i in range(2000)]
        band = ",".join(map(str, outer)) + "/" + ",".join(str(o - 3) for o in outer)
        out_file = tmp_path / "x.svg"
        assert run(capsys, "render", band, "--tiling", "0", "-o", str(out_file)) == (0, "", "")
        assert out_file.read_text().startswith("<svg ")

    def test_past_the_table_limit_keeps_no_row(self, capsys, tmp_path, monkeypatch):
        # a band three cells wide, 11,190 rows: 44,760 counts of at most
        # 22,382 bits each, judged from the shape before the table is read
        def no_table(shape):
            raise AssertionError("read the table of a shape past its limit")

        monkeypatch.setattr("skewcount.tilings.suffix_counts", no_table)
        outer = range(11_192, 2, -1)
        band = ",".join(map(str, outer)) + "/" + ",".join(str(o - 3) for o in outer)
        out_file = tmp_path / "x.svg"
        code, out, err = run(capsys, "render", band, "--tiling", "0", "-o", str(out_file))
        assert (code, out) == (2, "")
        assert err == ("error: shape too large: 1001818320 table bits, "
                       "past the limit of 1000000000\n")
        assert not out_file.exists()


BOX_12 = ",".join(["12"] * 12)  # C(24, 12) = 2,704,156 items of each kind
WALKS = ("skewcount.paths.walk_paths", "skewcount.tilings.walk_tilings",
         "skewcount.gv.walk_families")


class TestOneCapRule:
    """Every command judges a search on dp's count before it walks, and walks a
    count under the cap to one leaf past it at most."""

    @pytest.fixture
    def no_walk(self, monkeypatch):
        def no_walk(*args):
            raise AssertionError("walked a search past the cap")

        for target in WALKS:
            monkeypatch.setattr(target, no_walk)

    @pytest.mark.parametrize("method", ["enum", "tilings", "gv_enum"])
    def test_count_past_the_cap_walks_nothing(self, capsys, no_walk, method):
        code, out, err = run(capsys, "count", BOX_12, "--method", method)
        assert (code, out, err) == (3, "", "error: enumeration exceeded cap of 1000000 items\n")

    def test_verify_past_the_cap_compares_what_finishes(self, capsys, no_walk):
        code, out, err = run(capsys, "verify", BOX_12)
        assert (code, err) == (3, "error: enumeration exceeded cap of 1000000 items\n")
        report = json.loads(out)
        assert report["agree"] and set(report["elapsed_ms"]) == set(cli.ROUTES)
        assert report["counts"] == {"det": "2704156", "dp": "2704156", "enum": "capped",
                                    "tilings": "capped", "gv_enum": "capped", "gv_det": "2704156"}

    def test_a_walk_past_dps_count_stops_one_leaf_past_the_cap(self, capsys, monkeypatch):
        # dp says 1 for 3,2,1, which has 14: each walk runs under a cap of 5, and
        # ends at its sixth leaf
        leaves = []

        def counting(walk):
            def counted(*args):
                *head, visit = args
                seen = []
                try:
                    walk(*head, lambda leaf: (seen.append(1), visit(leaf)))
                finally:
                    leaves.append(len(seen))

            return counted

        for target in WALKS:
            module, name = target.rsplit(".", 1)
            monkeypatch.setattr(target, counting(getattr(sys.modules[module], name)))
        monkeypatch.setattr(cli, "count_paths_dp", lambda shape: 1)
        code, out, err = run(capsys, "verify", "3,2,1", "--cap", "5")
        assert (code, err.startswith("disagreement on 3,2,1: ")) == (1, True)
        assert json.loads(out)["counts"] == {"det": "14", "dp": "1", "enum": "6", "tilings": "6",
                                             "gv_enum": "6", "gv_det": "14"}
        for method in ("enum", "tilings", "gv_enum"):
            code, out, err = run(capsys, "count", "3,2,1", "--method", method, "--cap", "5")
            assert (code, out, err) == (3, "", "error: enumeration exceeded cap of 5 items\n")
        assert leaves == [6] * 6

    def test_a_wrong_det_past_the_cap_is_a_disagreement(self, capsys, monkeypatch):
        # 8 rows of 40 have C(48, 8) = 377,348,994 paths: every search is capped,
        # and det still meets dp and gv_det
        shape = ",".join(["40"] * 8)
        code, out, _ = run(capsys, "verify", shape)
        counts = json.loads(out)["counts"]
        assert (code, counts["det"], counts["dp"], counts["gv_det"]) == (3, *["377348994"] * 3)
        count = cli.kreweras_count
        monkeypatch.setattr(cli, "kreweras_count", lambda shape: count(shape) + 1)
        code, out, err = run(capsys, "verify", shape)
        assert (code, json.loads(out)["counts"]["det"]) == (1, "377348995")
        assert err.startswith(f"disagreement on {shape}: ")


class TestMethodTable:
    @pytest.mark.parametrize("method", list(cli.ROUTES))
    def test_every_method_counts(self, capsys, method):
        code, out, _ = run(capsys, "count", "2,1", "--method", method)
        assert code == 0
        assert out == "5\n"

    def test_verify_reports_the_table_in_order(self, capsys):
        code, out, _ = run(capsys, "verify", "2,1")
        assert code == 0
        report = json.loads(out)
        assert list(cli.ROUTES) == ["det", "dp", "enum", "tilings", "gv_enum", "gv_det"]
        assert set(report["counts"]) == set(cli.ROUTES)

    def test_count_routes_build_no_items(self, monkeypatch):
        def no_item(*args):
            raise AssertionError("built an item to count it")

        # the tiling search reads its triangles off the shape, so it builds no
        # region, and numbers them, so it builds no triangle or lozenge either
        for target in ("skewcount.paths.path_from_north_record", "skewcount.tilings.Tiling",
                       "skewcount.tilings._boundary", "skewcount.tilings.Lozenge",
                       "skewcount.tilings.Triangle",
                       "skewcount.gv.PathFamily", "skewcount.gv.LatticePath"):
            monkeypatch.setattr(target, no_item)
        # the tiling builder's keys come from the row spans: a count reads them
        # once, for the walk's own table, and never for the builder
        import skewcount.tilings as tilings

        spans = []
        row_spans = tilings._row_spans
        monkeypatch.setattr(tilings, "_row_spans", lambda shape: spans.append(1) or row_spans(shape))
        shape = cli.parse_shape("7,7,6,5,4/3,2")
        for method in ("enum", "tilings", "gv_enum"):
            assert cli._run(cli.ROUTES[method], shape, cli.DEFAULT_CAP) == 680
        assert len(spans) == 1
        # the listings build items, so the patches bite
        for listing in [route.listing for route in cli.ROUTES.values() if route.listing]:
            walk, build, _ = listing(shape)
            with pytest.raises(AssertionError, match="built an item"):
                cli.take_leaves(walk, build, 1)

    def test_one_row_reaches_every_consumer(self, capsys, monkeypatch):
        # a count row, and a second search of the paths under its own enumerate word
        monkeypatch.setitem(cli.ROUTES, "dp_again", cli.Route(count=cli.count_paths_dp))
        monkeypatch.setitem(cli.ROUTES, "enum_again", cli.ROUTES["enum"]._replace(what="steps"))
        for method in ("dp_again", "enum_again"):
            assert run(capsys, "count", "2,1", "--method", method) == (0, "5\n", "")
        code, out, _ = run(capsys, "enumerate", "2,1", "steps")
        assert (code, len(out.splitlines())) == (0, 5)
        assert out == run(capsys, "enumerate", "2,1", "paths")[1]
        code, out, _ = run(capsys, "verify", "2,1")
        report = json.loads(out)
        assert (code, report["agree"]) == (0, True)
        assert (report["counts"]["dp_again"], report["counts"]["enum_again"]) == ("5", "5")
        assert set(report["elapsed_ms"]) == set(cli.ROUTES) >= {"dp_again", "enum_again"}

    @pytest.mark.parametrize("method, module, name, library", [
        ("enum", "paths", "path_listing", "enumerate_paths"),
        ("tilings", "tilings", "tiling_listing", "enumerate_tilings"),
        ("gv_enum", "gv", "family_listing", "enumerate_disjoint_families"),
    ])
    def test_one_budget_reaches_every_consumer(self, capsys, monkeypatch, method, module, name,
                                               library):
        # a field changed in one route's budget, where its module builds it, changes
        # the refusal of count, verify, enumerate and the route's library listing
        module = sys.modules[f"skewcount.{module}"]
        listing = getattr(module, name)
        what = cli.ROUTES[method].what
        shape = cli.parse_shape("2,1")
        arg = module.gv_endpoints(shape) if method == "gv_enum" else shape

        def change(**field):
            def changed(arg):
                walk, build, budget = listing(arg)
                return walk, build, budget._replace(**field)

            monkeypatch.setattr(module, name, changed)

        def consumers():
            try:
                listed = len(getattr(module, library)(arg))
            except cli.ShapeError as exc:
                listed = str(exc)
            return (run(capsys, "count", "2,1", "--method", method)[:2],
                    run(capsys, "verify", "2,1")[0],
                    run(capsys, "enumerate", "2,1", what)[0], listed)

        assert consumers() == ((0, "5\n"), 0, 0, 5)
        limit = sys.getrecursionlimit()
        change(depth=limit)
        deep = f"shape too large to search: deeper than Python's recursion limit of {limit}"
        assert consumers() == ((2, ""), 2, 2, deep)
        assert run(capsys, "enumerate", "2,1", what)[2] == f"error: {deep}\n"
        # only enumerate prints items, so only it meets the output limit
        change(item=MAX_OUTPUT_CHARS)
        assert consumers() == ((0, "5\n"), 0, 2, 5)
        assert run(capsys, "enumerate", "2,1", what) == (2, "", (
            f"error: shape too large: {5 * MAX_OUTPUT_CHARS} output characters, "
            f"past the limit of {MAX_OUTPUT_CHARS}\n"
        ))
        code, out, _ = run(capsys, "enumerate", "2,1", what, "--limit", "1")
        assert (code, out.splitlines()[-1]) == (0, "... truncated: showing 1 of 5")

    def test_verify_counts_dp_once_a_shape(self, capsys, monkeypatch):
        # each search is handed the dp route's count, so none counts it again
        calls = []
        count = cli.count_paths_dp
        monkeypatch.setattr(cli, "count_paths_dp", lambda shape: calls.append(1) or count(shape))
        code, _, _ = run(capsys, "verify", "2,1", "3,2,1")
        assert (code, len(calls)) == (0, 2)

    @pytest.mark.parametrize("method", ["enum", "tilings", "gv_enum"])
    def test_cap_counts_leaves(self, capsys, method):
        # 3,2,1 has 14 paths: a cap of 14 admits them all, 13 stops at the 14th
        code, out, err = run(capsys, "count", "3,2,1", "--method", method, "--cap", "13")
        assert (code, out, err) == (3, "", "error: enumeration exceeded cap of 13 items\n")
        code, out, _ = run(capsys, "count", "3,2,1", "--method", method, "--cap", "14")
        assert (code, out) == (0, "14\n")


def deepest_leaf(walk, stop):
    """The most frames below this call that a walk has at any of its first ``stop`` leaves."""
    def height():
        frame, frames = sys._getframe(1), 0
        while frame is not None:
            frame, frames = frame.f_back, frames + 1
        return frames

    base = height()
    heights = []
    take_leaves(walk, lambda leaf: heights.append(height() - base), stop)
    return max(heights)


class TestBudgets:
    """Each listing's budget, read off the shape, matches what its walk does."""

    SHAPES = [*(cli.SkewShape(lam, mu) for lam in cli.partitions_in_box(3, 3)
                for mu in cli.subpartitions(lam)),
              *map(cli.parse_shape, [",".join(["1"] * 10), "300,300/100", "7,7,6,5,4/3,2"])]

    @pytest.mark.parametrize("method", ["enum", "tilings", "gv_enum"])
    def test_depth_is_the_frames_the_walk_takes(self, method):
        # a walk that came to recurse more or less than its budget says fails here:
        # its deepest frame at a leaf is its depth and one constant, the same for
        # every listing (the walk's first and leaf frames, take_leaves and the two
        # visitors)
        for shape in self.SHAPES:
            walk, _, budget = cli.ROUTES[method].listing(shape)
            assert deepest_leaf(walk, 200) == budget.depth + 5, cli.format_shape(shape)

    @pytest.mark.parametrize("method", ["enum", "tilings", "gv_enum"])
    def test_item_is_at_most_an_items_text(self, method):
        # the output limit judges at least what prints: a path exactly, a tiling
        # and a family at their shortest, a lozenge as "T1(0,0)", a path as "(0,0):"
        route = cli.ROUTES[method]
        for shape in self.SHAPES:
            walk, build, budget = route.listing(shape)
            lengths = []
            take_leaves(walk, lambda leaf: lengths.append(len(build(leaf).to_text())), 200)
            assert budget.item <= min(lengths), cli.format_shape(shape)
            if method == "enum":
                assert set(lengths) == {budget.item}

    def test_family_depth_counts_rows_not_steps(self, capsys):
        # a frame a north step and two a path: a row 2,000 wide is 3 frames deep,
        # while a column of 400 1s is 1,200 and refused
        assert run(capsys, "count", "2000", "--method", "gv_enum") == (0, "2001\n", "")
        code, out, err = run(capsys, "count", ",".join(["1"] * 400), "--method", "gv_enum")
        assert (code, out) == (2, "")
        assert err.startswith("error: shape too large to search") and err.count("\n") == 1

    def test_family_refusal_row_ignores_the_callers_stack(self):
        # the family listing, at three frames a row of 1s, takes the most frames of
        # any listing beyond its depth; fresh interpreters run as `python -m` and as a
        # script 10 frames deep list the column SEARCH_FRAMES short of the limit
        limit = int(run_python("-c", "import sys; print(sys.getrecursionlimit())").stdout)
        rows = (limit - SEARCH_FRAMES) // 3
        for launch in (("-m", "skewcount.cli"), ("-c", WRAPPED_MAIN)):
            for fmt in ("text", "json"):
                argv = ("enumerate", ",".join(["1"] * rows), "families", "--limit", "1",
                        "--format", fmt)
                done = run_python(*launch, *argv)
                assert (done.returncode, done.stderr) == (0, ""), (launch, fmt)
                done = run_python(*launch, *argv[:1], ",".join(["1"] * (rows + 1)), *argv[2:])
                assert (done.returncode, done.stdout, done.stderr.count("\n")) == (2, "", 1)


class TestOutputLimit:
    """A listing whose items' text would pass MAX_OUTPUT_CHARS is refused before it walks."""

    LINE = ("error: shape too large: 1000000000000 output characters, "
            "past the limit of 100000000\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_million_paths_of_a_million_steps(self, capsys, monkeypatch, fmt):
        # JSON is judged on the text's item size, which it passes by a constant
        def no_walk(*args):
            raise AssertionError("walked a listing past the output limit")

        monkeypatch.setattr("skewcount.paths.walk_paths", no_walk)
        code, out, err = run(capsys, "enumerate", "999999", "paths", "--format", fmt)
        assert (code, out, err) == (2, "", self.LINE)

    def test_comes_after_the_cap(self, capsys):
        # the cap comes first: past both, exit 3 with the cap's line
        assert run(capsys, "enumerate", "999999", "paths", "--cap", "5")[0] == 3
        # --limit judges only what it shows
        code, out, _ = run(capsys, "enumerate", "999999", "paths", "--limit", "2")
        assert (code, len(out.splitlines())) == (0, 3)

    def test_the_limit_row(self):
        # README's row: 10,000 paths of 10,000 steps print, 10,001 of 10,001 do not
        listing = cli._load("paths").path_listing
        judge(listing(cli.parse_shape("9999")), cli.DEFAULT_CAP, lambda: 10_000, 10_000)
        with pytest.raises(cli.ShapeError, match="^shape too large: 100020001 output characters"):
            judge(listing(cli.parse_shape("10000")), cli.DEFAULT_CAP, lambda: 10_001, 10_001)


class TestStreaming:
    def test_path_prefix_under_a_small_cap(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "5,5,5,5,5,5,5,5,5,5", "paths", "--limit", "1", "--cap", "1000"
        )
        assert (code, err) == (0, "")
        assert out.splitlines() == ["NNNNNNNNNNEEEEE", "... truncated: showing 1 of 3003"]

    def test_family_prefix_under_a_small_cap(self, capsys):
        code, out, err = run(
            capsys, "enumerate", "5,5,5,5,5,5,5,5,5,5", "families", "--limit", "1", "--cap", "1000"
        )
        assert (code, err) == (0, "")
        first = " | ".join(f"({-k},{k}):NEEEEE" for k in range(1, 11))
        assert out.splitlines() == [first, "... truncated: showing 1 of 3003"]

    def test_second_family_of_a_tall_box_is_quick(self):
        # drawing item 2 once backtracked through every dead partial family;
        # 5^12 took minutes that way, and a fraction of a second with the cut
        shape = ",".join(["5"] * 12)
        done = run_process("enumerate", shape, "families", "--limit", "1")
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "... truncated: showing 1 of 6188"

    def test_family_search_of_a_wide_row_holds_only_its_path(self, capsys):
        # the walk's depth is 3 frames, so a row 10^9 wide meets dp's size guard
        # before its cap is judged, and nothing walks or allocates for the row
        code, out, err = run(capsys, "count", "1000000000", "--method", "gv_enum")
        assert (code, out) == (2, "")
        assert err.startswith("error: shape too large: 1000000001 dp cells") and err.count("\n") == 1

    def test_tiling_prefix_under_a_small_cap(self, capsys):
        code, out, err = run(capsys, "enumerate", "3,3,3", "tilings", "--limit", "2", "--cap", "5")
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert len(lines) == 3
        assert lines[-1] == "... truncated: showing 2 of 20"

    def test_json_prefix_total_comes_from_dp(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "3,3,3", "tilings", "--limit", "1", "--cap", "2", "--format", "json"
        )
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {"truncated": True, "shown": 1, "total": 20}

    @pytest.mark.parametrize("cap, code", [("3", 0), ("2", 0), ("1", 3)])
    def test_cap_counts_items_drawn(self, capsys, cap, code):
        # --limit 2 prints two items and the marker, whose total comes from dp,
        # so it meets the cap only when two items exceed it
        for what in ("paths", "tilings", "families"):
            got, out, _ = run(capsys, "enumerate", "2,1", what, "--limit", "2", "--cap", cap)
            lines = out.splitlines()
            if code == 3:
                assert (got, out) == (3, "")
            else:
                assert (got, len(lines), lines[-1]) == (0, 3, "... truncated: showing 2 of 5")

    @pytest.mark.parametrize("what", ["paths", "tilings", "families"])
    def test_listing_past_the_cap_never_walks(self, capsys, monkeypatch, what):
        # 12 rows of 12 have C(24, 12) = 2,704,156 items of each kind
        def no_walk(*args):
            raise AssertionError("walked a listing past the cap")

        for target in ("skewcount.paths.walk_paths", "skewcount.tilings.walk_tilings",
                       "skewcount.gv.walk_families"):
            monkeypatch.setattr(target, no_walk)
        code, out, err = run(capsys, "enumerate", ",".join(["12"] * 12), what)
        assert (code, out, err) == (3, "", "error: enumeration exceeded cap of 1000000 items\n")

    def test_walk_shorter_than_dp_is_an_invariant_error(self, capsys, monkeypatch):
        count = cli.count_paths_dp
        monkeypatch.setattr(cli, "count_paths_dp", lambda shape: count(shape) + 1)
        with pytest.raises(InvariantError, match="^paths of 2,1: 5, not dp's 6$"):
            main(["enumerate", "2,1", "paths"])

    def test_render_draws_only_up_to_the_index(self, capsys, tmp_path):
        out_file = tmp_path / "big.svg"
        code, _, err = run(
            capsys, "render", "5,5,5,5,5,5,5,5,5,5", "--tiling", "0", "-o", str(out_file),
        )
        assert (code, err) == (0, "")
        assert out_file.read_text().startswith("<svg ")

    def test_render_index_past_cap(self, capsys, tmp_path):
        # render walks no search, so it reads no cap and meets none
        out_file = tmp_path / "x.svg"
        code, _, err = run(capsys, "render", "2,1", "--tiling", "4", "-o", str(out_file))
        assert (code, err) == (0, "")
        assert out_file.read_text().startswith("<svg ")

    def test_render_out_of_range_names_the_total(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "2,1", "--tiling", "5", "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert err == "error: tiling index 5 outside 0..4\n"

    def test_render_out_of_range_never_draws(self, capsys, monkeypatch, tmp_path):
        def no_draw(shape, path):
            raise AssertionError("drew a tiling for an index out of range")

        monkeypatch.setattr("skewcount.tilings.lattice_path_to_tiling", no_draw)
        code, _, err = run(capsys, "render", "2,1", "--tiling", "5", "-o", str(tmp_path / "x.svg"))
        assert (code, err) == (2, "error: tiling index 5 outside 0..4\n")


    def test_enumerate_past_the_dp_guard_never_draws(self, capsys, monkeypatch):
        def no_search(shape):
            raise AssertionError("drew a path of a shape past the dp guard")

        monkeypatch.setattr("skewcount.paths.path_listing", no_search)
        code, out, err = run(capsys, "enumerate", "10000000", "paths", "--limit", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: shape too large:") and err.count("\n") == 1


BIG = "99999999999999999999"  # past sys.maxsize, the largest stop islice takes


class TestPastMaxsize:
    def test_limit(self, capsys):
        code, out, err = run(capsys, "enumerate", "2,1", "paths", "--limit", str(sys.maxsize))
        assert (code, err) == (0, "")
        assert out.splitlines() == ["NNEE", "NENE", "NEEN", "ENNE", "ENEN"]

    def test_tiling_index_out_of_range(self, capsys, tmp_path):
        code, out, err = run(capsys, "render", "2,1", "--tiling", BIG, "-o", str(tmp_path / "x.svg"))
        assert (code, out) == (2, "")
        assert err == f"error: tiling index {BIG} outside 0..4\n"

    def test_tiling_index_past_the_cap(self, capsys, tmp_path):
        # C(80, 40) tilings, so the index is in range; no search runs, so no cap is met
        shape = ",".join(["40"] * 40)
        out_file = tmp_path / "x.svg"
        code, _, err = run(capsys, "render", shape, "--tiling", BIG, "-o", str(out_file))
        assert (code, err) == (0, "")
        assert out_file.read_text().startswith("<svg ")


BOX_40 = ",".join(["40"] * 40)
# a column of 3s: C(403, 3) paths, and 1,200 frames of family walk
COL_400 = ",".join(["3"] * 400)
# one row past the matrix limit: 3,163^2 entries
ONES_3163 = ",".join(["1"] * 3163)
# 20 rows of a 4,300-digit part, which parse_integer still reads: its sizes
# run past the digits str() converts
NINES_20 = ",".join(["9" * 4300] * 20)


# runs the CLI 10 frames below the script's own
WRAPPED_MAIN = """
import sys
from skewcount import cli
def wrap(k):
    return cli.main(sys.argv[1:]) if k == 0 else wrap(k - 1)
sys.exit(wrap(9))
"""


class TestDeepSearch:
    """The searches are judged by their rows, lozenges, or north steps plus two
    frames a path; past Python's recursion limit that is bad input (exit 2), not a
    traceback."""

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("enumerate", BOX_40, "tilings", "--limit", "1"), id="enumerate-tilings"),
            pytest.param(("enumerate", COL_400, "families", "--limit", "1"), id="enumerate-families"),
            pytest.param(("count", BOX_40, "--method", "tilings"), id="count-tilings"),
            pytest.param(("enumerate", ",".join(["1"] * 1200), "paths", "--limit", "1"),
                         id="enumerate-paths"),
            # with no --limit, past the cap too: the depth refusal comes first
            pytest.param(("enumerate", BOX_40, "tilings"), id="enumerate-tilings-all"),
            pytest.param(("enumerate", COL_400, "families"), id="enumerate-families-all"),
            pytest.param(("enumerate", ",".join(["3"] * 1200), "paths"), id="enumerate-paths-all"),
        ],
    )
    def test_too_deep_exits_2(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: shape too large to search") and err.count("\n") == 1

    def test_refusal_row_ignores_the_callers_stack(self):
        # fresh interpreters, run as `python -m` and as a script that calls main
        # under 10 frames of its own: in either format, each lists the column of
        # 3s that is SEARCH_FRAMES rows short of the recursion limit, and
        # refuses one row more
        def column(rows):
            return ",".join(["3"] * rows)

        def first_path(launch, rows, fmt):
            done = run_python(*launch, "enumerate", column(rows), "paths", "--limit", "1",
                              "--format", fmt)
            if done.returncode != 0:
                return done.returncode, done.stdout, done.stderr
            item = done.stdout.splitlines()[0]
            return 0, item if fmt == "text" else json.loads(item)["steps"], done.stderr

        limit = int(run_python("-c", "import sys; print(sys.getrecursionlimit())").stdout)
        rows = limit - SEARCH_FRAMES
        for launch in (("-m", "skewcount.cli"), ("-c", WRAPPED_MAIN)):
            for fmt in ("text", "json"):
                assert first_path(launch, rows, fmt) == (0, "N" * rows + "EEE", "")
                code, out, err = first_path(launch, rows + 1, fmt)
                assert (code, out, err.count("\n")) == (2, "", 1)
                assert err.startswith("error: shape too large to search")
        # the depth guard comes before the cap: one row short is past the cap
        for argv in (("enumerate", "paths"), ("count", "--method", "enum")):
            assert run_process(argv[0], column(rows), *argv[1:]).returncode == 3
            assert run_process(argv[0], column(rows + 1), *argv[1:]).returncode == 2

    def test_too_deep_to_search_still_draws(self, capsys, tmp_path):
        # render reads the tiling off a path, so a region no search could walk draws
        out_file = tmp_path / "x.svg"
        code, out, err = run(capsys, "render", BOX_40, "--tiling", "0", "-o", str(out_file))
        assert (code, out, err) == (0, "", "")
        assert out_file.read_text().startswith("<svg ")

    def test_too_deep_to_search_walks_no_search(self, capsys, monkeypatch, tmp_path):
        # neither the tiling search nor its depth refusal is reached on the way
        def no_search(*args):
            raise AssertionError("reached the tiling search to draw a tiling")

        monkeypatch.setattr("skewcount.tilings.walk_tilings", no_search)
        monkeypatch.setattr("skewcount.tilings.tiling_listing", no_search)
        out_file = tmp_path / "x.svg"
        code, out, err = run(capsys, "render", BOX_40, "--tiling", "0", "-o", str(out_file))
        assert (code, out, err) == (0, "", "")
        assert out_file.read_text().startswith("<svg ")

    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(("count", "200000", "--method", "tilings"), id="count-tilings"),
            pytest.param(("render", "200000", "--tiling", "0"), id="render-tiling"),
            pytest.param(("render", "200000", "--path", "N" + "E" * 200000), id="render-path"),
            pytest.param(("count", "10000000", "--method", "dp"), id="count-dp"),
            pytest.param(("enumerate", "10000000", "paths", "--limit", "1"), id="enumerate-paths"),
            # two rows of one cell each pass dp's guard, but each path is 10^9 steps
            pytest.param(("enumerate", "1000000000,1000000000/999999999,999999999", "paths"),
                         id="enumerate-paths-wide-rows"),
            # within the output limit: its first path, of 20,000,002 steps, is refused as built
            pytest.param(("enumerate", "20000001/20000000", "paths", "--limit", "1"),
                         id="enumerate-paths-past-the-step-limit"),
            pytest.param(("count", ONES_3163), id="count-det"),
            pytest.param(("count", ONES_3163, "--method", "gv_det"), id="count-gv_det"),
            pytest.param(("count", NINES_20, "--method", "dp"), id="count-dp-long-parts"),
            pytest.param(("count", NINES_20, "--method", "tilings"), id="count-tilings-long-parts"),
            pytest.param(("enumerate", NINES_20, "paths", "--limit", "1"),
                         id="enumerate-paths-long-parts"),
            pytest.param(("render", "9" * 4300, "--tiling", "0"), id="render-tiling-long-part"),
        ],
    )
    def test_past_a_size_guard_exits_2(self, capsys, tmp_path, argv):
        # each shape is just past a limit: refused before its region, dp row or matrix is built
        out_file = tmp_path / "x.svg"
        if argv[0] == "render":
            argv = (*argv, "-o", str(out_file))
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: shape too large:") and err.count("\n") == 1
        assert not out_file.exists()

    def test_a_long_size_keeps_its_unit_and_limit(self, capsys):
        code, out, err = run(capsys, "count", NINES_20, "--method", "dp")
        assert (code, out, err.count("\n")) == (2, "", 1)
        assert "dp cells, past the limit of 10000000" in err and len(err.encode()) < 200

    @pytest.mark.parametrize(
        "argv",
        [pytest.param(("count", "99999", "--method", "tilings"), id="count-tilings")],
    )
    def test_too_deep_region_is_never_built(self, capsys, monkeypatch, argv):
        # the shape alone gives the region's m + width + n lozenges
        def no_region(shape):
            raise AssertionError("built a region too deep to search")

        monkeypatch.setattr("skewcount.tilings._boundary", no_region)
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: shape too large to search: deeper than Python's recursion limit")
        assert err.count("\n") == 1

    def test_thirty_rows_of_thirty_still_search(self):
        # a fresh interpreter: pytest's own frames would eat into the limit. The
        # 960-lozenge walk prints its first tiling at the leaf, in either format
        shape = ",".join(["30"] * 30)
        done = run_process("enumerate", shape, "tilings", "--limit", "1")
        assert (done.returncode, done.stderr) == (0, "")
        first, marker = done.stdout.splitlines()
        assert len(first.split()) == 960
        assert marker == "... truncated: showing 1 of 118264581564861424"
        done = run_process("enumerate", shape, "tilings", "--limit", "1", "--format", "json")
        assert (done.returncode, done.stderr) == (0, "")
        first, marker = map(json.loads, done.stdout.splitlines())
        assert len(first["lozenges"]) == 960
        assert marker == {"truncated": True, "shown": 1, "total": 118264581564861424}


BAD_INTEGERS = [
    "1_3", "\u0661", "abc", "+3", "1 0", "", "1e3", "-",
    pytest.param("1" * 5000, id="5000-digits"),  # past int()'s digit limit
]


def bad_integer_line(name: str, raw: str) -> str:
    """The start of the error line for a BAD_INTEGERS text read as `name`."""
    if raw == "1" * 5000:
        return f"error: {name} of 5000 digits is too long\n"
    return f"error: {name} must be an integer, got {raw!r}"


# every point where the CLI reads an integer: (the name its error line gives,
# the argv for a raw text, whether the raw text also goes in SKEWCOUNT_CAP)
INPUT_POINTS = {
    "outer": ("outer part", lambda raw: ["count", raw], False),
    "inner": ("inner part", lambda raw: ["count", f"3,2/{raw}"], False),
    "cap": ("--cap", lambda raw: ["count", "3,2,1", "--method", "enum", f"--cap={raw}"], False),
    # SKEWCOUNT_CAP is not read, so a bad one leaves the line to the bad --limit,
    # which enumerate reads after its cap
    "env-cap": ("--limit", lambda raw: ["enumerate", "2,1", "paths", f"--limit={raw}"], True),
    # render reads no cap: --cap is an unknown argument there, and a bad
    # SKEWCOUNT_CAP leaves the line to the bad --tiling
    "render-path-cap": (
        "unrecognized arguments: --cap=",
        lambda raw: ["render", "2,1", "--path", "NENE", f"--cap={raw}"],
        False,
    ),
    "render-path-env-cap": ("--tiling", lambda raw: ["render", "2,1", f"--tiling={raw}"], True),
    "limit": ("--limit", lambda raw: ["enumerate", "2,1", "paths", f"--limit={raw}"], False),
    "jobs": ("--jobs", lambda raw: ["verify", "1", f"--jobs={raw}"], False),
    "tiling": ("--tiling", lambda raw: ["render", "1", f"--tiling={raw}"], False),
    "box-rows": ("--box side", lambda raw: ["verify", f"--box={raw}x2"], False),
    "box-cols": ("--box side", lambda raw: ["verify", f"--box=2x{raw}"], False),
}

# commands that read --cap: a count route, a search under and past the flag's
# cap, verify and enumerate; and render, which reads none
CAP_READERS = [
    ["count", "3,2,1"],
    ["count", "3,2,1", "--method", "enum"],
    ["count", "3,2,1", "--method", "enum", "--cap", "2"],
    ["count", "3,2,1", "--method", "enum", "--cap", "100"],
    ["verify", "3,2,1"],
    ["enumerate", "3,2,1", "paths"],
    ["render", "2,1", "--path", "NENE"],
]

# usage errors that argparse finds, and which print main's line all the same;
# the last three echo a long word, which the line clips
USAGE_ERRORS = [
    ["count"],
    ["count", "2,1", "--method", "foo"],
    ["verify", "--bogus"],
    ["render", "1", "--tiling", "0", "--path", "EN"],
    pytest.param(["count", "2,1", "--method", "x" * 5000], id="long-method"),
    pytest.param(["enumerate", "2,1", "y" * 5000], id="long-what"),
    pytest.param(["render", "2,1", "--path", "NENE", "--shade", "z" * 5000], id="long-shade"),
    pytest.param(["count", "2,1", *["q"] * 3000], id="many-words"),
    pytest.param(["count", "2,1", *["q" * 100] * 3000], id="many-long-words"),
]

NINES = "9" * 4000  # an integer of 4,000 digits, which int() still reads

# bad partitions of 3,001 parts or of 4,000-digit parts: (the shape text, the
# message its line gives)
LONG_SHAPES = {
    "rising-part": (",".join(["1"] * 3000 + ["2"]), "part 3001 (2) is larger than part 3000 (1)"),
    "inner-rows": ("3/" + ",".join(["1"] * 3000), "inner partition has 3000 rows, outer has 1"),
    "rising-long-part": (f"1,{NINES}", "part 2 (999"),
    "long-inner-part": (f"{NINES},1/{NINES},{NINES}", "row 2: inner part 999"),
}

# render inputs whose error line echoes a long text: (the argv, with the output
# file's directory for "{dir}", and the message its line gives)
LONG_ECHOES = {
    "tiling-index": (["render", "2,1", "--tiling", NINES, "-o", "{dir}/x.svg"], "tiling index 999"),
    "long-path": (
        ["render", "3000/2999", "--path", "N" + "E" * 3000, "-o", "{dir}/x.svg"],
        "path 'NEEE",
    ),
    "many-bad-steps": (
        ["render", "2,1", "--path", "".join(map(chr, range(0x4E00, 0x4E00 + 3000))),
         "-o", "{dir}/x.svg"],
        "path steps must be E or N",
    ),
    "long-output": (["render", "2,1", "--tiling", "0", "-o", "{dir}/" + "d" * 5000 + "/x.svg"],
                    "cannot write"),
}


def assert_one_error_line(code, out, err, name) -> None:
    assert (code, out) == (2, "")
    assert err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n")
    assert name in err and len(err) <= 200


class TestIntegerFlags:
    @pytest.mark.parametrize("raw", BAD_INTEGERS)
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "3,2,1", "--method", "enum", "--cap"),
            ("enumerate", "2,1", "paths", "--limit"),
            ("verify", "1", "--jobs"),
        ],
    )
    def test_bad_flag(self, capsys, argv, raw):
        code, out, err = run(capsys, *argv, raw)
        assert code == 2
        assert out == ""
        assert err.startswith(bad_integer_line(argv[-1], raw))
        assert err.count("\n") == 1

    @pytest.mark.parametrize("raw", BAD_INTEGERS)
    def test_bad_tiling_index(self, capsys, tmp_path, raw):
        out_file = tmp_path / "x.svg"
        code, _, err = run(capsys, "render", "1", "--tiling", raw, "-o", str(out_file))
        assert code == 2
        assert err.startswith(bad_integer_line("--tiling", raw))
        assert err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize(
        "raw",
        [*BAD_INTEGERS, "-1", pytest.param("-" + NINES, id="-4000-digits"), "2", "lots"],
    )
    def test_bad_env_cap(self, capsys, monkeypatch, tmp_path, raw):
        # --cap alone sets the cap: SKEWCOUNT_CAP changes nothing, whether it holds
        # a cap the searches pass, a negative one or no integer
        out_file = tmp_path / "x.svg"

        def outcomes():
            got = []
            for argv in CAP_READERS:
                if argv[0] == "render":
                    argv = [*argv, "-o", str(out_file)]
                code, out, err = run(capsys, *argv)
                if argv[0] == "verify":
                    out = [{k: v for k, v in json.loads(line).items() if k != "elapsed_ms"}
                           for line in out.splitlines()]
                elif argv[0] == "render":
                    out = out_file.read_bytes()
                got.append((code, out, err))
            return got

        monkeypatch.delenv("SKEWCOUNT_CAP", raising=False)
        unset = outcomes()
        past_the_flag = (3, "", "error: enumeration exceeded cap of 2 items\n")
        assert unset[1:3] == [(0, "14\n", ""), past_the_flag]
        monkeypatch.setenv("SKEWCOUNT_CAP", raw)
        assert outcomes() == unset

    @pytest.mark.parametrize(
        "raw", [*BAD_INTEGERS, "-1", pytest.param("-" + NINES, id="-4000-digits")]
    )
    @pytest.mark.parametrize("point", INPUT_POINTS)
    def test_every_input_point(self, capsys, monkeypatch, tmp_path, point, raw):
        name, argv, in_env = INPUT_POINTS[point]
        out_file = tmp_path / "x.svg"
        argv = argv(raw)
        if argv[0] == "render":
            argv += ["-o", str(out_file)]
        if in_env:
            monkeypatch.setenv("SKEWCOUNT_CAP", raw)
        assert_one_error_line(*run(capsys, *argv), name=name)
        assert not out_file.exists()

    @pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
    def test_usage_error_is_one_line(self, capsys, tmp_path, argv):
        if argv[0] == "render":
            argv = [*argv, "-o", str(tmp_path / "x.svg")]
        assert_one_error_line(*run(capsys, *argv), name="skewcount")

    @pytest.mark.parametrize("case", LONG_SHAPES)
    def test_long_shape_error_is_short(self, capsys, case):
        text, name = LONG_SHAPES[case]
        assert_one_error_line(*run(capsys, "count", text), name=name)

    @pytest.mark.parametrize("case", LONG_ECHOES)
    def test_long_echo_is_clipped(self, capsys, tmp_path, case):
        argv, name = LONG_ECHOES[case]
        argv = [word.replace("{dir}", str(tmp_path)) for word in argv]
        assert_one_error_line(*run(capsys, *argv), name=name)
        assert not (tmp_path / "x.svg").exists()

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["count", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: skewcount count")

    def test_negative_tiling_index(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "1", "--tiling", "-1", "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert err == "error: --tiling must be at least 0, got -1\n"

    @pytest.mark.parametrize("raw", [" 14 ", "14", "014", "\t14\n"])
    def test_whitespace_and_leading_zeros(self, capsys, raw):
        code, out, _ = run(capsys, "count", "3,2,1", "--method", "enum", "--cap", raw)
        assert (code, out) == (0, "14\n")

    @pytest.mark.parametrize("raw", [" 1 ", "01", "\t1\n"])
    def test_every_flag_keeps_its_value(self, capsys, tmp_path, raw):
        code, out, _ = run(capsys, "enumerate", "2,1", "paths", "--limit", raw)
        assert (code, out.splitlines()[-1]) == (0, "... truncated: showing 1 of 5")
        code, out, _ = run(capsys, "verify", "2,1", "--jobs", raw)
        assert (code, len(out.splitlines())) == (0, 1)
        by_raw, by_one = tmp_path / "raw.svg", tmp_path / "one.svg"
        run(capsys, "render", "2,1", "--tiling", raw, "-o", str(by_raw))
        run(capsys, "render", "2,1", "--tiling", "1", "-o", str(by_one))
        assert by_raw.read_bytes() == by_one.read_bytes()

    def test_shape_and_box_keep_their_values(self, capsys):
        assert run(capsys, "count", " 2 , 1 ") == (0, "5\n", "")
        assert run(capsys, "count", "3, 2 /\t1\n") == (0, "8\n", "")
        # a --box side takes whitespace around its digits, as a shape part does
        for box in ["2x3", " 2 X 3 "]:
            code, out, _ = run(capsys, "verify", "--box", box)
            shapes = [json.loads(line)["shape"] for line in out.splitlines()]
            assert (code, len(shapes), shapes[-1]) == (0, 50, "3,3/3,3")


# runs the CLI with a byte written to the file argv[1] for each shape verify
# starts; pool workers are forked from it, so their shapes count too. A process
# starts no shape past its first 1,212, a chunk of the 5x5 sweep, until the file
# argv[2] exists (or 30 s have passed): the reader makes it once it has left, so
# a reader that is slow to leave lets no worker run on meanwhile
COUNTED = """
import os, sys, time
from skewcount import cli
log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)
verify_one = cli._verify_one
started = 0
def counted(shape, cap):
    global started
    started += 1
    deadline = time.monotonic() + 30
    while started > 1212 and not os.path.exists(sys.argv[2]) and time.monotonic() < deadline:
        time.sleep(0.01)
    os.write(log, b".")
    return verify_one(shape, cap)
cli._verify_one = counted
sys.exit(cli.main(sys.argv[3:]))
"""


# runs the CLI with a byte written to the file argv[1] for each path built
BUILT = """
import os, sys
import skewcount.paths as paths
from skewcount import cli
log = os.open(sys.argv[1], os.O_WRONLY | os.O_APPEND)
build = paths.path_from_north_record
def counted(record, width):
    os.write(log, b".")
    return build(record, width)
paths.path_from_north_record = counted
sys.exit(cli.main(sys.argv[2:]))
"""


class TestClosedStdout:
    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_verify_stops_when_the_reader_leaves(self, tmp_path, jobs):
        # `verify --box 5x5 | head -1`: the sweep holds 19,404 shapes
        log, left, err = tmp_path / "started", tmp_path / "left", tmp_path / "err"
        log.touch()
        argv = ["verify", "--box", "5x5", "--jobs", jobs]
        with err.open("wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-c", COUNTED, str(log), str(left), *argv],
                env=package_env(), stdout=subprocess.PIPE, stderr=err_file,
            )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            left.touch()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert json.loads(first)["agree"]
        # the status of a death by SIGPIPE, and no traceback
        assert (code, err.read_bytes()) == (141, b"")
        # leaving the pool terminates its workers: of 16 chunks of 1,212
        # shapes, only the two the workers are running have started (the bound
        # leaves room for one more)
        assert log.stat().st_size < 3 * 1_212

    def test_listing_stops_when_the_reader_leaves(self, tmp_path):
        # `enumerate <12 rows of 12> paths --limit 999999 | head -1`: each path
        # prints at its leaf, so the listing ends at the first write after the
        # reader leaves, not after it has built 999,999 paths
        log, err = tmp_path / "built", tmp_path / "err"
        log.touch()
        argv = ["enumerate", ",".join(["12"] * 12), "paths", "--limit", "999999"]
        with err.open("wb") as err_file:
            proc = subprocess.Popen(
                [sys.executable, "-c", BUILT, str(log), *argv],
                env=package_env(), stdout=subprocess.PIPE, stderr=err_file,
            )
        try:
            first = proc.stdout.readline()
            proc.stdout.close()
            code = proc.wait(timeout=60)
        finally:
            proc.kill()
        assert first == b"N" * 12 + b"E" * 12 + b"\n"
        assert (code, err.read_bytes()) == (141, b"")
        # the pipe holds a few thousand 25-byte lines before a write blocks
        assert log.stat().st_size < 50_000


class FakePool:
    """Stands in for multiprocessing.Pool: records processes and chunksize, maps serially."""

    sizes: list = []
    chunks: list = []

    def __init__(self, processes):
        FakePool.sizes.append(processes)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def imap(self, fn, items, chunksize=1):
        FakePool.chunks.append(chunksize)
        return map(fn, items)


class TestJobsClamp:
    @pytest.mark.parametrize(
        "cpus, targets, sizes",
        [
            (3, ["--box", "2x2"], [3]),  # 20 shapes: the CPU count binds
            (8, ["1", "2,1"], [2]),  # 2 shapes: the shape count binds
            (None, ["--box", "2x2"], []),  # no mask and no CPU count: serial, no pool
            (1, ["--box", "2x2"], []),
        ],
    )
    def test_workers_bounded(self, capsys, monkeypatch, cpus, targets, sizes):
        # cli imports the pool class inside the parallel branch, at call time
        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        set_cpus(monkeypatch, cpus)
        code, out, _ = run(capsys, "verify", *targets, "--jobs", "100000")
        assert code == 0
        assert FakePool.sizes == sizes
        reports = [json.loads(line) for line in out.splitlines()]
        assert all(r["agree"] for r in reports)
        assert len(reports) == (2 if targets[0] == "1" else 20)

    @pytest.mark.parametrize(
        "box, cpus, shapes, chunk",
        [
            ("3x3", 2, 175, 10),  # about 8 chunks a worker
            ("2x2", 3, 20, 1),  # fewer shapes than 8 a worker: one shape a chunk
        ],
    )
    def test_shapes_go_out_in_chunks(self, capsys, monkeypatch, box, cpus, shapes, chunk):
        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr(FakePool, "chunks", [])
        set_cpus(monkeypatch, cpus)
        code, out, _ = run(capsys, "verify", "--box", box, "--jobs", str(cpus))
        assert code == 0
        assert len(out.splitlines()) == shapes
        assert (FakePool.sizes, FakePool.chunks) == ([cpus], [chunk])

    def test_an_affinity_of_one_cpu_starts_no_pool(self, capsys, monkeypatch):
        # two CPUs in the machine, one in the mask that `taskset -c 0` sets: serial
        monkeypatch.setattr("multiprocessing.Pool", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
        set_cpus(monkeypatch, 1)
        code, out, _ = run(capsys, "verify", "--box", "2x2", "--jobs", "2")
        assert (code, len(out.splitlines()), FakePool.sizes) == (0, 20, [])
