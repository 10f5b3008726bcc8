import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import skewcount
import skewcount.cli as cli
from skewcount.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    @pytest.mark.parametrize("method", ["det", "dp", "enum", "tilings", "gv"])
    def test_methods_agree(self, capsys, method):
        code, out, _ = run(capsys, "count", "2,1", "--method", method)
        assert code == 0
        assert out == "5\n"

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
        monkeypatch.setenv("SKEWCOUNT_CAP", "2")
        code, _, _ = run(capsys, "count", "3,2,1", "--method", "enum")
        assert code == 3

    def test_flag_overrides_env(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWCOUNT_CAP", "2")
        code, out, _ = run(capsys, "count", "3,2,1", "--method", "enum", "--cap", "100")
        assert code == 0
        assert out == "14\n"

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
        monkeypatch.setenv("SKEWCOUNT_CAP", "-5")
        code, _, err = run(capsys, "count", "3,2,1", "--method", "enum")
        assert code == 2
        assert err == "error: SKEWCOUNT_CAP must be at least 0, got -5\n"

    def test_bad_env_cap(self, capsys, monkeypatch):
        monkeypatch.setenv("SKEWCOUNT_CAP", "lots")
        code, _, err = run(capsys, "count", "1", "--method", "enum")
        assert code == 2
        assert "SKEWCOUNT_CAP" in err

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
        assert [p["steps"] for p in items] == ["NE", "EN"]
        assert items[0]["vertices"] == [[0, 0], [0, 1], [1, 1]]

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

    def test_path_render_matches_tiling_render(self, capsys, tmp_path):
        by_path, by_index = tmp_path / "p.svg", tmp_path / "i.svg"
        run(capsys, "render", "1", "--path", "EN", "-o", str(by_path))
        run(capsys, "render", "1", "--tiling", "0", "-o", str(by_index))
        assert by_path.read_bytes() == by_index.read_bytes()

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
        with pytest.raises(SystemExit) as exc:
            run(capsys, "render", "1", "--tiling", "0", "--path", "EN", "-o", str(tmp_path / "x.svg"))
        assert exc.value.code == 2


class TestMethodTable:
    @pytest.mark.parametrize("method", [*cli.METHODS, "gv"])
    def test_every_method_counts(self, capsys, method):
        code, out, _ = run(capsys, "count", "2,1", "--method", method)
        assert code == 0
        assert out == "5\n"

    def test_verify_reports_the_table_in_order(self, capsys):
        code, out, _ = run(capsys, "verify", "2,1")
        assert code == 0
        report = json.loads(out)
        assert list(cli.METHODS) == ["det", "dp", "enum", "tilings", "gv_enum", "gv_det"]
        assert set(report["counts"]) == set(cli.METHODS)


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
        src = str(Path(skewcount.__file__).resolve().parents[1])
        path = [p for p in (src, os.environ.get("PYTHONPATH")) if p]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run(
            [sys.executable, "-m", "skewcount.cli", "enumerate", shape, "families", "--limit", "1"],
            env=env, capture_output=True, text=True, timeout=20,
        )
        assert (done.returncode, done.stderr) == (0, "")
        assert done.stdout.splitlines()[-1] == "... truncated: showing 1 of 6188"

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

    @pytest.mark.parametrize("cap, code", [("3", 0), ("2", 3)])
    def test_cap_counts_items_drawn(self, capsys, cap, code):
        # --limit 2 draws a third item to decide on the truncation marker
        for what in ("paths", "families"):
            got, out, _ = run(capsys, "enumerate", "2,1", what, "--limit", "2", "--cap", cap)
            assert got == code
            assert (out == "") == (code == 3)

    def test_render_draws_only_up_to_the_index(self, capsys, tmp_path):
        out_file = tmp_path / "big.svg"
        code, _, err = run(
            capsys, "render", "5,5,5,5,5,5,5,5,5,5", "--tiling", "0", "--cap", "1",
            "-o", str(out_file),
        )
        assert (code, err) == (0, "")
        assert out_file.read_text().startswith("<svg ")

    def test_render_index_past_cap(self, capsys, tmp_path):
        code, _, _ = run(capsys, "render", "2,1", "--tiling", "4", "--cap", "4",
                         "-o", str(tmp_path / "x.svg"))
        assert code == 3

    def test_render_out_of_range_names_the_total(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "2,1", "--tiling", "5", "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert err == "error: tiling index 5 outside 0..4\n"


BAD_INTEGERS = [
    "1_3", "\u0661", "abc", "+3", "1 0", "", "1e3", "-",
    pytest.param("1" * 5000, id="5000-digits"),  # past int()'s digit limit
]


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
        assert err.startswith(f"error: {argv[-1]} must be an integer")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("raw", BAD_INTEGERS)
    def test_bad_tiling_index(self, capsys, tmp_path, raw):
        out_file = tmp_path / "x.svg"
        code, _, err = run(capsys, "render", "1", "--tiling", raw, "-o", str(out_file))
        assert code == 2
        assert err.startswith("error: --tiling must be an integer")
        assert err.count("\n") == 1
        assert not out_file.exists()

    @pytest.mark.parametrize("raw", BAD_INTEGERS)
    def test_bad_env_cap(self, capsys, monkeypatch, raw):
        monkeypatch.setenv("SKEWCOUNT_CAP", raw)
        code, _, err = run(capsys, "count", "1", "--method", "enum")
        assert code == 2
        assert err.startswith("error: SKEWCOUNT_CAP must be an integer")
        assert err.count("\n") == 1

    def test_negative_tiling_index(self, capsys, tmp_path):
        code, _, err = run(capsys, "render", "1", "--tiling", "-1", "-o", str(tmp_path / "x.svg"))
        assert code == 2
        assert err == "error: --tiling must be at least 0, got -1\n"

    @pytest.mark.parametrize("raw", [" 14 ", "14", "014", "\t14\n"])
    def test_whitespace_and_leading_zeros(self, capsys, monkeypatch, raw):
        code, out, _ = run(capsys, "count", "3,2,1", "--method", "enum", "--cap", raw)
        assert (code, out) == (0, "14\n")
        monkeypatch.setenv("SKEWCOUNT_CAP", raw)
        code, out, _ = run(capsys, "count", "3,2,1", "--method", "enum")
        assert (code, out) == (0, "14\n")


class FakePool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps serially."""

    sizes: list = []

    def __init__(self, max_workers):
        FakePool.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


class TestJobsClamp:
    @pytest.mark.parametrize(
        "cpus, targets, sizes",
        [
            (3, ["--box", "2x2"], [3]),  # 20 shapes: the CPU count binds
            (8, ["1", "2,1"], [2]),  # 2 shapes: the shape count binds
            (None, ["--box", "2x2"], []),  # unknown CPU count: serial, no pool
            (1, ["--box", "2x2"], []),
        ],
    )
    def test_workers_bounded(self, capsys, monkeypatch, cpus, targets, sizes):
        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(FakePool, "sizes", [])
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        code, out, _ = run(capsys, "verify", *targets, "--jobs", "100000")
        assert code == 0
        assert FakePool.sizes == sizes
        reports = [json.loads(line) for line in out.splitlines()]
        assert all(r["agree"] for r in reports)
        assert len(reports) == (2 if targets[0] == "1" else 20)
