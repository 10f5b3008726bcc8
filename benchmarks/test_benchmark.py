"""Tests of the benchmark itself: run with ``python -m pytest benchmarks``."""

from __future__ import annotations

import itertools
import json
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from reference import count_paths, format_shape, is_admissible, parse_shape
from workloads import box_shapes, uniform_path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_same_seed_same_inputs(workload):
    def first(seed):
        blocks = itertools.islice(run.WORKLOADS[workload](seed), 3)
        return [op.argv("out.svg") for block in blocks for op in block]

    assert first(7) == first(7)
    assert first(7) != first(8)


def test_reference_pinned_values():
    assert count_paths(parse_shape("9,7,6,2/3,1")) == 399
    assert count_paths(parse_shape("2,1")) == 5
    assert count_paths(parse_shape("0")) == 1
    for n in range(1, 16):
        staircase = ",".join(str(k) for k in range(n, 0, -1))
        assert count_paths(parse_shape(staircase)) == math.comb(2 * n + 2, n + 1) // (n + 2)


def test_reference_admissibility():
    shape = parse_shape("2,1")
    admissible = {"".join(p) for p in itertools.permutations("EENN")}
    assert sorted(p for p in admissible if is_admissible(shape, p)) == [
        "ENEN", "ENNE", "NEEN", "NENE", "NNEE",
    ]
    assert not is_admissible(shape, "ENE")
    assert format_shape(parse_shape("9,7,6,2,0/3,1,0")) == "9,7,6,2/3,1"


def test_box_and_paths():
    assert len(set(box_shapes(5, 5))) == 19404
    rng = random.Random(1)
    shape = parse_shape("6,5,5,3,2/3,1,1")
    paths = [uniform_path(rng, shape) for _ in range(3000)]
    assert all(is_admissible(shape, p) for p in paths)
    assert len(set(paths)) == count_paths(shape)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setattr(run, "MIN_CALLS", 2)
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    env = json.loads(lines[-2])["env"]
    assert set(env) == {"python", "nproc", "platform", "commit"}
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if trace:
        assert result["metrics"]["fail_rate"]["value"] == 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "count_large", "--seed", "3",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
