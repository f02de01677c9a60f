"""Smoke test for the benchmark spine (not part of tier-1).

    python -m pytest benchmarks/spine -q

Runs every workload with a 1.5 s window, untraced and traced, and checks
the printed result against ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import pathlib
import re
import subprocess
import sys

import pytest

SPINE = pathlib.Path(__file__).resolve().parent
ROOT = SPINE.parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")

sys.path.insert(0, str(SPINE))
import catalog  # noqa: E402


def _run(workload: str, trace: int, out: pathlib.Path) -> tuple[dict, str]:
    proc = subprocess.run(
        [sys.executable, str(SPINE / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1.5", "--trace", str(trace),
         "--out", str(out)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stdout


def test_benchmark_json_is_the_catalog():
    assert SPEC == catalog.benchmark_json(SPEC["run_seconds"])
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    names = [w["name"] for w in SPEC["workloads"]] \
        + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"])
               for m in SPEC["end_to_end"] + SPEC["per_layer"])
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in SPEC["end_to_end"])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert len(SPEC["per_layer"]) <= 128


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric(workload, tmp_path):
    for trace, listed in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        result, text = _run(workload, trace, tmp_path)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True, text[-3000:]
        assert result["attempted"] >= 1 and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in listed}
        for m in listed:
            got = result["metrics"][m["name"]]
            assert got["unit"] == m["unit"]
            assert math.isfinite(got["value"]), m["name"]
            # printed by name, with its unit, for people too
            assert re.search(rf"^\s+{re.escape(m['name'])}\s+\S+ "
                             rf"{re.escape(m['unit'])}$", text, re.M), m["name"]
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
        else:
            assert result["metrics"]["bench.failed_share"]["value"] == 0
            trace_file = json.loads((tmp_path / "trace.json").read_text())
            assert trace_file["traceEvents"]
    report = json.loads((tmp_path / "report.json").read_text())
    stamp = report["environment"]
    assert {"nproc", "python", "numpy", "thread_pins", "git_commit"} <= set(stamp)
    assert not report["problems"]
    if workload.startswith("serve_"):
        layer = report["traced"]["per_layer"]
        rungs = (layer["runtime.execute_ms"]
                 + layer["serve.session_self_us"] / 1e3
                 + layer["serve.queue_batch_self_ms"]
                 + layer["cluster.wire_self_ms"])
        assert rungs == pytest.approx(layer["cluster.infer_ms"], rel=1e-9)
    # nothing left behind in the tree
    assert not (SPINE / ".work").exists()
