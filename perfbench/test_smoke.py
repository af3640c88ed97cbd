"""Smoke test of the benchmark: a tiny run of every workload.

Run from the root of the checkout::

    python3 -m pytest perfbench/test_smoke.py

Each workload runs untraced and traced at the ``tiny`` size; the test
asserts that every metric of ``BENCHMARK.json`` prints with its unit and
that every correctness oracle passes.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

#: Every end-to-end metric the report prints, with its unit; the JSON
#: result carries the subset listed in BENCHMARK.json.
REPORTED = {
    "setup_s": "s", "ops_per_s": "1/s", "mb_per_s": "MB/s",
    "sim_s": "s", "sim_op_p50_ms": "ms", "sim_op_tail_ms": "ms",
    "peak_rss_mb": "MB", "error_rate": "1",
}


def _run(workload: str, trace: int, cwd: Path = ROOT):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "2", "--trace", str(trace),
         "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return out


def _result(out) -> dict:
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _units(result: dict) -> dict:
    return {k: v["unit"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_and_oracles(workload):
    out = _run(workload, 0)
    result = _result(out)
    assert result["correct"], out.stdout
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for name, unit in REPORTED.items():
        assert re.search(
            rf"^\s+{name}\s+\S+\s+{re.escape(unit)}\s", out.stdout, re.M
        ), f"{name} [{unit}] not printed"
    if workload != "serve_cluster":
        assert re.search(r"^\s+op_p50_ms\s+\S+\s+ms\s", out.stdout, re.M)
        assert re.search(r"^\s+op_tail_ms\s+\S+\s+ms\s+p", out.stdout, re.M)
    assert re.search(r"^\s+error_rate\s+0\.0+\s", out.stdout, re.M)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_determinism(workload):
    out = _run(workload, 1)
    result = _result(out)
    assert result["correct"], out.stdout
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert "determinism check failed" not in out.stdout
    assert re.search(r"^\s+unattributed\s", out.stdout, re.M)
    assert "tracing overhead:" in out.stdout


def test_missing_entry_point_is_reported_not_raised(monkeypatch):
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import tracing

    monkeypatch.setattr(tracing, "SPANS", tracing.SPANS + [
        ("plfs.gone", "repro.fs.plfs:PLFS.no_such_entry_point", None),
        ("ghost.run", "repro.no_such_module:run", None),
    ])
    tracer = tracing.LayerTracer().install()
    tracer.uninstall()
    missing = tracer.missing_layers()
    assert set(missing) == {"plfs", "ghost"}
    from repro.fs.plfs import PLFS

    assert not hasattr(PLFS.write_subset, "__wrapped__")


def test_exits_nonzero_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run(WORKLOADS[0], 0, cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
