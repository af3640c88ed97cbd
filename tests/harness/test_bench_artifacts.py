"""The committed simulated-time bench artifacts match a fresh default run.

``benchmarks/results/BENCH_{serve,cluster,ingest,pipeline}.json`` are
the reference records DESIGN.md quotes.  Every number in them is
simulated time, a count, or a digest, so the default CLI run reproduces
each record exactly; a mismatch means a change moved a simulated result
without regenerating the artifact (``python -m repro bench-<name>
--json``).  Marked ``bench``: the four default runs take about 12 s.
"""

import json
import os
import pathlib

import pytest

from repro.cli import main

RESULTS = pathlib.Path(__file__).resolve().parents[2] / "benchmarks" / "results"


@pytest.mark.bench
@pytest.mark.parametrize("target", ["serve", "cluster", "ingest", "pipeline"])
def test_default_run_matches_committed_artifact(target, tmp_path):
    if target == "ingest" and (os.cpu_count() or 1) < 2:
        # ``--workers 0`` sizes the encode pool per CPU; the committed
        # record was made where that pool exists, so its codec_* series
        # are absent on a one-CPU host.
        pytest.skip("the ingest record's codec-pool series need >= 2 CPUs")
    out = tmp_path / f"BENCH_{target}.json"
    assert main([f"bench-{target}", "--json", "-o", str(out)]) == 0
    fresh = json.loads(out.read_text())
    committed = json.loads((RESULTS / out.name).read_text())
    assert fresh == committed
