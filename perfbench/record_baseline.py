"""Run every workload on several seeds and record the baseline.

Run from the root of a source checkout::

    python3 perfbench/record_baseline.py --runs 10 --first-seed 100

It first rewrites ``perfbench/pins.json`` with every workload's input
pin at this commit: a change to the inputs changes what is measured, so
pins and baseline are recorded together.  For each workload it then
runs ``perfbench/run.py`` once per seed (seeds
``first-seed .. first-seed + runs - 1``) and writes
``perfbench/baseline.json``: the median and quartiles of every
end-to-end metric, the spread (quartile distance over the median)
against the metric's bound, and the host environment.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: oracle failed\n{out.stdout}")
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--output", default=str(ROOT / "perfbench" / "baseline.json"))
    args = parser.parse_args()

    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import quartiles
    from perfbench.inputs import PINS_PATH, generate
    from perfbench.run import environment
    from perfbench.workloads import WORKLOADS

    pins = {
        name: generate([], workload.pin_spec())["pin"]
        for name, workload in WORKLOADS.items()
    }
    PINS_PATH.write_text(json.dumps(pins, indent=2) + "\n")

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {
        "environment": environment(),
        "run_seconds": bench["run_seconds"],
        "seeds": list(range(args.first_seed, args.first_seed + args.runs)),
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        values = {}
        for seed in record["seeds"]:
            result = run_once(workload, seed, bench["run_seconds"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, {k: round(v[-1], 4) for k, v in values.items()},
                  flush=True)
        summary = {}
        for name, series in values.items():
            q = quartiles(series)
            spread = (q["q3"] - q["q1"]) / q["median"]
            summary[name] = {**q, "spread": spread, "bound": bounds[name],
                             "values": series}
            print(f"  {name:<12} median {q['median']:.6g} spread {spread:.4f} "
                  f"(bound {bounds[name]})", flush=True)
        record["workloads"][workload] = summary
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
