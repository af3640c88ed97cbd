"""Host-time benchmark for ADA: three workloads, end-to-end and per layer.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload append_grow --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics.  The schedule of
``--seconds`` is split into ``ROUNDS`` rounds; each round builds a
fresh deployment (timed: ``setup_s``) and runs its share of the timed
phase untraced.  Every oracle is checked, and the run prints a report
followed by one JSON line ``{"correct", "attempted", "failed",
"metrics"}``.

Host times are reported at a nominal host speed.  The speed of a shared
host drifts by tens of percent over minutes (a fixed CPU loop alone does),
so each round times a fixed pure-Python reference loop between
operations (``common.SpeedProbe``, about 2% of the run) and rescales its
host seconds by the nominal over the measured reference time.  The
program never runs inside the reference loop, so a faster program still
reads faster; the report also prints the per-round factors and the
unnormalized throughput.  Host metrics are medians over rounds.

``--trace 1`` runs ``TRACED_ROUNDS`` rounds: one untraced, then one
with spans around every layer entry point (``perfbench/tracing.py``).
It prints the per-layer table, the unattributed share and the tracing
overhead (traced over untraced host time), and reports the per-layer
metrics in the JSON line.

Rounds of one run use the same seed, so they double as the determinism
check: their simulated metrics and public counters must agree exactly,
and the first differing counter is printed otherwise.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import sys
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Fresh deployments per untraced run, each running 1/ROUNDS of the
#: schedule; host metrics are their medians.  Three rounds keep the
#: spread of every host metric well inside its bound on a shared host,
#: at the cost of a shorter container per round in append_grow.
ROUNDS = 3
#: A traced run: one untraced round (the overhead baseline), one traced.
TRACED_ROUNDS = 2

#: The end-to-end metrics of the JSON result, defined on every workload.
#: The report also prints op_p50_ms, op_tail_ms, slope_us_per_chunk,
#: sim_op_p50_ms, sim_op_tail_ms, jain_fairness and error_rate where they
#: apply; they stay out of the JSON result because they are undefined on
#: some workload, can be 0, or (the simulated latency quantiles) take the
#: same few model values on every seed.
END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("mb_per_s", "MB/s"),
    ("sim_s", "s"),
    ("peak_rss_mb", "MB"),
]

#: Layer table order (module names of the program).
LAYERS = (
    "plfs", "cache", "retriever", "prefetch", "formats", "preprocessor",
    "ingest", "analysis", "dispatcher", "middleware", "vmd", "serve",
    "shard", "faults", "sim", "storage",
)


def environment() -> dict:
    """Host and program settings the measurements depend on."""
    import numpy

    from repro.formats.codecexec import resolve_backend
    from repro.formats.xtc import resolve_workers

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "codec_backend": resolve_backend("auto"),
        "codec_workers": resolve_workers(None, 1),
    }


@dataclass
class Round:
    """One fresh deployment and the timed phase run on it."""

    dep: object
    phase: object
    setup_s: float  # measured host seconds
    counts: dict  # public counters, timed-phase difference
    after: dict  # public counters at the end of the timed phase
    factor: float  # host speed over the round, nominal = 1

    @property
    def host_s(self) -> float:
        """Timed-phase host seconds at the nominal reference speed."""
        return self.phase.host_s * self.factor


def _round(workload, p, datasets, seed, tracer=None) -> Round:
    from perfbench.common import SpeedProbe
    from perfbench.workloads import counters

    probe = SpeedProbe()
    probe.measure()
    t0 = time.perf_counter()
    dep = workload.setup(p, datasets)
    setup_s = time.perf_counter() - t0
    probe.measure()
    before = counters(dep)
    if tracer is not None:
        tracer.install()
    try:
        phase = workload.run(p, dep, datasets, seed, tracer=tracer,
                             probe=probe)
    finally:
        if tracer is not None:
            tracer.uninstall()
    probe.measure()
    after = counters(dep)
    counts = {k: after[k] - before.get(k, 0.0) for k in after}
    return Round(dep, phase, setup_s, counts, after, probe.factor())


def end_to_end(rounds, rss_mb) -> dict:
    """The JSON metrics: host times at the nominal reference speed,
    medians over rounds (simulated time is equal in every round), and
    peak memory over the whole run."""
    from perfbench.common import median

    return {
        "setup_s": median([r.setup_s * r.factor for r in rounds]),
        "ops_per_s": median([r.phase.attempted / r.host_s for r in rounds]),
        "mb_per_s": median(
            [r.phase.user_bytes / 1e6 / r.host_s for r in rounds]
        ),
        "sim_s": rounds[0].phase.sim_s,
        "peak_rss_mb": rss_mb,
    }


def report_end_to_end(name, rounds, values, failed) -> None:
    """Print all twelve end-to-end metrics that apply to this workload;
    host latencies pool every round's operations."""
    from perfbench.common import median, tail

    phase = rounds[0].phase
    attempted = sum(r.phase.attempted for r in rounds)
    op_host = [t * r.factor for r in rounds for t in r.phase.op_host_s]
    raw_ops = median([r.phase.attempted / r.phase.host_s for r in rounds])

    def line(metric, value, unit, note=""):
        print(f"  {metric:<20} {value:>14.6f} {unit:<5} {note}")

    print(f"{name}: end-to-end (untraced, median of {len(rounds)} rounds; "
          "host times at the nominal reference speed)")
    print("  host speed factor per round: "
          + ", ".join(f"{r.factor:.3f}" for r in rounds)
          + f"; unnormalized ops_per_s {raw_ops:.3f}")
    line("setup_s", values["setup_s"], "s")
    line("ops_per_s", values["ops_per_s"], "1/s",
         f"{phase.attempted} operations per round")
    line("mb_per_s", values["mb_per_s"], "MB/s")
    if op_host:
        value, q, n = tail(op_host)
        line("op_p50_ms", median(op_host) * 1e3, "ms")
        line("op_tail_ms", value * 1e3, "ms", f"p{q:g}, n={n}")
    else:
        print(f"  {'op_p50_ms':<20} {'n/a':>14}        host latency per "
              "request is undefined: requests interleave on one thread")
        print(f"  {'op_tail_ms':<20} {'n/a':>14}")
    if "slope_us_per_chunk" in phase.extra:
        line("slope_us_per_chunk",
             median([r.phase.extra["slope_us_per_chunk"] * r.factor
                     for r in rounds]),
             "us", f"over {phase.extra['chunks_per_tag']} chunks per tag")
    line("sim_s", values["sim_s"], "s")
    value, q, n = tail(phase.op_sim_s)
    line("sim_op_p50_ms", median(phase.op_sim_s) * 1e3, "ms")
    line("sim_op_tail_ms", value * 1e3, "ms", f"p{q:g}, n={n}")
    if "jain_fairness" in phase.extra:
        line("jain_fairness", phase.extra["jain_fairness"], "1")
    line("peak_rss_mb", values["peak_rss_mb"], "MB")
    line("error_rate", failed / attempted, "1", f"{failed} of {attempted}")


def per_layer(tracer, counts, after, dep, phase, untraced_host_s) -> dict:
    """Every per-layer metric, ``name -> (value, unit)``."""
    from perfbench.common import median, tail
    from perfbench.workloads import shard_imbalance

    calls, units, sim_s = tracer.calls, tracer.units, tracer.sim_s
    layer_ms = {k: v * 1e3 for k, v in tracer.layer_self_s().items()}

    def ms(span):
        return tracer.self_s.get(span, 0.0) * 1e3

    def c(key):
        return counts.get(key, 0.0)

    def ratio(a, b):
        return a / b if b else 0.0

    hits, misses = c("cache.hits"), c("cache.misses")
    issued, useful = c("prefetch.issued_chunks"), c("cache.prefetch_hits")
    waits = phase.extra.get("queue_waits_s") or [0.0]
    overlap = 0.0
    if dep.sharded is None:
        overlap = dep.adas[0].stats()["ingest"].get("overlap_ratio", 0.0)
    attributed = sum(tracer.self_s.values())
    m = {
        "plfs.write_calls": (calls["plfs.write"], "count"),
        "plfs.write_self_ms": (ms("plfs.write"), "ms"),
        "plfs.index_write_bytes": (units["plfs.index_write_bytes"], "B"),
        "plfs.read_self_ms": (ms("plfs.read"), "ms"),
        "plfs.lookup_calls": (calls["plfs.lookup"], "count"),
        "plfs.lookup_self_ms": (ms("plfs.lookup"), "ms"),
        "plfs.index_records": (after.get("plfs.index_records", 0.0), "count"),
        "cache.hits": (hits, "count"),
        "cache.misses": (misses, "count"),
        "cache.hit_ratio": (ratio(hits, hits + misses), "1"),
        "cache.evictions": (c("cache.evictions"), "count"),
        "cache.lookup_self_ms": (ms("cache.lookup"), "ms"),
        "cache.pressure_calls": (calls["cache.pressure"], "count"),
        "cache.pressure_self_ms": (ms("cache.pressure"), "ms"),
        "retriever.calls": (
            calls["retriever.chunks"] + calls["retriever.subset"], "count"
        ),
        "retriever.chunks": (units["retriever.chunks"], "count"),
        "retriever.coalesced_runs": (c("retriever.coalesced_runs"), "count"),
        "retriever.requests_saved": (c("retriever.requests_saved"), "count"),
        "retriever.self_ms": (layer_ms.get("retriever", 0.0), "ms"),
        "retriever.wait_sim_s": (
            sim_s["retriever.chunks"] + sim_s["retriever.subset"], "s"
        ),
        "prefetch.issued": (issued, "count"),
        "prefetch.useful": (useful, "count"),
        "prefetch.useful_ratio": (ratio(useful, issued), "1"),
        "prefetch.wasted": (c("cache.prefetch_wasted"), "count"),
        "prefetch.suppressed": (c("prefetch.suppressed"), "count"),
        "prefetch.self_ms": (layer_ms.get("prefetch", 0.0), "ms"),
        "formats.decode_calls": (calls["formats.decode"], "count"),
        "formats.decode_mb": (units["formats.decode"] / 1e6, "MB"),
        "formats.decode_self_ms": (ms("formats.decode"), "ms"),
        "formats.encode_calls": (calls["formats.encode"], "count"),
        "formats.encode_mb": (units["formats.encode"] / 1e6, "MB"),
        "formats.encode_self_ms": (ms("formats.encode"), "ms"),
        "preprocessor.calls": (calls["preprocessor.run"], "count"),
        "preprocessor.raw_mb": (
            phase.extra.get("ingested_raw_bytes", 0) / 1e6, "MB"
        ),
        "preprocessor.self_ms": (ms("preprocessor.run"), "ms"),
        "ingest.windows": (c("ingest.windows"), "count"),
        "ingest.backpressure_sim_s": (c("ingest.backpressure_s"), "s"),
        "ingest.overlap_ratio": (overlap, "1"),
        "analysis.frames": (c("analysis.frames"), "count"),
        "analysis.self_ms": (ms("analysis.consume"), "ms"),
        "dispatcher.runs": (c("dispatcher.runs"), "count"),
        "dispatcher.mb": (c("dispatcher.bytes") / 1e6, "MB"),
        "dispatcher.spills": (c("dispatcher.spills"), "count"),
        "dispatcher.self_ms": (ms("dispatcher.run"), "ms"),
        "middleware.self_ms": (ms("middleware.entry"), "ms"),
        "middleware.merge_self_ms": (ms("middleware.merge"), "ms"),
        "middleware.lod_served": (c("middleware.lod_served"), "count"),
        "vmd.loads": (calls["vmd.load"], "count"),
        "vmd.load_self_ms": (ms("vmd.load"), "ms"),
        "serve.submitted": (c("serve.admitted") + c("serve.rejected"), "count"),
        "serve.rejected": (c("serve.rejected"), "count"),
        "serve.self_ms": (layer_ms.get("serve", 0.0), "ms"),
        "serve.queue_wait_sim_p50_ms": (median(waits) * 1e3, "ms"),
        "serve.queue_wait_sim_tail_ms": (tail(waits)[0] * 1e3, "ms"),
        "shard.routed": (c("shard.routed"), "count"),
        "shard.self_ms": (layer_ms.get("shard", 0.0), "ms"),
        "shard.imbalance": (shard_imbalance(counts), "1"),
        "shard.failovers": (c("shard.failovers"), "count"),
        "faults.retries": (c("faults.retries"), "count"),
        "faults.recovered": (c("faults.recovered"), "count"),
        "faults.exhausted": (c("faults.exhausted"), "count"),
        "sim.events": (c("sim.events"), "count"),
        "sim.self_ms": (ms("sim.run"), "ms"),
        "sim.events_per_s": (c("sim.events") / phase.host_s, "1/s"),
        "storage.busy_sim_s.ssd": (c("storage.busy_s.ssd"), "s"),
        "storage.busy_sim_s.hdd": (c("storage.busy_s.hdd"), "s"),
        "storage.read_mb": (c("storage.read_bytes") / 1e6, "MB"),
        "storage.write_mb": (c("storage.write_bytes") / 1e6, "MB"),
        "storage.ops": (c("storage.ops"), "count"),
        "unattributed.share": (
            (phase.host_s - attributed) / phase.host_s, "1"
        ),
        "trace.overhead": (phase.host_s / untraced_host_s, "1"),
    }
    return m


def report_layers(tracer, phase, untraced_host_s, notes) -> None:
    """The per-layer table; ``p50 ms/op`` is the median over operations of
    the layer's self time within one operation (sequential workloads)."""
    wall_ms = phase.host_s * 1e3
    calls = tracer.layer_calls()
    self_ms = {k: v * 1e3 for k, v in tracer.layer_self_s().items()}
    per_op = (
        {k: v * 1e3 for k, v in tracer.layer_op_median_s().items()}
        if len(tracer.per_op) > 1 else None
    )
    missing = tracer.missing_layers()
    print(f"per-layer (traced, timed phase {wall_ms:.1f} ms host, "
          f"{len(tracer.per_op)} operations)")
    print(f"  {'layer':<14} {'calls':>10} {'self ms':>12} {'share':>8} "
          f"{'p50 ms/op':>10}")
    for layer in LAYERS:
        own = self_ms.get(layer, 0.0)
        op = f"{per_op.get(layer, 0.0):>10.3f}" if per_op else f"{'n/a':>10}"
        row = (f"  {layer:<14} {calls.get(layer, 0):>10} {own:>12.2f} "
               f"{own / wall_ms:>8.1%} {op}")
        if layer in missing:
            row += "  missing: " + "; ".join(missing[layer])
        if layer in notes:
            row += "  note: " + notes[layer]
        print(row)
    unattributed = wall_ms - sum(self_ms.values())
    print(f"  {'unattributed':<14} {'':>10} {unattributed:>12.2f} "
          f"{unattributed / wall_ms:>8.1%}")
    print(f"  tracing overhead: {phase.host_s / untraced_host_s:.3f}x "
          f"(traced {wall_ms:.1f} ms over untraced "
          f"{untraced_host_s * 1e3:.1f} ms)")


def _determinism(a: Round, b: Round) -> list:
    """Simulated metrics and public counters that differ between two
    same-seed rounds, in sorted order."""
    from perfbench.common import mismatches

    def signature(r: Round) -> dict:
        out = {
            "sim_s": r.phase.sim_s,
            "sim_op_latencies": tuple(r.phase.op_sim_s),
            "attempted": r.phase.attempted,
            "user_bytes": r.phase.user_bytes,
            "jain_fairness": r.phase.extra.get("jain_fairness"),
        }
        out.update(r.counts)
        return out

    x, y = signature(a), signature(b)
    return [f"{k}: {x.get(k)!r} != {y.get(k)!r}" for k in mismatches(x, y)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", default="standard",
                        help="input size preset: standard or tiny (smoke test)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.common import peak_rss_mb
    from perfbench.inputs import generate, load_pins
    from perfbench.tracing import LayerTracer
    from perfbench.workloads import SIZES, WORKLOADS

    if args.workload not in WORKLOADS or args.size not in SIZES:
        parser.error(f"workload must be one of {sorted(WORKLOADS)}, "
                     f"size one of {SIZES}")
    workload = WORKLOADS[args.workload]
    rounds = ROUNDS if args.trace == 0 else TRACED_ROUNDS
    p = workload.params(args.seconds / rounds, args.size)
    p["seed"] = args.seed
    generated = generate(workload.specs(p, args.seed), workload.pin_spec())
    datasets = generated["datasets"]
    errors = []
    pinned = load_pins().get(workload.name)
    if generated["pin"] != pinned:
        errors.append(f"input pin mismatch: data generation changed "
                      f"({generated['pin']} != {pinned})")
    env = environment()
    print(f"{workload.name} seed={args.seed} seconds={args.seconds} "
          f"size={args.size} env={json.dumps(env, sort_keys=True)}")

    # Untraced: ``rounds`` fresh deployments.  Traced: one untraced round
    # (the overhead baseline), then one traced round.  Only one deployment
    # is alive at a time, so peak memory is one deployment's.
    done = []
    for index in range(rounds):
        if done:
            done[-1].dep = None
            gc.collect()
        traced = args.trace == 1 and index == rounds - 1
        tracer = LayerTracer() if traced else None
        done.append(_round(workload, p, datasets, args.seed, tracer=tracer))
    rss = peak_rss_mb()
    last = done[-1]
    for other in done[1:]:
        differ = _determinism(done[0], other)
        if differ:
            print(f"determinism check failed: {differ[0]}")
            errors.append(f"same-seed rounds differ: {differ[0]}")
    for r in done:
        errors += r.phase.errors
    errors += workload.verify(p, last.dep, datasets, last.phase)
    failed = sum(r.phase.failed - len(r.phase.errors) for r in done)
    failed += len(errors)
    attempted = sum(r.phase.attempted for r in done)
    if args.trace == 0:
        values = end_to_end(done, rss)
        report_end_to_end(workload.name, done, values, failed)
        units = dict(END_TO_END)
        metrics = {
            name: {"value": values[name], "unit": units[name]}
            for name, _ in END_TO_END
        }
    else:
        notes = {"storage": "counts only (device models, no spans)"}
        if last.dep.sharded is not None:
            notes["ingest"] = ("overlap_ratio reported 0: ShardedADA exposes "
                               "no ingest pipeline stats")
            notes["serve"] = ("requests interleave on one thread, so spans "
                              "carry no per-request id")
        tracer.self_s["sim.run"] -= last.phase.extra.get("probe_in_sim_s", 0)
        # Overhead compares the two rounds at the nominal speed, so host
        # drift between them does not read as tracing cost.
        untraced_s = done[0].host_s / last.factor
        report_layers(tracer, last.phase, untraced_s, notes)
        layer_values = per_layer(tracer, last.counts, last.after, last.dep,
                                 last.phase, untraced_s)
        metrics = {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in layer_values.items()
        }
    for message in errors:
        print(f"ORACLE FAILED: {message}")
    print(json.dumps({
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
