"""The three benchmark workloads.

Every workload drives ADA through its public surfaces only (``ADA``,
``ShardedADA``, ``ServeFront``/``Session``, ``VMDSession``) and reads
its counters from the program's public reporting (``stats()``,
``coalesce_stats()``, ``retry_stats``, ``node_loads()``,
``events_processed``, the metrics registry).

The load comes from one host process and the discrete-event simulation
runs on one host thread: concurrency exists only in simulated time, and
the codec runs at its default serial setting.

Each timed phase is a fixed, seed-generated schedule whose length scales
with ``--seconds`` (calibrated so that it takes about that long on a
2-core host at the commit that introduced the benchmark).  Every commit
therefore does the same work on the same seed, and simulated metrics
repeat exactly.

* ``append_grow`` -- write path.  One writer creates a dataset from its
  PDB and then appends XTC segments, one ``ADA.ingest_stream`` call each,
  with fused in-situ analysis and the LOD tier on, over SSD+HDD.  Chosen
  because codec decode and LOD encode, the pre-processor, the ingest
  pipeline, analysis, the dispatcher and PLFS writes do all the work, and
  host time per append against container size exposes any per-append
  cost that grows with the index.
* ``scrub_sweep`` -- read path.  One VMD viewer scrubs the protein subset
  of a dataset preloaded in set-up, through a block cache smaller than
  the subset: forward, backward and random-jump passes of windowed
  ``fetch_chunks`` (most at full precision, a minority at LOD), each
  window decoded with ``TrajectoryLoader.load_subset``, plus periodic
  whole-subset ``mol_addfile_tag``/``mol_addfile_all`` loads.  Chosen
  because PLFS lookup, the cache miss and eviction path, coalescing,
  prefetch and its pressure suppression, LOD decode and the merge do the
  work.
* ``serve_cluster`` -- serving.  Eight closed-loop playback tenants share
  a 4-node ``ShardedADA`` (R=3 for ``p``) behind ``ServeFront``, with
  Zipf-hot popularity over a catalog whose hot set fits the per-node
  caches; a ninth tenant appends XTC segments to the hottest dataset with
  ``Session.ingest_stream``; a seeded low-rate transient ``FaultPlan``
  runs on the front.  Chosen because the scheduler, admission, shard
  routing, replica writes, the cache hit path, the retry layer and the
  DES engine do the work while the codec does almost none.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from perfbench.common import family_sum, jain, slope

#: Size presets: ``standard`` is what the benchmark measures; ``tiny`` is
#: the smoke test's.
SIZES = ("standard", "tiny")


@dataclass
class Deployment:
    """A built system plus the handles the counters are read from."""

    sim: object
    adas: list  # every ADA instance (one, or one per shard node)
    registry: object
    logicals: List[str]
    hook: object = None  # in-situ analysis hook
    front: object = None  # ServeFront
    sharded: object = None  # ShardedADA
    session: object = None  # VMDSession


@dataclass
class Phase:
    """What one timed phase measured."""

    attempted: int
    failed: int
    #: Host seconds of the timed phase, counted over the operations
    #: themselves (oracle checks between operations are excluded).
    host_s: float
    sim_s: float
    user_bytes: float
    op_host_s: List[float]  # per primary operation (empty: undefined)
    op_sim_s: List[float]  # per primary operation or request
    errors: List[str] = field(default_factory=list)
    extra: Dict[str, object] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# public-surface counters


def counters(dep: Deployment) -> Dict[str, float]:
    """Counter snapshot from the program's public reporting surfaces."""
    from repro.errors import ContainerError

    out: Dict[str, float] = {}

    def add(key: str, value) -> None:
        out[key] = out.get(key, 0.0) + float(value)

    for ada in dep.adas:
        stats = ada.stats()
        for logical in dep.logicals:
            try:
                add("plfs.index_records", len(ada.plfs.container_index(logical)))
            except ContainerError:
                pass
        cache = stats["cache"]
        if cache.get("enabled", True):
            add("cache.hits", cache["hits_l1"] + cache["hits_l2"])
            add("cache.misses", cache["misses"])
            add("cache.evictions", cache["evictions"])
            add("cache.prefetch_hits", cache["prefetch_hits"])
            add("cache.prefetch_wasted", cache["prefetch_wasted"])
        coalescing = stats["coalescing"]
        add("retriever.coalesced_runs", coalescing["coalesced_runs"])
        add("retriever.requests_saved", coalescing["requests_saved"])
        prefetch = stats["prefetch"]
        if prefetch.get("enabled", True):
            add("prefetch.issued_windows", prefetch["issued"])
            add("prefetch.issued_chunks", prefetch["chunks_requested"])
            add(
                "prefetch.suppressed",
                sum(v for k, v in prefetch.items() if k.startswith("suppressed")),
            )
        add("dispatcher.runs", stats["write_coalescing"]["coalesced_runs"])
        add("dispatcher.bytes", sum(stats["dispatched_bytes_per_tag"].values()))
        add("dispatcher.spills", len(stats["spills"]))
        add("middleware.lod_served", stats["lod"]["served"])
        retry = ada.retry_stats.as_dict()
        add("faults.retries", retry["retries"])
        add("faults.recovered", retry["recovered"])
        add("faults.exhausted", retry["exhausted"])
        for name, fs in ada.plfs.backends.items():
            device = getattr(fs, "device", None)
            kind = "ssd" if "ssd" in name.lower() else "hdd"
            if device is not None:
                add(f"storage.busy_s.{kind}", device.busy.busy_time())
                add("storage.ops", len(device.busy.intervals))
            add("storage.read_bytes", fs.bytes_read)
            add("storage.write_bytes", fs.bytes_written)
    registry = dep.registry
    add("ingest.windows", family_sum(registry, "ingest_windows_total"))
    add(
        "ingest.backpressure_s",
        family_sum(registry, "ingest_backpressure_seconds_total"),
    )
    if dep.hook is not None:
        add("analysis.frames", dep.hook.frames_seen)
    if dep.front is not None:
        sessions = dep.front.sessions.stats()
        add("serve.admitted", sum(s["admitted"] for s in sessions.values()))
        add("serve.rejected", sum(s["rejected"] for s in sessions.values()))
        retry = dep.front.stats().get("serve_retry")
        if retry is not None:
            add("faults.retries", retry["retries"])
            add("faults.recovered", retry["recovered"])
            add("faults.exhausted", retry["exhausted"])
    if dep.sharded is not None:
        add("shard.routed", family_sum(registry, "cluster_routed_total"))
        add("shard.failovers", dep.sharded.stats()["failovers"])
        for name, load in dep.sharded.node_loads().items():
            add(f"shard.served_bytes.{name}", load["served_bytes"])
    add("sim.events", dep.sim.events_processed)
    return out


def shard_imbalance(counts: Dict[str, float]) -> float:
    """Hottest node's served bytes over the mean, minus 1, from a counter
    difference taken around the timed phase (0 without shards)."""
    loads = [
        v for k, v in counts.items() if k.startswith("shard.served_bytes.")
    ]
    mean = sum(loads) / len(loads) if loads else 0.0
    return max(loads) / mean - 1.0 if mean else 0.0


# ---------------------------------------------------------------------------
# shared building blocks


def _ssd_hdd_backends(sim):
    from repro.fs.localfs import LocalFS
    from repro.storage.hdd import WD_1TB_HDD
    from repro.storage.ssd import NVME_SSD_256GB

    return {
        "ssd": LocalFS(sim, NVME_SSD_256GB, name="ssd"),
        "hdd": LocalFS(sim, WD_1TB_HDD, name="hdd"),
    }


def _storage_cpu(sim):
    from repro.cluster.node import ComputeNode
    from repro.harness.calibration import E5_2603V4
    from repro.storage.power import NodePower

    return ComputeNode(
        sim, "storage0", E5_2603V4, memory_capacity=64 << 30,
        power=NodePower(idle_w=330.0, cpu_active_w=60.0, io_active_w=10.0),
    )


def _decode(blob: bytes):
    from repro.formats import decode_xtc
    from repro.formats.xtc import RAW_MAGIC, decode_raw

    magic = int.from_bytes(bytes(blob[:4]), "little", signed=True)
    return decode_raw(blob) if magic == RAW_MAGIC else decode_xtc(blob)


class Workload:
    """Interface: sizes, input specs, set-up, timed phase, oracles."""

    name = ""

    def params(self, seconds: float, size: str) -> dict:
        raise NotImplementedError

    def specs(self, p: dict, seed: int) -> List[dict]:
        raise NotImplementedError

    def pin_spec(self) -> dict:
        """``pin_digest`` argument: the first dataset of the standard size
        at the default seed (its structure seed, chunking and keyframe
        interval as the workload uses them), cut to two chunks and two
        segments."""
        from perfbench.inputs import DEFAULT_SEED

        spec = self.specs(self.params(1.0, "standard"), DEFAULT_SEED)[0]
        spec["preload_chunks"] = min(spec["preload_chunks"], 2)
        spec["segments"] = min(spec.get("segments", 0), 2)
        return spec

    def setup(self, p: dict, datasets) -> Deployment:
        raise NotImplementedError

    def run(self, p: dict, dep: Deployment, datasets, seed: int,
            tracer=None, probe=None) -> Phase:
        """The timed phase.  ``tracer.op`` is set to each operation's
        index; ``probe.maybe()`` runs between operations."""
        raise NotImplementedError

    def verify(self, p: dict, dep: Deployment, datasets,
               phase: Phase) -> List[str]:
        return []


# ---------------------------------------------------------------------------
# append_grow


class AppendGrow(Workload):
    name = "append_grow"

    def params(self, seconds, size):
        if size == "tiny":
            return dict(natoms=300, segment_frames=10, window_frames=5,
                        appends=6)
        # ~10 appends per second at this size on a 2-core host.
        return dict(natoms=2000, segment_frames=20, window_frames=10,
                    appends=max(4, round(10 * seconds)))

    def specs(self, p, seed):
        return [dict(
            logical="grow.xtc", natoms=p["natoms"], structure_seed=0,
            seed=seed,
            preload_chunks=0, preload_frames=0,
            segments=p["appends"] + 1, segment_frames=p["segment_frames"],
            keyframe_interval=p["window_frames"],
        )]

    def setup(self, p, datasets):
        from repro import ADA
        from repro.analysis import (
            InSituAnalysis, OnlineContacts, OnlineObservables, OnlineRMSD,
        )
        from repro.core import IngestPipelineConfig
        from repro.core.lod import DEFAULT_LOD_PRECISION
        from repro.formats import parse_pdb
        from repro.sim import Simulator
        from repro.vmd.selection import select

        data = datasets[0]
        sim = Simulator()
        ada = ADA(
            sim, backends=_ssd_hdd_backends(sim), storage_cpu=_storage_cpu(sim),
            lod_precision=DEFAULT_LOD_PRECISION,
            ingest_config=IngestPipelineConfig(window_frames=p["window_frames"]),
        )
        # Contacts over the protein's C-alpha atoms only: the all-atom
        # contact map is quadratic in atoms and would swamp every other
        # layer of the write path.
        topology, _ = parse_pdb(data.pdb_text)
        hook = InSituAnalysis(operators={
            "rmsd": OnlineRMSD(),
            "contacts": OnlineContacts(
                selection=select(topology, "protein and name CA")
            ),
            "observables": OnlineObservables(),
        })
        sim.run_process(ada.ingest_stream(
            data.logical, data.segments[0], pdb_text=data.pdb_text,
            analysis=hook,
        ))
        return Deployment(sim=sim, adas=[ada], registry=ada.metrics,
                          logicals=[data.logical], hook=hook)

    def run(self, p, dep, datasets, seed, tracer=None, probe=None):
        data = datasets[0]
        ada, sim = dep.adas[0], dep.sim
        first = len(ada.plfs.subset_records(data.logical, "p"))
        op_host, op_sim, raw = [], [], 0
        started = sim.now
        for k, segment in enumerate(data.segments[1:]):
            if tracer is not None:
                tracer.op = k
            s0 = sim.now
            t0 = time.perf_counter()
            receipt = sim.run_process(
                ada.ingest_stream(data.logical, segment, analysis=dep.hook)
            )
            op_host.append(time.perf_counter() - t0)
            op_sim.append(sim.now - s0)
            raw += receipt.raw_nbytes
            if probe is not None:
                probe.maybe()
        last = len(ada.plfs.subset_records(data.logical, "p"))
        # Every segment has the same frame count, so each append adds the
        # same number of chunks: chunks stored before append k is linear.
        per_append = (last - first) / max(1, len(op_host))
        stored = [first + k * per_append for k in range(len(op_host))]
        return Phase(
            attempted=len(op_host), failed=0, host_s=sum(op_host),
            sim_s=sim.now - started, user_bytes=raw, op_host_s=op_host,
            op_sim_s=op_sim,
            extra={
                "slope_us_per_chunk": slope(
                    stored, [t * 1e6 for t in op_host]
                ),
                "chunks_per_tag": last,
                "ingested_raw_bytes": raw,
            },
        )

    def verify(self, p, dep, datasets, phase):
        data = datasets[0]
        ada, sim = dep.adas[0], dep.sim
        errors = []
        merged = sim.run_process(ada.fetch_merged(data.logical))
        coarse = sim.run_process(ada.fetch_merged(data.logical, precision="lod"))
        bound = ada.lod_bound(data.logical)
        offset, worst = 0, 0.0
        for k, segment in enumerate(data.segments):
            ref = _decode(segment).coords
            stop = offset + ref.shape[0]
            if not np.array_equal(merged.coords[offset:stop], ref):
                errors.append(f"fetch_merged differs from segment {k}")
            worst = max(worst, float(np.abs(coarse.coords[offset:stop] - ref).max()))
            offset = stop
        if offset != merged.nframes:
            errors.append(f"fetch_merged has {merged.nframes} frames, "
                          f"input {offset}")
        if coarse.tier != "lod" or bound is None or worst > bound:
            errors.append(f"LOD error {worst} exceeds bound {bound}")
        if not ada.plfs.fsck()["ok"]:
            errors.append("plfs.fsck() not ok")
        if dep.hook.frames_seen != offset:
            errors.append(f"analysis saw {dep.hook.frames_seen} of {offset} frames")
        return errors


# ---------------------------------------------------------------------------
# scrub_sweep


class ScrubSweep(Workload):
    name = "scrub_sweep"

    def params(self, seconds, size):
        if size == "tiny":
            return dict(natoms=300, nchunks=16, chunk_frames=5, window=4,
                        cache_mib=0.1, passes=6, whole_every=3)
        # ~9 passes (12 windows each) per second on a 2-core host.
        return dict(natoms=2000, nchunks=96, chunk_frames=25, window=8,
                    cache_mib=4.0, passes=max(4, round(9 * seconds)),
                    whole_every=18)

    def specs(self, p, seed):
        return [dict(
            logical="scrub.xtc", natoms=p["natoms"], structure_seed=0,
            seed=seed,
            preload_chunks=p["nchunks"], preload_frames=p["chunk_frames"],
        )]

    def setup(self, p, datasets):
        from repro import ADA, VMDSession
        from repro.core.lod import DEFAULT_LOD_PRECISION
        from repro.fs.cache import BlockCache
        from repro.sim import Simulator

        data = datasets[0]
        sim = Simulator()
        ada = ADA(
            sim, backends=_ssd_hdd_backends(sim),
            block_cache=BlockCache(
                sim, l1_capacity_bytes=p["cache_mib"] * (1 << 20)
            ),
            prefetch=True, lod_precision=DEFAULT_LOD_PRECISION,
        )
        sim.run_process(ada.ingest(data.logical, data.pdb_text, data.preload[0]))
        for blob in data.preload[1:]:
            sim.run_process(ada.ingest_append(data.logical, blob))
        session = VMDSession(ada)
        session.mol_new(data.pdb_text, name=data.logical)
        return Deployment(sim=sim, adas=[ada], registry=ada.metrics,
                          logicals=[data.logical], session=session)

    @staticmethod
    def schedule(p: dict, seed: int) -> List[tuple]:
        """``("window", chunks, precision)`` and ``("whole", kind,
        precision)`` steps: forward, backward and random-jump passes;
        every fourth pass at LOD; whole-subset loads every few passes."""
        rng = random.Random(seed)
        n, w = p["nchunks"], p["window"]
        starts = list(range(0, n - w + 1, w))
        steps = []
        for index in range(p["passes"]):
            kind = ("forward", "backward", "random")[index % 3]
            precision = "lod" if index % 4 == 3 else "full"
            if kind == "forward":
                order = starts
            elif kind == "backward":
                order = starts[::-1]
            else:
                order = [rng.randrange(0, n - w + 1) for _ in starts]
            steps += [
                ("window", list(range(s, s + w)), precision) for s in order
            ]
            if index % p["whole_every"] == p["whole_every"] - 1:
                lod = index // p["whole_every"] % 2 == 1
                steps.append(("whole", "tag", "lod" if lod else "full"))
                steps.append(("whole", "all", "full"))
        return steps

    def run(self, p, dep, datasets, seed, tracer=None, probe=None):
        from repro import VMDSession

        data = datasets[0]
        ada, sim, session = dep.adas[0], dep.sim, dep.session
        logical = data.logical
        indices = ada.label_map(logical).indices("p")
        bound = ada.lod_bound(logical)
        cf = p["chunk_frames"]

        def want(chunk):
            # The oracle decodes one input chunk at a time, so it holds no
            # copy of the subset beside what the program serves.
            return _decode(data.preload[chunk]).coords[:, indices, :]

        op_host, op_sim, errors = [], [], []
        host, served, attempted = 0.0, 0, 0
        started = sim.now
        for k, (step, what, precision) in enumerate(self.schedule(p, seed)):
            if tracer is not None:
                tracer.op = k
            attempted += 1
            s0 = sim.now
            if step == "window":
                t0 = time.perf_counter()
                objs = sim.run_process(
                    ada.fetch_chunks(logical, "p", what, precision=precision)
                )
                loads = [session.loader.load_subset(o.data) for o in objs]
                elapsed = time.perf_counter() - t0
                op_host.append(elapsed)
                op_sim.append(sim.now - s0)
                served += sum(o.nbytes for o in objs)
                ok = len(loads) == len(what) and all(
                    _close(r.trajectory.coords, want(c), precision, o.tier,
                           bound)
                    for c, o, r in zip(what, objs, loads)
                )
                if not ok:
                    errors.append(f"window {what[0]}.. ({precision}) wrong")
            else:
                # A throwaway session per whole load keeps loaded frames
                # from piling up in one molecule across the run.
                viewer = VMDSession(ada)
                viewer.mol_new(data.pdb_text, name=logical)
                t0 = time.perf_counter()
                if what == "tag":
                    result = viewer.mol_addfile_tag(
                        logical, "p", precision=precision
                    )
                else:
                    result = viewer.mol_addfile_all(logical)
                elapsed = time.perf_counter() - t0
                coords = result.trajectory.coords
                served += (
                    result.source_nbytes if what == "tag" else coords.nbytes
                )
                parts = [
                    coords[i * cf:(i + 1) * cf]
                    for i in range(len(data.preload))
                ]
                if coords.shape[0] != len(data.preload) * cf:
                    ok = False
                elif what == "all":
                    ok = all(
                        np.array_equal(got, _decode(blob).coords)
                        for got, blob in zip(parts, data.preload)
                    )
                else:
                    ok = all(
                        _close(got, want(i), precision, result.tier, bound)
                        for i, got in enumerate(parts)
                    )
                if not ok:
                    errors.append(f"whole {what} load ({precision}) wrong")
                del viewer, result, coords, parts
            host += elapsed
            if probe is not None:
                probe.maybe()
        return Phase(
            attempted=attempted, failed=len(errors), host_s=host,
            sim_s=sim.now - started, user_bytes=served, op_host_s=op_host,
            op_sim_s=op_sim, errors=errors,
        )

    def verify(self, p, dep, datasets, phase):
        ada = dep.adas[0]
        return [] if ada.plfs.fsck()["ok"] else ["plfs.fsck() not ok"]


def _close(got, want, precision, tier, bound) -> bool:
    """Exact at full precision; within the advertised bound at LOD."""
    if got.shape != want.shape:
        return False
    if precision == "full":
        return tier == "full" and np.array_equal(got, want)
    return (
        tier == "lod" and bound is not None
        and float(np.abs(got - want).max()) <= bound
    )


# ---------------------------------------------------------------------------
# serve_cluster


class ServeCluster(Workload):
    name = "serve_cluster"
    playback_tenants = 8

    def params(self, seconds, size):
        if size == "tiny":
            return dict(natoms=200, ndatasets=4, nchunks=8, chunk_frames=4,
                        window=2, run_windows=2, requests=12, nodes=4,
                        cache_kib=256, appends=3, segment_frames=8,
                        append_gap_s=0.01, zipf_s=1.1)
        # ~2,200 requests per host second on a 2-core host.
        # A playback run covers half a dataset, so its start varies.
        return dict(natoms=400, ndatasets=12, nchunks=16, chunk_frames=8,
                    window=4, run_windows=2,
                    requests=max(8, round(280 * seconds)), nodes=4,
                    cache_kib=1024, appends=max(2, round(2 * seconds)),
                    segment_frames=16, append_gap_s=0.25, zipf_s=1.1)

    def specs(self, p, seed):
        out = []
        for i in range(p["ndatasets"]):
            out.append(dict(
                logical=f"traj{i}.xtc", natoms=p["natoms"],
                structure_seed=1000 + i, seed=seed * 1000 + i,
                preload_chunks=p["nchunks"],
                preload_frames=p["chunk_frames"],
                # The hottest dataset also carries the appender's segments.
                segments=p["appends"] if i == 0 else 0,
                segment_frames=p["segment_frames"],
                keyframe_interval=p["segment_frames"] // 2,
            ))
        return out

    def setup(self, p, datasets):
        from repro.cluster.shard import ShardNode, ShardedADA
        from repro.faults.plan import FaultPlan
        from repro.faults.retry import RetryPolicy
        from repro.fs.cache import BlockCache
        from repro.fs.localfs import LocalFS
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import ServeFront
        from repro.sim import Simulator
        from repro.storage.ssd import NVME_SSD_256GB

        sim = Simulator()
        registry = MetricsRegistry()
        nodes = [
            ShardNode.build(
                sim, f"node{i}",
                backends={"ssd": LocalFS(sim, NVME_SSD_256GB, name=f"node{i}:ssd")},
                metrics=registry,
                block_cache=BlockCache(
                    sim, l1_capacity_bytes=p["cache_kib"] * 1024
                ),
                prefetch=True,
            )
            for i in range(p["nodes"])
        ]
        sharded = ShardedADA(sim, nodes, replicas=3, metrics=registry)
        for data in datasets:
            sim.run_process(
                sharded.ingest(data.logical, data.pdb_text, data.preload[0])
            )
            for blob in data.preload[1:]:
                sim.run_process(sharded.ingest_append(data.logical, blob))
        front = ServeFront(
            sharded, concurrency=8,
            fault_plan=FaultPlan.transient_only(seed=p["seed"], rate=0.01),
            retry_policy=RetryPolicy(seed=p["seed"]),
        )
        for i in range(self.playback_tenants + 1):
            front.register(f"t{i}", max_inflight=2)
        return Deployment(
            sim=sim, adas=[n.ada for n in nodes], registry=registry,
            logicals=[d.logical for d in datasets], front=front,
            sharded=sharded,
        )

    def schedule(self, p: dict, seed: int) -> Dict[str, List[tuple]]:
        """Per playback tenant: ``(dataset index, chunks)`` windows.
        Playback runs of ``run_windows`` consecutive windows from a seeded
        chunk offset of a Zipf-popular dataset."""
        weights = [1.0 / (r + 1) ** p["zipf_s"] for r in range(p["ndatasets"])]
        span = p["window"] * p["run_windows"]
        out = {}
        for t in range(self.playback_tenants):
            rng = random.Random(seed * 7919 + t)
            windows: List[tuple] = []
            while len(windows) < p["requests"]:
                ds = rng.choices(range(p["ndatasets"]), weights)[0]
                start = rng.randrange(0, p["nchunks"] - span + 1)
                for w in range(p["run_windows"]):
                    lo = start + w * p["window"]
                    windows.append((ds, list(range(lo, lo + p["window"]))))
            out[f"t{t}"] = windows[: p["requests"]]
        return out

    def run(self, p, dep, datasets, seed, tracer=None, probe=None):
        from repro.errors import ReproError
        from repro.sim import AllOf

        sim, front = dep.sim, dep.front
        schedule = self.schedule(p, seed)
        canonical: Dict[tuple, object] = {}
        served = {name: 0 for name in schedule}
        errors: List[str] = []
        failed = [0]
        ingested = [0]

        def playback(name, windows):
            session = front.session(name)
            for ds, chunks in windows:
                logical = datasets[ds].logical
                try:
                    objs = yield from session.fetch_chunks(logical, "p", chunks)
                except ReproError:
                    failed[0] += 1
                    continue
                if probe is not None and name == "t0":
                    probe.maybe()
                for chunk, obj in zip(chunks, objs):
                    served[name] += obj.nbytes
                    first = canonical.setdefault((ds, chunk), obj.data)
                    if first is not obj.data and obj.data != first:
                        errors.append(f"{name}: {logical} chunk {chunk} "
                                      "differs between reads")

        def appender(name, data):
            session = front.session(name)
            for blob in data.segments:
                yield sim.timeout(p["append_gap_s"])
                try:
                    receipt = yield from session.ingest_stream(
                        data.logical, blob
                    )
                except ReproError:
                    failed[0] += 1
                else:
                    ingested[0] += receipt.raw_nbytes

        def all_tenants():
            procs = [
                sim.process(playback(name, windows), name=f"tenant:{name}")
                for name, windows in schedule.items()
            ]
            appender_name = f"t{self.playback_tenants}"
            procs.append(sim.process(
                appender(appender_name, datasets[0]), name="tenant:appender"
            ))
            yield AllOf(sim, procs)

        s0 = sim.now
        spent = probe.spent if probe is not None else 0.0
        t0 = time.perf_counter()
        sim.run_process(all_tenants())
        host = time.perf_counter() - t0
        probe_s = probe.spent - spent if probe is not None else 0.0
        host -= probe_s
        done = [
            r for reqs in front.scheduler.completed.values() for r in reqs
        ]
        latencies = [r.latency_s for r in done if r.ok]
        attempted = (
            sum(len(w) for w in schedule.values()) + len(datasets[0].segments)
        )
        return Phase(
            attempted=attempted, failed=failed[0] + len(errors),
            host_s=host, sim_s=sim.now - s0,
            user_bytes=sum(served.values()), op_host_s=[],
            op_sim_s=latencies, errors=errors,
            extra={
                "jain_fairness": jain(list(served.values())),
                "queue_waits_s": [r.wait_s for r in done],
                "ingested_raw_bytes": ingested[0],
                "served_chunks": canonical,
                # The probe ran inside the event loop, i.e. inside the
                # traced ``sim.run`` span.
                "probe_in_sim_s": probe_s,
            },
        )

    def verify(self, p, dep, datasets, phase):
        errors = []
        served = phase.extra["served_chunks"]
        for (ds, chunk), data in sorted(served.items(), key=lambda kv: kv[0]):
            logical = datasets[ds].logical
            indices = dep.sharded.label_map(logical).indices("p")
            want = _decode(datasets[ds].preload[chunk]).coords[:, indices, :]
            if not np.array_equal(_decode(data).coords, want):
                errors.append(f"{logical} chunk {chunk} does not decode to "
                              "its input frames")
        appended = datasets[0]
        merged = dep.sim.run_process(dep.sharded.fetch_merged(appended.logical))
        ref = np.concatenate([
            _decode(b).coords for b in appended.preload + appended.segments
        ])
        if not np.array_equal(merged.coords, ref):
            errors.append(f"{appended.logical}: merged read after appends "
                          "differs from its inputs")
        for ada in dep.adas:
            if not ada.plfs.fsck()["ok"]:
                errors.append(f"fsck not ok on {ada.shard_id}")
        return errors


WORKLOADS = {w.name: w for w in (AppendGrow(), ScrubSweep(), ServeCluster())}
