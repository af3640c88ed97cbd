"""Host-time spans around the calls into each layer's public functions.

The traced run patches a fixed table of entry points (``SPANS``) for the
duration of the timed phase and restores them afterwards.  Each patch
wraps the function where its callers look it up: methods on their class,
module-level functions in every module that imported them by name.

Most entry points are discrete-event generator functions.  A process's
call-to-return interval includes other simulated processes' work, so the
wrapper times each *resume* of the generator (``send``/``throw``), not the
call.  One host-side stack of open spans turns durations into self time:
a span's self time is its own steps minus the nested wrapped steps.
Spans opened while the benchmark runs operation ``k`` carry ``op = k``.

An entry point that no longer exists is recorded in ``missing`` with the
reason, and the benchmark still runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional, Tuple

__all__ = ["SPANS", "LayerTracer"]


def _nbytes_of_result(args, kwargs, result) -> float:
    return float(getattr(result, "nbytes", 0) or 0)


def _nbytes_of_first_arg(args, kwargs, result) -> float:
    traj = args[0] if args else kwargs.get("trajectory")
    return float(getattr(traj, "nbytes", 0) or 0)


def _len_of_result(args, kwargs, result) -> float:
    return float(len(result)) if result is not None else 0.0


#: ``(span name, entry point, units hook)``.  The layer is the span name
#: up to the first dot.  An entry point is ``module:attr.path`` or
#: ``module:DICT[key]``; the units hook, when given, maps
#: ``(args, kwargs, result)`` to a quantity summed per span name.
SPANS: List[Tuple[str, str, Optional[Callable]]] = [
    # plfs: container writes, reads and index lookups
    ("plfs.write", "repro.fs.plfs:PLFS.write_subset", None),
    ("plfs.write", "repro.fs.plfs:PLFS.write_chunk_run", None),
    ("plfs.read", "repro.fs.plfs:PLFS.read_chunk_run", None),
    ("plfs.read", "repro.fs.plfs:PLFS.read_subset", None),
    ("plfs.lookup", "repro.fs.plfs:PLFS.container_index", None),
    ("plfs.lookup", "repro.fs.plfs:PLFS.subset_records", None),
    ("plfs.lookup", "repro.core.indexer:Indexer.lookup", None),
    ("plfs.lookup", "repro.core.indexer:Indexer.lookup_all", None),
    # cache
    ("cache.lookup", "repro.fs.cache:BlockCache.lookup", None),
    ("cache.admit", "repro.fs.cache:BlockCache.admit", None),
    ("cache.invalidate", "repro.fs.cache:BlockCache.invalidate", None),
    ("cache.pressure", "repro.fs.cache:BlockCache.pressure", None),
    # retriever (demand reads) and prefetch (speculative reads)
    ("retriever.chunks", "repro.core.retriever:IORetriever.retrieve_chunks",
     _len_of_result),
    ("retriever.subset", "repro.core.retriever:IORetriever.retrieve", None),
    ("prefetch.observe", "repro.core.prefetch:Prefetcher.observe", None),
    ("prefetch.read",
     "repro.core.retriever:IORetriever.prefetch_chunks", None),
    # formats: codec entry points, patched where the program calls them
    ("formats.decode", "repro.core.decompressor:decode_xtc",
     _nbytes_of_result),
    ("formats.decode", "repro.core.decompressor:decode_raw",
     _nbytes_of_result),
    ("formats.decode", "repro.core.decompressor:decode_frame_range",
     _nbytes_of_result),
    ("formats.encode", "repro.core.preprocessor:encode_xtc",
     _nbytes_of_first_arg),
    ("formats.encode", "repro.core.preprocessor:SUBSET_ENCODERS[raw]",
     _nbytes_of_first_arg),
    ("formats.encode", "repro.core.preprocessor:SUBSET_ENCODERS[xtc]",
     _nbytes_of_first_arg),
    # preprocessor (self time excludes the codec spans nested inside)
    ("preprocessor.run",
     "repro.core.preprocessor:DataPreProcessor.process_windows", None),
    ("preprocessor.run",
     "repro.core.preprocessor:DataPreProcessor.process_chunk", None),
    ("preprocessor.run",
     "repro.core.preprocessor:DataPreProcessor.process", None),
    ("preprocessor.run",
     "repro.core.preprocessor:DataPreProcessor.analyze_structure", None),
    # ingest pipeline, fused analysis, dispatcher
    ("ingest.run", "repro.core.ingest:IngestPipeline.run", None),
    ("analysis.consume", "repro.analysis.online:InSituAnalysis.consume",
     None),
    ("dispatcher.run", "repro.core.dispatcher:IODispatcher.dispatch", None),
    ("dispatcher.run",
     "repro.core.dispatcher:IODispatcher.dispatch_sequential", None),
    ("dispatcher.run", "repro.core.dispatcher:IODispatcher.dispatch_run",
     None),
    # middleware entry points and the merge step
    ("middleware.entry", "repro.core.middleware:ADA.ingest", None),
    ("middleware.entry", "repro.core.middleware:ADA.ingest_append", None),
    ("middleware.entry", "repro.core.middleware:ADA.ingest_stream", None),
    ("middleware.entry", "repro.core.middleware:ADA.fetch", None),
    ("middleware.entry", "repro.core.middleware:ADA.fetch_chunks", None),
    ("middleware.entry", "repro.core.middleware:ADA.fetch_all", None),
    ("middleware.entry", "repro.core.middleware:ADA.fetch_merged", None),
    ("middleware.merge",
     "repro.core.middleware:merge_decoded_subsets", None),
    ("middleware.merge", "repro.cluster.shard:merge_decoded_subsets", None),
    # vmd
    ("vmd.load", "repro.vmd.loader:TrajectoryLoader.load_subset", None),
    ("vmd.session", "repro.vmd.session:VMDSession.mol_addfile_tag", None),
    ("vmd.session", "repro.vmd.session:VMDSession.mol_addfile_all", None),
    # serve
    ("serve.submit", "repro.serve.front:ServeFront.submit", None),
    ("serve.session", "repro.serve.session:Session.fetch_chunks", None),
    ("serve.session", "repro.serve.session:Session.ingest_stream", None),
    ("serve.admit", "repro.serve.session:SessionManager.admit", None),
    ("serve.schedule", "repro.serve.scheduler:RequestScheduler.submit",
     None),
    # shard
    ("shard.entry", "repro.cluster.shard:ShardedADA.fetch_chunks", None),
    ("shard.entry", "repro.cluster.shard:ShardedADA.fetch", None),
    ("shard.entry", "repro.cluster.shard:ShardedADA.fetch_merged", None),
    ("shard.entry", "repro.cluster.shard:ShardedADA.ingest", None),
    ("shard.entry", "repro.cluster.shard:ShardedADA.ingest_append", None),
    ("shard.entry", "repro.cluster.shard:ShardedADA.ingest_stream", None),
    ("shard.route", "repro.cluster.shard:ShardedADA.holders", None),
    # faults
    ("faults.retry", "repro.faults.retry:Retrier.call", None),
    # sim: host time inside the event loop that no other span covers
    ("sim.run", "repro.sim.engine:Simulator.run", None),
]

#: Backend write that carries PLFS index rewrites; counted, not timed.
INDEX_WRITE = "repro.fs.localfs:LocalFS.write"


def _index_write_bytes(args, kwargs) -> float:
    path = args[1] if len(args) > 1 else kwargs.get("path", "")
    if not (isinstance(path, str) and path.endswith(".plfs/index")):
        return 0.0
    data = args[2] if len(args) > 2 else kwargs.get("data")
    return float(len(data)) if data is not None else 0.0


def _resolve(target: str):
    """``(owner, key, original)`` for an entry point; raises LookupError
    with a readable reason when it no longer exists."""
    module_name, _, path = target.partition(":")
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"module {module_name} not importable: {exc}")
    if path.endswith("]"):
        name, _, key = path[:-1].partition("[")
        table = getattr(module, name, None)
        if not isinstance(table, dict) or key not in table:
            raise LookupError(f"{module_name}.{name}[{key!r}] not found")
        return table, key, table[key]
    owner = module
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise LookupError(f"{module_name}.{part} not found")
    last = parts[-1]
    if inspect.isclass(owner):
        original = inspect.getattr_static(owner, last, None)
    else:
        original = getattr(owner, last, None)
    if original is None:
        raise LookupError(f"{target} not found")
    return owner, last, original


class LayerTracer:
    """Span stack, per-span aggregates and the patch set for one run."""

    def __init__(self):
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.units: Dict[str, float] = defaultdict(float)
        self.sim_s: Dict[str, float] = defaultdict(float)
        #: Operation id stamped on every span opened while it is set.
        self.op = 0
        #: op id -> span name -> self seconds.
        self.per_op: Dict[int, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        #: entry point -> reason it could not be wrapped.
        self.missing: Dict[str, str] = {}
        self._undo: List[Callable[[], None]] = []

    # -- span stack ---------------------------------------------------------

    def _push(self, name: str) -> None:
        self._stack.append([name, time.perf_counter(), 0.0])

    def _pop(self) -> None:
        name, start, child = self._stack.pop()
        duration = time.perf_counter() - start
        own = duration - child
        self.self_s[name] += own
        self.per_op[self.op][name] += own
        if self._stack:
            self._stack[-1][2] += duration

    # -- wrappers -----------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                tracer.calls[name] += 1
                gen = fn(*args, **kwargs)
                sim = getattr(args[0], "sim", None) if args else None
                return tracer._drive(name, gen, sim, hook, args, kwargs)

            return traced

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tracer.calls[name] += 1
            tracer._push(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop()
            if hook is not None:
                tracer.units[name] += hook(args, kwargs, result)
            return result

        return traced

    def _drive(self, name, gen, sim, hook, args, kwargs):
        """Forward every resume to ``gen``, timing each one as a span."""
        started = getattr(sim, "now", None)
        value, error = None, None
        while True:
            self._push(name)
            try:
                if error is None:
                    item = gen.send(value)
                else:
                    item = gen.throw(error)
            except StopIteration as stop:
                self._pop()
                if started is not None:
                    self.sim_s[name] += sim.now - started
                if hook is not None:
                    self.units[name] += hook(args, kwargs, stop.value)
                return stop.value
            except BaseException:
                self._pop()
                raise
            self._pop()
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into the process
                value, error = None, exc

    def _count_index_bytes(self, fn: Callable):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.units["plfs.index_write_bytes"] += _index_write_bytes(
                args, kwargs
            )
            return fn(*args, **kwargs)

        return counted

    # -- patch set ----------------------------------------------------------

    def _patch(self, target: str, make: Callable) -> None:
        try:
            owner, key, original = _resolve(target)
        except LookupError as exc:
            self.missing[target] = str(exc)
            return
        if isinstance(owner, dict):
            owner[key] = make(original)
            self._undo.append(lambda: owner.__setitem__(key, original))
            return
        setattr(owner, key, make(original))
        self._undo.append(lambda: setattr(owner, key, original))

    def install(self) -> "LayerTracer":
        for name, target, hook in SPANS:
            self._patch(target, lambda fn, n=name, h=hook: self._wrap(n, fn, h))
        self._patch(INDEX_WRITE, self._count_index_bytes)
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- aggregates ---------------------------------------------------------

    def layer_self_s(self) -> Dict[str, float]:
        out: Dict[str, float] = defaultdict(float)
        for name, seconds in self.self_s.items():
            out[name.split(".")[0]] += seconds
        return dict(out)

    def layer_calls(self) -> Dict[str, int]:
        out: Dict[str, int] = defaultdict(int)
        for name, count in self.calls.items():
            out[name.split(".")[0]] += count
        return dict(out)

    def layer_op_median_s(self) -> Dict[str, float]:
        """Median over operations of each layer's self time per operation."""
        ops = list(self.per_op.values())
        layers = {name.split(".")[0] for op in ops for name in op}
        return {
            layer: statistics.median(
                sum(v for n, v in op.items() if n.split(".")[0] == layer)
                for op in ops
            )
            for layer in layers
        }

    def missing_layers(self) -> Dict[str, List[str]]:
        """layer -> reasons, for entry points that could not be wrapped."""
        by_target = {target: name for name, target, _ in SPANS}
        by_target[INDEX_WRITE] = "plfs.index_write_bytes"
        out: Dict[str, List[str]] = defaultdict(list)
        for target, reason in self.missing.items():
            out[by_target[target].split(".")[0]].append(reason)
        return dict(out)
