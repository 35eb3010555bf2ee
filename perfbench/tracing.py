"""Outside-in layer attribution for the benchmark.

The program carries no tracing of its own.  :class:`Tracer` wraps the
public functions at each layer boundary with spans, from this directory:
installing it swaps the wrapped attributes in place, removing it restores
the originals, so an untraced run executes the unmodified program.

A span records its name, start, duration and depth.  A layer's *self time*
is its span's duration minus the time covered by its child spans, so the
self times of all spans plus the residual (wall time covered by no span)
add up to the traced wall time.  Spans are aggregated per name as they
close; the raw spans are kept in memory, up to a cap, and written out when
the benchmark ends.

:class:`RoundCounters` is separate and also active in untraced runs: one
hook per execution round (``ExecutionEngine.collect_stats``) that sums the
program's own deterministic round statistics.  :class:`GcMonitor` accounts
the cyclic collector's work through ``gc.callbacks``.
"""

from __future__ import annotations

import gc
import importlib
import inspect
import json
import time
import weakref
from typing import Any, Callable, Dict, List, Optional, Tuple

#: (module, owner class or None for a module-level name, attribute, span
#: name, count_only).  A count-only target records calls but no span, so
#: its time stays in the caller's self time; used for the per-launch hot
#: spots that are called too often to time individually.
TARGETS: Tuple[Tuple[str, Optional[str], str, str, bool], ...] = (
    ("repro.core.api", None, "compile_module", "compiler.compile", False),
    ("repro.engine.engine", "ExecutionEngine", "run", "engine.run", False),
    ("repro.engine.engine", None, "materialize_value", "engine.materialize", False),
    ("repro.serve.session", None, "materialize_value", "engine.materialize", False),
    ("repro.runtime.executor", "AcrobatRuntime", "invoke", "runtime.invoke", False),
    ("repro.runtime.executor", "AcrobatRuntime", "trigger", "runtime.trigger", False),
    ("repro.runtime.scheduler", "InlineDepthScheduler", "schedule", "runtime.schedule", False),
    ("repro.runtime.scheduler", "DynamicDepthScheduler", "schedule", "runtime.schedule", False),
    ("repro.runtime.scheduler", "AgendaScheduler", "schedule", "runtime.schedule", False),
    ("repro.runtime.scheduler", "NoBatchScheduler", "schedule", "runtime.schedule", False),
    ("repro.runtime.fibers", "FiberScheduler", "run", "runtime.fibers", False),
    ("repro.runtime.device", "DeviceSimulator", "launch", "runtime.device.launch", False),
    ("repro.memory.planner", "MemoryPlanner", "plan_round", "memory.plan_round", False),
    ("repro.memory.planner", "MemoryPlanner", "plan_round_staged", "memory.plan_round", False),
    ("repro.memory.planner", "MemoryPlanner", "resolve", "memory.resolve", False),
    ("repro.memory.planner", "MemoryPlanner", "commit", "memory.commit", False),
    ("repro.kernels.batched", "BlockKernel", "execute_batched", "kernels.execute", False),
    ("repro.kernels.block", "StaticBlock", "consumers", "kernels.consumers", True),
    ("repro.kernels.registry", "OpDef", "estimate_flops", "kernels.estimate_flops", True),
    ("repro.specialize.entry", "SpecializedEntry", "try_resolve", "specialize.try_resolve", False),
    ("repro.specialize.entry", "SpecializedEntry", "execute", "specialize.execute", False),
    ("repro.specialize.entry", "SpecializedEntry", "commit", "specialize.commit", False),
    ("repro.serve.session", "InferenceSession", "submit", "serve.submit", False),
    ("repro.serve.session", "InferenceSession", "flush", "serve.flush", False),
    ("repro.serve.server", None, "run_topology_trace", "serve.event_loop", False),
    ("repro.generate.session", "GenerationSession", "generate", "generate.event_loop", False),
)

#: raw spans kept per run; aggregation continues past the cap
SPAN_CAP = 200_000


class Tracer:
    """Span recorder over :data:`TARGETS`."""

    def __init__(self) -> None:
        #: name -> [calls, total_s, self_s]
        self.stats: Dict[str, List[float]] = {}
        #: raw spans: (name, start_s, duration_s, depth)
        self.spans: List[Tuple[str, float, float, int]] = []
        self.spans_dropped = 0
        #: wall time covered by depth-0 spans
        self.root_s = 0.0
        self._stack: List[float] = []
        self._saved: List[Tuple[Any, str, Any]] = []

    # -- install / remove ------------------------------------------------------
    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, owner_name, attr, span, count_only in TARGETS:
            module = importlib.import_module(module_name)
            owner = getattr(module, owner_name) if owner_name else module
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, (staticmethod, classmethod)):
                raise TypeError(f"cannot wrap {owner_name}.{attr}: not a plain function")
            wrapper = self._counter(original, span) if count_only else self._span(original, span)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrapper)

    def remove(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- wrappers --------------------------------------------------------------
    def _record(self, name: str) -> List[float]:
        rec = self.stats.get(name)
        if rec is None:
            rec = self.stats[name] = [0, 0.0, 0.0]
        return rec

    def _counter(self, fn: Callable, name: str) -> Callable:
        rec = self._record(name)

        def counted(*args, **kwargs):
            rec[0] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn: Callable, name: str) -> Callable:
        rec = self._record(name)
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                child = stack.pop()
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - child
                if stack:
                    stack[-1] += dur
                else:
                    self.root_s += dur
                if len(spans) < SPAN_CAP:
                    spans.append((name, start, dur, len(stack)))
                else:
                    self.spans_dropped += 1

        return traced

    # -- results ---------------------------------------------------------------
    def reset(self) -> None:
        for rec in self.stats.values():
            rec[0], rec[1], rec[2] = 0, 0.0, 0.0
        self.spans.clear()
        self.spans_dropped = 0
        self.root_s = 0.0

    def calls(self, name: str) -> int:
        return int(self.stats.get(name, (0,))[0])

    def self_ms(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[2] * 1e3 if rec else 0.0

    def total_ms(self, name: str) -> float:
        rec = self.stats.get(name)
        return rec[1] * 1e3 if rec else 0.0

    def snapshot(self) -> Dict[str, Dict[str, float]]:
        return {
            name: {"calls": int(c), "total_ms": t * 1e3, "self_ms": s * 1e3}
            for name, (c, t, s) in sorted(self.stats.items())
        }

    def write(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the aggregated table and the raw spans (Chrome trace-event
        "complete" events, microseconds relative to the first span)."""
        t0 = min((s[1] for s in self.spans), default=0.0)
        events = [
            {"name": n, "ph": "X", "pid": 0, "tid": 0,
             "ts": (start - t0) * 1e6, "dur": dur * 1e6, "args": {"depth": depth}}
            for n, start, dur, depth in self.spans
        ]
        with open(path, "w") as fh:
            json.dump(
                {"meta": meta, "layers": self.snapshot(),
                 "spans_dropped": self.spans_dropped, "traceEvents": events},
                fh,
            )


class RoundCounters:
    """Sums the program's deterministic per-round statistics.

    Hooks ``ExecutionEngine.collect_stats``, which every execution round
    calls once (``CompiledModel.run`` once per mini-batch, a serving session
    once per flushed round).  Plan-cache and specializer totals are
    cumulative per engine in the returned stats, so they are summed as
    per-engine deltas.
    """

    FIELDS = (
        "rounds", "dfg_nodes", "batches", "sync_rounds", "launches", "gathers",
        "memcpys", "device_us", "api_us", "plan_cache_hits", "plan_cache_misses",
        "contiguous", "gather_operands", "fused_gather", "spec_hits",
        "spec_misses", "spec_promotions",
    )

    def __init__(self) -> None:
        self.totals: Dict[str, float] = dict.fromkeys(self.FIELDS, 0)
        self._last: "weakref.WeakKeyDictionary" = weakref.WeakKeyDictionary()
        self._saved: Optional[Tuple[Any, Any]] = None

    def install(self) -> None:
        from repro.engine.engine import ExecutionEngine

        original = ExecutionEngine.collect_stats
        counters = self

        def collect_stats(engine, batch_size, wall_s):
            stats = original(engine, batch_size, wall_s)
            counters._add(engine, stats)
            return stats

        self._saved = (ExecutionEngine, original)
        ExecutionEngine.collect_stats = collect_stats

    def remove(self) -> None:
        if self._saved is not None:
            owner, original = self._saved
            owner.collect_stats = original
            self._saved = None

    def _add(self, engine: Any, stats: Any) -> None:
        t = self.totals
        dev, mem, spec = stats.device, stats.memory, stats.specialize
        t["rounds"] += 1
        t["dfg_nodes"] += stats.num_dfg_nodes
        t["batches"] += stats.num_batches
        t["sync_rounds"] += stats.sync_rounds
        t["launches"] += dev.get("num_kernel_launches", 0)
        t["gathers"] += dev.get("num_gather_launches", 0)
        t["memcpys"] += dev.get("num_memcpy", 0)
        t["device_us"] += stats.device_total_ms * 1e3
        t["api_us"] += dev.get("api_time_us", 0.0)
        t["contiguous"] += mem.get("contiguous", 0)
        t["gather_operands"] += mem.get("gather", 0)
        t["fused_gather"] += mem.get("fused_gather", 0)
        cumulative = {
            "plan_cache_hits": mem.get("plan_cache_hits", 0),
            "plan_cache_misses": mem.get("plan_cache_misses", 0),
            "spec_hits": spec.get("hits", 0),
            "spec_misses": spec.get("misses", 0),
            "spec_promotions": spec.get("promotions", 0),
        }
        last = self._last.get(engine, {})
        for key, value in cumulative.items():
            t[key] += value - last.get(key, 0)
        self._last[engine] = cumulative

    def take(self) -> Dict[str, float]:
        """Return the totals since the last call and start over."""
        out, self.totals = self.totals, dict.fromkeys(self.FIELDS, 0)
        return out


class GcMonitor:
    """Cyclic-collector accounting through ``gc.callbacks``: collections by
    generation and pause time."""

    def __init__(self) -> None:
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        self._start: Optional[float] = None

    def _callback(self, phase: str, info: Dict[str, Any]) -> None:
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.pause_s += time.perf_counter() - self._start
            self.collections[info["generation"]] += 1
            self._start = None

    def install(self) -> None:
        gc.callbacks.append(self._callback)

    def remove(self) -> None:
        if self._callback in gc.callbacks:
            gc.callbacks.remove(self._callback)

    def take(self) -> Dict[str, Any]:
        out = {"collections": list(self.collections), "pause_ms": self.pause_s * 1e3}
        self.collections = [0, 0, 0]
        self.pause_s = 0.0
        return out
