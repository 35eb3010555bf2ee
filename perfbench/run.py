"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload offline_suite --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: with ``--trace 0``
the end-to-end metrics of an untraced run, with ``--trace 1`` the per-layer
metrics of a traced run.  The line before it is a JSON object of details
(per-cell figures, deterministic counters, collector accounting).  A traced
run also writes its spans to ``.perfbench/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: the minimum repetitions per run: the second one proves the first repeats
MIN_UNITS = 2

#: spans (``tracing.TARGETS``) reported by self time, and by call count
SELF_MS_SPANS = (
    "engine.run", "engine.materialize", "runtime.invoke", "runtime.trigger",
    "runtime.schedule", "runtime.fibers", "runtime.device.launch", "memory.plan_round",
    "memory.resolve", "memory.commit", "kernels.execute", "specialize.try_resolve",
    "specialize.execute", "specialize.commit", "serve.submit", "serve.flush",
    "serve.event_loop", "generate.event_loop",
)
CALLS_SPANS = (
    "runtime.invoke", "runtime.trigger", "kernels.execute", "kernels.consumers",
    "kernels.estimate_flops",
)
#: per-layer figures a workload reads from the program's public statistics;
#: 0 on workloads that do not reach the layer
WORKLOAD_LAYER_METRICS = (
    "serve.rounds", "serve.round_size_mean", "serve.queue_wait_p50_ms",
    "serve.prepare.adopted", "serve.prepare.abandoned", "generate.rounds",
    "generate.round_size_mean", "generate.inter_step_p99_ms",
)


class _Elapsed:
    s = 0.0


class Meter:
    """Times the program's own calls.  Inside a timed window the collector
    stays on (users pay for it) and its work is accounted; with a tracer,
    the spans are installed for exactly the timed windows."""

    def __init__(self, gc_monitor, tracer=None) -> None:
        self.gc_monitor = gc_monitor
        self.tracer = tracer
        self.gc_collections = [0, 0, 0]
        self.gc_pause_ms = 0.0

    @contextlib.contextmanager
    def timed(self):
        elapsed = _Elapsed()
        self.gc_monitor.take()
        if self.tracer is not None:
            self.tracer.install()
        start = time.perf_counter()
        try:
            yield elapsed
        finally:
            elapsed.s = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.remove()
            g = self.gc_monitor.take()
            self.gc_collections = [a + b for a, b in zip(self.gc_collections, g["collections"])]
            self.gc_pause_ms += g["pause_ms"]


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_unit(workload, meter, summary: Dict[str, Any]):
    """One repetition, preceded by a full collection so that every
    repetition starts from the same collector state."""
    gc.collect()
    unit = workload.unit(meter)
    summary["attempted"] += unit.attempted
    summary["failed"] += unit.failed
    summary["wrong"] += unit.wrong
    if not workload.check_repeat(unit):
        summary["repeat_ok"] = False
    return unit


def _setup(workload, reps: int, tracer=None) -> List[float]:
    times = []
    for _ in range(reps):
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            times.append(workload.setup(time.perf_counter))
        finally:
            if tracer is not None:
                tracer.remove()
    return times


def _freeze() -> None:
    """Move everything alive after set-up (inputs, expected outputs,
    compiled models) out of the collector's reach, so that collections in
    the timed windows scan only what the repetitions allocate."""
    gc.collect()
    gc.freeze()


def run_timed(workload, seconds: float, gc_monitor) -> Tuple[Dict, Dict, Dict]:
    workload.make_inputs()
    setups = _setup(workload, workload.setup_reps)
    workload.reference()
    _freeze()
    meter = Meter(gc_monitor)
    summary = {"attempted": 0, "failed": 0, "wrong": 0, "repeat_ok": True}
    units = []
    deadline = time.perf_counter() + seconds
    while len(units) < MIN_UNITS or time.perf_counter() < deadline:
        units.append(_run_unit(workload, meter, summary))
    metrics = {"setup_s": statistics.median(setups), "peak_rss_mb": _peak_rss_mb()}
    metrics.update(workload.end_to_end(units))
    detail = {
        "workload": workload.name,
        "units": len(units),
        "setup_s_all": setups,
        "unit_wall_s": [u.wall_s for u in units],
        "gc_collections_by_generation": meter.gc_collections,
        "gc_pause_ms": meter.gc_pause_ms,
        "repeat_ok": summary["repeat_ok"],
        "wrong_outputs": summary["wrong"],
        "workload_detail": workload.detail(units),
    }
    return summary, metrics, detail


def run_traced(workload, seconds: float, gc_monitor, seed: int) -> Tuple[Dict, Dict, Dict]:
    from tracing import Tracer

    tracer = Tracer()
    workload.make_inputs()
    _setup(workload, 1, tracer)
    compile_ms = tracer.total_ms("compiler.compile")
    tracer.reset()
    workload.reference()
    _freeze()
    plain, traced = Meter(gc_monitor), Meter(gc_monitor, tracer)
    summary = {"attempted": 0, "failed": 0, "wrong": 0, "repeat_ok": True}
    plain_units, traced_units = [], []
    deadline = time.perf_counter() + seconds
    while not traced_units or time.perf_counter() < deadline:
        plain_units.append(_run_unit(workload, plain, summary))
        traced_units.append(_run_unit(workload, traced, summary))
    n = len(traced_units)
    traced_wall_ms = sum(u.wall_s for u in traced_units) * 1e3 / n
    plain_wall_ms = sum(u.wall_s for u in plain_units) * 1e3 / len(plain_units)
    layer = traced_units[0].layer
    c = layer["counters"]

    def ratio(hits: float, misses: float) -> float:
        return hits / (hits + misses) if hits + misses else 0.0

    metrics = {
        "compiler.compile_ms": compile_ms,
        "compiler.kernels_built": workload.kernels_built(),
        "runtime.schedule.batches": c["batches"],
        "runtime.device.launches": c["launches"],
        "runtime.device.gathers": c["gathers"],
        "runtime.device.busy_ms": c["device_us"] / 1e3,
        "memory.plan_cache.hits": c["plan_cache_hits"],
        "memory.plan_cache.misses": c["plan_cache_misses"],
        "memory.plan_cache.hit_ratio": ratio(c["plan_cache_hits"], c["plan_cache_misses"]),
        "memory.operands.contiguous": c["contiguous"],
        "memory.operands.gather": c["gather_operands"],
        "memory.operands.fused_gather": c["fused_gather"],
        "specialize.hits": c["spec_hits"],
        "specialize.promotions": c["spec_promotions"],
        "specialize.hit_ratio": ratio(c["spec_hits"], c["spec_misses"]),
        "python.gc.collections": sum(traced.gc_collections) / n,
        "python.gc.pause_ms": traced.gc_pause_ms / n,
        "trace.wall_ms": traced_wall_ms,
        "trace.residual_ms": traced_wall_ms - tracer.root_s * 1e3 / n,
        "trace.overhead_ms": traced_wall_ms - plain_wall_ms,
    }
    metrics.update({f"{span}.self_ms": tracer.self_ms(span) / n for span in SELF_MS_SPANS})
    metrics.update({f"{span}.calls": tracer.calls(span) / n for span in CALLS_SPANS})
    metrics.update({name: layer.get(name, 0.0) for name in WORKLOAD_LAYER_METRICS})
    detail = {
        "workload": workload.name,
        "traced_units": n,
        "untraced_wall_ms": plain_wall_ms,
        # self times partition the time under root spans by construction
        "self_ms_sum": sum(tracer.self_ms(name) for name in tracer.stats) / n,
        "gc_collections_by_generation": traced.gc_collections,
        "layers_per_unit": {
            name: {k: v / n for k, v in rec.items()} for name, rec in tracer.snapshot().items()
        },
        "repeat_ok": summary["repeat_ok"],
        "wrong_outputs": summary["wrong"],
    }
    out_dir = os.path.join(ROOT, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tracer.write(
        os.path.join(out_dir, f"trace-{workload.name}-seed{seed}.json"),
        {"workload": workload.name, "seed": seed, "traced_units": n},
    )
    return summary, metrics, detail


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        # never fall back to an installed copy: the checkout is what is measured
        print(f"the program is missing: no {os.path.join(src, 'repro')}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    sys.path.insert(0, HERE)
    from tracing import GcMonitor, RoundCounters
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")

    counters, gc_monitor = RoundCounters(), GcMonitor()
    counters.install()
    gc_monitor.install()
    try:
        workload = WORKLOADS[args.workload](args.seed, counters)
        if args.trace:
            summary, metrics, detail = run_traced(workload, args.seconds, gc_monitor, args.seed)
        else:
            summary, metrics, detail = run_timed(workload, args.seconds, gc_monitor)
    except Exception:
        traceback.print_exc()
        return 1
    finally:
        gc_monitor.remove()
        counters.remove()

    units = _units("per_layer" if args.trace else "end_to_end")
    if set(metrics) != set(units):
        print(f"metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json", file=sys.stderr)
        return 1
    print(json.dumps(detail, default=float))
    print(json.dumps({
        "correct": summary["repeat_ok"] and summary["wrong"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {
            name: {"value": float(value), "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0


def _units(kind: str) -> Dict[str, str]:
    """Metric name -> unit of one kind of metric in ``BENCHMARK.json``."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


if __name__ == "__main__":
    sys.exit(main())
