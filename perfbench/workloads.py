"""The benchmark's two workloads and the two parts of ``online``.

Each workload drives the program only through its public API and follows
one life cycle, run by :mod:`run`:

* ``make_inputs()`` draws every input from the seed (untimed);
* ``setup()`` builds and compiles every model and warms up (timed as
  ``setup_s``; repeated, the median is reported);
* ``reference()`` computes the expected outputs with the unbatched eager
  interpreter (untimed);
* ``unit(meter)`` runs one repetition of the same operations, timing only
  the program's own calls through ``meter``, checks every output and
  returns a :class:`Unit`.

A repetition is a pass over all cells (``offline_suite``), or one replay
of the request trace (part ``serve_trees``) followed by one generation of
every sequence of both decoder cells (part ``decode``) in ``online``.
Every repetition of a run repeats the same operations, so its simulated
results and deterministic counters must be identical, which
:meth:`Workload.check_repeat` asserts.
"""

from __future__ import annotations

import copy
import gc
import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import CompilerOptions, Server, SimulatedClock, compile_model, reference_run
from repro.data.trees import random_treebank
from repro.generate import GenerationRequest, GenerationSession, reference_generate
from repro.models import MODEL_MODULES
from repro.serve.traffic import poisson_arrivals
from repro.utils import values_allclose

#: the paper's seven models (Table 3)
PAPER_MODELS = ("treelstm", "mvrnn", "birnn", "nestedrnn", "drnn", "berxit", "stackrnn")

#: model parameters are part of the program under test, not of the input:
#: fixed across seeds
PARAM_SEED = 0


@dataclass
class Unit:
    """One repetition's results."""

    #: operations attempted and failed
    attempted: int
    #: operations that did not complete or returned a wrong output
    failed: int
    #: of those, operations that completed with a wrong output
    wrong: int
    #: wall seconds of the program's own calls
    wall_s: float
    #: operations the host cost is divided by (mini-batches, requests,
    #: generated tokens)
    work: int
    #: everything simulated or counted, which must repeat bit-for-bit
    repeat: Dict[str, Any]
    #: per-cell wall seconds (offline_suite only)
    cell_wall_s: List[float] = field(default_factory=list)
    #: per-layer quantities read from the program's public statistics
    layer: Dict[str, float] = field(default_factory=dict)
    #: the parts' own units (online only)
    parts: List["Unit"] = field(default_factory=list)


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated percentile (NumPy's default)."""
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def geomean(values: Sequence[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def run_ms_per_op(units: Sequence["Unit"]) -> float:
    """Wall ms per operation over the whole run: the repetitions' total
    wall time over their total work.  On a shared host the speed of
    identical work switches between levels up to 1.5x apart and stays at
    one for seconds to a minute; the total integrates those levels across
    the run, where a median of the few repetitions lands on whichever level
    the middle one ran at.  Each repetition lasts seconds, so a single
    stall is diluted in its total."""
    return sum(u.wall_s for u in units) / sum(u.work for u in units) * 1e3


class Workload:
    name = ""
    #: timed setups per run; the median is reported
    setup_reps = 5

    def __init__(self, seed: int, counters: Any) -> None:
        self.seed = seed
        #: the run's :class:`tracing.RoundCounters`
        self.counters = counters
        self._first_repeat: Optional[Dict[str, Any]] = None

    def check_repeat(self, unit: Unit) -> bool:
        """Whether ``unit`` reproduced the first repetition's simulated
        results and counters exactly."""
        if self._first_repeat is None:
            self._first_repeat = unit.repeat
            return True
        return unit.repeat == self._first_repeat

    def kernels_built(self) -> int:
        return sum(len(cm.kernel_names()) for cm in self.compiled())

    def compiled(self) -> List[Any]:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# offline_suite
# ---------------------------------------------------------------------------


class OfflineSuite(Workload):
    """The paper's seven models as offline mini-batches through
    ``CompiledModel.run``: two widths x two batch sizes each."""

    name = "offline_suite"
    widths = ("small", "test")
    batch_sizes = (8, 64)

    def make_inputs(self) -> None:
        #: one seed per (model, width, batch size) cell
        rng = np.random.default_rng(self.seed)
        self.cells = [
            (model, width, b, int(rng.integers(2**31)))
            for model in PAPER_MODELS
            for width in self.widths
            for b in self.batch_sizes
        ]

    def setup(self, clock) -> float:
        spent = 0.0
        self.models: Dict[Tuple[str, str], Any] = {}
        self.instances: List[List[Any]] = []
        for model, width, b, cell_seed in self.cells:
            module = MODEL_MODULES[model]
            key = (model, width)
            if key not in self.models:
                start = clock()
                mod, params, size = module.build_for(width, seed=PARAM_SEED)
                compiled = compile_model(mod, params, CompilerOptions())
                spent += clock() - start
                self.models[key] = (mod, params, size, compiled)
            mod, params, size, compiled = self.models[key]
            insts = module.make_batch(mod, size, b, seed=cell_seed)
            self.instances.append(insts)
            if b == self.batch_sizes[0]:
                # warm-up: one mini-batch per compiled model
                start = clock()
                compiled.run(insts)
                spent += clock() - start
        return spent

    def compiled(self) -> List[Any]:
        return [m[3] for m in self.models.values()]

    def reference(self) -> None:
        self.expected = []
        for (model, width, _, _), insts in zip(self.cells, self.instances):
            mod, params, _, _ = self.models[(model, width)]
            self.expected.append(reference_run(mod, params, insts))

    def unit(self, meter) -> Unit:
        failed = wrong = 0
        cell_wall: List[float] = []
        cell_sim: List[float] = []
        cell_counts: List[Dict[str, float]] = []
        self.counters.take()
        for (model, width, _, _), insts, expected in zip(
            self.cells, self.instances, self.expected
        ):
            compiled = self.models[(model, width)][3]
            # every operation starts from the same collector state, so a
            # collection is charged to the mini-batch whose garbage caused it
            gc.collect()
            with meter.timed() as t:
                outputs, stats = compiled.run(insts)
            cell_wall.append(t.s)
            cell_sim.append(stats.device_total_ms + stats.api_time_ms)
            cell_counts.append(self.counters.take())
            if len(outputs) != len(expected) or not all(
                values_allclose(a, b) for a, b in zip(outputs, expected)
            ):
                failed += 1
                wrong += 1
        totals = {k: sum(c[k] for c in cell_counts) for k in cell_counts[0]}
        return Unit(
            attempted=len(self.cells),
            failed=failed,
            wrong=wrong,
            wall_s=sum(cell_wall),
            work=len(self.cells),
            repeat={"sim_ms": cell_sim, "counters": cell_counts},
            cell_wall_s=cell_wall,
            layer={"counters": totals},
        )

    def end_to_end(self, units: List[Unit]) -> Dict[str, float]:
        n_cells = len(self.cells)
        cell_mean_ms = [
            statistics.fmean(u.cell_wall_s[i] for u in units) * 1e3 for i in range(n_cells)
        ]
        sim = units[0].repeat["sim_ms"]
        # every instance of a mini-batch completes with its mini-batch: the
        # per-instance latency sample is the mini-batch's simulated latency
        per_instance = [ms for (_, _, b, _), ms in zip(self.cells, sim) for _ in range(b)]
        return {
            "host_ms_per_op": geomean(cell_mean_ms),
            "sim_device_ms": geomean(sim),
            "sim_p50_ms": percentile(per_instance, 50),
            "sim_p99_ms": percentile(per_instance, 99),
        }

    def detail(self, units: List[Unit]) -> Dict[str, Any]:
        sim = units[0].repeat["sim_ms"]
        out = {}
        for i, (model, width, b, _) in enumerate(self.cells):
            counts = units[0].repeat["counters"][i]
            out[f"{model}/{width}/b{b}"] = {
                "wall_ms_mean": statistics.fmean(u.cell_wall_s[i] for u in units) * 1e3,
                "sim_device_ms": sim[i],
                "launches": counts["launches"],
                "batches": counts["batches"],
            }
        return out


# ---------------------------------------------------------------------------
# serve_trees
# ---------------------------------------------------------------------------


class ServeTrees(Workload):
    """Open-loop Poisson arrivals of TreeLSTM requests through a
    single-endpoint ``Server`` on a ``SimulatedClock``: continuous batching
    (``adaptive`` flush policy) with the prepare pipeline on, replayed with
    ``Server.run_trace``.  Every request is a distinct random tree, so most
    launches miss the specializer and the generic kernel path does the
    work.

    Requests copy their content from a seeded pool of trees, each entry
    used equally often (so the eager reference runs once per pool entry);
    every request gets its own arrays, so no two requests share an input
    object.
    """

    name = "serve_trees"
    model = "treelstm"
    width = "test"
    #: leaves per tree, drawn uniformly
    leaves = (2, 8)
    #: the p99 tail comes from the deepest trees, so it needs many distinct
    #: ones: a smaller pool, or fewer requests, would let a few draws set it
    requests = 2400
    pool = 2400
    rate_rps = 450.0
    #: requests of the warm-up replay in setup
    warm = 100
    #: deterministic host-cost model (ms per round, ms per request) that
    #: charges the simulated clock, as in ``repro.experiments.continuous``
    host_model = (2.0, 0.75)
    policy = "adaptive"

    def make_raw_pool(self, rng, size) -> List[Any]:
        lengths = [int(n) for n in rng.integers(self.leaves[0], self.leaves[1] + 1, self.pool)]
        return random_treebank(self.pool, size.embed, seed=int(rng.integers(2**31)), lengths=lengths)

    def copy_raw(self, raw: Any) -> Any:
        return copy.deepcopy(raw)

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.size = MODEL_MODULES[self.model].build_for(self.width, seed=PARAM_SEED)[2]
        self.raw_pool = self.make_raw_pool(rng, self.size)
        self.picks = [int(k) % self.pool for k in rng.permutation(self.requests)]
        self.arrivals = poisson_arrivals(
            self.rate_rps, self.requests, seed=int(rng.integers(2**31))
        )

    def _trace(self, mod, n: int) -> List[Tuple[float, str, Any]]:
        module = MODEL_MODULES[self.model]
        return [
            (self.arrivals[i], "ep", module.instance_input(mod, self.copy_raw(self.raw_pool[self.picks[i]])))
            for i in range(n)
        ]

    def _replay(self, trace) -> Tuple[Any, List[Any]]:
        server = Server(clock=SimulatedClock(), prepare=True)
        endpoint = server.add_endpoint("ep", self.compiled_model, policy=self.policy)
        handles = server.run_trace(trace, deterministic=True, host_model=self.host_model)["ep"]
        return endpoint, handles

    def setup(self, clock) -> float:
        module = MODEL_MODULES[self.model]
        start = clock()
        mod, params, _ = module.build_for(self.width, seed=PARAM_SEED)
        self.compiled_model = compile_model(mod, params, CompilerOptions())
        spent = clock() - start
        warm = self._trace(mod, self.warm)
        start = clock()
        self._replay(warm)
        spent += clock() - start
        self.mod, self.params = mod, params
        return spent

    def compiled(self) -> List[Any]:
        return [self.compiled_model]

    def reference(self) -> None:
        module = MODEL_MODULES[self.model]
        pool = [module.instance_input(self.mod, raw) for raw in self.raw_pool]
        self.expected = reference_run(self.mod, self.params, pool)
        self.trace = self._trace(self.mod, self.requests)

    def unit(self, meter) -> Unit:
        self.counters.take()
        with meter.timed() as t:
            endpoint, handles = self._replay(self.trace)
        counts = self.counters.take()
        failed = wrong = 0
        latencies = []
        for h, pick, arrival in zip(handles, self.picks, self.arrivals):
            if not h.done or h.failed:
                failed += 1
                continue
            if not values_allclose(h.result(), self.expected[pick]):
                failed += 1
                wrong += 1
                continue
            latencies.append((h.stats.completed_at - arrival) * 1e3)
        failed += len(self.trace) - len(handles)
        session = endpoint.session
        summary = endpoint.summary()
        layer = {
            "counters": counts,
            "serve.rounds": session.num_flushes,
            "serve.round_size_mean": session.requests_flushed / max(1, session.num_flushes),
            "serve.queue_wait_p50_ms": statistics.median(h.stats.queue_ms for h in handles),
            "serve.prepare.adopted": summary["speculation_hits"],
            "serve.prepare.abandoned": summary["speculation_aborts"],
        }
        return Unit(
            attempted=len(self.trace),
            failed=failed,
            wrong=wrong,
            wall_s=t.s,
            work=len(self.trace),
            repeat={"latencies": latencies, "counters": counts,
                    "rounds": session.num_flushes},
            layer=layer,
        )

    def end_to_end(self, units: List[Unit]) -> Dict[str, float]:
        first = units[0]
        lat = first.repeat["latencies"]
        counts = first.repeat["counters"]
        return {
            "host_ms_per_op": run_ms_per_op(units),
            "sim_device_ms": (counts["device_us"] + counts["api_us"]) / 1e3 / first.work,
            "sim_p50_ms": percentile(lat, 50),
            "sim_p99_ms": percentile(lat, 99),
        }

    def detail(self, units: List[Unit]) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "rate_rps": self.rate_rps,
            "replay_wall_s": [u.wall_s for u in units],
            "rounds": units[0].repeat["rounds"],
            "counters": units[0].repeat["counters"],
        }


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


class Decode(Workload):
    """Autoregressive generation on the tanh-RNN and GRU decoder cells
    through ``GenerationSession.generate``: every live sequence re-enters
    the round former once per token."""

    name = "decode"
    cells = ("declm", "declm_gru")
    width = "test"
    sequences = 1200
    max_new_tokens = 4
    #: distinct prompts per cell, lengths 1-4
    prompts = 64
    rate_rps = 300.0
    warm = 100
    #: as in ``repro.experiments.generation``
    host_model = (0.2, 0.05)

    def make_inputs(self) -> None:
        rng = np.random.default_rng(self.seed)
        self.specs: Dict[str, List[Tuple[float, Tuple[int, ...]]]] = {}
        for cell in self.cells:
            vocab = MODEL_MODULES[cell].build_for(self.width, seed=PARAM_SEED)[2].classes
            pool = [
                tuple(int(t) for t in rng.integers(0, vocab, int(rng.integers(1, 5))))
                for _ in range(self.prompts)
            ]
            gaps = rng.exponential(1.0 / self.rate_rps, self.sequences)
            arrivals = np.cumsum(gaps)
            self.specs[cell] = [
                (float(a), pool[int(k)])
                for a, k in zip(arrivals, rng.integers(0, self.prompts, self.sequences))
            ]

    def _requests(self, cell: str, n: int) -> List[GenerationRequest]:
        # fresh request objects per generation: handles are single-use
        return [
            GenerationRequest(list(prompt), max_new_tokens=self.max_new_tokens, arrival=at)
            for at, prompt in self.specs[cell][:n]
        ]

    def _generate(self, cell: str, requests) -> Tuple[Any, List[Any]]:
        _, _, size, compiled = self.models[cell]
        session = compiled.serve("adaptive", clock=SimulatedClock())
        gen = GenerationSession(session, MODEL_MODULES[cell], size)
        handles = gen.generate(requests, host_model=self.host_model, prepare=True)
        return session, handles

    def setup(self, clock) -> float:
        spent = 0.0
        self.models: Dict[str, Any] = {}
        for cell in self.cells:
            start = clock()
            mod, params, size = MODEL_MODULES[cell].build_for(self.width, seed=PARAM_SEED)
            self.models[cell] = (mod, params, size, compile_model(mod, params, CompilerOptions()))
            spent += clock() - start
            warm = self._requests(cell, self.warm)
            start = clock()
            self._generate(cell, warm)
            spent += clock() - start
        return spent

    def compiled(self) -> List[Any]:
        return [m[3] for m in self.models.values()]

    def reference(self) -> None:
        self.expected: Dict[Tuple[str, Tuple[int, ...]], List[int]] = {}
        for cell in self.cells:
            mod, params, size, _ = self.models[cell]
            for _, prompt in self.specs[cell]:
                key = (cell, prompt)
                if key not in self.expected:
                    self.expected[key] = reference_generate(
                        mod, params, MODEL_MODULES[cell], size, list(prompt), self.max_new_tokens
                    )

    def unit(self, meter) -> Unit:
        self.counters.take()
        failed = wrong = tokens = 0
        wall = 0.0
        ttfs: List[float] = []
        gaps: List[float] = []
        rounds = flushed = 0
        for cell in self.cells:
            requests = self._requests(cell, self.sequences)
            with meter.timed() as t:
                session, handles = self._generate(cell, requests)
            wall += t.s
            rounds += session.num_flushes
            flushed += session.requests_flushed
            for h, (_, prompt) in zip(handles, self.specs[cell]):
                if h.failed or h.stats.status != "done":
                    failed += 1
                    continue
                if h.result() != self.expected[(cell, prompt)]:
                    failed += 1
                    wrong += 1
                    continue
                tokens += len(h.tokens)
                ttfs.append(h.stats.ttfs_ms)
                gaps.extend(h.stats.inter_step_ms)
            failed += len(requests) - len(handles)
        counts = self.counters.take()
        attempted = self.sequences * len(self.cells)
        return Unit(
            attempted=attempted,
            failed=failed,
            wrong=wrong,
            wall_s=wall,
            work=max(1, tokens),
            repeat={"ttfs": ttfs, "gaps": gaps, "counters": counts, "rounds": rounds},
            layer={
                "counters": counts,
                "generate.rounds": rounds,
                "generate.round_size_mean": flushed / max(1, rounds),
                "generate.inter_step_p99_ms": percentile(gaps, 99),
            },
        )

    def end_to_end(self, units: List[Unit]) -> Dict[str, float]:
        first = units[0]
        counts = first.repeat["counters"]
        return {
            "host_ms_per_op": run_ms_per_op(units),
            "sim_device_ms": (counts["device_us"] + counts["api_us"]) / 1e3 / first.work,
            "sim_p50_ms": percentile(first.repeat["ttfs"], 50),
            "sim_p99_ms": percentile(first.repeat["ttfs"], 99),
        }

    def detail(self, units: List[Unit]) -> Dict[str, Any]:
        return {
            "sequences": self.sequences * len(self.cells),
            "tokens": units[0].work,
            "inter_step_p99_ms": percentile(units[0].repeat["gaps"], 99),
            "rounds": units[0].repeat["rounds"],
            "generate_wall_s": [u.wall_s for u in units],
            "counters": units[0].repeat["counters"],
        }


# ---------------------------------------------------------------------------
# online
# ---------------------------------------------------------------------------


class Online(Workload):
    """The two online paths, one after the other in every repetition:
    ``ServeTrees`` (the ``Server`` front door on the round caches' miss
    path) and ``Decode`` (generation, whose repeating rounds hit the plan
    cache and the specializer).  They share one workload so that a run can
    be long enough to average the host's drift; each part keeps its own
    inputs, checks and metrics, and an end-to-end metric is the geometric
    mean of the parts' values."""

    name = "online"

    def __init__(self, seed: int, counters: Any) -> None:
        super().__init__(seed, counters)
        self.parts = (ServeTrees(seed, counters), Decode(seed, counters))

    def make_inputs(self) -> None:
        for part in self.parts:
            part.make_inputs()

    def setup(self, clock) -> float:
        return sum(part.setup(clock) for part in self.parts)

    def compiled(self) -> List[Any]:
        return [cm for part in self.parts for cm in part.compiled()]

    def reference(self) -> None:
        for part in self.parts:
            part.reference()

    def unit(self, meter) -> Unit:
        units = []
        for part in self.parts:
            # each part starts from the same collector state
            gc.collect()
            units.append(part.unit(meter))
        counters = [u.layer["counters"] for u in units]
        layer = {k: v for u in units for k, v in u.layer.items()}
        layer["counters"] = {k: sum(c[k] for c in counters) for k in counters[0]}
        return Unit(
            attempted=sum(u.attempted for u in units),
            failed=sum(u.failed for u in units),
            wrong=sum(u.wrong for u in units),
            wall_s=sum(u.wall_s for u in units),
            work=sum(u.work for u in units),
            repeat={part.name: u.repeat for part, u in zip(self.parts, units)},
            layer=layer,
            parts=units,
        )

    def _parts_end_to_end(self, units: List[Unit]) -> Dict[str, Dict[str, float]]:
        return {
            part.name: part.end_to_end([u.parts[i] for u in units])
            for i, part in enumerate(self.parts)
        }

    def end_to_end(self, units: List[Unit]) -> Dict[str, float]:
        per_part = list(self._parts_end_to_end(units).values())
        return {name: geomean([e[name] for e in per_part]) for name in per_part[0]}

    def detail(self, units: List[Unit]) -> Dict[str, Any]:
        return {
            "parts_end_to_end": self._parts_end_to_end(units),
            **{part.name: part.detail([u.parts[i] for u in units])
               for i, part in enumerate(self.parts)},
        }


WORKLOADS = {w.name: w for w in (OfflineSuite, Online)}
