"""Reference figures for ``perfbench/README.md``.

    python3 perfbench/reference_figures.py [--seed 1]

Prints two tables, both from simulated (deterministic) quantities only:

* the simulated-latency-vs-offered-rate curve of each part of ``online``
  (``serve_trees``, ``decode``), from one replay per rate of the part's own
  trace with its rate overridden — the curves used to pick each rate;
* kernel launches of the narrow (``test`` width) StackRNN at batch 16 and
  64, under the default ``inline_depth`` scheduler and under
  ``dynamic_depth`` — the Figure 6 inline-depth blow-up that
  ``offline_suite`` carries.
"""

from __future__ import annotations

import argparse
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: offered rates swept per part of ``online`` (requests or sequences per second)
RATES = {
    "serve_trees": (300, 450, 600, 750, 900, 1200),
    "decode": (150, 300, 450, 600, 900),
}


class _NoMeter:
    """Stands in for the run's meter: nothing is timed here."""

    class _Elapsed:
        s = 0.0

    def timed(self):
        import contextlib

        return contextlib.nullcontext(self._Elapsed())


def rate_curves(seed: int) -> None:
    from tracing import RoundCounters
    from workloads import Decode, ServeTrees

    parts = {cls.name: cls for cls in (ServeTrees, Decode)}

    counters = RoundCounters()
    counters.install()
    try:
        for name, rates in RATES.items():
            print(f"{name}: simulated latency vs offered rate (seed {seed})")
            print(f"  {'rate/s':>7} {'p50_ms':>9} {'p99_ms':>9} {'rounds':>7}")
            for rate in rates:
                cls = parts[name]
                workload = type(cls.__name__, (cls,), {"rate_rps": float(rate)})(seed, counters)
                workload.make_inputs()
                workload.setup(lambda: 0.0)
                workload.reference()
                unit = workload.unit(_NoMeter())
                e2e = workload.end_to_end([unit])
                print(f"  {rate:>7} {e2e['sim_p50_ms']:>9.3f} {e2e['sim_p99_ms']:>9.3f} "
                      f"{unit.repeat['rounds']:>7}")
    finally:
        counters.remove()


def stackrnn_launches() -> None:
    from repro import CompilerOptions, compile_model
    from repro.models import MODEL_MODULES

    module = MODEL_MODULES["stackrnn"]
    mod, params, size = module.build_for("test", seed=0)
    print("narrow StackRNN kernel launches (instances seed 0)")
    print(f"  {'batch':>5} {'inline_depth':>13} {'dynamic_depth':>14}")
    models = {
        policy: compile_model(mod, params, CompilerOptions(scheduler=policy))
        for policy in ("inline_depth", "dynamic_depth")
    }
    for batch in (16, 64):
        insts = module.make_batch(mod, size, batch, seed=0)
        launches = {
            policy: m.run(insts)[1].device["num_kernel_launches"] for policy, m in models.items()
        }
        print(f"  {batch:>5} {launches['inline_depth']:>13} {launches['dynamic_depth']:>14}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    stackrnn_launches()
    rate_curves(args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
