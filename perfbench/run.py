"""Benchmark of the intop library: CLI pipelines, weighted matrix builds and
the verify suite.

    python3 perfbench/run.py --workload pipelines --seed 1 --seconds 20 --trace 0

Runs from the root of a source checkout (the library is imported from src/,
nothing is installed). One process, one closed-loop client. Every operation
is timed from outside and its output checked; failures are counted, never
retried or skipped. The last line of standard output is one JSON object:
with --trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced run over a fixed number of operations. Lines before it,
prefixed with '#', describe the run (environment, failure classes, sample
counts). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# The matrices are at most 60 x 60 (sub-rule tables 60 x 2112): too small for
# threaded BLAS to help, while idle threads spinning on a 2-core machine add
# noise. Pinned before numpy is imported, here and in the set-up probes.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}
SETUP_PROBES = 7
# Decks of a traced run; each operation runs once untraced and once traced
# (about 20 s, 40 s and 70 s in all here).
TRACE_DECKS = {"pipelines": 7, "weighted_matrices": 1, "verify": 1}


def _log(**fields) -> None:
    print("# " + json.dumps(fields, sort_keys=True, default=str))


def measure_setup(workload: str) -> list[float]:
    """Seconds to import intop and make the first call, in fresh interpreters."""
    env = dict(os.environ, PYTHONPATH=str(SRC), **BLAS_ENV)
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run([sys.executable, str(HERE / "firstcall.py"), workload],
                              cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def _environment() -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "blas_threads": BLAS_ENV["OPENBLAS_NUM_THREADS"]}


class Loop:
    """Runs operations in order, checks them and keeps the tallies."""

    def __init__(self, workload: str, seed: int):
        import workloads
        self.w = workloads
        self.gen = workloads.Generator(workload, seed)
        self.checker = workloads.Checker()
        self.latencies: list[float] = []
        self.failures: dict[str, int] = {}
        self.wrong: list[str] = []
        self.warnings = 0
        self.seen_keys: set = set()
        self.repeats = 0

    def step(self, i: int, cli_main=None, suite=None):
        op = self.gen.op(i)
        res = self.w.run_op(op, cli_main, suite)
        self.latencies.append(res.latency_s)
        self.warnings += res.warnings
        self.repeats += op.key in self.seen_keys
        self.seen_keys.add(op.key)
        failure = res.failure
        if failure is None:
            reason = self.checker.check(op, res.text)
            if reason is not None:
                failure = "wrong_output"
                self.wrong.append(f"{' '.join(op.argv)}: {reason}")
        if failure is not None:
            self.failures[failure] = self.failures.get(failure, 0) + 1
        return res

    @property
    def failed(self) -> int:
        return sum(self.failures.values())

    def summary(self) -> dict:
        return {"ops": len(self.latencies), "failures": self.failures,
                "wrong_outputs": self.wrong[:5], "warnings_leaked": self.warnings,
                "repeat_share": self.repeats / max(1, len(self.latencies))}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    import numpy as np
    from firstcall import first_call

    setup = measure_setup(workload)
    loop = Loop(workload, seed)
    first_call(workload)
    size = loop.gen.deck_size
    start = time.perf_counter()
    i, deck_s = 0, 0.0
    # whole decks only; another deck starts if it is expected to end in time
    while i == 0 or time.perf_counter() - start + deck_s <= seconds:
        deck_start = time.perf_counter()
        for _ in range(size):
            loop.step(i)
            i += 1
        deck_s = time.perf_counter() - deck_start
    lat = np.asarray(loop.latencies)
    pct = loop.w.TAIL_PERCENTILE[workload]
    _log(workload=workload, seed=seed, environment=_environment(),
         setup_probes_s=setup, decks=i // size, tail_percentile=pct,
         samples_beyond_tail=int(np.sum(lat > np.percentile(lat, pct))),
         **loop.summary())
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (lat.size / lat.sum(), "1/s"),
        "op_p50_ms": (1e3 * float(np.median(lat)), "ms"),
        "op_tail_ms": (1e3 * float(np.percentile(lat, pct)), "ms"),
        "fail_share": (loop.failed / lat.size, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
    }
    return _result(loop, metrics)


def trace_step(tracer, loop: Loop, i: int) -> None:
    """Operation i with the tracer's wrappers installed."""
    tracer.op = i
    with tracer.installed():
        loop.step(i, tracer.cli_main, tracer.suite)


def per_layer(workload: str, seed: int) -> dict:
    """Each of TRACE_DECKS decks of operations runs untraced and traced, in
    alternating order so that drift in machine speed cancels from the
    overhead. --seconds does not enter, so the counts of two traced runs
    compare exactly."""
    from firstcall import first_call
    from spans import Tracer, layer_metrics

    plain, traced = Loop(workload, seed), Loop(workload, seed)
    traced.checker = plain.checker  # tracing must not change a byte
    count = TRACE_DECKS[workload] * plain.gen.deck_size
    first_call(workload)
    tracer = Tracer()
    for i in range(count):
        if i % 2:
            trace_step(tracer, traced, i)
            plain.step(i)
        else:
            plain.step(i)
            trace_step(tracer, traced, i)
    untraced_s, traced_s = sum(plain.latencies), sum(traced.latencies)
    OUT_DIR.mkdir(exist_ok=True)
    trace_file = OUT_DIR / f"trace-{workload}-seed{seed}.jsonl"
    tracer.write(trace_file)
    layers = layer_metrics(tracer.spans)
    layers["cli.exit1_on_valid_input"] = traced.failures.get("exit1", 0)
    layers["warnings.leaked"] = traced.warnings
    layers["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    _log(workload=workload, seed=seed, environment=_environment(),
         traced_ops=count, spans=len(tracer.spans),
         trace_file=str(trace_file.relative_to(ROOT)), untraced_s=untraced_s,
         traced_s=traced_s, untraced_wrong_outputs=plain.wrong[:5],
         **traced.summary())
    metrics = {name: (value, _unit(name)) for name, value in layers.items()}
    result = _result(traced, metrics)
    result["correct"] = result["correct"] and not plain.wrong
    return result


def _unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith(("_per_matrix", "_per_op")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "bytes"
    return "count"


def _result(loop: Loop, metrics: dict) -> dict:
    return {"correct": not loop.wrong, "attempted": len(loop.latencies),
            "failed": loop.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("pipelines", "weighted_matrices", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "intop" / "__init__.py").is_file():
        print(f"run.py: no intop sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path.insert(0, str(SRC))
    if args.trace:
        result = per_layer(args.workload, args.seed)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
