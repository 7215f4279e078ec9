"""Runs one workload as a closed loop in a fresh process.

One client, one process: each item starts when the previous one has
finished and been checked.  The loop runs whole passes over the seeded
item list until ``--seconds`` have gone by.  Before it, the first item
runs once untimed: that warms the process up and is the reference for
the determinism check, so at least one item repeats in every run.  Every
repeat of an item must produce byte-identical output; a mismatch counts
as a failure.

Usage (from the checkout root; run.py does this):

    python3 perfbench/worker.py --workload noise_sweep --seed 1 \\
        --seconds 10 --trace 0 --out-dir .perfbench_run/x
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import tracing  # noqa: E402
import workloads as W  # noqa: E402

# A pass that overruns the run length by this factor is cut mid-pass, so a
# run ends in bounded time even if the program becomes much slower.
HARD_STOP_FACTOR = 3.0
MAX_REPORTED_FAILURES = 20


class Loop:
    def __init__(self, items: list, ctx: W.Context, tracer: tracing.Tracer | None = None):
        self.items = items
        self.ctx = ctx
        self.tracer = tracer
        self.digests: dict[str, str] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.traced_report_bytes = 0

    def execute(self, item) -> float:
        """Run, collect and check one item; returns its latency in seconds."""
        run, collect, check = W.KINDS[item.kind]
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.item = f"{item.id}#{self.attempted}"
        start = time.perf_counter()
        try:
            raw = run(item.params, self.ctx)
        except (Exception, SystemExit) as exc:  # any escape from the program fails the item
            latency = time.perf_counter() - start
            self._record(item, [f"{type(exc).__name__}: {exc}"])
            return latency
        latency = time.perf_counter() - start
        traced = len(self.tracer.spans) if self.tracer is not None else 0
        value = None
        try:
            value, output = collect(item.params, raw, self.ctx)
            problems = check(item.params, value)
        except Exception as exc:  # a check that cannot read the output fails the item
            problems = [f"check raised {type(exc).__name__}: {exc}"]
            output = b""
        if self.tracer is not None:
            del self.tracer.spans[traced:]  # checks may call the program; not timed work
            if item.kind.startswith("cli_") and value is not None:
                self.traced_report_bytes += len(value[1])
        digest = hashlib.sha256(output).hexdigest()
        if self.digests.setdefault(item.id, digest) != digest:
            problems.append("output differs from an earlier run of the same item")
        self._record(item, problems)
        return latency

    def _record(self, item, problems: list[str]) -> None:
        if problems:
            self.failed += 1
            self.failures.extend(f"{item.id}: {p}" for p in problems)

    def timed(self, seconds: float) -> tuple[list[float], float]:
        """Whole passes until ``seconds`` elapse; returns latencies and passes."""
        latencies: list[float] = []
        start = time.perf_counter()
        hard_stop = start + HARD_STOP_FACTOR * seconds
        while True:
            for item in self.items:
                latencies.append(self.execute(item))
                if time.perf_counter() >= hard_stop:
                    return latencies, len(latencies) / len(self.items)
            if time.perf_counter() - start >= seconds:
                return latencies, len(latencies) / len(self.items)


def blas_info() -> dict:
    """The BLAS numpy was built against and its current thread count."""
    info: dict = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info = {"name": blas.get("name"), "version": blas.get("version")}
    except (KeyError, TypeError, AttributeError):
        pass
    with open("/proc/self/maps", encoding="utf-8") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and "/" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=W.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args(argv)

    os.makedirs(args.out_dir, exist_ok=True)
    items = W.make_items(args.workload, args.seed)
    W.prepare(items)
    loop = Loop(items, W.Context(args.out_dir))
    loop.execute(items[0])  # warm-up, and the reference for the repeat check

    if args.trace:
        loop.tracer = tracing.Tracer().install()
    try:
        latencies, passes = loop.timed(args.seconds)
    finally:
        if loop.tracer is not None:
            loop.tracer.close()
    tracer, loop.tracer = loop.tracer, None

    result = {
        "latencies": latencies,
        "passes": passes,
        "items_per_pass": len(items),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "failures": loop.failures[:MAX_REPORTED_FAILURES],
        "rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas": blas_info(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
    }
    if tracer is not None:
        tracer.dump(os.path.join(args.out_dir, "trace.jsonl"))
        result["layers"] = tracing.layer_metrics(tracer.spans, passes)
        result["layers"]["cli.output_bytes"] = loop.traced_report_bytes / passes
        result["spans"] = len(tracer.spans)
    with open(os.path.join(args.out_dir, "worker.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
