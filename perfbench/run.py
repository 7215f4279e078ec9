"""covnoise benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload noise_sweep --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
With ``--trace 0`` the last line of stdout is a JSON object with the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of
a traced run, together with the tracing overhead.  Lines before it record
the environment, the tail percentile and any failures.  README.md in this
directory documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("noise_sweep", "operator_dump", "norm_growth")
LAYER_MODULES = ("matrices", "noise", "observables", "schur_analysis", "cli")
RUN_DIR = os.path.join(ROOT, ".perfbench_run")

# Set-up time is the median of fresh interpreters that import the CLI and
# build its parser; the first spawns fill the page and bytecode caches.  Half
# the measured spawns run before the worker and half after it, so that the
# median spans the run rather than one stretch of this machine's drift.
SETUP_WARMUP_SPAWNS = 2
SETUP_SPAWNS = 6
SETUP_CODE = "import covnoise.cli as c; c.main(['--help'])"
IMPORT_SPAWNS = 3
TAIL_BEYOND = 10
# Every child is stopped by this many seconds after the start, so a run
# ends (without a result) inside the 180 s a run may take.
RUN_LIMIT_S = 170


class BenchmarkError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    threads = str(nproc())
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = threads
    return env


def spawn(argv: list[str], deadline: float, **kwargs) -> subprocess.CompletedProcess:
    """Run a child to completion, killing it if it outlives ``deadline``
    (a ``time.monotonic()`` value)."""
    timeout = deadline - time.monotonic()
    try:
        done = subprocess.run(argv, cwd=ROOT, env=child_env(), timeout=max(timeout, 0.0),
                              **kwargs)
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{argv[1:3]} was still running at the run's time limit") from exc
    if done.returncode != 0:
        detail = done.stderr.decode(errors="replace")[-2000:] if done.stderr else ""
        raise BenchmarkError(f"{argv[1:3]} exited with {done.returncode}\n{detail}")
    return done


def setup_samples(count: int, deadline: float) -> list[float]:
    """Wall times of fresh interpreters that import covnoise.cli and build
    its parser."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        spawn([sys.executable, "-c", SETUP_CODE], deadline, stdout=subprocess.DEVNULL,
              stderr=subprocess.PIPE)
        times.append(time.perf_counter() - start)
    return times


def import_seconds(deadline: float) -> dict[str, float]:
    """Cumulative import time per layer module, from ``python -X importtime``."""
    samples: dict[str, list[float]] = {m: [] for m in LAYER_MODULES}
    for k in range(1 + IMPORT_SPAWNS):
        done = spawn([sys.executable, "-X", "importtime", "-c", "import covnoise.cli"],
                     deadline, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        if k == 0:
            continue
        for line in done.stderr.decode().splitlines():
            parts = [p.strip() for p in line.split("|")]
            if len(parts) == 3 and parts[2].startswith("covnoise."):
                module = parts[2][len("covnoise."):]
                if module in samples:
                    samples[module].append(int(parts[1]) * 1e-6)
    return {f"{m}.import_s": statistics.median(v) if v else 0.0 for m, v in samples.items()}


def run_worker(workload: str, seed: int, seconds: float, trace: int,
               deadline: float) -> dict:
    out_dir = os.path.join(RUN_DIR, f"{workload}-seed{seed}-trace{trace}")
    shutil.rmtree(out_dir, ignore_errors=True)
    spawn([sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace),
           "--out-dir", out_dir], deadline, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    with open(os.path.join(out_dir, "worker.json"), encoding="utf-8") as fh:
        return json.load(fh)


def tail(latencies: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least TAIL_BEYOND samples
    beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    k = n - TAIL_BEYOND - 1 if n > TAIL_BEYOND else n - 1  # too few samples: the maximum
    return ordered[k], 100.0 * (k + 1) / n


def items_per_second(latencies: list[float], items_per_pass: int) -> float:
    """Items over the time of a typical pass: each item's median latency
    across passes, summed over the item list.  Medians keep one slow
    repeat from moving the figure."""
    per_item = [latencies[i::items_per_pass] for i in range(items_per_pass)]
    covered = [xs for xs in per_item if xs]
    return len(covered) / sum(statistics.median(xs) for xs in covered)


def end_to_end(worker: dict, setup_s: float) -> tuple[dict, dict]:
    lat = worker["latencies"]
    tail_s, percentile = tail(lat)
    metrics = {
        "setup_s": (setup_s, "s"),
        "items_per_s": (items_per_second(lat, worker["items_per_pass"]), "1/s"),
        "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "latency_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (worker["rss_kb"] / 1024.0, "MB"),
    }
    info = {"tail_percentile": percentile, "samples": len(lat), "passes": worker["passes"],
            "items_per_pass": worker["items_per_pass"]}
    return metrics, info


def commit() -> str | None:
    """HEAD of the checkout when it is a git repository, else None."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if done.returncode != 0:
        return None
    return done.stdout.decode().strip() or None


def cache_sizes() -> dict:
    """L2 and L3 sizes of cpu0 as the kernel reports them (e.g. "2048K")."""
    sizes = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for index in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        try:
            with open(os.path.join(base, index, "level"), encoding="ascii") as fh:
                level = fh.read().strip()
            with open(os.path.join(base, index, "size"), encoding="ascii") as fh:
                size = fh.read().strip()
        except OSError:
            continue
        if level in ("2", "3"):
            sizes[f"l{level}_cache"] = size
    return sizes


def environment(worker: dict, seed: int) -> dict:
    return {
        "nproc": nproc(),
        "blas": worker["blas"],
        **cache_sizes(),
        "python": platform.python_version(),
        "numpy": worker["numpy"],
        "scipy": worker["scipy"],
        "commit": commit(),
        "seed": seed,
    }


def layout_problem() -> str | None:
    if not os.path.isfile(os.path.join(ROOT, "src", "covnoise", "cli.py")):
        return f"no covnoise sources under {os.path.join(ROOT, 'src')}; run from a checkout"
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    problem = layout_problem()
    if problem:
        print(f"perfbench: {problem}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        if args.trace:
            # Half the time untraced, half traced: the ratio of the two
            # throughputs is the tracing overhead.
            plain = run_worker(args.workload, args.seed, args.seconds / 2, 0, deadline)
            traced = run_worker(args.workload, args.seed, args.seconds / 2, 1, deadline)
            workers = [plain, traced]
            plain_rate = items_per_second(plain["latencies"], plain["items_per_pass"])
            traced_rate = items_per_second(traced["latencies"], traced["items_per_pass"])
            values = {**traced["layers"], **import_seconds(deadline),
                      "trace.untraced_items_per_s": plain_rate,
                      "trace.traced_items_per_s": traced_rate,
                      "trace.overhead_ratio": plain_rate / traced_rate}
            metrics = {name: {"value": value, "unit": layer_unit(name)}
                       for name, value in values.items()}
            info = {"spans": traced["spans"], "passes": traced["passes"]}
        else:
            setup_samples(SETUP_WARMUP_SPAWNS, deadline)
            setup = setup_samples(SETUP_SPAWNS // 2, deadline)
            workers = [run_worker(args.workload, args.seed, args.seconds, 0, deadline)]
            setup += setup_samples(SETUP_SPAWNS - SETUP_SPAWNS // 2, deadline)
            e2e, info = end_to_end(workers[0], statistics.median(setup))
            metrics = {name: {"value": value, "unit": unit}
                       for name, (value, unit) in e2e.items()}
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    info["fail_ratio"] = failed / attempted
    print("perfbench environment: " + json.dumps(environment(workers[0], args.seed)))
    print(f"perfbench {args.workload}: " + json.dumps(info))
    for w in workers:
        for failure in w["failures"]:
            print(f"perfbench failure: {failure}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def layer_unit(name: str) -> str:
    for suffix, unit in (("per_s", "1/s"), ("_s", "s"), ("_bytes", "bytes"),
                         ("ratio", "ratio"), ("per_tol", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


if __name__ == "__main__":
    sys.exit(main())
