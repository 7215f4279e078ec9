"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench/tests``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from worker import Loop  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", "3", "--seconds", "1", "--trace", str(trace)],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def item(workload: str, ident: str) -> W.Item:
    items = W.make_items(workload, 5)
    W.prepare(items)
    return next(i for i in items if i.id == ident)


@pytest.mark.parametrize("trace, group", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_named_metric_with_its_unit(trace, group):
    done = run_bench("noise_sweep", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[group]}
    got = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert got == expected
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_workload_names_match_benchmark_json():
    import run
    names = [w["name"] for w in SPEC["workloads"]]
    assert names == list(W.WORKLOADS) == list(run.WORKLOADS)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = run_bench("noise_sweep", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_same_seed_gives_same_items():
    for workload in W.WORKLOADS:
        a, b = W.make_items(workload, 7), W.make_items(workload, 7)
        assert a == b
        assert a != W.make_items(workload, 8)
        assert [i.id for i in a] == [i.id for i in W.make_items(workload, 8)]


def test_injected_wrong_bracket_counts_as_failure(tmp_path, monkeypatch):
    chosen = item("noise_sweep", "chessboard-N-l2")
    run, collect, check = W.KINDS["sequence"]
    values = run(chosen.params, None)
    assert check(chosen.params, values) == []

    def shifted(p, ctx):
        return [dataclasses.replace(v, lower=v.upper, upper=v.upper + v.width)
                for v in run(p, ctx)]

    monkeypatch.setitem(W.KINDS, "sequence", (shifted, collect, check))
    loop = Loop([chosen], W.Context(str(tmp_path)))
    loop.execute(chosen)
    assert loop.failed == 1
    assert "misses" in loop.failures[0]


@pytest.mark.parametrize("ident", ["observable-json-128", "moment2-csv-288"])
def test_injected_truncated_report_counts_as_failure(tmp_path, monkeypatch, ident):
    chosen = item("operator_dump", ident)
    run, collect, check = W.KINDS[chosen.kind]
    loop = Loop([chosen], W.Context(str(tmp_path)))
    loop.execute(chosen)
    assert loop.failed == 0, loop.failures

    def truncated(p, raw, ctx):
        (code, output), _ = collect(p, raw, ctx)
        cut = output[: len(output) * 2 // 3]
        return (code, cut), cut

    monkeypatch.setitem(W.KINDS, chosen.kind, (run, truncated, check))
    loop.execute(chosen)
    assert loop.failed == 1


def test_changed_output_on_repeat_counts_as_failure(tmp_path, monkeypatch):
    chosen = item("norm_growth", "schur-small")
    run, collect, check = W.KINDS[chosen.kind]
    loop = Loop([chosen], W.Context(str(tmp_path)))
    loop.execute(chosen)

    def different(p, raw, ctx):
        value, output = collect(p, raw, ctx)
        return value, output + b" "

    monkeypatch.setitem(W.KINDS, chosen.kind, (run, different, check))
    loop.execute(chosen)
    assert loop.failed == 1
    assert "differs" in loop.failures[0]


def test_width_allowance_counts_ulps_of_the_reference_moment():
    # constant_one on Z, l=4, tol 1e-10: the seed's width overshoots tol by
    # a relative 8.3e-8, well under one ulp of (pi/sqrt 3)^4.
    lower, upper = -5.0000004e-11, 5.0000004e-11
    assert checks.check_bracket("x", lower, upper, 1e-10, 4, 0.0) == []
    assert checks.check_bracket("x", lower, upper + 1e-14, 1e-10, 4, 0.0) != []
    assert checks.check_bracket("x", 0.0, 1e-11, 1e-10, 4, 2e-11) != []


CHEAP = {
    "noise_sweep": ["constant-Z-l2", "torus-N-l2", "gram-N-l1", "asymptotic-chessboard-Z"],
    "operator_dump": ["observable-json-128", "noise-diagonal-chessboard",
                      "gram-observable-256", "torus-covariance-512"],
    "norm_growth": ["schur-small", "hadamard-9", "norm-chessboard-384"],
}


@pytest.mark.parametrize("workload", sorted(CHEAP))
def test_traced_self_times_are_never_negative(tmp_path, workload):
    chosen = [item(workload, ident) for ident in CHEAP[workload]]
    loop = Loop(chosen, W.Context(str(tmp_path)), tracing.Tracer().install())
    try:
        for it in chosen:
            loop.execute(it)
    finally:
        loop.tracer.close()
    assert loop.failed == 0, loop.failures
    spans = loop.tracer.spans
    assert spans and all(s[tracing.END] >= s[tracing.START] for s in spans)
    assert min(tracing.self_times_ns(spans)) >= 0
    layers = tracing.layer_metrics(spans, 1)
    assert all(v >= 0 for v in layers.values())
    assert all(layers[f"{layer}.self_s"] >= 0
               for layer in ("matrices", "observables", "schur_analysis"))
    assert layers["noise.sum_self_s"] >= 0 and layers["cli.serialize_s"] >= 0


def test_tracer_restores_every_binding():
    import covnoise.cli as cli
    from covnoise import matrices, observables

    before = (cli.main, cli.noise_value, observables.truncate, matrices.seeded_gram,
              matrices._BlockCache.ensure)
    tracing.Tracer().install().close()
    after = (cli.main, cli.noise_value, observables.truncate, matrices.seeded_gram,
             matrices._BlockCache.ensure)
    assert before == after
