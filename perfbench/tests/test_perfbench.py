"""Self-tests of the benchmark harness.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import graphspace as gs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


def _span(layer, start, end, parent=-1):
    return Span(layer, start, end, parent, 0, None)


def test_self_time_subtracts_covered_child_time():
    spans = [
        _span("root", 0.0, 10.0),
        _span("a", 1.0, 4.0, parent=0),
        _span("leaf", 2.0, 3.0, parent=1),
        _span("b", 5.0, 9.0, parent=0),
        _span("c", 7.0, 9.5, parent=0),  # overlaps b: only its uncovered part counts
    ]
    assert tracing.self_times(spans) == pytest.approx([10 - 3 - 4.5, 3 - 1, 1, 4, 2.5])


def test_layer_values_sum_self_time_per_layer():
    spans = [
        Span("matching.graph_distance", 0.0, 6.0, -1, 0, {"padded_n": 10}),
        Span("assignment.lap", 1.0, 2.0, 0, 0, {"n": 10}),
        Span("assignment.lap", 3.0, 5.0, 0, 0, {"n": 20}),
    ]
    values = tracing.layer_values(spans, {}, item_s=6.0, overhead_frac=0.25)
    assert set(values) == set(tracing.PER_LAYER)
    assert values["matching.graph_distance.self_s"] == pytest.approx(3.0)
    assert values["assignment.lap.self_s"] == pytest.approx(3.0)
    assert values["assignment.lap.calls"] == 2
    assert values["assignment.lap.n_mean"] == pytest.approx(15.0)
    assert values["matching.padded_n_mean"] == pytest.approx(10.0)
    assert values["stats.karcher_mean.calls"] == 0


def test_remove_restores_every_rebound_name():
    before = {}
    for target in tracing.TARGETS:
        original, places = tracing.bindings(target)
        assert places, target
        before[target.layer] = (original, places)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        for original, places in before.values():
            for owner, name in places:
                assert getattr(owner, name) is not original
                assert getattr(getattr(owner, name), tracing.WRAPPED_MARK)
        g = gs.Graph([[0, 1], [1, 0]])
        gs.graph_distance(g, gs.Graph([[0, 1, 0], [1, 0, 1], [0, 1, 0]]),
                          gs.MatchConfig(refinement=True))
    finally:
        tracer.remove()
    for original, places in before.values():
        for owner, name in places:
            assert getattr(owner, name) is original
    assert tracing.installed_wrappers() == []
    layers = {s.layer for s in tracer.spans}
    assert {"matching.graph_distance", "matching.faq_descent", "assignment.lap",
            "matching.two_exchange", "graphs.Graph", "graphs.pad_to_size"} <= layers
    assert tracer.counts["matching.two_exchange.sweeps"] >= 1


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == tracing.PER_LAYER


def _fingerprint(pool) -> str:
    return repr(pool) if not hasattr(pool[0][0], "adjacency") else repr(
        [[g.adjacency.tobytes() for g in request] for request in pool])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_second_seed_changes_inputs_not_metric_names(name, tmp_path):
    cls = workloads.WORKLOADS[name]
    inputs, names = [], []
    for seed in (1, 2):
        pool = cls(seed, tmp_path / f"inputs-{seed}", 1).build()
        if name == "corpus_pca_cli":
            pool = [[Path(p).read_bytes() for p in request] for request in pool]
        inputs.append(_fingerprint(pool))
        for trace in (0, 1):
            result, info, _ = run.measure(cls, seed, 0.0, trace, tmp_path / f"run-{seed}-{trace}",
                                          requests=1)
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            assert info.get("wrappers_during_timed_run", []) == []
            names.append((trace, sorted(result["metrics"])))
    assert inputs[0] != inputs[1]
    assert names[0] == names[2] and names[1] == names[3]
    assert names[0][1] == sorted(run.END_TO_END)
    assert names[1][1] == sorted(tracing.PER_LAYER)
    assert tracing.installed_wrappers() == []


def _run_script(script, *extra):
    return subprocess.run(
        [sys.executable, str(script), "--workload", "register_large", "--seed", "0",
         "--seconds", "0", *extra],
        capture_output=True, text=True, timeout=60)


def test_refuses_more_blas_threads_than_cores():
    proc = _run_script(BENCH / "run.py", "--blas-threads", str(len(os.sched_getaffinity(0)) + 1))
    assert proc.returncode == 2
    assert "nproc" in proc.stderr
    assert proc.stdout == ""


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run_script(tmp_path / "perfbench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout == ""
