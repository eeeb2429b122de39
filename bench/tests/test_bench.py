"""Self-test of the benchmark: ``pytest bench/tests`` (about 30 s)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from metrics import END_TO_END, PER_LAYER, layer_metrics  # noqa: E402
from tracing import self_times  # noqa: E402
from workloads import SIZES, generate_graph, serve_inputs  # noqa: E402


def _last_json_line(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def test_smoke_run_passes_every_check():
    child = subprocess.run([sys.executable, str(BENCH / "run.py"), "--smoke"],
                           cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=170)
    assert child.returncode == 0, child.stdout[-2000:]
    result = _last_json_line(child.stdout)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    names = {f"{workload}.{metric}" for workload in
             ("train", "serve-batch", "serve-zipf", "serve-mixed") for metric in PER_LAYER}
    assert set(result["metrics"]) == names
    for workload in ("train", "serve-batch", "serve-zipf", "serve-mixed"):
        assert 0.5 < result["metrics"][f"{workload}.bench.accounted_share"]["value"] <= 1.0


def test_metric_tables_match_benchmark_json():
    document = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in document["end_to_end"]] == [
        (name, unit, better) for name, (unit, better) in END_TO_END.items()]
    assert [(entry["name"], entry["unit"], entry["better"])
            for entry in document["per_layer"]] == [
        (name, unit, better) for name, (unit, better) in PER_LAYER.items()]
    assert document["paths"] == ["bench"]
    bounds = {entry["name"]: entry["bound"] for entry in document["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_generator_is_seeded_and_deduplicated():
    spec = SIZES["smoke"]["serve"]
    first, again, other = (serve_inputs(spec, seed) for seed in (3, 3, 4))
    for name in first:
        np.testing.assert_array_equal(first[name], again[name])
    assert not np.array_equal(first["base_items"], other["base_items"])
    graph = generate_graph(spec.graph, 3)
    keys = graph["users"] * spec.graph.num_items + graph["items"]
    assert np.unique(keys).size == keys.size
    assert np.all(np.diff(graph["timestamps"]) >= 0)


def test_self_time_subtracts_the_union_of_children():
    spans = [[1, "root", 0.0, 10.0, None, "root", None],
             [2, "a", 1.0, 4.0, 1, "root", None],
             [3, "b", 3.0, 6.0, 1, "root", None],
             [4, "c", 2.0, 3.0, 2, "root", None]]
    own = self_times(spans)
    assert own == {1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0}


def test_open_loop_accounting_leaves_the_hand_back_unexplained():
    # Two requests served by one scoring call, and one cache hit.  Each is
    # explained from its send to the end of its serving call (or, for the
    # hit, to its first step on the event loop); the rest is not.
    users = np.array([7, 8])
    spans = [[1, "bench.request", 0.0, 10.0, None, "bench.request", 7],
             [2, "engine.frontend.loop_wait", 0.0, 1.0, 1, "bench.request", None],
             [3, "engine.service.top_k", 3.0, 6.0, 1, "bench.request", users],
             [4, "bench.request", 1.0, 7.0, None, "bench.request", 8],
             [5, "bench.request", 2.0, 4.0, None, "bench.request", 9],
             [6, "engine.frontend.loop_wait", 2.0, 2.5, 5, "bench.request", None]]
    share = layer_metrics(spans, 10.0, {})["bench.accounted_share"]
    assert share == (6.0 + 5.0 + 0.5) / (10.0 + 6.0 + 2.0)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    child = subprocess.run([sys.executable, "bench/run.py", "--workload", "train",
                            "--seed", "0", "--seconds", "1", "--trace", "0"],
                           cwd=tmp_path, stdout=subprocess.PIPE, text=True, timeout=60)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
