"""Render a run's benchmark JSON artifacts as one markdown trend table.

CI's ``bench-trend`` job downloads every ``bench-json-*`` artifact of the
run into one directory (``actions/download-artifact`` with
``merge-multiple``) and pipes this script's output into
``$GITHUB_STEP_SUMMARY``, so reviewers see each benchmark's key metric —
and the floor it is gated against — without downloading anything.

Usage::

    python benchmarks/trend_summary.py bench-artifacts >> "$GITHUB_STEP_SUMMARY"

The table is intentionally lossy: one or two headline numbers per
benchmark, aggregated across that benchmark's result rows (best throughput,
worst latency, …).  The full per-cell rows stay in the JSON artifacts; the
hard gates stay in the benchmarks themselves — a floor shown here is
*documentation* of the gate, not the gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

#: benchmark -> [(label, row key, aggregation, gate/floor description)].
#: Aggregations: ``max``/``min``/``mean`` over the numeric values of that
#: key across result rows, ``all`` for booleans (yes iff every row is
#: truthy).  Keys missing from every row are skipped, so a benchmark can
#: evolve its schema without breaking the summary.
KEY_METRICS = {
    "bench_engine_throughput": [
        ("speedup vs reference", "speedup", "max", ">=5x (full presets)"),
        ("metric drift", "max_metric_diff", "max", "<= 1e-9"),
    ],
    "bench_training_throughput": [
        ("pipeline speedup", "total_speedup", "max", ">=5x (full presets)"),
        ("sampler TV distance", "worst_tv", "max", "distribution parity"),
    ],
    "bench_sharded_serving": [
        ("best users/s", "users_per_s", "max", "bit-exact parity gated"),
        ("parity comparisons", "parity_checks", "max", "all bit-exact"),
    ],
    "bench_candidate_serving": [
        ("certified fraction", "certified_frac", "min",
         "recall 1.0 on certified users"),
        ("certified recall", "recall", "min", "= 1.0"),
        ("throughput vs exact", "throughput_ratio", "max",
         "reported (full presets pay off)"),
    ],
    "bench_online_updates": [
        ("ingest pairs/s", "ingest_pairs_per_sec", "max",
         "absolute throughput floor"),
        ("speedup vs rebuild", "speedup_vs_rebuild", "max",
         ">=1x (full presets)"),
    ],
    "bench_snapshot_serving": [
        ("mmap load speedup", "load_speedup", "min", ">=10x vs freeze"),
        ("first request ms", "first_request_ms", "max",
         "within latency budget"),
    ],
    "bench_async_frontend": [
        ("coalesced speedup", "speedup", "min", ">=2x vs naive"),
        ("p99 latency ms", "p99_ms", "max", "<= window budget"),
    ],
    "bench_remote_serving": [
        ("remote users/s", "users_per_s", "max", "bit-exact parity gated"),
        ("killed shard fails closed", "killed_shard_typed_error", "all",
         "typed RemoteShardError"),
        ("stale snapshot rejected", "stale_snapshot_rejected", "all",
         "handshake fails closed"),
    ],
    "bench_observability": [
        ("telemetry overhead %", "overhead_pct", "max", "<= 5%"),
        ("p99 with telemetry ms", "p99_on_ms", "max", "reported"),
        ("p99 telemetry off ms", "p99_off_ms", "max", "reported"),
        ("on/off serving parity", "parity", "all", "bit-identical"),
        ("shard spans stitched", "shard_spans", "max", ">= 1 remote span"),
    ],
    "bench_top_k": [
        ("speedup vs argpartition", "speedup", "max",
         "lexsort-oracle parity gated"),
        ("parity comparisons", "parity_checks", "max", "all bit-exact"),
    ],
    "bench_fault_tolerance": [
        ("availability under kills", "availability", "min",
         "= 1.0 while a replica survives"),
        ("failovers survived", "failovers", "max",
         ">= 1 per killed replica, bit-exact"),
        ("WAL recovery s", "recovery_s", "max", "within recovery budget"),
        ("WAL recovery parity", "wal_parity", "all",
         "bit-identical to uncrashed oracle"),
        ("dead shard fails closed", "killed_shard_typed_error", "all",
         "typed RemoteShardError"),
    ],
}


def _aggregate(values, how: str):
    if how == "all":
        return all(bool(value) for value in values)
    numbers = [float(value) for value in values]
    if how == "max":
        return max(numbers)
    if how == "min":
        return min(numbers)
    if how == "mean":
        return sum(numbers) / len(numbers)
    raise ValueError(f"unknown aggregation {how!r}")


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "NO"
    if abs(value) >= 1000:
        return f"{value:,.0f}"
    if value == int(value):
        return str(int(value))
    if abs(value) >= 1:
        return f"{value:.2f}"
    return f"{value:.2e}"


def load_documents(directory: Path):
    """Parsed artifact documents in the directory, sorted by benchmark."""
    documents = []
    for path in sorted(directory.glob("*.json")):
        try:
            document = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"[trend] skipping {path.name}: {error}", file=sys.stderr)
            continue
        if isinstance(document, dict) and "benchmark" in document:
            documents.append(document)
        else:
            print(f"[trend] skipping {path.name}: not a benchmark artifact",
                  file=sys.stderr)
    return documents


def build_table(documents) -> str:
    """The job-summary markdown for a list of artifact documents."""
    lines = ["### Benchmark trend", ""]
    if not documents:
        lines.append("_No benchmark artifacts found for this run._")
        return "\n".join(lines)
    presets = sorted({str(doc.get("preset")) for doc in documents})
    sha = next((doc.get("git_sha") for doc in documents
                if doc.get("git_sha")), None)
    lines.append(f"preset: `{', '.join(presets)}`"
                 + (f" · commit `{sha[:12]}`" if sha else ""))
    lines.append("")
    lines.append("| benchmark | key metric | value | floor / gate |")
    lines.append("|---|---|---|---|")
    for document in documents:
        name = document["benchmark"]
        rows = document.get("results") or []
        if isinstance(rows, dict):
            rows = [rows]
        emitted = 0
        for label, key, how, floor in KEY_METRICS.get(name, ()):
            values = [row[key] for row in rows
                      if isinstance(row, dict) and row.get(key) is not None]
            if not values:
                continue
            value = _aggregate(values, how)
            lines.append(f"| {name.removeprefix('bench_')} | {label} "
                         f"({how}) | {_format_value(value)} | {floor} |")
            emitted += 1
        if not emitted:
            # Unknown benchmark (or schema drift): still show it ran.
            lines.append(f"| {name.removeprefix('bench_')} | result rows | "
                         f"{len(rows)} | — |")
    return "\n".join(lines)


def main(argv) -> int:
    if len(argv) != 2:
        print("usage: trend_summary.py <artifact-directory>", file=sys.stderr)
        return 2
    directory = Path(argv[1])
    if not directory.is_dir():
        print(f"[trend] no artifact directory at {directory}",
              file=sys.stderr)
        print(build_table([]))
        return 0
    print(build_table(load_documents(directory)))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
