"""Benchmark JSON artifacts: machine-readable results for CI upload.

When the ``REPRO_BENCH_JSON`` environment variable names a directory, every
benchmark dumps its result rows there as ``<benchmark>.json`` so the CI
workflow can attach them to the run (``actions/upload-artifact``) and
regressions can be diffed across pushes.  Without the variable the helper is
a no-op, keeping local runs side-effect free.

Every document is keyed for cross-PR trajectory comparison: the dataset
preset(s) the numbers were measured on, the git commit they were measured
at, an ISO-8601 UTC wall-clock timestamp, and the process's peak RSS (so
memory claims are recorded alongside latency claims).  Two ``BENCH_*.json`` files
are comparable iff their ``preset`` matches; ``git_sha`` orders them along
the history.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Optional, Sequence

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

# The one percentile: the engine's histograms and these latency summaries
# report identical p50/p99 math.
from repro.engine.observability import metrics, percentile  # noqa: E402


def peak_rss_bytes() -> Optional[int]:
    """High-water resident set size of this process, in bytes.

    ``ru_maxrss`` is kilobytes on Linux and bytes on macOS; normalised here
    so the memory claims the benchmarks make (int8 >= 3x smaller blocks,
    mmap'd snapshots paging lazily) are recorded comparably in the CI JSON.
    Returns None where the ``resource`` module is unavailable (non-POSIX).
    """
    try:
        import resource
    except ImportError:  # pragma: no cover - POSIX-only dependency
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # pragma: no cover - macOS reports bytes
        return int(peak)
    return int(peak) * 1024


def latency_summary(seconds: Sequence[float]) -> dict:
    """p50/p90/p99 (+ count/mean/max) of latency samples, in milliseconds.

    ``seconds`` are raw per-request wall-clock latencies; the summary is the
    shape the load-generator benchmarks record in their JSON artifacts and
    gate their latency budgets on.
    """
    ordered = sorted(float(x) for x in seconds)
    if not ordered:
        raise ValueError("latency_summary needs at least one sample")
    return {
        "count": len(ordered),
        "mean_ms": sum(ordered) / len(ordered) * 1e3,
        "p50_ms": percentile(ordered, 50.0) * 1e3,
        "p90_ms": percentile(ordered, 90.0) * 1e3,
        "p99_ms": percentile(ordered, 99.0) * 1e3,
        "max_ms": ordered[-1] * 1e3,
    }


def telemetry_snapshot() -> Optional[dict]:
    """The engine's metrics-registry snapshot, if the engine was imported.

    Benchmarks exercise the serving stack, so by artifact-writing time the
    process registry holds every counter and latency histogram the run
    produced; stamping it into the document makes each benchmark JSON a
    full telemetry record, not just its headline numbers.  A benchmark that
    never touched the engine leaves the registry empty and gets ``None``.
    """
    snapshot = metrics().snapshot()
    if not snapshot.get("counters") and not snapshot.get("histograms") \
            and not snapshot.get("gauges"):
        return None
    return snapshot


def git_sha() -> Optional[str]:
    """Commit the numbers were measured at (CI env var, then git, else None)."""
    sha = os.environ.get("GITHUB_SHA")
    if sha:
        return sha
    try:
        probe = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return probe.stdout.strip() if probe.returncode == 0 else None


def write_artifact(name: str, payload, *,
                   preset: Optional[str] = None) -> Optional[Path]:
    """Write ``payload`` as ``$REPRO_BENCH_JSON/<name>.json`` (or skip).

    The payload is wrapped with enough provenance to key the numbers across
    PRs (preset, git SHA, timestamp) and to interpret them later
    (python/numpy versions, the dataset override in effect); NumPy scalars
    serialise through ``default=float``.  ``preset`` should name the dataset
    preset(s) the benchmark actually ran on — it falls back to the
    ``REPRO_BENCH_DATASET`` override when omitted.
    """
    out_dir = os.environ.get("REPRO_BENCH_JSON")
    if not out_dir:
        return None
    import numpy as np

    directory = Path(out_dir)
    directory.mkdir(parents=True, exist_ok=True)
    document = {
        "benchmark": name,
        "preset": preset or os.environ.get("REPRO_BENCH_DATASET"),
        "git_sha": git_sha(),
        "timestamp": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "dataset_override": os.environ.get("REPRO_BENCH_DATASET"),
        "peak_rss_bytes": peak_rss_bytes(),
        "telemetry": telemetry_snapshot(),
        "results": payload,
    }
    path = directory / f"{name}.json"
    path.write_text(json.dumps(document, indent=2, default=float) + "\n")
    print(f"[artifacts] wrote {path}", file=sys.stderr)
    return path
