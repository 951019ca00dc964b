"""Lightweight performance instrumentation and benchmark trajectories.

Two small pieces:

* :mod:`repro.perf.metrics` -- the wall-clock timer used by the benchmark
  harnesses (and usable ad hoc around any engine call).
* :mod:`repro.perf.trajectory` -- a tiny JSON schema (``repro-bench-v1``)
  for recording benchmark runs to ``BENCH_*.json`` files, loading committed
  baselines and guarding against throughput regressions.

See ``docs/performance.md`` for the workflow and
``benchmarks/bench_core_scaling.py`` for the main consumer.
"""

from repro.perf.metrics import Timer
from repro.perf.trajectory import (
    ANCHOR_CHECKS,
    BENCH_SCHEMA,
    bench_payload,
    check_regression,
    load_baseline_json,
    load_bench_json,
    verify_anchors,
    write_bench_json,
)

__all__ = [
    "Timer",
    "ANCHOR_CHECKS",
    "BENCH_SCHEMA",
    "bench_payload",
    "write_bench_json",
    "load_bench_json",
    "load_baseline_json",
    "check_regression",
    "verify_anchors",
]
