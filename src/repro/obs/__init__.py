"""repro.obs — runtime observability: metrics, tracing, atomic emission.

The observability layer (DESIGN.md §9) gives every engine a first-class
account of what a run did and what it cost:

* :mod:`repro.obs.metrics` — counters/gauges/histograms/phase timers
  collected into an immutable :class:`RunMetrics` record; the
  :class:`CountingGenerator` wrapper accounts RNG draws by kind; all
  engines accept
  ``metrics=`` and default to the zero-overhead :data:`NULL_METRICS`;
* :mod:`repro.obs.trace` — opt-in span/event tracing hooks
  (``on_step`` / ``on_chunk`` / ``on_snapshot``), null-object
  :data:`NULL_TRACER` by default;
* :mod:`repro.obs.emit` — atomic file emission (temp file, fsync,
  ``os.replace``) for checkpoints and reports.

``python -m repro run <id> --metrics`` prints a run's collected
metrics; performance claims are measured with ``benchmarks/perf``.

Enabling metrics or tracing never changes a trajectory: runs are
bit-identical with the layer on or off (asserted by the differential
tests in ``tests/test_obs.py``).
"""

from .emit import write_json_atomic, write_text_atomic
from .metrics import (
    NULL_METRICS,
    CountingGenerator,
    HistogramSummary,
    MetricsCollector,
    NullMetrics,
    PhaseTiming,
    RunMetrics,
    current_metrics,
    format_metrics,
    use_metrics,
)
from .trace import NULL_TRACER, NullTracer, Span, Tracer

__all__ = [
    # metrics
    "MetricsCollector",
    "NullMetrics",
    "NULL_METRICS",
    "RunMetrics",
    "HistogramSummary",
    "PhaseTiming",
    "CountingGenerator",
    "current_metrics",
    "use_metrics",
    "format_metrics",
    # trace
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "Span",
    # emit
    "write_json_atomic",
    "write_text_atomic",
]
