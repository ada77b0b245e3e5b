"""Run metrics: counters, gauges, histograms and phase timers.

The observability layer follows the profiling-first discipline of
lattice-KMC codes (SPPARKS' per-sweep diagnostics, Jansen's event
accounting): every engine can record *what it did* — trials attempted
vs. executed, per-reaction-type acceptance, RNG draws consumed, chunk
occupancy/utilisation for the partitioned CA — without changing what
it computes.  Three rules keep the layer honest:

1. **Zero overhead when off.**  Engines hold a collector that defaults
   to :data:`NULL_METRICS`, a null object whose methods are no-ops;
   hot loops guard the (cheap but nonzero) bookkeeping behind the
   single attribute check ``if self.metrics.enabled:``.  Kernels are
   never instrumented — recording happens at the python orchestration
   level only, so the vectorised inner loops carry no branching.
2. **Bit-identity.**  Enabling metrics must not perturb a trajectory.
   The only runtime hook that touches the random stream is
   :class:`CountingGenerator`, a transparent delegating wrapper — it
   forwards every call unchanged and counts draws *after* the fact.
3. **Immutable snapshots.**  :meth:`MetricsCollector.snapshot` freezes
   the collected values into a :class:`RunMetrics` record (plain
   dicts of floats — JSON-ready via :meth:`RunMetrics.to_dict`).

Naming scheme (stable across PRs — ``run --metrics`` output and the
``benchmarks/perf`` executor and job layers key off it):

``trials.attempted`` / ``trials.executed``
    counters, accumulated per step block;
``steps``
    counter of algorithm step blocks;
``rng.<method>.calls`` / ``rng.<method>.draws``
    counters from :class:`CountingGenerator` (``draws`` counts
    variates returned: ``random(64)`` adds 64, a scalar ``gamma``
    adds 1);
``acceptance`` / ``acceptance.<type>``
    gauges written at result time (executed / attempted);
``attempted.<type>`` / ``executed.<type>``
    gauges written at result time (per-reaction-type totals);
``pndca.chunk.size`` / ``pndca.chunk.occupancy`` / ``pndca.chunk.utilisation``
    histograms, one observation per chunk visit;
``executor.slice.wall`` / ``executor.chunk.wall``
    histograms of per-worker slice / per-barrier wall times
    (:mod:`repro.parallel.executor`);
``run``
    phase timer around :meth:`SimulatorBase.run` (wall + CPU).
"""

from __future__ import annotations

import math
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Iterator, Mapping

import numpy as np

__all__ = [
    "HistogramSummary",
    "PhaseTiming",
    "RunMetrics",
    "MetricsCollector",
    "NullMetrics",
    "NULL_METRICS",
    "CountingGenerator",
    "current_metrics",
    "use_metrics",
    "format_metrics",
]


# ----------------------------------------------------------------------
# immutable snapshot records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class HistogramSummary:
    """Streaming summary of one histogram (no raw samples retained)."""

    count: int
    total: float
    mean: float
    std: float
    min: float
    max: float

    def to_dict(self) -> dict:
        """JSON-ready plain dict."""
        return {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "std": self.std,
            "min": self.min,
            "max": self.max,
        }


@dataclass(frozen=True)
class PhaseTiming:
    """Accumulated wall/CPU time of one named phase."""

    calls: int
    wall_s: float
    cpu_s: float

    def to_dict(self) -> dict:
        """JSON-ready plain dict."""
        return {"calls": self.calls, "wall_s": self.wall_s, "cpu_s": self.cpu_s}


@dataclass(frozen=True)
class RunMetrics:
    """Immutable snapshot of everything a collector recorded."""

    counters: Mapping[str, float] = field(default_factory=dict)
    gauges: Mapping[str, float] = field(default_factory=dict)
    histograms: Mapping[str, HistogramSummary] = field(default_factory=dict)
    phases: Mapping[str, PhaseTiming] = field(default_factory=dict)

    def counter(self, name: str, default: float = 0.0) -> float:
        """One counter value (``default`` when never incremented)."""
        return self.counters.get(name, default)

    def gauge(self, name: str, default: float = math.nan) -> float:
        """One gauge value (NaN when never set)."""
        return self.gauges.get(name, default)

    def to_dict(self) -> dict:
        """Plain nested dict (JSON-serialisable), sorted keys."""
        return {
            "counters": {k: self.counters[k] for k in sorted(self.counters)},
            "gauges": {k: self.gauges[k] for k in sorted(self.gauges)},
            "histograms": {
                k: self.histograms[k].to_dict() for k in sorted(self.histograms)
            },
            "phases": {k: self.phases[k].to_dict() for k in sorted(self.phases)},
        }


# ----------------------------------------------------------------------
# the mutable collector
# ----------------------------------------------------------------------
class _Hist:
    """Streaming moments accumulator (count/sum/sumsq/min/max)."""

    __slots__ = ("count", "total", "sumsq", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.sumsq = 0.0
        self.min = math.inf
        self.max = -math.inf

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.sumsq += value * value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    def summary(self) -> HistogramSummary:
        if self.count == 0:
            return HistogramSummary(0, 0.0, 0.0, 0.0, 0.0, 0.0)
        mean = self.total / self.count
        var = max(self.sumsq / self.count - mean * mean, 0.0)
        return HistogramSummary(
            count=self.count,
            total=self.total,
            mean=mean,
            std=math.sqrt(var),
            min=self.min,
            max=self.max,
        )


class MetricsCollector:
    """Collects counters, gauges, histograms and phase timings.

    One collector per run (or shared across runs to aggregate — the
    ``repro run --metrics`` flag does exactly that).  All methods cost
    a dict update; the engines guard per-visit bookkeeping behind
    :attr:`enabled` so the disabled path stays free.
    """

    #: class-level flag: the null subclass flips it to False so engines
    #: can branch on one attribute load with no isinstance checks
    enabled: bool = True

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._hists: dict[str, _Hist] = {}
        self._phases: dict[str, list[float]] = {}  # name -> [calls, wall, cpu]

    # -- recording -----------------------------------------------------
    def inc(self, name: str, value: float = 1) -> None:
        """Add ``value`` to counter ``name`` (created at 0)."""
        self._counters[name] = self._counters.get(name, 0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Overwrite gauge ``name`` (idempotent totals/rates)."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        h = self._hists.get(name)
        if h is None:
            h = self._hists[name] = _Hist()
        h.observe(float(value))

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Time a phase (wall via ``perf_counter``, CPU via ``process_time``)."""
        w0 = time.perf_counter()
        c0 = time.process_time()
        try:
            yield
        finally:
            w = time.perf_counter() - w0
            c = time.process_time() - c0
            acc = self._phases.get(name)
            if acc is None:
                self._phases[name] = [1, w, c]
            else:
                acc[0] += 1
                acc[1] += w
                acc[2] += c

    # -- reading -------------------------------------------------------
    def counter(self, name: str, default: float = 0.0) -> float:
        """Current value of counter ``name``."""
        return self._counters.get(name, default)

    def snapshot(self) -> RunMetrics:
        """Freeze the current values into an immutable record."""
        return RunMetrics(
            counters=MappingProxyType(dict(self._counters)),
            gauges=MappingProxyType(dict(self._gauges)),
            histograms=MappingProxyType(
                {k: h.summary() for k, h in self._hists.items()}
            ),
            phases=MappingProxyType(
                {
                    k: PhaseTiming(int(v[0]), v[1], v[2])
                    for k, v in self._phases.items()
                }
            ),
        )


_NULL_CM = nullcontext()


class NullMetrics(MetricsCollector):
    """The disabled collector: every method is a no-op.

    Engines call through it unconditionally for per-run bookkeeping
    (the null-object pattern) and guard only per-visit work behind
    :attr:`enabled`; either way nothing is recorded and nothing is
    allocated.
    """

    enabled = False

    def __init__(self) -> None:  # no dicts: the null object stores nothing
        pass

    def inc(self, name: str, value: float = 1) -> None:
        """No-op."""

    def set_gauge(self, name: str, value: float) -> None:
        """No-op."""

    def observe(self, name: str, value: float) -> None:
        """No-op."""

    def phase(self, name: str):  # type: ignore[override]
        """A shared reusable null context manager (no allocation)."""
        return _NULL_CM

    def counter(self, name: str, default: float = 0.0) -> float:
        """Always ``default``."""
        return default

    def snapshot(self) -> RunMetrics:
        """An empty record."""
        return RunMetrics()


#: the shared disabled collector — engines default to it
NULL_METRICS = NullMetrics()


# ----------------------------------------------------------------------
# ambient default (for `repro run --metrics`: drivers build their own
# simulators, so the flag installs a collector they pick up implicitly)
# ----------------------------------------------------------------------
_collector_stack: list[MetricsCollector] = []


def current_metrics() -> MetricsCollector:
    """The ambient collector: innermost :func:`use_metrics`, else null."""
    return _collector_stack[-1] if _collector_stack else NULL_METRICS


@contextmanager
def use_metrics(collector: MetricsCollector) -> Iterator[MetricsCollector]:
    """Install ``collector`` as the ambient default within the block.

    Simulators constructed inside the block (without an explicit
    ``metrics=`` argument) record into it — the mechanism behind
    ``python -m repro run <id> --metrics``.
    """
    _collector_stack.append(collector)
    try:
        yield collector
    finally:
        _collector_stack.pop()


# ----------------------------------------------------------------------
# RNG draw accounting
# ----------------------------------------------------------------------
#: Generator methods counted as draws: every ``numpy.random.Generator``
#: method an engine or helper in this package calls to consume
#: randomness, plus the common samplers a new engine might use.
DRAW_METHODS = frozenset(
    {
        "random",
        "integers",
        "permutation",
        "choice",
        "exponential",
        "gamma",
        "normal",
        "standard_normal",
        "uniform",
        "shuffle",
    }
)


class CountingGenerator:
    """Transparent ``numpy.random.Generator`` wrapper counting draws.

    Delegates every attribute to the wrapped generator; calls to the
    draw methods in :data:`DRAW_METHODS` additionally increment
    ``rng.<method>.calls`` and ``rng.<method>.draws`` (variates
    returned) on the collector *after* the underlying call, so the
    random stream is bit-for-bit the one the bare generator produces.
    Installed by the engines only when metrics are enabled — the
    disabled path keeps the raw generator and pays nothing.
    """

    __slots__ = ("_rng", "_metrics", "_prefix")

    def __init__(
        self,
        rng: np.random.Generator,
        metrics: MetricsCollector,
        prefix: str = "rng",
    ):
        self._rng = rng
        self._metrics = metrics
        self._prefix = prefix

    @property
    def generator(self) -> np.random.Generator:
        """The wrapped generator."""
        return self._rng

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._rng, name)
        if name not in DRAW_METHODS:
            return attr
        metrics = self._metrics
        prefix = self._prefix

        def counted(*args: Any, **kwargs: Any) -> Any:
            out = attr(*args, **kwargs)
            metrics.inc(f"{prefix}.{name}.calls")
            if out is None:  # shuffle mutates in place
                n = np.size(args[0]) if args else 0
            else:
                n = np.size(out)
            metrics.inc(f"{prefix}.{name}.draws", int(n))
            return out

        return counted

    def __repr__(self) -> str:
        return f"CountingGenerator({self._rng!r})"


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_metrics(metrics: RunMetrics) -> str:
    """Aligned plain-text rendering of a metrics snapshot."""
    lines: list[str] = []

    def block(title: str, rows: list[tuple[str, str]]) -> None:
        if not rows:
            return
        lines.append(f"{title}:")
        width = max(len(k) for k, _ in rows)
        for k, v in rows:
            lines.append(f"  {k.ljust(width)}  {v}")

    def num(v: float) -> str:
        if float(v).is_integer() and abs(v) < 1e15:
            return str(int(v))
        return f"{v:.6g}"

    block("counters", [(k, num(metrics.counters[k])) for k in sorted(metrics.counters)])
    block("gauges", [(k, num(metrics.gauges[k])) for k in sorted(metrics.gauges)])
    block(
        "histograms",
        [
            (
                k,
                f"n={h.count} mean={h.mean:.6g} std={h.std:.3g} "
                f"min={h.min:.6g} max={h.max:.6g}",
            )
            for k, h in sorted(metrics.histograms.items())
        ],
    )
    block(
        "phases",
        [
            (k, f"calls={p.calls} wall={p.wall_s:.4f}s cpu={p.cpu_s:.4f}s")
            for k, p in sorted(metrics.phases.items())
        ],
    )
    return "\n".join(lines) if lines else "(no metrics recorded)"
