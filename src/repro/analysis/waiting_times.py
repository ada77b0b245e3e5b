"""Waiting-time analyses: the Segers correctness criteria.

Based on the Gillespie hypothesis, Segers gives two criteria a
simulation algorithm must satisfy to be a correct realisation of the
Master Equation (paper, section 6):

1. the waiting time for a reaction of type ``i`` (the time that
   elapses before it occurs, while it stays enabled) has an
   exponential distribution ``exp(-k_i t)``;
2. the next reaction type is ``i`` with probability proportional to
   ``k_i`` times the number of enabled reactions of type ``i``.

The cleanest experimental probe is a model where reactions never
disable each other (so waiting times are pure exponentials): e.g. a
single-species "recolour" model whose reaction types are enabled in
every state.  The helpers here extract empirical waiting-time samples
from :class:`~repro.core.events.EventTrace` objects and test them with
Kolmogorov-Smirnov statistics (scipy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.events import EventTrace

__all__ = [
    "ks_exponential",
    "interevent_times",
    "type_selection_ratio",
    "ExponentialityReport",
    "check_exponential_waiting_times",
]


def interevent_times(trace: EventTrace, type_index: int | None = None) -> np.ndarray:
    """Times between consecutive events (optionally of one type)."""
    sub = trace if type_index is None else trace.of_type(type_index)
    t = sub.times
    if t.size < 2:
        return np.empty(0)
    return np.diff(t)


def ks_exponential(samples: np.ndarray, rate: float) -> tuple[float, float]:
    """KS test of samples against ``Exp(rate)``; returns (statistic, p).

    ``rate`` is the intended exponential rate (mean ``1/rate``).
    """
    samples = np.asarray(samples, dtype=np.float64)
    if samples.size < 5:
        raise ValueError(f"need at least 5 samples, got {samples.size}")
    if rate <= 0:
        raise ValueError(f"rate must be positive, got {rate}")
    from scipy import stats

    res = stats.kstest(samples, "expon", args=(0.0, 1.0 / rate))
    return float(res.statistic), float(res.pvalue)


def type_selection_ratio(trace: EventTrace, n_types: int) -> np.ndarray:
    """Empirical fraction of events per reaction type (length ``n_types``)."""
    if len(trace) == 0:
        return np.zeros(n_types)
    counts = np.bincount(trace.type_indices, minlength=n_types)
    return counts / counts.sum()


@dataclass(frozen=True)
class ExponentialityReport:
    """Outcome of the criterion-1 check for one reaction type."""

    type_index: int
    n_samples: int
    empirical_rate: float
    expected_rate: float
    ks_statistic: float
    p_value: float

    @property
    def passed(self) -> bool:
        """Conventional alpha = 0.01 acceptance."""
        return self.p_value > 0.01

    def __str__(self) -> str:
        flag = "ok" if self.passed else "FAIL"
        return (
            f"type {self.type_index}: n={self.n_samples}, "
            f"rate {self.empirical_rate:.4g} (expected {self.expected_rate:.4g}), "
            f"KS={self.ks_statistic:.3f}, p={self.p_value:.3f} [{flag}]"
        )


def check_exponential_waiting_times(
    trace: EventTrace, type_index: int, expected_rate: float
) -> ExponentialityReport:
    """Criterion 1 for one always-enabled reaction type.

    The inter-event times of a type that is *always enabled* (and whose
    enabled count is constant, e.g. one anchor site) must be
    ``Exp(expected_rate)``.
    """
    samples = interevent_times(trace, type_index)
    if samples.size < 5:
        raise ValueError(
            f"type {type_index} has only {samples.size} inter-event samples"
        )
    ks, p = ks_exponential(samples, expected_rate)
    return ExponentialityReport(
        type_index=type_index,
        n_samples=int(samples.size),
        empirical_rate=float(1.0 / samples.mean()),
        expected_rate=float(expected_rate),
        ks_statistic=ks,
        p_value=p,
    )
