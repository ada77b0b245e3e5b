"""Span recording and layer hooks for the traced benchmark unit.

Every hook is installed from this directory around a public seam of the
``repro`` package, and removed again when the traced unit ends; nothing
under ``src/`` knows it is being traced:

``kernel``   a :class:`~repro.backends.Backend` subclass, registered with
             ``register_backend``, whose trial kernels wrap another
             backend's :class:`~repro.backends.KernelSet` entries
``rng``      the module-level ``draw_types``/``draw_sites`` names the
             engines import, and ``SimulatorBase.time_increment``
``observe``  a timing :class:`~repro.dmc.base.CoverageObserver` subclass
``engine``   a span-recording :class:`~repro.obs.trace.Tracer` subclass:
             its ``on_step``/``on_chunk`` hooks close one step or chunk
             span each, whose self time is the engine's dispatch cost
``scenario`` the ``load_scenario``/``lint_scenario``/``build_engine``
             names the CLI and the sweep runner look up at call time

Spans are ``(name, start, end)`` tuples kept in memory.  Parents
are assigned afterwards by interval containment (the hooks only see when
a step or chunk *ends*), and a span's self time is its duration minus
the part of it its child spans cover.  Spans whose name is not a layer
(the unit's root, ``engine.run``'s epilogue) count as ``unattributed``.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

perf = time.perf_counter

#: span name -> ledger layer (names missing here are unattributed)
LAYER_OF = {
    "scenario.load": "scenario.load",
    "scenario.lint": "scenario.lint",
    "scenario.build": "scenario.build",
    "engine.step": "engine.dispatch",
    "engine.chunk": "engine.dispatch",
    "kernel": "kernel",
    "rng": "rng",
    "observe": "observe",
    "executor.barrier": "executor.barrier",
    "jobs.journal_append": "jobs.journal_append",
}

#: kernels with one (sites, types) trial stream; the other dispatch
#: kernels are left untraced (no workload here calls them)
TRIAL_KERNELS = (
    "run_trials_sequential",
    "run_trials_batch",
    "run_trials_batch_with_duplicates",
)

#: engine modules whose imported draw_types/draw_sites names are rebound
RNG_MODULES = ("repro.core.rng", "repro.ca.pndca", "repro.ca.ndca", "repro.dmc.rsm")


class Recorder:
    """In-memory spans and exact counts of one traced workload."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[tuple[str, float, float]] = []
        self.counts: Counter = Counter()
        self.max_stream = 0  # largest trial stream one kernel call saw
        self.tables: dict[int, int] = {}  # id(compiled) -> state+maps bytes

    def add(self, name: str, start: float, end: float) -> None:
        self.spans.append((name, start, end))

    @contextmanager
    def span(self, name: str):
        t0 = perf()
        try:
            yield
        finally:
            self.add(name, t0, perf())

    def timed(self, name: str, fn):
        """``fn`` wrapped in a span of ``name``."""

        def traced(*args, **kwargs):
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.add(name, t0, perf())

        return traced

    def note_tables(self, state, compiled) -> None:
        key = id(compiled)
        if key not in self.tables:
            maps = sum(m.nbytes for ct in compiled.types for m in ct.maps)
            self.tables[key] = int(state.nbytes) + int(maps)

    @property
    def working_set_bytes(self) -> int:
        """Computed: state + neighbour maps + the largest call's streams.

        The site and type streams reach the C kernels as int64, so a
        call of ``n`` trials reads ``16 n`` stream bytes.
        """
        tables = max(self.tables.values(), default=0)
        return tables + 16 * self.max_stream

    # -- span tree -----------------------------------------------------
    def tree(self) -> tuple[list[int | None], list[float]]:
        """Parent index and self time of every span, by containment."""
        spans = self.spans
        order = sorted(range(len(spans)), key=lambda i: (spans[i][1], -spans[i][2]))
        parent: list[int | None] = [None] * len(spans)
        covered = [0.0] * len(spans)
        stack: list[int] = []
        for i in order:
            _, start, end = spans[i]
            while stack and spans[stack[-1]][2] <= start:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
                covered[stack[-1]] += end - start
            stack.append(i)
        own = [s[2] - s[1] - c for s, c in zip(spans, covered)]
        return parent, own

    def ledger(self, root: str) -> tuple[float, dict[str, float]]:
        """``(root wall, layer -> self seconds)`` below the spans named ``root``.

        Time the root's subtree spends in spans that are not a layer is
        returned as ``"unattributed"``.
        """
        parent, own = self.tree()
        roots = {i for i, s in enumerate(self.spans) if s[0] == root}
        wall = sum(self.spans[i][2] - self.spans[i][1] for i in roots)
        rows: dict[str, float] = defaultdict(float)
        for i, (name, _, _) in enumerate(self.spans):
            j = i
            while j is not None and j not in roots:
                j = parent[j]
            if j is None:
                continue
            rows[LAYER_OF.get(name, "unattributed")] += own[i]
        rows.setdefault("unattributed", 0.0)
        return wall, dict(rows)

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name)

    def layer_self(self) -> dict[str, float]:
        """Summed self time per ledger layer, over every span."""
        _, own = self.tree()
        out: dict[str, float] = defaultdict(float)
        for (name, _, _), seconds in zip(self.spans, own):
            out[LAYER_OF.get(name, "unattributed")] += seconds
        return out

    def write(self, path: str | Path) -> None:
        """Append every span, as JSON lines, with its parent's id.

        Each workload traces one unit, so the unit id is ``trace``.
        """
        parent, _ = self.tree()
        with open(path, "a", encoding="utf-8") as fh:
            for i, (name, start, end) in enumerate(self.spans):
                record = {"id": i, "name": name, "start": start, "end": end,
                          "parent": parent[i], "workload": self.workload, "unit": "trace"}
                fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# hooks
# ----------------------------------------------------------------------
def traced_backend(rec: Recorder, base: str):
    """Register and return ``traced-<base>``: ``base``'s kernels, timed."""
    from repro.backends import Backend, get_backend, register_backend

    inner = get_backend(base).kernel_set()

    def wrap(fn):
        def traced(state, compiled, sites, *args, **kwargs):
            t0 = perf()
            out = fn(state, compiled, sites, *args, **kwargs)
            rec.add("kernel", t0, perf())
            n = len(sites)
            rec.counts["kernel.calls"] += 1
            rec.counts["kernel.trials"] += n
            if n > rec.max_stream:
                rec.max_stream = n
            rec.note_tables(state, compiled)
            return out

        return traced

    class TracedBackend(Backend):
        name = f"traced-{base}"

        def kernels(self):
            return {k: wrap(getattr(inner, k)) for k in TRIAL_KERNELS}

    return register_backend(TracedBackend())


def span_tracer(rec: Recorder):
    """A :class:`~repro.obs.trace.Tracer` closing one span per step/chunk."""
    from repro.obs.trace import Tracer

    class SpanTracer(Tracer):
        def begin(self) -> None:
            """Mark the start of the first step (call right before ``run``)."""
            self.step_start = self.chunk_start = perf()

        def on_step(self, step_no, sim_time) -> None:
            now = perf()
            rec.add("engine.step", self.step_start, now)
            rec.counts["engine.steps"] += 1
            self.step_start = self.chunk_start = now

        def on_chunk(self, chunk_index, size, sim_time) -> None:
            now = perf()
            rec.add("engine.chunk", self.chunk_start, now)
            rec.counts["engine.chunk_visits"] += 1
            self.chunk_start = now

        def on_job(self, key, status, detail=None) -> None:
            rec.counts[f"jobs.{status}"] += 1

    tracer = SpanTracer()
    tracer.begin()
    return tracer


def build_hook(rec: Recorder, build):
    """``build_engine`` timed as ``scenario.build``, returning a traced engine."""

    def traced(*args, **kwargs):
        t0 = perf()
        engine = build(*args, **kwargs)
        rec.add("scenario.build", t0, perf())
        engine.tracer = span_tracer(rec)
        return engine

    return traced


def timed_observer(rec: Recorder, interval: float):
    """A :class:`CoverageObserver` whose sampling is an ``observe`` span."""
    from repro.dmc.base import CoverageObserver

    class TimedCoverageObserver(CoverageObserver):
        def maybe_sample(self, t, state) -> None:
            t0 = perf()
            super().maybe_sample(t, state)
            rec.add("observe", t0, perf())

        def sample(self, t, state) -> None:
            rec.counts["observe.samples"] += 1
            super().sample(t, state)

    return TimedCoverageObserver(interval)


@contextmanager
def rebound(*targets):
    """Temporarily set ``(owner, attribute, value)`` triples; always restore."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in targets]
    try:
        for owner, attr, value in targets:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def rng_hooks(rec: Recorder) -> list[tuple]:
    """Rebinding targets that time every engine-side random draw."""
    import importlib

    from repro.dmc.base import SimulatorBase

    def wrap(fn):
        def traced(rng, bound, n):
            t0 = perf()
            out = fn(rng, bound, n)
            rec.add("rng", t0, perf())
            rec.counts["rng.calls"] += 1
            rec.counts["rng.draws"] += int(n)
            return out

        return traced

    increment = SimulatorBase.time_increment

    def time_increment(self, n_trials):
        t0 = perf()
        out = increment(self, n_trials)
        rec.add("rng", t0, perf())
        rec.counts["rng.calls"] += 1
        if n_trials > 0 and self.time_mode == "stochastic":
            rec.counts["rng.draws"] += 1  # one Gamma variate per call
        return out

    targets: list[tuple] = [(SimulatorBase, "time_increment", time_increment)]
    for name in RNG_MODULES:
        module = importlib.import_module(name)
        for attr in ("draw_types", "draw_sites"):
            if hasattr(module, attr):
                targets.append((module, attr, wrap(getattr(module, attr))))
    return targets


# ----------------------------------------------------------------------
# layer metrics shared by the workloads
# ----------------------------------------------------------------------
def core_layers(rec: Recorder) -> dict[str, float]:
    """scenario / engine / kernel / rng / observe metrics of a recorder."""
    c = rec.counts
    own = rec.layer_self()
    steps, visits = c["engine.steps"], c["engine.chunk_visits"]
    dispatch, kernel_s = own["engine.dispatch"], own["kernel"]
    calls, trials = c["kernel.calls"], c["kernel.trials"]
    return {
        "scenario.load_s": rec.total("scenario.load"),
        "scenario.lint_s": rec.total("scenario.lint"),
        "scenario.build_s": rec.total("scenario.build"),
        "engine.steps": steps,
        "engine.chunk_visits": visits,
        "engine.dispatch_s": dispatch,
        # a visit is a chunk visit, or a step for engines without chunks
        "engine.dispatch_us_per_visit": 1e6 * dispatch / max(visits or steps, 1),
        "kernel.calls": calls,
        "kernel.trials": trials,
        "kernel.self_s": kernel_s,
        "kernel.ns_per_trial": 1e9 * kernel_s / max(trials, 1),
        "kernel.us_per_call": 1e6 * kernel_s / max(calls, 1),
        "kernel.working_set_bytes": rec.working_set_bytes,
        "rng.calls": c["rng.calls"],
        "rng.draws": c["rng.draws"],
        "rng.self_s": own["rng"],
        "observe.samples": c["observe.samples"],
        "observe.self_s": own["observe"],
    }


def parse_importtime(stderr: str) -> dict[str, float]:
    """``startup.*`` metrics from the ``-X importtime`` report on stderr."""
    cumulative: dict[str, int] = {}
    top_level_us = 0
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cum, name = line[len("import time:"):].split("|", 2)
        module = name.strip()
        cumulative.setdefault(module, int(cum))
        if not name[1:].startswith(" "):  # nesting is indented by two spaces
            top_level_us += int(cum)
    return {
        "startup.import_s": cumulative.get("repro", 0) / 1e6,
        "startup.cli_import_s": cumulative.get("repro.experiments", 0) / 1e6,
        "startup.modules": len(cumulative),
        "startup.scipy_loaded": sum(
            1 for m in cumulative if m == "scipy" or m.startswith("scipy.")
        ),
        "startup.all_imports_s": top_level_us / 1e6,
    }
