"""Tests for the observability layer (repro.obs).

Covers the collector/tracer primitives, the bit-identity contract
(instrumentation must never perturb a trajectory), counter ground
truth against engine results, and atomic emission.
"""

import json
import time

import numpy as np
import pytest

from repro.analysis.statistics import run_ensemble
from repro.ca import NDCA, PNDCA
from repro.core import Lattice
from repro.core.rng import spawn_rngs
from repro.dmc import RSM
from repro.dmc.base import CoverageObserver
from repro.models import ziff_model
from repro.obs import (
    NULL_METRICS,
    NULL_TRACER,
    CountingGenerator,
    MetricsCollector,
    Tracer,
    current_metrics,
    format_metrics,
    use_metrics,
    write_text_atomic,
)
from repro.partition import five_chunk_partition


# ----------------------------------------------------------------------
# collector primitives
# ----------------------------------------------------------------------
class TestMetricsCollector:
    def test_counters_gauges_histograms(self):
        m = MetricsCollector()
        m.inc("a")
        m.inc("a", 2)
        m.set_gauge("g", 0.5)
        for v in (1.0, 2.0, 3.0):
            m.observe("h", v)
        snap = m.snapshot()
        assert snap.counter("a") == 3
        assert snap.counter("missing") == 0.0
        assert snap.gauge("g") == 0.5
        h = snap.histograms["h"]
        assert h.count == 3
        assert h.total == 6.0
        assert h.mean == pytest.approx(2.0)
        assert h.min == 1.0 and h.max == 3.0
        assert h.std == pytest.approx(np.std([1, 2, 3]))

    def test_phase_records_wall_and_cpu(self):
        m = MetricsCollector()
        with m.phase("p"):
            time.sleep(0.01)
        with m.phase("p"):
            pass
        p = m.snapshot().phases["p"]
        assert p.calls == 2
        assert p.wall_s >= 0.01
        assert p.cpu_s >= 0.0

    def test_snapshot_is_immutable_and_detached(self):
        m = MetricsCollector()
        m.inc("a")
        snap = m.snapshot()
        m.inc("a")  # later mutation must not leak into the snapshot
        assert snap.counter("a") == 1
        with pytest.raises(TypeError):
            snap.counters["a"] = 99  # MappingProxyType

    def test_to_dict_round_trips_through_json(self):
        m = MetricsCollector()
        m.inc("c", 2)
        m.set_gauge("g", 1.5)
        m.observe("h", 4.0)
        with m.phase("run"):
            pass
        d = json.loads(json.dumps(m.snapshot().to_dict()))
        assert d["counters"]["c"] == 2
        assert d["histograms"]["h"]["count"] == 1
        assert d["phases"]["run"]["calls"] == 1

    def test_null_collector_stores_nothing(self):
        NULL_METRICS.inc("a")
        NULL_METRICS.set_gauge("g", 1.0)
        NULL_METRICS.observe("h", 1.0)
        with NULL_METRICS.phase("p"):
            pass
        assert not NULL_METRICS.enabled
        snap = NULL_METRICS.snapshot()
        assert not snap.counters and not snap.phases

    def test_ambient_collector_stack(self):
        assert current_metrics() is NULL_METRICS
        m = MetricsCollector()
        with use_metrics(m) as got:
            assert got is m
            assert current_metrics() is m
            inner = MetricsCollector()
            with use_metrics(inner):
                assert current_metrics() is inner
            assert current_metrics() is m
        assert current_metrics() is NULL_METRICS

    def test_format_metrics_renders_all_blocks(self):
        m = MetricsCollector()
        m.inc("trials.attempted", 10)
        m.set_gauge("acceptance", 0.5)
        m.observe("chunk.size", 20.0)
        with m.phase("run"):
            pass
        text = format_metrics(m.snapshot())
        for needle in ("trials.attempted", "acceptance", "chunk.size", "run"):
            assert needle in text


# ----------------------------------------------------------------------
# counting generator: transparency + accounting
# ----------------------------------------------------------------------
class TestCountingGenerator:
    def test_stream_identical_to_wrapped_generator(self):
        raw = np.random.default_rng(42)
        counted = CountingGenerator(np.random.default_rng(42), MetricsCollector())
        assert np.array_equal(raw.random(100), counted.random(100))
        assert np.array_equal(
            raw.integers(0, 50, size=33), counted.integers(0, 50, size=33)
        )
        assert np.array_equal(raw.permutation(17), counted.permutation(17))
        assert np.array_equal(
            raw.exponential(scale=2.0, size=5), counted.exponential(scale=2.0, size=5)
        )
        assert raw.gamma(3.0) == counted.gamma(3.0)

    def test_draw_counts(self):
        m = MetricsCollector()
        g = CountingGenerator(np.random.default_rng(0), m)
        g.random(100)
        g.random()  # scalar draw counts as 1
        g.integers(0, 10, size=(4, 5))
        snap = m.snapshot()
        assert snap.counter("rng.random.calls") == 2
        assert snap.counter("rng.random.draws") == 101
        assert snap.counter("rng.integers.calls") == 1
        assert snap.counter("rng.integers.draws") == 20

    def test_non_draw_attributes_pass_through(self):
        g = CountingGenerator(np.random.default_rng(0), MetricsCollector())
        assert g.bit_generator is g.generator.bit_generator


# ----------------------------------------------------------------------
# engine counters vs. ground truth
# ----------------------------------------------------------------------
@pytest.fixture
def ten(ziff):
    lat = Lattice((10, 10))
    return lat, five_chunk_partition(lat)


class TestEngineCounters:
    def test_rsm_counters_match_result(self, ziff, ten):
        lat, _ = ten
        m = MetricsCollector()
        res = RSM(ziff, lat, seed=3, metrics=m).run(until=5.0)
        snap = m.snapshot()
        assert snap.counter("trials.attempted") == res.n_trials
        assert snap.counter("trials.executed") == res.n_executed
        assert snap.gauge("acceptance") == pytest.approx(res.acceptance)
        assert res.metrics is not None
        assert res.metrics.counter("trials.executed") == res.n_executed

    def test_pndca_counters_and_chunk_stats(self, ziff, ten):
        lat, p5 = ten
        m = MetricsCollector()
        res = PNDCA(ziff, lat, seed=3, partition=p5, metrics=m).run(until=5.0)
        snap = m.snapshot()
        assert snap.counter("trials.attempted") == res.n_trials
        assert snap.counter("trials.executed") == res.n_executed
        chunks = snap.histograms["pndca.chunk.size"]
        # every chunk visit covers exactly the partition's chunk sizes
        assert chunks.count == snap.counter("pndca.chunk.visits")
        assert chunks.total == res.n_trials
        occ = snap.histograms["pndca.chunk.occupancy"]
        assert 0.0 < occ.min and occ.max <= 1.0
        util = snap.histograms["pndca.chunk.utilisation"]
        assert 0.0 <= util.min and util.max <= 1.0

    def test_per_type_acceptance_gauges(self, ziff, ten):
        lat, _ = ten
        m = MetricsCollector()
        res = RSM(ziff, lat, seed=5, metrics=m).run(until=5.0)
        snap = m.snapshot()
        executed = attempted = 0
        for rt in ziff.reaction_types:
            e = snap.gauge(f"executed.{rt.name}")
            a = snap.gauge(f"attempted.{rt.name}", 0.0)
            acc = snap.gauge(f"acceptance.{rt.name}", 0.0)
            if a:
                assert acc == pytest.approx(e / a)
            executed += e
            attempted += a
        assert executed == res.n_executed
        assert attempted == res.n_trials

    def test_ensemble_counters_match_result(self, ziff, ten):
        """One collector over a replica loop counts every replica."""
        lat, p5 = ten
        m = MetricsCollector()

        def factory(seed):
            return PNDCA(
                ziff, lat, seed=seed, partition=p5, metrics=m,
                observers=[CoverageObserver(1.0)],
            )

        ens = run_ensemble(factory, spawn_rngs(9, 3), 4.0, keep_results=True)
        snap = m.snapshot()
        assert snap.counter("trials.attempted") == sum(
            r.n_trials for r in ens.results
        )
        assert snap.counter("trials.executed") == sum(
            r.n_executed for r in ens.results
        )
        assert all(r.metrics is not None for r in ens.results)

    def test_ambient_collector_captures_simulator(self, ziff, ten):
        """`repro run --metrics` path: collector installed around construction."""
        lat, _ = ten
        m = MetricsCollector()
        with use_metrics(m):
            res = RSM(ziff, lat, seed=1).run(until=2.0)
        assert m.snapshot().counter("trials.attempted") == res.n_trials


# ----------------------------------------------------------------------
# bit-identity: instrumentation must not perturb trajectories
# ----------------------------------------------------------------------
class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["rsm", "ndca", "pndca"])
    def test_sequential_engines(self, ziff, ten, engine):
        lat, p5 = ten

        def build(**kw):
            if engine == "rsm":
                return RSM(ziff, lat, seed=21, **kw)
            if engine == "ndca":
                return NDCA(ziff, lat, seed=21, order="random", **kw)
            return PNDCA(ziff, lat, seed=21, partition=p5, **kw)

        bare = build().run(until=4.0)
        instrumented = build(metrics=MetricsCollector(), tracer=Tracer()).run(
            until=4.0
        )
        assert np.array_equal(
            bare.final_state.array, instrumented.final_state.array
        )
        assert bare.n_trials == instrumented.n_trials
        assert bare.final_time == instrumented.final_time
        assert np.array_equal(
            bare.executed_per_type, instrumented.executed_per_type
        )


# ----------------------------------------------------------------------
# tracer
# ----------------------------------------------------------------------
class TestTracer:
    def test_spans(self):
        t = Tracer()
        with t.span("outer", color="red"):
            with t.span("inner"):
                pass
        assert [s.name for s in t.spans] == ["inner", "outer"]
        assert dict(t.spans[1].attrs) == {"color": "red"}
        assert all(s.duration >= 0 for s in t.spans)
        recs = t.to_records()
        assert recs[0]["name"] == "inner"
        assert recs[1]["color"] == "red"

    def test_step_and_chunk_hooks_fire(self, ziff, ten):
        lat, p5 = ten
        t = Tracer()
        PNDCA(ziff, lat, seed=1, partition=p5, tracer=t).run(
            until=1.0, max_steps=2
        )
        kinds = {e[0] for e in t.events}
        assert "step" in kinds and "chunk" in kinds
        chunk_events = [e for e in t.events if e[0] == "chunk"]
        # 2 steps x 5 chunks, indices propagated from the schedule
        assert len(chunk_events) == 10
        assert {e[3]["chunk"] for e in chunk_events} == set(range(5))

    def test_snapshot_hook_fires_on_observer_sampling(self, ziff, ten):
        lat, _ = ten
        t = Tracer()
        RSM(
            ziff, lat, seed=1, tracer=t,
            observers=[CoverageObserver(interval=1.0)],
        ).run(until=3.0)
        snapshots = [e for e in t.events if e[0] == "snapshot"]
        assert len(snapshots) >= 3  # grid points 0,1,2 at least

    def test_null_tracer_stores_nothing(self):
        NULL_TRACER.on_step(1, 0.0)
        NULL_TRACER.on_chunk(0, 10, 0.0)
        NULL_TRACER.on_snapshot(0.0)
        with NULL_TRACER.span("x"):
            pass
        assert not NULL_TRACER.enabled
        assert NULL_TRACER.to_records() == []


# ----------------------------------------------------------------------
# emission: atomicity
# ----------------------------------------------------------------------
class TestEmit:
    def test_write_text_atomic(self, tmp_path):
        target = tmp_path / "report.txt"
        write_text_atomic(target, "hello\n")
        assert target.read_text() == "hello\n"
        write_text_atomic(target, "replaced\n")
        assert target.read_text() == "replaced\n"
        # no stray temp files left behind
        assert [p.name for p in tmp_path.iterdir()] == ["report.txt"]


# ----------------------------------------------------------------------
# overhead of the disabled path
# ----------------------------------------------------------------------
def test_defaults_are_the_null_singletons(ziff, ten):
    """The zero-overhead guarantee rests on the shared null objects."""
    lat, p5 = ten
    sim = PNDCA(ziff, lat, seed=1, partition=p5)
    assert sim.metrics is NULL_METRICS
    assert sim.tracer is NULL_TRACER
    # and the RNG stays unwrapped (no delegation layer on the hot path)
    assert isinstance(sim.rng, np.random.Generator)


@pytest.mark.slow
def test_disabled_instrumentation_overhead_is_negligible():
    """A default (disabled) run must not be slower than an instrumented one.

    The disabled path does strictly less work than the enabled path, so
    ``disabled <= enabled * bound`` catches the failure mode that
    matters: collection cost accidentally wired into the default path.
    The bound is generous (1.2x + 50ms) to stay robust on noisy CI.
    """
    model = ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0)
    lat = Lattice((20, 20))
    p5 = five_chunk_partition(lat)

    def run_once(**kw):
        t0 = time.perf_counter()
        PNDCA(model, lat, seed=1, partition=p5, **kw).run(until=30.0)
        return time.perf_counter() - t0

    run_once()  # warm-up
    disabled = min(run_once() for _ in range(3))
    enabled = min(
        run_once(metrics=MetricsCollector(), tracer=Tracer()) for _ in range(3)
    )
    assert disabled < enabled * 1.2 + 0.05
