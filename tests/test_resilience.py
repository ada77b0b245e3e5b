"""Checkpoint/resume: schema, corruption diagnostics, bit-identity.

The hard guarantee under test: a run checkpointed at step ``k`` and
resumed into a freshly constructed engine is **bit-identical** to the
same run uninterrupted — state, clock, trial counters, RNG stream and
the observers' sampled series all match exactly.  Asserted for every
engine with a resume path (RSM, NDCA, PNDCA and L-PNDCA).
"""

import numpy as np
import pytest

from repro.core import Lattice
from repro.dmc.base import CoverageObserver
from repro.resilience import (
    CKPT_SCHEMA,
    CheckpointCorruptError,
    CheckpointMismatchError,
    CheckpointPolicy,
    Checkpointer,
    checkpoint_paths,
    decode_array,
    encode_array,
    engine_fingerprint,
    last_good_checkpoint,
    load_checkpoint,
    signal_trap,
    write_checkpoint,
)
from repro.resilience.checkpoint import restore_rng_state, rng_state

UNTIL = 3.0


# ----------------------------------------------------------------------
# engine factories for the differential bit-identity matrix
# ----------------------------------------------------------------------
def _mk_rsm(model, lat, seed):
    from repro.dmc.rsm import RSM

    # small trial blocks so a short run crosses several step boundaries
    return RSM(model, lat, seed=seed, block=512,
               observers=[CoverageObserver(0.5)])


def _mk_ndca(model, lat, seed):
    from repro.ca.ndca import NDCA

    return NDCA(model, lat, seed=seed, observers=[CoverageObserver(0.5)])


def _mk_pndca(model, lat, seed):
    from repro.ca.pndca import PNDCA
    from repro.partition import five_chunk_partition

    return PNDCA(
        model, lat, seed=seed, partition=five_chunk_partition(lat),
        strategy="random-order", observers=[CoverageObserver(0.5)],
    )


def _mk_pndca_cycle(model, lat, seed):
    from repro.ca.pndca import PNDCA
    from repro.partition import five_chunk_family

    return PNDCA(
        model, lat, seed=seed, partition=five_chunk_family(lat),
        strategy="ordered", partition_schedule="cycle",
    )


def _mk_lpndca(model, lat, seed):
    from repro.ca.lpndca import LPNDCA
    from repro.partition import five_chunk_partition

    return LPNDCA(
        model, lat, seed=seed, partition=five_chunk_partition(lat), L=4,
        observers=[CoverageObserver(0.5)],
    )


ENGINES = {
    "rsm": _mk_rsm,
    "ndca": _mk_ndca,
    "pndca": _mk_pndca,
    "pndca-cycle": _mk_pndca_cycle,
    "lpndca": _mk_lpndca,
}

# ----------------------------------------------------------------------
class TestPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            CheckpointPolicy(every_steps=0)
        with pytest.raises(ValueError):
            CheckpointPolicy(every_steps=None, every_seconds=0.0)
        with pytest.raises(ValueError):
            CheckpointPolicy(every_steps=None, every_seconds=None)

    def test_step_trigger(self):
        p = CheckpointPolicy(every_steps=3)
        assert not p.due(2, 1e9)  # seconds trigger unset: never fires
        assert p.due(3, 0.0)

    def test_seconds_trigger(self):
        p = CheckpointPolicy(every_steps=None, every_seconds=10.0)
        assert not p.due(10**6, 9.0)
        assert p.due(0, 10.0)

    def test_either_trigger(self):
        p = CheckpointPolicy(every_steps=5, every_seconds=10.0)
        assert p.due(5, 0.0)
        assert p.due(0, 11.0)
        assert not p.due(4, 9.0)


class TestCodecs:
    def test_array_round_trip(self, rng):
        for dtype in (np.uint8, np.int64, np.float64):
            a = (rng.random((4, 7)) * 100).astype(dtype)
            b = decode_array(encode_array(a))
            assert b.dtype == a.dtype and b.shape == a.shape
            assert np.array_equal(a, b)

    def test_array_decode_garbage(self):
        with pytest.raises(CheckpointCorruptError):
            decode_array({"dtype": "uint8", "shape": [3], "data": "!!!"})

    def test_rng_state_round_trip(self):
        a = np.random.default_rng(5)
        b = np.random.default_rng(99)
        a.random(17)  # advance into the stream
        restore_rng_state(b, rng_state(a))
        assert np.array_equal(a.random(32), b.random(32))

    def test_rng_state_through_counting_wrapper(self):
        from repro.obs.metrics import CountingGenerator, MetricsCollector

        a = CountingGenerator(np.random.default_rng(5), MetricsCollector())
        a.random(9)
        b = np.random.default_rng(0)
        restore_rng_state(b, rng_state(a))
        assert np.array_equal(a.random(16), b.random(16))

    def test_rng_bit_generator_mismatch(self):
        a = np.random.default_rng(1)
        record = rng_state(a)
        record["bit_generator"] = "MT19937"
        with pytest.raises(CheckpointMismatchError, match="bit generator"):
            restore_rng_state(a, record)

    def test_rng_state_is_json_safe(self):
        import json

        json.dumps(rng_state(np.random.default_rng(3)))


class TestCheckpointFiles:
    def test_round_trip(self, tmp_path):
        payload = {"kind": "simulator", "x": [1, 2, 3]}
        p = write_checkpoint(tmp_path / "ckpt_run_000000000001.json", payload)
        assert load_checkpoint(p) == payload

    def test_schema_stamp(self, tmp_path):
        import json

        p = write_checkpoint(tmp_path / "ckpt_run_000000000001.json", {"a": 1})
        record = json.loads(p.read_text())
        assert record["schema"] == CKPT_SCHEMA
        assert isinstance(record["crc32"], int)

    def test_truncation_detected(self, tmp_path):
        p = write_checkpoint(tmp_path / "ckpt_run_000000000001.json", {"a": 1})
        p.write_bytes(p.read_bytes()[: p.stat().st_size // 2])
        with pytest.raises(CheckpointCorruptError, match="truncated|JSON"):
            load_checkpoint(p)

    def test_crc_detects_flip(self, tmp_path):
        # flip a byte inside the payload without breaking the JSON
        p = write_checkpoint(
            tmp_path / "ckpt_run_000000000001.json", {"a": "abcdef"}
        )
        text = p.read_text().replace("abcdef", "abcxef")
        p.write_text(text)
        with pytest.raises(CheckpointCorruptError, match="CRC mismatch"):
            load_checkpoint(p)

    def test_corrupt_error_names_last_good(self, tmp_path):
        good = write_checkpoint(
            tmp_path / "ckpt_run_000000000001.json", {"a": 1}
        )
        bad = write_checkpoint(
            tmp_path / "ckpt_run_000000000002.json", {"a": 2}
        )
        bad.write_bytes(bad.read_bytes()[:10])
        with pytest.raises(CheckpointCorruptError, match=str(good)):
            load_checkpoint(bad)

    def test_corrupt_error_when_no_good_left(self, tmp_path):
        bad = write_checkpoint(
            tmp_path / "ckpt_run_000000000001.json", {"a": 1}
        )
        bad.write_bytes(bad.read_bytes()[:10])
        with pytest.raises(CheckpointCorruptError, match="no good checkpoint"):
            load_checkpoint(bad)

    def test_unknown_schema_rejected(self, tmp_path):
        import json

        p = tmp_path / "ckpt_run_000000000001.json"
        p.write_text(json.dumps({"schema": "repro.ckpt/99", "payload": {}}))
        with pytest.raises(CheckpointCorruptError, match="schema"):
            load_checkpoint(p)

    def test_paths_ordered_by_trials(self, tmp_path):
        for n in (30, 1, 200):
            write_checkpoint(tmp_path / f"ckpt_run_{n:012d}.json", {"n": n})
        (tmp_path / "not_a_checkpoint.json").write_text("{}")
        paths = checkpoint_paths(tmp_path)
        assert [load_checkpoint(p)["n"] for p in paths] == [1, 30, 200]

    def test_last_good_skips_corrupt(self, tmp_path):
        write_checkpoint(tmp_path / "ckpt_run_000000000001.json", {"n": 1})
        bad = write_checkpoint(
            tmp_path / "ckpt_run_000000000002.json", {"n": 2}
        )
        bad.write_bytes(bad.read_bytes()[:10])
        good = last_good_checkpoint(tmp_path)
        assert good is not None and load_checkpoint(good)["n"] == 1

    def test_last_good_empty_dir(self, tmp_path):
        assert last_good_checkpoint(tmp_path) is None
        assert last_good_checkpoint(tmp_path / "missing") is None


class TestFingerprint:
    def test_mismatch_refused(self, ziff, small_lattice, tmp_path):
        a = _mk_rsm(ziff, small_lattice, seed=1)
        b = _mk_rsm(ziff, Lattice((20, 20)), seed=1)
        a.run(until=1.0)
        p = write_checkpoint(
            tmp_path / "ckpt_run_000000000001.json", a.checkpoint_payload()
        )
        with pytest.raises(CheckpointMismatchError, match="fingerprint"):
            b.resume(p)

    def test_kind_mismatch_refused(self, ziff, small_lattice):
        sim = _mk_rsm(ziff, small_lattice, seed=1)
        payload = dict(sim.checkpoint_payload(), kind="ensemble")
        with pytest.raises(CheckpointMismatchError, match="kind"):
            _mk_rsm(ziff, small_lattice, seed=1).restore_payload(payload)

    def test_fingerprint_covers_rates(self, ziff, small_lattice):
        from repro.models import ziff_model

        other = ziff_model(k_co=1.0, k_o2=0.5, k_co2=3.0)
        fa = engine_fingerprint(_mk_rsm(ziff, small_lattice, 0))
        fb = engine_fingerprint(_mk_rsm(other, small_lattice, 0))
        assert fa != fb


# ----------------------------------------------------------------------
# the differential matrix: checkpoint at step k, resume, compare
# ----------------------------------------------------------------------
def _assert_sim_identical(a, b):
    assert np.array_equal(a.final_state.array, b.final_state.array)
    assert a.final_time == b.final_time
    assert a.n_trials == b.n_trials
    assert np.array_equal(a.executed_per_type, b.executed_per_type)
    assert np.array_equal(a.times, b.times)
    for k in a.coverage:
        assert np.array_equal(a.coverage[k], b.coverage[k])


@pytest.mark.parametrize("engine_key", sorted(ENGINES))
def test_resume_bit_identical(engine_key, ziff, small_lattice, tmp_path):
    mk = ENGINES[engine_key]
    baseline = mk(ziff, small_lattice, 42).run(until=UNTIL)

    ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=1), tag=engine_key)
    mk(ziff, small_lattice, 42).run(until=UNTIL, checkpoint=ck)
    paths = checkpoint_paths(tmp_path)
    assert len(paths) >= 2

    # resume from a mid-run checkpoint; the constructor seed is
    # deliberately different — the restored rng state replaces it
    mid = paths[len(paths) // 2]
    resumed = mk(ziff, small_lattice, 999).resume(mid).run(until=UNTIL)
    _assert_sim_identical(baseline, resumed)


@pytest.mark.parametrize(
    "engine_key", ["ens-ndca", "ens-pndca", "ens-rsm"]
)
def test_ensemble_resume_bit_identical(engine_key, ziff, small_lattice, tmp_path):
    """Replica engines on spawned Generator streams (the run_ensemble
    seeds) resume bit-identically from a mid-run checkpoint."""
    from repro.core.rng import spawn_rngs

    mk = ENGINES[engine_key.removeprefix("ens-")]
    baseline = mk(ziff, small_lattice, spawn_rngs(42, 3)[2]).run(until=UNTIL)

    ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=1), tag=engine_key)
    mk(ziff, small_lattice, spawn_rngs(42, 3)[2]).run(until=UNTIL, checkpoint=ck)
    paths = checkpoint_paths(tmp_path)
    assert len(paths) >= 2

    mid = paths[len(paths) // 2]
    resumed = mk(ziff, small_lattice, spawn_rngs(7, 3)[2]).resume(mid)
    _assert_sim_identical(baseline, resumed.run(until=UNTIL))


def test_retired_ensemble_checkpoint_is_refused(ziff, small_lattice, tmp_path, capsys):
    """A stacked-ensemble envelope raises a named error and never
    reaches a simulator, through the API and through ``--resume``."""
    from repro.__main__ import main

    sim = _mk_rsm(ziff, small_lattice, 42)
    payload = dict(sim.checkpoint_payload(), kind="ensemble")
    path = write_checkpoint(tmp_path / "ckpt_00000001_ens.json", payload)
    before = sim.state.array.copy()
    with pytest.raises(CheckpointMismatchError, match="'ensemble' is retired"):
        sim.resume(path)
    assert np.array_equal(sim.state.array, before)
    assert sim.time == 0.0

    assert main(["run", "zgb", "--resume", str(path)]) == 2
    out, err = capsys.readouterr()
    assert "digest" not in out.splitlines()[-1]
    assert err.count("\n") == 1 and "[sweep] seed" in err


def test_resume_with_metrics_enabled(ziff, small_lattice, tmp_path):
    """The CountingGenerator wrapper is transparent to checkpointing."""
    from repro.obs.metrics import MetricsCollector

    baseline = _mk_rsm(ziff, small_lattice, 42).run(until=UNTIL)
    ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=1))
    sim = _mk_rsm(ziff, small_lattice, 42)
    sim.metrics = MetricsCollector()
    from repro.obs.metrics import CountingGenerator

    sim.rng = CountingGenerator(sim.rng, sim.metrics)
    sim.run(until=UNTIL, checkpoint=ck)
    mid = checkpoint_paths(tmp_path)[1]
    resumed = _mk_rsm(ziff, small_lattice, 0).resume(mid).run(until=UNTIL)
    _assert_sim_identical(baseline, resumed)


# ----------------------------------------------------------------------
class TestCheckpointer:
    def test_policy_cadence(self, ziff, small_lattice, tmp_path):
        ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=5))
        sim = _mk_pndca(ziff, small_lattice, 1)
        sim.run(until=UNTIL, checkpoint=ck)
        # one file per 5 step blocks (file names embed monotone trials)
        assert 1 <= len(checkpoint_paths(tmp_path))
        assert ck.last_path is not None

    def test_tag_sanitised(self, tmp_path):
        ck = Checkpointer(tmp_path, tag="a b/c!")
        assert "/" not in ck.tag and " " not in ck.tag

    def test_metrics_counted(self, ziff, small_lattice, tmp_path):
        from repro.obs.metrics import MetricsCollector

        m = MetricsCollector()
        ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=1), metrics=m)
        _mk_rsm(ziff, small_lattice, 1).run(until=1.0, checkpoint=ck)
        snap = m.snapshot()
        assert snap.counter("checkpoint.writes") == len(checkpoint_paths(tmp_path))
        assert snap.counter("checkpoint.write_errors", 0) == 0

    def test_signal_flushes_then_interrupts(self, ziff, small_lattice, tmp_path):
        import signal as signal_mod

        ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=10**9))
        sim = _mk_rsm(ziff, small_lattice, 1)
        ck.start(sim)
        ck._on_signal(signal_mod.SIGTERM, None)  # handler: flag only, no I/O
        assert ck.interrupted
        assert checkpoint_paths(tmp_path) == []  # nothing written yet
        with pytest.raises(KeyboardInterrupt, match="checkpoint flushed"):
            ck.after_step(sim)  # next step boundary: flush, then raise
        assert len(checkpoint_paths(tmp_path)) == 1
        assert ck.last_path is not None

    def test_signal_without_engine_interrupts_immediately(self, tmp_path):
        import signal as signal_mod

        ck = Checkpointer(tmp_path)
        with pytest.raises(KeyboardInterrupt):
            ck._on_signal(signal_mod.SIGINT, None)

    def test_sigterm_mid_run_leaves_resumable_checkpoint(
        self, ziff, small_lattice, tmp_path
    ):
        """End to end: a real signal interrupts the run loop, the flushed
        checkpoint resumes bit-identically to the uninterrupted run."""
        import os
        import signal as signal_mod
        import threading

        ck = Checkpointer(tmp_path, CheckpointPolicy(every_steps=10**9))
        sim = _mk_rsm(ziff, small_lattice, 42)
        timer = threading.Timer(0.05, os.kill, (os.getpid(), signal_mod.SIGTERM))
        with signal_trap(ck._on_signal):  # the deferred-flush handler
            timer.start()
            try:
                with pytest.raises(KeyboardInterrupt):
                    sim.run(until=10**9, checkpoint=ck)  # far horizon
            finally:
                timer.cancel()
        assert ck.last_path is not None
        # continue past the (timing-dependent) interrupt point and
        # compare against an uninterrupted twin at the same horizon
        resumed = _mk_rsm(ziff, small_lattice, 0).resume(ck.last_path)
        horizon = float(np.ceil(resumed.time)) + 2.0
        result = resumed.run(until=horizon)
        baseline = _mk_rsm(ziff, small_lattice, 42).run(until=horizon)
        _assert_sim_identical(baseline, result)


# ----------------------------------------------------------------------
class TestSignalDiscipline:
    """``signal_trap``: every install is undone, in order, on every path."""

    @pytest.fixture(autouse=True)
    def _saved_handlers(self):
        """Put the session's handlers back even when a test fails."""
        import signal as signal_mod

        saved = {
            sig: signal_mod.getsignal(sig)
            for sig in (signal_mod.SIGINT, signal_mod.SIGTERM)
        }
        yield
        for sig, handler in saved.items():
            signal_mod.signal(sig, handler)

    @staticmethod
    def _handlers():
        import signal as signal_mod

        return (
            signal_mod.getsignal(signal_mod.SIGINT),
            signal_mod.getsignal(signal_mod.SIGTERM),
        )

    def test_double_install_is_idempotent(self, tmp_path):
        """The same handler trapped twice (nested) unwinds to the original."""
        ck = Checkpointer(tmp_path)
        before = self._handlers()
        with signal_trap(ck._on_signal):
            with signal_trap(ck._on_signal):
                assert self._handlers() == (ck._on_signal,) * 2
            assert self._handlers() == (ck._on_signal,) * 2
        assert self._handlers() == before

    def test_nested_install_restore_unwinds_in_order(self, tmp_path):
        outer = Checkpointer(tmp_path / "outer")
        inner = Checkpointer(tmp_path / "inner")
        before = self._handlers()
        with signal_trap(outer._on_signal):
            with signal_trap(inner._on_signal):
                assert self._handlers() == (inner._on_signal,) * 2
            assert self._handlers() == (outer._on_signal,) * 2
        assert self._handlers() == before

    def test_trap_restores_on_exception(self, tmp_path):
        ck = Checkpointer(tmp_path)
        before = self._handlers()
        with pytest.raises(RuntimeError, match="boom"):
            with signal_trap(ck._on_signal):
                assert self._handlers() == (ck._on_signal,) * 2
                raise RuntimeError("boom")
        assert self._handlers() == before

    def test_nested_traps_with_exception_unwind(self, tmp_path):
        outer = Checkpointer(tmp_path / "outer")
        inner = Checkpointer(tmp_path / "inner")
        before = self._handlers()
        with signal_trap(outer._on_signal):
            with pytest.raises(RuntimeError):
                with signal_trap(inner._on_signal):
                    raise RuntimeError("inner failure")
            # the inner scope unwound to the outer installation
            assert self._handlers() == (outer._on_signal,) * 2
        assert self._handlers() == before

    def test_run_scenario_restores_handlers(self, tmp_path, monkeypatch):
        """A checkpointed scenario run traps signals only while it runs,
        and puts the caller's handlers back on return and on raise."""
        import signal as signal_mod

        import repro.scenario.runner as runner
        from repro.scenario import find_scenario, run_scenario

        def mine(signum, frame):  # pragma: no cover - never delivered
            pass

        signal_mod.signal(signal_mod.SIGINT, mine)
        signal_mod.signal(signal_mod.SIGTERM, mine)
        spec = find_scenario("no-co")
        assert run_scenario(spec, until=0.2, checkpoint_dir=tmp_path) == 0
        assert self._handlers() == (mine, mine)

        def boom(engine, until, ckpt):
            assert self._handlers() == (ckpt._on_signal,) * 2
            raise RuntimeError("boom")

        monkeypatch.setattr(runner, "_run_engine", boom)
        with pytest.raises(RuntimeError, match="boom"):
            run_scenario(spec, until=0.2, checkpoint_dir=tmp_path / "b")
        assert self._handlers() == (mine, mine)

    def test_orchestrator_run_restores_handlers(
        self, tmp_path, monkeypatch
    ):
        """The drain handler is installed while jobs run, and the
        caller's handlers are back after ``run`` returns or raises."""
        import io
        import signal as signal_mod

        from repro.jobs import JobOrchestrator
        from repro.scenario import find_scenario

        def mine(signum, frame):  # pragma: no cover - never delivered
            pass

        signal_mod.signal(signal_mod.SIGINT, mine)
        signal_mod.signal(signal_mod.SIGTERM, mine)
        orch = JobOrchestrator((find_scenario("no-co"),), n_workers=1)

        def supervise(todo, out, failed):
            assert self._handlers() == (orch._on_signal,) * 2
            return []  # nothing left for the serial rung

        monkeypatch.setattr(orch, "_supervise", supervise)
        assert orch.run(out=io.StringIO()) == 0
        assert self._handlers() == (mine, mine)

        def boom(todo, out, failed):
            raise RuntimeError("boom")

        monkeypatch.setattr(orch, "_supervise", boom)
        with pytest.raises(RuntimeError, match="boom"):
            orch.run(out=io.StringIO())
        assert self._handlers() == (mine, mine)


# ----------------------------------------------------------------------
class TestCLI:
    def test_round_trip_digest(self, tmp_path, capsys):
        from repro.__main__ import main

        d = str(tmp_path / "ckpts")
        assert main(["run", "zgb", "--until", "2",
                     "--checkpoint-dir", d]) == 0
        full = capsys.readouterr().out
        digest = [ln for ln in full.splitlines() if ln.startswith("digest ")]
        assert len(digest) == 1

        # resume from the newest good checkpoint in the directory
        assert main(["run", "zgb", "--until", "2", "--resume", d]) == 0
        resumed = capsys.readouterr().out
        digest2 = [ln for ln in resumed.splitlines() if ln.startswith("digest ")]
        assert digest == digest2

    def test_resume_mid_checkpoint_matches(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.resilience import checkpoint_paths as ckpt_paths

        d = tmp_path / "ckpts"
        assert main(["run", "no-co", "--until", "2",
                     "--checkpoint-dir", str(d), "--checkpoint-every", "3"]) == 0
        base = [ln for ln in capsys.readouterr().out.splitlines()
                if ln.startswith("digest ")]
        assert base[0].startswith("digest f7aacf8b5d26d623 ")
        paths = ckpt_paths(d)
        assert len(paths) == 27
        assert main(["run", "no-co", "--until", "2",
                     "--resume", str(paths[1])]) == 0
        resumed = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.startswith("digest ")]
        assert base == resumed

    def test_sigterm_flushes_and_resume_matches_straight_run(self, tmp_path):
        """A real SIGTERM to `repro run <scenario> --checkpoint-dir`: exit
        130 naming the flushed checkpoint, and a resume from it to H
        prints the digest of an uninterrupted run to H."""
        import math
        import os
        import re
        import signal as signal_mod
        import subprocess
        import sys
        import time
        from pathlib import Path

        import repro

        src = str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (src, env.get("PYTHONPATH")))
        )
        run = [sys.executable, "-m", "repro", "run", "no-co"]
        d = str(tmp_path / "ckpts")
        proc = subprocess.Popen(
            run + ["--until", "100000", "--checkpoint-dir", d,
                   "--checkpoint-every", "1000000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=env,
        )
        try:
            # the engine line is printed just before the trapped run starts
            head = ""
            while not head.startswith("no-co: engine"):
                head = proc.stdout.readline()
                assert head, proc.stderr.read()
            time.sleep(0.5)
            proc.send_signal(signal_mod.SIGTERM)
            out, err = proc.communicate(timeout=120)
        finally:
            proc.kill()
            proc.wait()
        assert proc.returncode == 130, err
        assert re.search(
            r"^interrupted: signal 15: final checkpoint flushed to \S+ckpt_no-co_\d+\.json$",
            out, re.M,
        ), out
        t = float(re.search(r"^digest [0-9a-f]{16} t=(\S+) ", out, re.M).group(1))
        horizon = str(math.ceil(t) + 2)

        def digest(argv):
            done = subprocess.run(
                run + argv + ["--until", horizon],
                capture_output=True, text=True, env=env, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            return [ln for ln in done.stdout.splitlines() if ln.startswith("digest ")]

        resumed = digest(["--resume", "--checkpoint-dir", d])
        assert len(resumed) == 1
        assert resumed == digest([])

    def test_unknown_experiment_still_errors(self, capsys):
        from repro.__main__ import main

        assert main(["run", "no-such-thing"]) == 2

    def test_resume_options_rejected_for_experiments(self, capsys):
        from repro.__main__ import main

        assert main(["run", "table1", "--resume", "/nowhere"]) == 2
        assert "only apply to scenario runs" in capsys.readouterr().err

    def test_resume_corrupt_names_last_good(self, tmp_path, capsys):
        from repro.__main__ import main
        from repro.resilience import checkpoint_paths as ckpt_paths

        d = tmp_path / "ckpts"
        assert main(["run", "zgb", "--until", "1",
                     "--checkpoint-dir", str(d), "--checkpoint-every", "1"]) == 0
        capsys.readouterr()
        paths = ckpt_paths(d)
        assert len(paths) >= 2
        corrupt = paths[-1]
        corrupt.write_bytes(corrupt.read_bytes()[:20])
        with pytest.raises(CheckpointCorruptError, match="last good checkpoint"):
            load_checkpoint(corrupt)
        # bare --resume from the directory silently skips the bad file
        assert main(["run", "zgb", "--until", "1",
                     "--checkpoint-dir", str(d), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resumed from" in out
