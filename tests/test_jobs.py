"""Tests for the crash-safe batch orchestrator (:mod:`repro.jobs`).

The journal's torn-tail contract (drop exactly the damaged final
record, refuse mid-file corruption), job-key determinism, the
orchestrator's bit-identity with the serial baseline (one
``run_sweep_point`` call per grid point), the chaos-driven
recovery ladder (kill-job retry, stall-job deadline, sticky serial
degradation), resume-as-cache-hit, and the CLI surface.
"""

import io
import json
import signal

import pytest

from repro.__main__ import main
from repro.jobs import (
    JobOrchestrator,
    JournalCorruptError,
    JournalError,
    JournalWriter,
    decode_record,
    encode_record,
    job_key,
    replay_journal,
)
from repro.obs.metrics import MetricsCollector
from repro.obs.trace import Tracer
from repro.resilience.chaos import ChaosMonkey, FaultSpec
from repro.scenario import loads_scenario, run_sweep_point

# a fast two-point sweep: RSM on a 6x6 lattice, ~10ms per point
SWEEP = """\
[scenario]
name = "t"

[model]
species = ["*", "A", "B"]

[[model.reactions]]
name = "A_ads"
type = "adsorption"
species = "A"
rate = 0.4

[[model.reactions]]
name = "B2_ads"
type = "dissociative_adsorption"
species = "B"
rate = 0.3

[[model.reactions]]
name = "A+B"
type = "pair_reaction"
a = "A"
b = "B"
rate = 2.0

[lattice]
shape = [6, 6]

[engine]
kind = "rsm"

[run]
seed = 0
until = 0.5

[sweep]
seed = [0, 1]
"""


def sweep_spec(extra: str = ""):
    return loads_scenario(SWEEP + extra)


def serial_lines(spec):
    """The baseline: sorted digest lines of one in-process point each."""
    return sorted(run_sweep_point(spec, o) for o in spec.sweep.grid())


def campaign_lines(text: str) -> list[str]:
    return sorted(
        line for line in text.splitlines() if line.startswith("sweep ")
    )


class TestJournal:
    """repro.jobs/1 envelope, writer, torn-tail replay."""

    def test_record_roundtrip(self):
        payload = {"event": "done", "key": "abc", "line": "sweep ..."}
        assert decode_record(encode_record(payload)) == payload

    def test_decode_rejects_bad_crc(self):
        line = encode_record({"event": "done"})
        record = json.loads(line)
        record["payload"]["event"] = "fail"  # CRC now disagrees
        with pytest.raises(JournalCorruptError, match="CRC mismatch"):
            decode_record(json.dumps(record))

    def test_decode_rejects_wrong_schema(self):
        record = json.loads(encode_record({"event": "done"}))
        record["schema"] = "repro.ckpt/1"
        with pytest.raises(JournalCorruptError, match="schema"):
            decode_record(json.dumps(record))

    def test_job_key_is_deterministic_and_order_free(self):
        a = job_key("d" * 64, {"seed": 1, "rates.x": 0.5})
        b = job_key("d" * 64, {"rates.x": 0.5, "seed": 1})
        assert a == b and len(a) == 16
        assert a != job_key("e" * 64, {"seed": 1, "rates.x": 0.5})
        assert a != job_key("d" * 64, {"seed": 2, "rates.x": 0.5})

    def _write(self, path, n=4):
        with JournalWriter(path) as w:
            for i in range(n):
                w.append({"event": "done", "key": f"k{i}", "line": f"l{i}"})
        return w

    def test_replay_intact(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._write(path)
        replay = replay_journal(path)
        assert not replay.torn
        assert [r["key"] for r in replay.records] == ["k0", "k1", "k2", "k3"]
        assert set(replay.completed()) == {"k0", "k1", "k2", "k3"}

    @pytest.mark.parametrize("mode", ["truncate", "flip"])
    def test_torn_tail_drops_exactly_the_last_record(self, tmp_path, mode):
        path = tmp_path / "journal.jsonl"
        writer = self._write(path)
        # the chaos harness tears the tail the way a crash mid-append does
        ChaosMonkey(seed=3).corrupt_file(
            path, mode=mode, tail=writer.last_line_bytes
        )
        replay = replay_journal(path)
        assert replay.torn and replay.torn_reason
        assert [r["key"] for r in replay.records] == ["k0", "k1", "k2"]
        assert replay.last_good["key"] == "k2"
        assert "last good entry: done k2" in replay.describe_tail()

    def test_mid_file_damage_is_corruption_not_a_torn_tail(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._write(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[1] = lines[1][: len(lines[1]) // 2] + b"\n"  # settled record
        path.write_bytes(b"".join(lines))
        with pytest.raises(JournalCorruptError, match="line 2"):
            replay_journal(path)

    def test_blank_separator_lines_are_ignored(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        self._write(path, n=2)
        path.write_bytes(path.read_bytes() + b"\n\n")
        replay = replay_journal(path)
        assert not replay.torn and len(replay.records) == 2


class TestOrchestrator:
    """Supervised execution, the recovery ladder, resume semantics."""

    def run_campaign(self, spec, tmp_path, **kw):
        out = io.StringIO()
        defaults = dict(n_workers=2, journal_dir=tmp_path / "j")
        defaults.update(kw)
        resume = defaults.pop("resume", False)
        orch = JobOrchestrator((spec,), **defaults)
        code = orch.run(resume=resume, out=out)
        return orch, code, out.getvalue()

    def test_digest_lines_bit_identical_to_serial(self, tmp_path):
        spec = sweep_spec()
        _, code, text = self.run_campaign(spec, tmp_path)
        assert code == 0
        assert campaign_lines(text) == serial_lines(spec)

    def test_resume_is_a_pure_cache_hit(self, tmp_path):
        spec = sweep_spec()
        self.run_campaign(spec, tmp_path)
        orch, code, text = self.run_campaign(spec, tmp_path, resume=True)
        assert code == 0
        assert orch.n_cached == 2 and orch.n_done == 0
        assert "resume: 2 cached, 0 to run" in text
        assert campaign_lines(text) == serial_lines(spec)

    def test_refuses_nonempty_journal_without_resume(self, tmp_path):
        spec = sweep_spec()
        self.run_campaign(spec, tmp_path)
        with pytest.raises(JournalError, match="--resume"):
            self.run_campaign(spec, tmp_path)

    def test_refuses_resume_of_a_different_campaign(self, tmp_path):
        self.run_campaign(sweep_spec(), tmp_path)
        other = loads_scenario(SWEEP.replace("rate = 0.4", "rate = 0.5"))
        with pytest.raises(JournalError, match="different campaign"):
            self.run_campaign(other, tmp_path, resume=True)

    def test_kill_job_is_retried_and_observed(self, tmp_path):
        spec = sweep_spec()
        chaos = ChaosMonkey(faults=(FaultSpec("kill-job", at=1),))
        metrics = MetricsCollector()
        tracer = Tracer()
        orch, code, text = self.run_campaign(
            spec, tmp_path, chaos=chaos, metrics=metrics, tracer=tracer
        )
        assert code == 0
        assert campaign_lines(text) == serial_lines(spec)
        assert orch.n_retries >= 1 and orch.n_respawns >= 1
        snap = metrics.snapshot()
        assert snap.counters["jobs.retries"] >= 1
        assert snap.counters["jobs.respawns"] >= 1
        fails = [e for e in tracer.events if e[0] == "job" and e[3]["status"] == "fail"]
        assert fails and "died" in fails[0][3]["error"]
        replay = replay_journal(orch.journal_path)
        assert list(replay.events("fail"))

    def test_stall_job_hits_the_deadline_and_recovers(self, tmp_path):
        spec = sweep_spec()
        chaos = ChaosMonkey(faults=(FaultSpec("stall-job", at=1, delay=5.0),))
        orch, code, text = self.run_campaign(
            spec, tmp_path, chaos=chaos, deadline=0.4
        )
        assert code == 0
        assert campaign_lines(text) == serial_lines(spec)
        fails = list(replay_journal(orch.journal_path).events("fail"))
        assert any("deadline exceeded" in f["error"] for f in fails)

    def test_retry_exhaustion_degrades_to_sticky_serial(self, tmp_path):
        spec = sweep_spec()
        # every dispatch dies: with max_retries=0 the first loss degrades
        chaos = ChaosMonkey(
            faults=tuple(FaultSpec("kill-job", at=i) for i in range(1, 9))
        )
        metrics = MetricsCollector()
        orch, code, text = self.run_campaign(
            spec, tmp_path, chaos=chaos, max_retries=0, metrics=metrics
        )
        assert code == 0
        assert orch._ladder.degraded
        assert "(degraded)" in text
        assert campaign_lines(text) == serial_lines(spec)
        assert metrics.snapshot().counters["jobs.degraded"] >= 1
        assert list(replay_journal(orch.journal_path).events("degrade"))

    def test_torn_journal_resumes_bit_identically(self, tmp_path):
        spec = sweep_spec()
        chaos = ChaosMonkey(
            faults=(FaultSpec("corrupt-journal", at=4, mode="flip"),)
        )
        with pytest.raises(JournalError, match="simulated crash"):
            self.run_campaign(spec, tmp_path, chaos=chaos)
        orch, code, text = self.run_campaign(spec, tmp_path, resume=True)
        assert code == 0
        assert "dropped torn tail record" in text
        assert campaign_lines(text) == serial_lines(spec)
        assert not replay_journal(orch.journal_path).torn

    def test_signal_flag_drains_and_resumes(self, tmp_path):
        spec = sweep_spec()
        out = io.StringIO()
        orch = JobOrchestrator(
            (spec,), n_workers=2, journal_dir=tmp_path / "j"
        )
        orch._signal = signal.SIGTERM  # as the handler would set it
        assert orch.run(out=out) == 130
        assert "drain" in out.getvalue()
        assert list(replay_journal(orch.journal_path).events("drain"))
        _, code, text = self.run_campaign(spec, tmp_path, resume=True)
        assert code == 0
        assert campaign_lines(text) == serial_lines(spec)

    def test_per_job_checkpoint_dirs(self, tmp_path):
        spec = sweep_spec()
        ckpt = tmp_path / "ckpt"
        _, code, _ = self.run_campaign(
            spec, tmp_path, checkpoint_dir=ckpt, checkpoint_every=5
        )
        assert code == 0
        digest = spec.digest()
        for seed in (0, 1):
            sub = ckpt / job_key(digest, {"seed": seed})
            assert list(sub.glob("ckpt_*.json"))

    def test_scenario_without_sweep_is_one_base_job(self, tmp_path):
        spec = loads_scenario(SWEEP.split("[sweep]")[0])
        orch, code, text = self.run_campaign(spec, tmp_path)
        assert code == 0 and orch.n_done == 1
        assert "sweep (base) digest" in text

    def test_journal_is_optional(self, tmp_path):
        spec = sweep_spec()
        _, code, text = self.run_campaign(spec, tmp_path, journal_dir=None)
        assert code == 0
        assert campaign_lines(text) == serial_lines(spec)


class TestSweepCli:
    """`python -m repro sweep` surface."""

    def write_spec(self, tmp_path):
        p = tmp_path / "s.toml"
        p.write_text(SWEEP)
        return p

    def test_sweep_and_resume(self, capsys, tmp_path):
        p = self.write_spec(tmp_path)
        journal = tmp_path / "j"
        assert main(["sweep", str(p), "--journal", str(journal)]) == 0
        first = campaign_lines(capsys.readouterr().out)
        assert len(first) == 2
        assert main(["sweep", str(p), "--journal", str(journal), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 2 cached, 0 to run" in out
        assert campaign_lines(out) == first

    def test_resume_without_journal_exits_2(self, capsys, tmp_path):
        p = self.write_spec(tmp_path)
        assert main(["sweep", str(p), "--resume"]) == 2
        assert "--journal" in capsys.readouterr().err

    def test_journal_with_backoff_knobs_still_resumes(self, capsys, tmp_path):
        """Journals written while the backoff was configurable carry
        ``backoff_base``/``backoff_max`` in the campaign knobs; they
        resume like any other."""
        p = self.write_spec(tmp_path)
        journal = tmp_path / "j"
        assert main(["sweep", str(p), "--journal", str(journal)]) == 0
        first = campaign_lines(capsys.readouterr().out)
        path = journal / "journal.jsonl"
        records = [decode_record(ln) for ln in path.read_text().splitlines()]
        assert "backoff_base" not in records[0]["knobs"]
        records[0]["knobs"].update(backoff_base=0.01, backoff_max=1.0)
        # keep the header, the submits and the first completion only
        kept, done = [], 0
        for rec in records:
            if rec["event"] == "complete" or (rec["event"] == "done" and done):
                continue
            done += rec["event"] == "done"
            kept.append(rec)
        path.write_text("".join(encode_record(r) + "\n" for r in kept))
        assert main(["sweep", str(p), "--journal", str(journal), "--resume"]) == 0
        out = capsys.readouterr().out
        assert "resume: 1 cached, 1 to run" in out
        assert campaign_lines(out) == first

    def test_bad_chaos_spec_exits_2(self, capsys, tmp_path):
        p = self.write_spec(tmp_path)
        assert main(["sweep", str(p), "--chaos", "kill-job"]) == 2
        assert "kind@poll" in capsys.readouterr().err

    def test_chaos_kill_job_campaign_still_completes(self, capsys, tmp_path):
        p = self.write_spec(tmp_path)
        assert main(["sweep", str(p), "--chaos", "kill-job@1"]) == 0
        out = capsys.readouterr().out
        assert len(campaign_lines(out)) == 2
        assert "1 respawns" in out
