"""Evidence for the process-level protocol: seeded mutants and what kills them.

The executor, checkpoint and jobs layers rely on a protocol the kernels
never see.  The shared-memory segment is closed and unlinked on every
path.  A signal trap puts the previous handlers back.  Checkpoint
payloads round-trip.  The recovery ladder rolls a failed
chunk back before it retries.  Workers receive only inputs they can
use.  The supervisor drops replies to tasks it no longer waits for, and
sees a dead worker through its process sentinel.

``TestProtocolMutantsAreKilled`` (marked ``slow``; CI's resilience job
runs it) breaks each of those promises in a copy of ``src/repro`` and
runs the tests named as its killers in a fresh interpreter against the
copy (``tests/mutants.py``).  A failing test (exit 1), a crash (death
by a signal) or a hang past the harness timeout counts as killed.  An
unmutated copy must pass every killer.  DESIGN.md §13 lists the
mutants, their killers, and the mutants no run can tell apart from the
shipped code.
"""

import json

import pytest

from repro.lint.diagnostics import Diagnostic, LintReport

from .mutants import assert_control_passes, assert_mutant_killed

_EXECUTOR = "parallel/executor.py"
_CHECKPOINT = "resilience/checkpoint.py"
_DMC_BASE = "dmc/base.py"
_SUPERVISOR = "resilience/supervisor.py"

_TEARDOWN = "tests/test_executor.py::TestExecutorTeardown"
_CLOSE_RELEASES = f"{_TEARDOWN}::test_close_is_idempotent_and_releases"
_RESUME = "tests/test_resilience.py::test_resume_bit_identical"
_SUPERVISOR_TESTS = "tests/test_chaos.py::TestSupervisor"
_COUNTS = "tests/test_executor.py::TestExecutor::test_execute_chunk_counts"
_BIT_IDENTICAL = "tests/test_executor.py::TestParallelPNDCA::test_bit_identical_to_serial"
_DEGRADE = "tests/test_chaos.py::TestExecutorRecovery::test_exhausted_retries_degrade_to_serial"

#: name -> (file under src/repro, old text, new text, killer node ids)
MUTANTS = {
    "removed-unlink": (_EXECUTOR, "shm.unlink()", "pass", [_CLOSE_RELEASES]),
    "view-creation-outside-try": (
        _EXECUTOR,
        "        try:\n"
        "            self._state: np.ndarray | None = np.ndarray(\n"
        "                (lattice.n_sites,), dtype=np.uint8, buffer=self._shm.buf\n"
        "            )\n"
        "            self._state[:] = 0\n",
        "        self._state: np.ndarray | None = np.ndarray(\n"
        "            (lattice.n_sites,), dtype=np.uint8, buffer=self._shm.buf\n"
        "        )\n"
        "        self._state[:] = 0\n"
        "        try:\n",
        [f"{_TEARDOWN}::test_failed_init_releases_shared_memory"],
    ),
    "use-after-release": (
        _EXECUTOR,
        "        self._release_shm()\n\n    def __enter__",
        "        self._release_shm()\n"
        "        self._state[:] = 0\n\n    def __enter__",
        [_CLOSE_RELEASES],
    ),
    "dropped-restore-signals": (
        _CHECKPOINT,
        "            _signal.signal(signum, previous)",
        "            pass",
        [
            "tests/test_resilience.py::TestSignalDiscipline"
            "::test_trap_restores_on_exception"
        ],
    ),
    "payload-key-drift": (
        _DMC_BASE,
        '"n_trials": int(self.n_trials)',
        '"trial_count": int(self.n_trials)',
        [_RESUME],
    ),
    "stripped-decoder": (
        _DMC_BASE,
        'array = decode_array(payload["state"])',
        'array = payload["state"]',
        [_RESUME],
    ),
    "dropped-snapshot-restore": (
        _EXECUTOR,
        "            self._state[:] = pre\n"
        "            delay = self._ladder.after_failure(failures)",
        "            delay = self._ladder.after_failure(failures)",
        [
            "tests/test_chaos.py::TestExecutorRecovery"
            "::test_delay_slice_past_deadline_recovers"
        ],
    ),
    "live-shm-in-initargs": (
        _EXECUTOR,
        "self._shm.name,",
        "self._shm,",
        [_COUNTS],
    ),
    "stream-not-unlinked": (
        _EXECUTOR,
        "            try:\n                shm.unlink()",
        '            try:\n                if attr == "_shm":\n                    shm.unlink()',
        [_CLOSE_RELEASES],
    ),
    "worker-reads-slice-prefix": (
        _EXECUTOR,
        "u[a:b]",
        "u[:b - a]",
        [_BIT_IDENTICAL],
    ),
    "serial-rung-stale-stream": (
        _EXECUTOR,
        "        self._sites[:n] = sites\n"
        "        self._uniforms[:n] = uniforms\n"
        "        if self._ladder.degraded:\n"
        "            return self._exec_serial(n)\n",
        "        if self._ladder.degraded:\n"
        "            return self._exec_serial(n)\n"
        "        self._sites[:n] = sites\n"
        "        self._uniforms[:n] = uniforms\n",
        [_DEGRADE],
    ),
    "stale-reply-counted": (
        _SUPERVISOR,
        "                if seq != slot.seq:\n"
        "                    continue  # the ready message, or a stale reply\n",
        "",
        [f"{_SUPERVISOR_TESTS}::test_stale_reply_is_dropped", _COUNTS],
    ),
    "sentinels-dropped-from-wait": (
        _SUPERVISOR,
        "_connection.wait([*conns, *sentinels], timeout)",
        "_connection.wait([*conns], timeout)",
        [f"{_SUPERVISOR_TESTS}::test_death_is_reported_by_the_sentinel"],
    ),
}


@pytest.mark.slow
class TestProtocolMutantsAreKilled:
    def test_unmutated_copy_passes_every_killer(self, tmp_path):
        assert_control_passes(tmp_path, MUTANTS)

    @pytest.mark.parametrize("name", list(MUTANTS))
    def test_mutant_is_killed(self, name, tmp_path):
        assert_mutant_killed(tmp_path, name, MUTANTS)


class TestIntegration:
    def test_to_json_sorts_by_code_file_line(self):
        report = LintReport()

        def mk(code, file, line):
            return Diagnostic(code, "s", "m", {"file": file, "line": line})

        report.add(mk("SR010", "b.py", 9))
        report.add(mk("SR001", "b.py", 5))
        report.add(mk("SR001", "a.py", 7))
        report.add(mk("SR001", "b.py", 2))
        doc = json.loads(report.to_json())
        got = [
            (d["code"], d["data"]["file"], d["data"]["line"])
            for d in doc["diagnostics"]
        ]
        assert got == [
            ("SR001", "a.py", 7),
            ("SR001", "b.py", 2),
            ("SR001", "b.py", 5),
            ("SR010", "b.py", 9),
        ]
