"""Evidence for the process-level protocol: seeded mutants and what kills them.

The executor, checkpoint and jobs layers rely on a protocol the kernels
never see.  The shared-memory segment is closed and unlinked on every
path.  Signal handlers and the ambient checkpointer stack are popped.
Checkpoint payloads round-trip.  The recovery ladder rolls a failed
chunk back before it retries.  Workers receive only inputs they can
use.  The supervisor drops replies to tasks it no longer waits for, and
sees a dead worker through its process sentinel.

``TestProtocolMutantsAreKilled`` (marked ``slow``; CI's resilience job
runs it) breaks each of those promises in a copy of ``src/repro`` and
runs the tests named as its killers in a fresh interpreter against the
copy.  A failing test (exit 1), a crash (death by a signal) or a hang
past :data:`TIMEOUT` counts as killed.  An unmutated copy must pass
every killer.  DESIGN.md §13 lists the mutants, their killers, and the
mutants no run can tell apart from the shipped code.
"""

import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.lint.diagnostics import Diagnostic, LintReport

_REPO = Path(__file__).resolve().parents[1]
_PACKAGE = Path(repro.__file__).resolve().parent

#: seconds a killer run may take before its mutant counts as hung
TIMEOUT = 120

_EXECUTOR = "parallel/executor.py"
_CHECKPOINT = "resilience/checkpoint.py"
_DMC_BASE = "dmc/base.py"
_SUPERVISOR = "resilience/supervisor.py"

_TEARDOWN = "tests/test_executor.py::TestExecutorTeardown"
_CLOSE_RELEASES = f"{_TEARDOWN}::test_close_is_idempotent_and_releases"
_RESUME = "tests/test_resilience.py::test_resume_bit_identical"
_SUPERVISOR_TESTS = "tests/test_chaos.py::TestSupervisor"
_COUNTS = "tests/test_executor.py::TestExecutor::test_execute_chunk_counts"

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
        "        if signals:\n            checkpointer.restore_signals()",
        "        pass",
        [
            "tests/test_resilience.py::TestSignalDiscipline"
            "::test_use_checkpoints_restores_on_exception"
        ],
    ),
    "dropped-stack-pop": (
        _CHECKPOINT,
        "        _default_stack.pop()",
        "        pass",
        ["tests/test_resilience.py::TestCheckpointer::test_ambient_checkpointer"],
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


def _package_copy(tmp_path: Path, mutant: "tuple[str, str, str] | None") -> dict:
    """Copy ``src/repro`` under ``tmp_path``, apply ``mutant``, and
    return the environment that imports the copy."""
    src = tmp_path / "src"
    shutil.copytree(
        _PACKAGE, src / "repro", ignore=shutil.ignore_patterns("__pycache__")
    )
    if mutant is not None:
        rel, old, new = mutant
        target = src / "repro" / rel
        text = target.read_text()
        assert old in text, f"mutant anchor not found in {rel}: {old!r}"
        target.write_text(text.replace(old, new, 1))
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))
    )
    return env


def _run_killers(node_ids: "list[str]", env: dict) -> "tuple[int | None, str]":
    """Exit code of pytest over ``node_ids`` (``None`` when it hung),
    plus its output.  A hung run is killed with its whole process
    group, pool workers included."""
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "pytest", *node_ids,
            "-q", "-p", "no:cacheprovider", "-W", "error::ResourceWarning",
        ],
        cwd=_REPO,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        out, _ = proc.communicate()
        return None, out
    return proc.returncode, out


@pytest.mark.slow
class TestProtocolMutantsAreKilled:
    def test_unmutated_copy_passes_every_killer(self, tmp_path):
        env = _package_copy(tmp_path, None)
        where = subprocess.run(
            [sys.executable, "-c", "import repro; print(repro.__file__)"],
            env=env, capture_output=True, text=True, check=True,
        ).stdout
        assert where.startswith(str(tmp_path)), where
        killers = sorted({k for *_, ids in MUTANTS.values() for k in ids})
        code, out = _run_killers(killers, env)
        assert code == 0, out[-3000:]

    @pytest.mark.parametrize("name", list(MUTANTS))
    def test_mutant_is_killed(self, name, tmp_path):
        rel, old, new, killers = MUTANTS[name]
        code, out = _run_killers(killers, _package_copy(tmp_path, (rel, old, new)))
        assert code is None or code == 1 or code < 0, (
            f"mutant {name} survived {killers} (exit {code}):\n{out[-3000:]}"
        )


class TestIntegration:
    def test_to_json_sorts_by_code_file_line(self):
        report = LintReport()

        def mk(code, file, line):
            return Diagnostic(code, "s", "m", {"file": file, "line": line})

        report.add(mk("SR040", "b.py", 9))
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
            ("SR040", "b.py", 9),
        ]
