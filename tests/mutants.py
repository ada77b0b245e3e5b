"""Shared harness for the seeded-mutant tests.

A mutant is one textual edit ``(file under src/repro, old text, new
text)``.  :func:`package_copy` copies ``src/repro`` to a scratch
directory and applies the edit there; :func:`run_killers` runs the
mutant's killer tests in a fresh interpreter whose ``PYTHONPATH``
points at the copy.  A failing test (exit 1), a crash (death by a
signal) or a hang past :data:`TIMEOUT` counts as killed, and an
unmutated copy must pass every killer.

``tests/test_kernel_lint.py`` and ``tests/test_protocol_lint.py`` hold
the mutant tables; DESIGN.md §8 and §13 list them with their killers.
"""

import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import repro

_REPO = Path(__file__).resolve().parents[1]
_PACKAGE = Path(repro.__file__).resolve().parent

#: seconds a killer run may take before its mutant counts as hung
TIMEOUT = 120

#: name -> (file under src/repro, old text, new text, killer node ids)
MutantTable = dict[str, tuple[str, str, str, list[str]]]


def package_copy(tmp_path: Path, mutant: "tuple[str, str, str] | None") -> dict:
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


def run_killers(node_ids: "list[str]", env: dict) -> "tuple[int | None, str]":
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


def assert_control_passes(tmp_path: Path, mutants: MutantTable) -> None:
    """The unmutated copy is the one imported, and it passes every killer."""
    env = package_copy(tmp_path, None)
    where = subprocess.run(
        [sys.executable, "-c", "import repro; print(repro.__file__)"],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert where.startswith(str(tmp_path)), where
    killers = sorted({k for *_, ids in mutants.values() for k in ids})
    code, out = run_killers(killers, env)
    assert code == 0, out[-3000:]


def assert_mutant_killed(tmp_path: Path, name: str, mutants: MutantTable) -> None:
    """Mutant ``name`` fails, crashes or hangs at least one of its killers."""
    rel, old, new, killers = mutants[name]
    code, out = run_killers(killers, package_copy(tmp_path, (rel, old, new)))
    assert code is None or code == 1 or code < 0, (
        f"mutant {name} survived {killers} (exit {code}):\n{out[-3000:]}"
    )
