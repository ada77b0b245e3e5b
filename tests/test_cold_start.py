"""Cold start: what ``import repro`` and ``repro run <scenario>`` load.

Each check runs in a fresh interpreter with ``src`` on the path: the
test process itself has long imported most of the package.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: what a scenario run never executes: scipy serves the exact master
#: equation and the analysis helpers, multiprocessing and the
#: orchestrator the executor and ``repro sweep``; the other DMC engines,
#: the fault injector and the acceptance gates serve other commands;
#: the CA engines, the executor, partitions, model presets and report
#: rendering serve other scenarios (the engine and preset tables name
#: them lazily); networkx is no dependency at all
UNUSED = (
    "scipy",
    "networkx",
    "multiprocessing",
    "repro.jobs.orchestrator",
    "repro.dmc.frm",
    "repro.dmc.vssm",
    "repro.dmc.master_equation",
    "repro.resilience.chaos",
    "repro.scenario.gates",
    "repro.ca",
    "repro.parallel",
    "repro.partition",
    "repro.models",
    "repro.io",
)


def fresh(code: str) -> list[str]:
    """Run ``code`` in a new interpreter; returns its last stdout line
    parsed as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


PRINT_MODULES = "import json, sys; print(json.dumps(sorted(sys.modules)))"


@pytest.mark.parametrize(
    "code",
    [
        "import repro",
        "from repro.__main__ import main\n"
        "assert main(['run', 'zgb', '--seed', '1']) == 0",
    ],
    ids=["import", "run-zgb"],
)
def test_loads_no_unused_package(code):
    modules = fresh(f"{code}\n{PRINT_MODULES}")
    loaded = [
        m for m in modules
        if any(m == u or m.startswith(u + ".") for u in UNUSED)
    ]
    assert loaded == []


def test_every_public_name_resolves():
    names, star, listed = fresh(
        "import json, repro\n"
        "names = {n: type(getattr(repro, n)).__name__ for n in repro.__all__}\n"
        "ns = {}\n"
        "exec('from repro import *', ns)\n"
        "print(json.dumps([names, sorted(set(ns) - {'__builtins__'}), dir(repro)]))"
    )
    assert sorted(names) == sorted(repro.__all__)
    assert star == sorted(repro.__all__)
    assert set(repro.__all__) <= set(listed)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        repro.no_such_name
    import repro.jobs as jobs

    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        jobs.no_such_name


def test_partition_decides_without_lint():
    """The non-overlap rule lives in repro.partition: both finder
    branches and the cached verdict run without loading repro.lint."""
    modules = fresh(
        "from repro.core import Lattice\n"
        "from repro.models import zgb_model\n"
        "from repro.partition import five_chunk_partition, greedy_partition\n"
        "model = zgb_model(0.5)\n"
        "assert five_chunk_partition(Lattice((10, 10))).find_conflicts(model) == []\n"
        "assert greedy_partition(Lattice((10, 10)), model).is_conflict_free(model)\n"
        f"{PRINT_MODULES}"
    )
    assert [m for m in modules if m == "repro.lint" or m.startswith("repro.lint.")] == []
