"""Child side of the layered performance benchmark: one workload per process.

``run.py`` starts ``python harness.py --workload W --seed S --work DIR ...``
once per workload.  The child builds the workload's inputs from the seed,
sets up everything a first trial needs and prints ``READY`` (the parent
times set-up from launch to that line).  It then runs one warm-up unit and
timed units for ``--seconds``, one client in a closed loop, checks every
output, and with ``--trace 1`` runs one more, traced unit.  The last line
it prints is ``RESULT <json>``.  ``--setup-only`` stops after ``READY``;
``--prepare`` compiles the C kernels and the package's bytecode, checks
the ``cnative`` backend and prints the library versions.

Only public seams of ``repro`` are used: generated scenario TOML files,
``repro.scenario``, engine constructors, ``ParallelChunkExecutor``,
``JobOrchestrator`` and ``python -m repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from tracing import (
    Recorder,
    build_hook,
    core_layers,
    parse_importtime,
    rebound,
    rng_hooks,
    span_tracer,
    timed_observer,
    traced_backend,
)

ROOT = Path(__file__).resolve().parents[2]
perf = time.perf_counter

#: timed units run even when ``--seconds`` is already used up
MIN_UNITS = 3
#: a CLI unit that runs longer than this is killed and counts as failed
CLI_TIMEOUT = 60.0
#: the start-up probe of every traced run: the cli-cold command line
PROBE = ["-X", "importtime", "-m", "repro", "run", "zgb", "--seed"]

#: every layer metric a workload may report; a workload that does not
#: exercise a layer reports 0 for it
LAYER_METRICS = (
    "startup.import_s", "startup.cli_import_s", "startup.modules",
    "startup.scipy_loaded",
    "scenario.load_s", "scenario.lint_s", "scenario.build_s",
    "engine.steps", "engine.chunk_visits", "engine.dispatch_s",
    "engine.dispatch_us_per_visit",
    "kernel.calls", "kernel.trials", "kernel.self_s", "kernel.ns_per_trial",
    "kernel.us_per_call", "kernel.working_set_bytes",
    "rng.calls", "rng.draws", "rng.self_s",
    "observe.samples", "observe.self_s",
    "executor.chunks", "executor.retries", "executor.degraded",
    "executor.chunk_wall_s", "executor.slice_wall_s", "executor.wait_s",
    "executor.master_s", "executor.ipc_bytes", "executor.speedup",
    "executor.model_speedup",
    "jobs.done", "jobs.retries", "jobs.journal_records",
    "jobs.journal_append_s", "jobs.job_wall_s", "jobs.point_work_s",
    "jobs.overhead_s",
    "trace.overhead", "trace.unattributed_s",
)

#: counts that two traced runs of one seed must repeat exactly
EXACT_METRICS = (
    "startup.modules", "startup.scipy_loaded", "engine.steps",
    "engine.chunk_visits", "kernel.calls", "kernel.trials",
    "kernel.working_set_bytes", "rng.calls", "rng.draws", "observe.samples",
    "executor.chunks", "executor.retries", "executor.degraded",
    "executor.ipc_bytes", "jobs.done", "jobs.retries", "jobs.journal_records",
)


class EnvironmentProblem(RuntimeError):
    """The host cannot run the benchmark as declared (exit 2)."""


class CheckFailed(RuntimeError):
    """A unit's output is wrong."""


@dataclass
class Unit:
    """One unit of work and the outputs its check needs."""

    wall_s: float
    trials: int
    points: int
    output: dict
    setup_s: float | None = None


# ----------------------------------------------------------------------
# environment and inputs
# ----------------------------------------------------------------------
def require_cnative() -> None:
    """Fail closed: a fallback from ``cnative`` is an error, never a numpy run."""
    import warnings

    from repro.backends import BackendFallbackWarning, resolve_backend

    warnings.simplefilter("error", BackendFallbackWarning)
    try:
        backend = resolve_backend("cnative")
    except BackendFallbackWarning as exc:
        raise EnvironmentProblem(f"cnative backend unavailable: {exc}") from None
    if backend.name != "cnative":
        raise EnvironmentProblem(f"cnative resolved to {backend.name!r}")


def prepare() -> dict:
    """Build what an installed package has, then report library versions.

    The C kernels are compiled into the cache, and the package into
    bytecode: an installed package ships its ``.pyc`` files, so no timed
    start-up should compile Python source (children read the cache even
    when ``PYTHONDONTWRITEBYTECODE`` is set).
    """
    import compileall
    from importlib.metadata import version

    import numpy

    if not compileall.compile_dir(str(ROOT / "src" / "repro"), quiet=1):
        raise EnvironmentProblem("byte-compiling src/repro failed")
    require_cnative()
    return {
        "numpy": numpy.__version__,
        "scipy": version("scipy"),
        "python": sys.version.split()[0],
    }


def _toml_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, float)):
        return repr(value)
    if isinstance(value, str):
        return json.dumps(value)
    return "[" + ", ".join(_toml_value(v) for v in value) + "]"


def toml_dumps(doc: dict, prefix: str = "") -> str:
    """The TOML subset scenario documents use: tables, arrays of tables, scalars."""
    lines = []
    subtables = []
    for key, value in doc.items():
        if isinstance(value, dict):
            subtables.append((key, value))
        elif isinstance(value, list) and value and isinstance(value[0], dict):
            for item in value:
                lines.append(f"\n[[{prefix}{key}]]")
                lines.append(toml_dumps(item, f"{prefix}{key}.").strip("\n"))
        else:
            lines.append(f"{key} = {_toml_value(value)}")
    for key, value in subtables:
        lines.append(f"\n[{prefix}{key}]")
        lines.append(toml_dumps(value, f"{prefix}{key}.").strip("\n"))
    return "\n".join(line for line in lines if line) + "\n"


def write_scenario(work: Path, zoo: str, name: str, **tables) -> Path:
    """A zoo scenario with tables replaced, as a TOML file in ``work``.

    The zoo entry's gates describe the zoo configuration, so they go.
    """
    from repro.scenario import get_scenario

    doc = json.loads(json.dumps(get_scenario(zoo).canonical))
    doc.pop("gates", None)
    doc.pop("sweep", None)
    doc["scenario"]["name"] = name
    doc.update(tables)
    path = work / f"{name}.toml"
    path.write_text(toml_dumps(doc))
    return path


def derived_seeds(seed: int, n: int) -> list[int]:
    import numpy as np

    return [int(s) for s in np.random.SeedSequence(seed).generate_state(n) % 2**31]


@dataclass
class Call:
    """One finished CLI invocation."""

    code: int
    wall_s: float
    first_line_s: float
    stdout: str
    stderr: str


def run_cli(args: list[str], work: Path, timeout: float = CLI_TIMEOUT) -> Call:
    """Run ``python <args>`` from the checkout root, timing its first stdout line."""
    with tempfile.TemporaryFile("w+", dir=work) as err:
        t0 = perf()
        proc = subprocess.Popen(
            [sys.executable, *args], stdout=subprocess.PIPE, stderr=err,
            text=True, cwd=ROOT,
        )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            first = proc.stdout.readline()
            first_s = perf() - t0
            rest = proc.stdout.read()
            code = proc.wait()
            wall = perf() - t0
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            proc.stdout.close()
        err.seek(0)
        stderr = err.read()
    if wall >= timeout:
        raise CheckFailed(f"timed out after {timeout:g} s: {' '.join(args)}")
    return Call(code, wall, first_s, first + rest, stderr)


def digest_lines(stdout: str) -> list[str]:
    """The run digest lines (``[sweep <point>] digest <hex> t=... trials=N``)."""
    return [ln for ln in stdout.splitlines() if "digest " in ln and " trials=" in ln]


def trials_of(line: str) -> int:
    return int(line.rsplit("trials=", 1)[1])


def peak_rss_mb() -> float:
    """Maximum resident set of this process and its reaped children (MB)."""
    kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return kb / 1024.0


# ----------------------------------------------------------------------
# workloads
# ----------------------------------------------------------------------
@dataclass
class Workload:
    """Base: a workload turns a seed into inputs and runs units of work."""

    name: str
    seed: int
    work: Path
    nproc: int = field(default_factory=lambda: len(os.sched_getaffinity(0)))

    #: units are CLI invocations, whose set-up is timed per unit
    cli = False

    def setup(self) -> None:
        """Everything before the first trial (timed as ``setup_s``)."""

    def unit(self) -> Unit:
        raise NotImplementedError

    def reference(self, outputs: list[dict]) -> None:
        """Compute reference outputs after the timed units; may raise.

        Runs after the timed units so its memory and time stay out of
        the measurement; ``outputs`` are the units' outputs.
        """

    def check(self, output: dict) -> None:
        """Raise :class:`CheckFailed` when ``output`` is wrong."""

    def peak_rss_mb(self) -> float:
        """Peak memory of the workload process and its children (MB)."""
        return peak_rss_mb()

    def trace(self, rec: Recorder, untraced_wall: float, probe: Call):
        """One traced unit: ``(unit, layer metrics, {root: (wall, rows)})``."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`setup` started."""


@dataclass
class Pndca(Workload):
    """Zoo ZGB (y = 0.51) on the paper's five-chunk PNDCA, cnative kernels."""

    side: int = 500
    until: float = 2.0
    observe: float | None = None  # CoverageObserver interval
    check_until: float = 0.05  # horizon of the numpy == cnative check

    def setup(self) -> None:
        self.load()
        self.engine = self.build()

    def load(self) -> None:
        """Write, load and lint-preflight the generated scenario."""
        from repro.scenario import lint_scenario, load_scenario

        require_cnative()
        self.path = write_scenario(
            self.work, "zgb", f"perf-{self.name}",
            lattice={"shape": [self.side, self.side]},
            engine={"kind": "pndca", "partition": "five-chunk",
                    "strategy": "random-order", "backend": "cnative"},
            run={"seed": self.seed, "until": self.until},
        )
        self.spec = load_scenario(self.path)
        lint_scenario(self.spec)

    def build(self, backend="cnative", observer=None):
        from repro.dmc.base import CoverageObserver
        from repro.scenario import build_engine

        engine = build_engine(self.spec, seed=self.seed, backend=backend)
        if self.observe is not None:
            engine.observers.append(observer or CoverageObserver(self.observe))
        return engine

    @staticmethod
    def outcome(engine) -> dict:
        from repro.resilience.runs import run_digest

        return {
            "digest": run_digest(engine),
            "theta_co": engine.state.coverages()["CO"],
            "acceptance": engine.n_executed / max(engine.n_trials, 1),
        }

    def run_engine(self, engine) -> Unit:
        t0 = perf()
        engine.run(until=self.until)
        wall = perf() - t0
        return Unit(wall, int(engine.n_trials), 1, self.outcome(engine))

    def unit(self) -> Unit:
        engine, self.engine = self.engine or self.build(), None
        return self.run_engine(engine)

    def reference(self, outputs: list[dict]) -> None:
        from repro.resilience.runs import run_digest

        digests = {}
        for backend in ("numpy", "cnative"):
            engine = self.build(backend=backend)
            engine.run(until=self.check_until)
            digests[backend] = run_digest(engine)
        if digests["numpy"] != digests["cnative"]:
            raise CheckFailed(f"numpy and cnative runs differ at t={self.check_until}: {digests}")
        # every unit runs the same seed: the digest most units agree on
        # is the expected one, and each unit that differs fails
        self.expected = Counter(o["digest"] for o in outputs).most_common(1)[0][0]

    def check(self, output: dict) -> None:
        if output["digest"] != self.expected:
            raise CheckFailed(f"digest {output['digest']} != {self.expected}")
        if not output["theta_co"] < 0.5:
            raise CheckFailed(f"CO-poisoned: theta_CO = {output['theta_co']:.3f}")
        if not output["acceptance"] > 0:
            raise CheckFailed("no trial was accepted")

    def trace(self, rec, untraced_wall, probe):
        from repro.scenario import lint_scenario, load_scenario

        backend = traced_backend(rec, "cnative")
        with rec.span("unit"):
            with rec.span("scenario.load"):
                self.spec = load_scenario(self.path)
            with rec.span("scenario.lint"):
                lint_scenario(self.spec)
            with rec.span("scenario.build"):
                observer = timed_observer(rec, self.observe) if self.observe else None
                engine = self.build(backend=backend, observer=observer)
            engine.tracer = tracer = span_tracer(rec)
            with rebound(*rng_hooks(rec)), rec.span("engine.run"):
                tracer.begin()
                engine.run(until=self.until)
        run_wall = rec.total("engine.run")
        layers = core_layers(rec)
        layers["trace.overhead"] = run_wall / untraced_wall
        unit = Unit(run_wall, int(engine.n_trials), 1, self.outcome(engine))
        return unit, layers, {"unit": rec.ledger("unit")}


@dataclass
class ParallelPndca(Pndca):
    """The ``pndca-500`` problem on a real ``ParallelChunkExecutor`` pool."""

    def setup(self) -> None:
        from repro.core.lattice import Lattice
        from repro.parallel import ParallelChunkExecutor
        from repro.scenario import build_model, build_partition

        self.load()
        self.model, _ = build_model(self.spec.model, self.spec.name)
        self.lattice = Lattice(self.spec.lattice_shape)
        self.partition = build_partition(self.spec.engine.partition, self.lattice, self.model)
        # the bare fast path: no chunk_timeout, no snapshots
        self.executor = ParallelChunkExecutor(
            self.model, self.lattice, n_workers=self.nproc, backend="cnative"
        )
        self.engine = self.build_parallel(self.executor)

    def build_parallel(self, executor, tracer=None):
        from repro.parallel import ParallelPNDCA

        return ParallelPNDCA(
            self.model, self.lattice, partition=self.partition,
            strategy=self.spec.engine.strategy, executor=executor,
            seed=self.seed, backend="cnative", tracer=tracer,
        )

    def unit(self) -> Unit:
        engine, self.engine = self.engine or self.build_parallel(self.executor), None
        return self.run_engine(engine)

    def peak_rss_mb(self) -> float:
        self.close()  # reap the workers so their peak is counted
        return peak_rss_mb()

    def reference(self, outputs: list[dict]) -> None:
        serial = self.build()
        unit = self.run_engine(serial)
        self.expected = unit.output["digest"]
        self.serial = unit

    def check(self, output: dict) -> None:
        if output["digest"] != self.expected:
            raise CheckFailed(
                f"parallel digest {output['digest']} != serial {self.expected}"
            )

    def trace(self, rec, untraced_wall, probe):
        from repro.obs.metrics import MetricsCollector
        from repro.parallel import ParallelChunkExecutor
        from repro.parallel.machine import MachineSpec, speedup
        from repro.scenario import build_model, build_partition, lint_scenario, load_scenario

        p = self.nproc
        metrics = MetricsCollector()
        executor = ParallelChunkExecutor(
            self.model, self.lattice, n_workers=p, backend="cnative", metrics=metrics
        )
        ipc = 0
        barrier = executor.execute_chunk

        def execute_chunk(sites, types):
            nonlocal ipc
            t0 = perf()
            counts = barrier(sites, types)
            rec.add("executor.barrier", t0, perf())
            # computed: the slices' site and type arrays go out, one
            # (counts, wall) pair per nonempty slice comes back
            ipc += sites.nbytes + types.nbytes + min(p, len(sites)) * (counts.nbytes + 8)
            rec.counts["kernel.trials"] += len(sites)
            rec.max_stream = max(rec.max_stream, -(-len(sites) // p))
            return counts

        executor.execute_chunk = execute_chunk
        try:
            with rec.span("unit"):
                with rec.span("scenario.load"):
                    self.spec = load_scenario(self.path)
                with rec.span("scenario.lint"):
                    lint_scenario(self.spec)
                with rec.span("scenario.build"):
                    self.model, _ = build_model(self.spec.model, self.spec.name)
                    self.partition = build_partition(
                        self.spec.engine.partition, self.lattice, self.model
                    )
                    tracer = span_tracer(rec)
                    engine = self.build_parallel(executor, tracer)
                rec.note_tables(engine.state.array, engine.compiled)
                with rebound(*rng_hooks(rec)), rec.span("engine.run"):
                    tracer.begin()
                    engine.run(until=self.until)
            unit = Unit(rec.total("engine.run"), int(engine.n_trials), 1, self.outcome(engine))
        finally:
            executor.close()
        snap = metrics.snapshot()
        chunk_wall = snap.histograms["executor.chunk.wall"].total
        slices = snap.histograms["executor.slice.wall"]
        layers = core_layers(rec)
        calls, trials = slices.count, rec.counts["kernel.trials"]
        layers.update({
            # kernels run in the workers: the kernel layer is their slices
            "kernel.calls": calls,
            "kernel.self_s": slices.total,
            "kernel.ns_per_trial": 1e9 * slices.total / max(trials, 1),
            "kernel.us_per_call": 1e6 * slices.total / max(calls, 1),
            "executor.chunks": int(snap.counter("executor.chunks")),
            "executor.retries": int(snap.counter("executor.retries")),
            "executor.degraded": int(snap.counter("executor.degraded")),
            "executor.chunk_wall_s": chunk_wall,
            "executor.slice_wall_s": slices.total,
            "executor.wait_s": chunk_wall - slices.total / p,
            "executor.master_s": unit.wall_s - chunk_wall,
            "executor.ipc_bytes": ipc,
            "executor.speedup": self.serial.wall_s / untraced_wall,
            "executor.model_speedup": speedup(
                MachineSpec(
                    t_trial=self.serial.wall_s / self.serial.trials,
                    acceptance=self.serial.output["acceptance"],
                ),
                self.lattice.n_sites, p, m=self.partition.m,
            ),
            "trace.overhead": unit.wall_s / untraced_wall,
        })
        wall, rows = rec.ledger("unit")
        barrier_s = rows.pop("executor.barrier", 0.0)
        rows["executor.slice_per_worker"] = slices.total / p
        rows["executor.wait"] = barrier_s - slices.total / p
        return unit, layers, {"unit": (wall, rows)}

    def close(self) -> None:
        executor = getattr(self, "executor", None)
        if executor is not None:
            executor.close()
            self.executor = None


@dataclass
class SweepCampaign(Workload):
    """Zoo ``ab2-desorption`` swept over A_ads x derived seeds by ``repro sweep``."""

    side: int = 40
    rates: tuple = (0.2, 0.3, 0.4, 0.6)
    n_seeds: int = 24
    cli = True

    def setup(self) -> None:
        from repro.scenario import load_scenario

        require_cnative()
        self.path = write_scenario(
            self.work, "ab2-desorption", f"perf-{self.name}",
            lattice={"shape": [self.side, self.side]},
            sweep={"rates": {"A_ads": list(self.rates)},
                   "seed": derived_seeds(self.seed, self.n_seeds)},
        )
        self.spec = load_scenario(self.path)
        self.n_points = len(self.spec.sweep.grid())

    def unit(self) -> Unit:
        from repro.jobs.journal import JOURNAL_NAME, replay_journal

        journal = Path(tempfile.mkdtemp(dir=self.work, prefix="journal-"))
        try:
            call = run_cli(
                ["-m", "repro", "sweep", str(self.path), "--jobs", str(self.nproc),
                 "--journal", str(journal), "--backend", "cnative"],
                self.work,
            )
            if call.code != 0:
                raise CheckFailed(f"repro sweep exited {call.code}: {call.stderr[-500:]}")
            done = len(replay_journal(journal / JOURNAL_NAME).completed())
        finally:
            shutil.rmtree(journal, ignore_errors=True)
        lines = sorted(digest_lines(call.stdout))
        return Unit(
            call.wall_s, sum(trials_of(ln) for ln in lines), len(lines),
            {"lines": lines, "journal_done": done}, setup_s=call.first_line_s,
        )

    def reference(self, outputs: list[dict]) -> None:
        from repro.scenario import run_sweep_point

        self.expected = sorted(
            run_sweep_point(self.spec, o, backend="cnative") for o in self.spec.sweep.grid()
        )

    def check(self, output: dict) -> None:
        if output["lines"] != self.expected:
            wrong = len(set(output["lines"]) ^ set(self.expected))
            raise CheckFailed(f"{wrong} digest line(s) differ from the serial run")
        if output["journal_done"] != self.n_points:
            raise CheckFailed(
                f"journal replays {output['journal_done']} of {self.n_points} points"
            )

    def campaign(self, spec, **kwargs) -> tuple[float, list[str], int, object]:
        """One in-process ``JobOrchestrator`` campaign with a fresh journal."""
        import io

        from repro.jobs.journal import JOURNAL_NAME, replay_journal
        from repro.jobs.orchestrator import JobOrchestrator

        journal = Path(tempfile.mkdtemp(dir=self.work, prefix="journal-"))
        try:
            orch = JobOrchestrator(
                (spec,), n_workers=self.nproc, journal_dir=journal,
                backend="cnative", **kwargs,
            )
            out = io.StringIO()
            t0 = perf()
            code = orch.run(out=out)
            wall = perf() - t0
            if code != 0:
                raise CheckFailed(f"in-process campaign exited {code}")
            records = len(replay_journal(journal / JOURNAL_NAME).records)
        finally:
            shutil.rmtree(journal, ignore_errors=True)
        return wall, sorted(digest_lines(out.getvalue())), records, orch

    def trace(self, rec, untraced_wall, probe):
        import repro.scenario.compile as compile_mod
        import repro.scenario.runner as runner
        from repro.jobs.journal import JournalWriter
        from repro.obs.metrics import MetricsCollector
        from repro.scenario import load_scenario, run_sweep_point

        p = self.nproc
        with rec.span("scenario.load"):
            spec = load_scenario(self.path)
        plain_wall = self.campaign(spec)[0]  # the untraced base of trace.overhead

        append = JournalWriter.append

        def traced_append(writer, payload):
            t0 = perf()
            append(writer, payload)
            rec.add("jobs.journal_append", t0, perf())
            rec.counts["jobs.journal_records"] += 1

        metrics = MetricsCollector()
        with rebound(
            (JournalWriter, "append", traced_append),
            (compile_mod, "lint_scenario",
             rec.timed("scenario.lint", compile_mod.lint_scenario)),
        ), rec.span("campaign"):
            _, lines, records, orch = self.campaign(
                spec, metrics=metrics, tracer=span_tracer(rec)
            )
        if lines != self.expected or records != rec.counts["jobs.journal_records"]:
            raise CheckFailed("traced campaign output differs from the serial run")
        campaign_wall = rec.total("campaign")

        # the same points serially in-process: point work and the
        # engine / kernel / rng layers of a sweep point
        backend = traced_backend(rec, "cnative")

        with rebound((runner, "build_engine", build_hook(rec, runner.build_engine)),
                     *rng_hooks(rec)):
            with rec.span("points"):
                serial = []
                for overrides in spec.sweep.grid():
                    with rec.span("jobs.point"):
                        serial.append(run_sweep_point(spec, overrides, backend=backend))
        point_work = rec.total("jobs.point")
        job_wall = metrics.snapshot().histograms["jobs.wall"].total
        layers = core_layers(rec)
        layers.update({
            "jobs.done": rec.counts["jobs.done"],
            "jobs.retries": orch.n_retries,
            "jobs.journal_records": rec.counts["jobs.journal_records"],
            "jobs.journal_append_s": rec.total("jobs.journal_append"),
            "jobs.job_wall_s": job_wall,
            "jobs.point_work_s": point_work,
            "jobs.overhead_s": campaign_wall * p - point_work,
            "trace.overhead": campaign_wall / plain_wall,
        })
        wall, rows = rec.ledger("campaign")
        # workers compute while the master waits: their share of the
        # campaign's wall is the job wall spread over the p slots
        rows["jobs.worker_compute_per_slot"] = job_wall / p
        rows["unattributed"] -= job_wall / p
        unit = Unit(
            campaign_wall, sum(trials_of(ln) for ln in lines), len(lines),
            {"lines": sorted(serial), "journal_done": orch.n_done},
        )
        return unit, layers, {"campaign": (wall, rows), "points": rec.ledger("points")}


@dataclass
class CliCold(Workload):
    """``python -m repro run zgb`` in a fresh interpreter (10x10 RSM, t = 5)."""

    cli = True

    def argv(self) -> list[str]:
        return ["-m", "repro", "run", "zgb", "--seed", str(self.seed)]

    def unit(self) -> Unit:
        call = run_cli(self.argv(), self.work)
        if call.code != 0:
            raise CheckFailed(f"repro run exited {call.code}: {call.stderr[-500:]}")
        line = digest_lines(call.stdout)[-1]
        return Unit(call.wall_s, trials_of(line), 1, {"digest": line},
                    setup_s=call.first_line_s)

    def in_process(self, extra=()) -> str:
        import contextlib
        import io

        from repro.__main__ import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(self.argv()[2:] + list(extra))
        if code != 0:
            raise CheckFailed(f"in-process run exited {code}")
        return digest_lines(out.getvalue())[-1]

    def reference(self, outputs: list[dict]) -> None:
        self.expected = self.in_process()

    def check(self, output: dict) -> None:
        if output["digest"] != self.expected:
            raise CheckFailed(f"{output['digest']!r} != in-process {self.expected!r}")

    def trace(self, rec, untraced_wall, probe):
        import repro.scenario as scenario_pkg
        import repro.scenario.runner as runner

        backend = traced_backend(rec, "numpy")

        with rebound(
            (scenario_pkg, "find_scenario",
             rec.timed("scenario.load", scenario_pkg.find_scenario)),
            (runner, "lint_scenario", rec.timed("scenario.lint", runner.lint_scenario)),
            (runner, "build_engine", build_hook(rec, runner.build_engine)),
            *rng_hooks(rec),
        ), rec.span("unit"):
            line = self.in_process(["--backend", backend.name])
        layers = core_layers(rec)
        layers["trace.overhead"] = probe.wall_s / untraced_wall
        # the ledger is the probed CLI call's: its imports from its own
        # -X importtime report, the simulation layers from the same
        # command run in-process with hooks
        _, rows = rec.ledger("unit")
        rows["startup.imports"] = parse_importtime(probe.stderr)["startup.all_imports_s"]
        rows["unattributed"] = probe.wall_s - sum(
            v for k, v in rows.items() if k != "unattributed"
        )
        unit = Unit(probe.wall_s, trials_of(line), 1, {"digest": line})
        return unit, layers, {"call": (probe.wall_s, rows)}


def make_workload(name: str, seed: int, work: Path) -> Workload:
    """The declared workloads at their benchmark sizes."""
    if name == "pndca-500":
        return Pndca(name, seed, work, side=500, until=2.0, check_until=0.05)
    if name == "pndca-60":
        return Pndca(name, seed, work, side=60, until=50.0, observe=0.05, check_until=1.0)
    if name == "parallel-pndca-500":
        return ParallelPndca(name, seed, work, side=500, until=2.0)
    if name == "sweep-campaign":
        return SweepCampaign(name, seed, work)
    if name == "cli-cold":
        return CliCold(name, seed, work)
    raise KeyError(f"unknown workload {name!r}")



# ----------------------------------------------------------------------
# the measurement loop
# ----------------------------------------------------------------------
def measure(wl: Workload, seconds: float, trace: bool = False, spans: str | None = None) -> dict:
    """Warm-up, timed units for ``seconds``, checks, optionally one traced unit.

    Every unit counts as attempted.  A unit fails when it raises, when a
    CLI call exits non-zero or times out, or when its output check fails
    (including when the reference the check needs cannot be computed);
    only units that passed contribute samples.
    """
    errors: list[str] = []

    def attempt(fn, *args):
        try:
            return True, fn(*args)
        except Exception as exc:  # a failed unit is counted, never dropped
            errors.append(f"{type(exc).__name__}: {exc}")
            return False, None

    units = [(False, attempt(wl.unit)[1])]  # the warm-up, excluded from samples
    start = perf()
    while len(units) <= MIN_UNITS or perf() - start < seconds:
        units.append((True, attempt(wl.unit)[1]))
    rss = wl.peak_rss_mb()

    reference_ok = attempt(wl.reference, [u.output for _, u in units if u])[0]
    attempted = len(units) + 1
    failed = 0 if reference_ok else 1
    samples: dict[str, list[float]] = {
        "wall_s": [], "trials_per_s": [], "points_per_s": [], "setup_s": [],
    }
    for timed, u in units:
        if u is None or not reference_ok or not attempt(wl.check, u.output)[0]:
            failed += 1
        elif timed:
            samples["wall_s"].append(u.wall_s)
            samples["trials_per_s"].append(u.trials / u.wall_s)
            samples["points_per_s"].append(u.points / u.wall_s)
            if u.setup_s is not None:
                samples["setup_s"].append(u.setup_s)

    layers: dict[str, float] = {}
    ledgers: dict[str, dict] = {}
    if trace:
        attempted += 1
        layers = dict.fromkeys(LAYER_METRICS, 0)
        rec = Recorder(wl.name)
        ok, probe = attempt(run_cli, PROBE + [str(wl.seed)], wl.work)
        if ok and probe.code != 0:
            ok = False
            errors.append(f"start-up probe exited {probe.code}: {probe.stderr[-500:]}")
        if ok and not samples["wall_s"]:
            ok = False
            errors.append("no passing timed unit to compare the traced unit with")
        if ok:
            ok, traced = attempt(wl.trace, rec, statistics.median(samples["wall_s"]), probe)
        if ok:
            unit, workload_layers, roots = traced
            ok = attempt(wl.check, unit.output)[0]
            startup = parse_importtime(probe.stderr)
            layers.update({k: startup[k] for k in layers.keys() & startup.keys()})
            layers.update(workload_layers)
            ledgers = {root: {"wall_s": wall, "rows": rows} for root, (wall, rows) in roots.items()}
            layers["trace.unattributed_s"] = next(iter(roots.values()))[1]["unattributed"]
        failed += not ok
        if spans:
            rec.write(spans)

    return {
        "workload": wl.name,
        "seed": wl.seed,
        "nproc": wl.nproc,
        "attempted": attempted,
        "failed": failed,
        "errors": errors[:20],
        "samples": samples,
        "peak_rss_mb": rss,
        "layers": layers,
        "ledgers": ledgers,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", type=Path, help="scratch directory inside the checkout")
    parser.add_argument("--spans", help="append the traced unit's spans to this JSON-lines file")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--prepare", action="store_true")
    args = parser.parse_args(argv)
    try:
        if args.prepare:
            print(json.dumps(prepare()), flush=True)
            return 0
        wl = make_workload(args.workload, args.seed, args.work)
        wl.setup()
    except EnvironmentProblem as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 2
    try:
        print("READY", flush=True)
        if not args.setup_only:
            result = measure(wl, args.seconds, bool(args.trace), args.spans)
            print("RESULT " + json.dumps(result), flush=True)
    finally:
        wl.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())


