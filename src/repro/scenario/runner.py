"""Execute scenarios: the backend of ``repro run <scenario>``.

A scenario run prints, in order: a provenance header (scenario name,
source, content digest), the run summary, and the machine-diffable
``digest`` line (:func:`repro.resilience.runs.run_digest`) — so two
runs can be checked bit-identical by diffing two lines of stdout.

All engines a scenario can construct implement the versioned
checkpoint protocol, so ``--checkpoint-dir``/``--resume`` apply to
every scenario.  :func:`run_scenario` traps SIGINT/SIGTERM around its
one checkpointed run: the signal flushes a final checkpoint at the
next step boundary, and the run exits 130 with its digest line.

Sweeps run only through ``repro sweep`` (:mod:`repro.jobs`).
:func:`run_sweep_point` executes one grid point, one ``sweep ...
digest ...`` line; the job workers and the orchestrator's serial rung
both call it, which is why their digest lines are bit-identical.  It
traps no signals: the orchestrator owns interrupts.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Mapping

from .compile import build_engine, lint_scenario
from .spec import ScenarioSpec

__all__ = [
    "provenance",
    "run_scenario",
    "run_sweep_point",
    "format_overrides",
]


def provenance(
    spec: ScenarioSpec,
    *,
    seed: int | None = None,
    params: Mapping[str, Any] | None = None,
) -> dict:
    """The cache key of a scenario run: ``(digest, params, seed)``.

    A JSON-ready dict naming the scenario (name, source, digest) and
    the seed and parameters of one run, so a completed run can be
    reused as a cache hit by anything that trusts determinism.
    """
    return {
        "name": spec.name,
        "source": spec.source,
        "digest": spec.digest(),
        "seed": spec.run.seed if seed is None else seed,
        "params": dict(params or {}),
    }


def _split_overrides(
    overrides: Mapping[str, Any],
) -> tuple[dict[str, Any], dict[str, float], int | None, float | None]:
    """One sweep point -> (params, rates, seed, until)."""
    params: dict[str, Any] = {}
    rates: dict[str, float] = {}
    seed: int | None = None
    until: float | None = None
    for key, value in overrides.items():
        if key == "seed":
            seed = int(value)
        elif key == "until":
            until = float(value)
        elif key.startswith("params."):
            params[key[len("params."):]] = value
        elif key.startswith("rates."):
            rates[key[len("rates."):]] = float(value)
    return params, rates, seed, until


def format_overrides(overrides: Mapping[str, Any]) -> str:
    """Render one sweep point as ``key=value`` pairs (stable order)."""
    return " ".join(f"{k}={overrides[k]:g}" if isinstance(overrides[k], float)
                    else f"{k}={overrides[k]}" for k in sorted(overrides))


def _digest_line(engine) -> str:
    from ..resilience.runs import run_digest

    return (
        f"digest {run_digest(engine)} t={engine.time:.17g} "
        f"trials={engine.n_trials}"
    )


def _checkpointer(
    spec: ScenarioSpec,
    directory: str | Path | None,
    every: int | None,
    seconds: float | None,
):
    """The run's :class:`Checkpointer`, or ``None`` without a directory.

    With only the directory set, a checkpoint is taken every 10 step
    blocks.
    """
    if directory is None:
        return None
    from ..resilience.checkpoint import Checkpointer, CheckpointPolicy

    if every is None and seconds is None:
        every = 10
    return Checkpointer(
        Path(directory),
        CheckpointPolicy(every_steps=every, every_seconds=seconds),
        tag=spec.name,
    )


def _run_engine(engine, until: float, ckpt) -> Path | None:
    """Run ``engine`` to ``until``; returns the last checkpoint written."""
    engine.run(until=until, checkpoint=ckpt)
    if ckpt is None:
        return None
    # final flush: short runs may never cross the policy cadence, and a
    # completed run should always be resumable from its end
    ckpt.flush(engine)
    return ckpt.last_path


def run_sweep_point(
    spec: ScenarioSpec,
    overrides: Mapping[str, Any],
    *,
    seed: int | None = None,
    until: float | None = None,
    backend: str | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    checkpoint_seconds: float | None = None,
) -> str:
    """Execute one sweep grid point; returns its ``sweep ...`` output line.

    The single source of truth for what one point *is*: the job
    workers and the orchestrator's serial rung both call this function,
    which is why their digest lines are bit-identical and a journaled
    completion can stand in for a re-run.  ``seed``/``until`` are
    fallbacks — an override in the grid point wins.
    """
    params, rates, o_seed, o_until = _split_overrides(overrides)
    engine = build_engine(
        spec,
        seed=o_seed if o_seed is not None else seed,
        params_override=params or None,
        rates_override=rates or None,
        backend=backend,
    )
    horizon = spec.run.until if until is None else until
    run_until = o_until if o_until is not None else horizon
    _run_engine(
        engine, run_until,
        _checkpointer(spec, checkpoint_dir, checkpoint_every, checkpoint_seconds),
    )
    label = format_overrides(overrides) or "(base)"
    return f"sweep {label} {_digest_line(engine)}"


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed: int | None = None,
    until: float | None = None,
    backend: str | None = None,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    checkpoint_seconds: float | None = None,
    resume: str | Path | None = None,
    out=None,
) -> int:
    """Execute one scenario; returns the exit code."""
    out = out if out is not None else sys.stdout
    # fail closed before any trial: the lint preflight refuses what
    # `repro lint` would flag (LintError propagates to the CLI)
    partition = lint_scenario(spec).partition
    horizon = spec.run.until if until is None else until
    print(
        f"scenario {spec.name} ({spec.source}) digest {spec.short_digest()}",
        file=out,
    )

    engine = build_engine(spec, seed=seed, backend=backend, partition=partition)
    print(
        f"{spec.name}: engine {engine.algorithm}, "
        f"lattice {'x'.join(str(s) for s in spec.lattice_shape)}, "
        f"backend {engine.backend.name}",
        file=out,
    )

    if resume is not None:
        from ..resilience.runs import _resolve_resume

        path = _resolve_resume(resume, checkpoint_dir)
        engine.resume(path)
        print(f"resumed from {path}", file=out)
    if engine.time >= horizon:
        print(
            f"nothing to do: t={engine.time:g} >= until={horizon:g}",
            file=out,
        )
        print(_digest_line(engine), file=out)
        return 0

    ckpt = _checkpointer(spec, checkpoint_dir, checkpoint_every, checkpoint_seconds)
    try:
        if ckpt is None:
            last = _run_engine(engine, horizon, None)
        else:
            from ..resilience.checkpoint import signal_trap

            with signal_trap(ckpt._on_signal):
                last = _run_engine(engine, horizon, ckpt)
    except KeyboardInterrupt as exc:
        print(f"interrupted: {exc}", file=out)
        print(_digest_line(engine), file=out)
        return 130
    if last is not None:
        print(f"last checkpoint: {last}", file=out)

    print(f"{spec.name}: t={engine.time:g}, trials={engine.n_trials}", file=out)
    print(_digest_line(engine), file=out)
    return 0
