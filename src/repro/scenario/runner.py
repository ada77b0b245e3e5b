"""Execute scenarios: the backend of ``repro run <scenario>``.

A scenario run prints, in order: a provenance header (scenario name,
source, content digest), the run summary, and the machine-diffable
``digest`` line (:func:`repro.resilience.runs.run_digest`) — so two
runs can be checked bit-identical by diffing two lines of stdout.

Sweeps (``--sweep``) expand the scenario's declared grids into the
cartesian product and run every point, one ``sweep ... digest ...``
line each (flushed as produced, so piped campaigns show progress);
the scenario digest plus the printed override pairs make every line
cache-keyable by ``(digest, params, seed)``.  The single-point
executor, :func:`run_sweep_point`, is shared with the batch
orchestrator (:mod:`repro.jobs`) — a job worker's digest line is
bit-identical to the serial loop's because both are this function.

All engines a scenario can construct implement the versioned
checkpoint protocol, so ``--checkpoint-dir``/``--resume`` apply to
every scenario.  Under ``--sweep``, ``--checkpoint-dir`` routes each
grid point to its own ``<dir>/<jobkey>/`` subdirectory (the same job
keys the orchestrator uses); only ``--resume`` stays rejected there —
resuming a sweep needs the write-ahead journal, i.e.
``repro sweep --resume``.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .compile import build_engine, lint_scenario
from .spec import ScenarioError, ScenarioSpec

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
    from ..resilience.runs import run_digest, _engine_time

    return (
        f"digest {run_digest(engine)} t={_engine_time(engine):.17g} "
        f"trials={int(np.sum(engine.n_trials))}"
    )


def _run_engine(
    engine,
    until: float,
    spec: ScenarioSpec,
    checkpoint_dir: str | Path | None,
    every: int | None,
    seconds: float | None,
    *,
    signals: bool = True,
) -> Path | None:
    """Run ``engine`` to ``until``; returns the last checkpoint written.

    Without ``checkpoint_dir`` nothing is checkpointed (``None``); with
    only the directory set, a checkpoint is taken every 10 step blocks.
    """
    if checkpoint_dir is None:
        engine.run(until=until)
        return None
    from ..resilience.checkpoint import (
        Checkpointer,
        CheckpointPolicy,
        use_checkpoints,
    )

    if every is None and seconds is None:
        every = 10
    ckpt = Checkpointer(
        Path(checkpoint_dir),
        CheckpointPolicy(every_steps=every, every_seconds=seconds),
        tag=spec.name,
    )
    with use_checkpoints(ckpt, signals=signals):
        engine.run(until=until)
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

    The single source of truth for what one point *is*: the serial
    sweep loop, the job workers and the orchestrator's serial rung all
    call this function, which is why their digest lines are
    bit-identical and a journaled completion can stand in for a re-run.
    ``seed``/``until`` are fallbacks — an override in the grid point
    wins, exactly as in the serial loop.
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
    # signals stay with the caller: the orchestrator (or the serial
    # sweep loop) owns interrupt semantics, not an individual point
    _run_engine(
        engine, run_until, spec, checkpoint_dir, checkpoint_every,
        checkpoint_seconds, signals=False,
    )
    label = format_overrides(overrides) or "(base)"
    return f"sweep {label} {_digest_line(engine)}"


def run_scenario(
    spec: ScenarioSpec,
    *,
    seed: int | None = None,
    until: float | None = None,
    backend: str | None = None,
    sweep: bool = False,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    checkpoint_seconds: float | None = None,
    resume: str | Path | None = None,
    out=None,
) -> int:
    """Execute one scenario (or its sweep grid); returns the exit code."""
    out = out if out is not None else sys.stdout
    # fail closed before any trial: the lint preflight refuses what
    # `repro lint` would flag (LintError propagates to the CLI)
    partition = lint_scenario(spec).partition
    horizon = spec.run.until if until is None else until
    print(
        f"scenario {spec.name} ({spec.source}) digest {spec.short_digest()}",
        file=out,
    )

    if sweep:
        if resume is not None:
            raise ScenarioError(
                "--sweep --resume needs the write-ahead journal: use "
                "`repro sweep <scenario> --journal DIR --resume` (the "
                "batch orchestrator) to resume a sweep campaign"
            )
        if spec.sweep is None:
            raise ScenarioError(
                f"scenario {spec.name!r} declares no [sweep] table"
            )
        grid = spec.sweep.grid()
        print(f"sweep: {len(grid)} point(s)", file=out)
        digest = spec.digest()
        for overrides in grid:
            point_ckpt_dir: Path | None = None
            if checkpoint_dir is not None:
                # one repro.ckpt/1 directory per grid point, keyed the
                # same way the orchestrator keys its jobs — the two
                # entry points share checkpoint trees
                from ..jobs.journal import job_key

                point_ckpt_dir = Path(checkpoint_dir) / job_key(
                    digest, overrides
                )
            line = run_sweep_point(
                spec,
                overrides,
                seed=seed,
                until=until,
                backend=backend,
                checkpoint_dir=point_ckpt_dir,
                checkpoint_every=checkpoint_every,
                checkpoint_seconds=checkpoint_seconds,
            )
            # flush per line: long campaigns piped through tee/head must
            # show progress, and journal/stdout orderings must agree
            print(line, file=out, flush=True)
        return 0

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
    from ..resilience.runs import _engine_time

    if _engine_time(engine) >= horizon:
        print(
            f"nothing to do: t={_engine_time(engine):g} >= until={horizon:g}",
            file=out,
        )
        print(_digest_line(engine), file=out)
        return 0

    try:
        last = _run_engine(
            engine, horizon, spec, checkpoint_dir, checkpoint_every,
            checkpoint_seconds,
        )
    except KeyboardInterrupt as exc:
        print(f"interrupted: {exc}", file=out)
        print(_digest_line(engine), file=out)
        return 130
    if last is not None:
        print(f"last checkpoint: {last}", file=out)

    print(
        f"{spec.name}: t={_engine_time(engine):g}, "
        f"trials={int(np.sum(engine.n_trials))}",
        file=out,
    )
    print(_digest_line(engine), file=out)
    return 0
