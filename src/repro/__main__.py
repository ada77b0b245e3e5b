"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    List the reproduction experiments (tables/figures) and the scenario zoo.
``run <experiment-id|scenario> [--metrics] [--backend NAME]``
    Run one experiment by registry id and print its report
    (e.g. ``python -m repro run fig4``), or run a zoo scenario
    (``zgb``, ``no-co`` ... — see ``scenarios``) or a scenario file
    (``path/to/scenario.toml``) and print its ``digest`` line; scenario
    runs accept ``--sweep`` and the checkpoint/resume options.
    ``--metrics`` appends the run's collected counters/histograms (see
    :mod:`repro.obs`); ``--backend`` selects the kernel backend
    (numpy/cnative/auto, see :mod:`repro.backends`; an unknown name
    exits 2) — an execution detail only, results are bit-identical
    across backends.
``sweep <scenario>... [--jobs N] [--journal DIR] [--resume]``
    Crash-safe batch orchestration of scenario sweeps: expand the
    declared ``[sweep]`` grids into a job set, execute it on supervised
    worker processes with per-job deadlines and a retry/backoff/
    respawn/serial recovery ladder, and journal every state transition
    write-ahead (``repro.jobs/1``) so a killed campaign resumes with
    ``--resume`` — completed points are cache hits (see
    :mod:`repro.jobs`).
``scenarios [--check] [--gates [NAME ...]]``
    List the shipped scenario zoo; ``--check`` preflight-lints every
    shipped scenario file, ``--gates`` runs the declared acceptance
    gates (lint, fingerprint, mean-field) — both CI gates.
``algorithms``
    Print the algorithm taxonomy table.
``lint [--model NAME] [--tiling M:C0,C1] [--shape LxM] [--scenarios] [--json] [--strict]``
    Static verification: model sanity, symbolic partition race proofs
    and the scenario preflight (``--scenarios``) — see :mod:`repro.lint`;
    ``--list-codes`` prints the full SR registry.  Exit code 1 on
    findings — the CI gate.
``info``
    Package/version/paper information.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_list(_args) -> int:
    import repro.experiments as experiments
    from repro.scenario import scenario_registry

    print("experiments (python -m repro run <id>):")
    for key in sorted(experiments.REGISTRY):
        module, _ = experiments.REGISTRY[key]
        # docstring-less modules get an empty summary, not a crash
        doc_lines = (module.__doc__ or "").strip().splitlines()
        doc = doc_lines[0] if doc_lines else ""
        print(f"  {key:<22s} {doc}")
    print()
    print("scenarios (declarative TOML; details: python -m repro scenarios):")
    for key, spec in sorted(scenario_registry().items()):
        print(f"  {key:<22s} {spec.description}")
    return 0


def _bad_number(args, ints: tuple[str, ...], floats: tuple[str, ...]) -> int:
    """Exit code 2, after one line naming the first out-of-range flag.

    Flags in ``ints`` must be >= 1, flags in ``floats`` finite and > 0;
    unset (``None``) flags pass.  Returns 0 when every flag is valid.
    """
    import math

    for flag in (*ints, *floats):
        value = getattr(args, flag[2:].replace("-", "_"))
        if value is None:
            continue
        if flag in ints and value < 1:
            print(f"{flag} must be >= 1, got {value}", file=sys.stderr)
            return 2
        if flag in floats and not (math.isfinite(value) and value > 0):
            print(f"{flag} must be a finite number > 0, got {value}", file=sys.stderr)
            return 2
    return 0


def _cmd_run(args) -> int:
    from contextlib import ExitStack

    if _bad_number(args, ("--checkpoint-every",), ("--until", "--checkpoint-seconds")):
        return 2
    if args.seed is not None and args.seed < 0:
        print(f"--seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    if args.backend is not None:
        from repro.backends import check_backend_name

        try:
            check_backend_name(args.backend)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2

    from repro.scenario import is_scenario_ref

    if is_scenario_ref(args.experiment):
        refusal = _scenario_flags_refusal(args)
        target = _run_scenario
    else:
        refusal = _experiment_flags_refusal(args)
        target = _run_experiment
    if refusal:
        print(refusal, file=sys.stderr)
        return 2

    with ExitStack() as stack:
        if args.backend is not None:
            from repro.backends import resolve_backend, use_backend

            stack.enter_context(use_backend(resolve_backend(args.backend)))
        if args.metrics:
            from repro.obs import MetricsCollector, use_metrics

            collector = MetricsCollector()
            stack.enter_context(use_metrics(collector))
        code = target(args)
    if args.metrics and code == 0:
        from repro.obs import format_metrics

        print()
        print(format_metrics(collector.snapshot()))
    return code


def _scenario_flags_refusal(args) -> str | None:
    """Why a scenario run's checkpoint flags cannot work, or ``None``."""
    if args.checkpoint_dir is None:
        for flag in ("--checkpoint-every", "--checkpoint-seconds"):
            if getattr(args, flag[2:].replace("-", "_")) is not None:
                return f"{flag} needs --checkpoint-dir to write checkpoints into"
        if args.resume in ("", "."):
            return "--resume without a path needs --checkpoint-dir to search"
    return None


def _experiment_flags_refusal(args) -> str | None:
    """Why an experiment id cannot run with these flags, or ``None``."""
    from repro.experiments import REGISTRY as registry

    if args.experiment not in registry:
        from repro.scenario import scenario_names

        return (
            f"unknown experiment {args.experiment!r}; known experiments: "
            f"{sorted(registry)}; scenarios: {scenario_names()}"
        )
    # all four checkpoint/resume flags are meaningless for the report
    # experiments — reject each of them consistently instead of
    # silently ignoring the cadence flags
    checkpoint_flags = {
        "--checkpoint-dir": args.checkpoint_dir,
        "--checkpoint-every": args.checkpoint_every,
        "--checkpoint-seconds": args.checkpoint_seconds,
        "--resume": args.resume,
    }
    offending = sorted(k for k, v in checkpoint_flags.items() if v is not None)
    if offending:
        return (
            f"{', '.join(offending)} only apply to scenario runs, not "
            f"experiment {args.experiment!r}"
        )
    if args.sweep:
        return (
            f"--sweep only applies to scenario runs, not experiment "
            f"{args.experiment!r}"
        )
    return None


def _run_experiment(args) -> int:
    from repro.experiments import report

    print(report(args.experiment))
    return 0


def _run_scenario(args) -> int:
    from repro.lint.engine import LintError
    from repro.resilience.checkpoint import ResilienceError
    from repro.scenario import ScenarioError, find_scenario, run_scenario

    try:
        spec = find_scenario(args.experiment)
        return run_scenario(
            spec,
            seed=args.seed,
            until=args.until,
            backend=args.backend,  # explicit CLI choice wins over the spec
            sweep=args.sweep,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_seconds=args.checkpoint_seconds,
            resume=args.resume,
        )
    except (ScenarioError, LintError, ResilienceError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2


def _cmd_scenarios(args) -> int:
    from repro.lint.engine import LintError
    from repro.scenario import (
        ScenarioError,
        lint_scenario,
        run_gates,
        scenario_registry,
    )

    registry = scenario_registry()
    if args.check:
        status = 0
        for name in sorted(registry):
            spec = registry[name]
            try:
                lint_scenario(spec)
            except (LintError, ScenarioError) as exc:
                msg = exc.args[0] if exc.args else exc
                print(f"FAIL {name}: {msg}", file=sys.stderr)
                status = 1
            else:
                print(f"ok   {name} ({spec.source}) digest {spec.short_digest()}")
        return status
    if args.gates is not None:
        names = args.gates or sorted(registry)
        unknown = sorted(set(names) - set(registry))
        if unknown:
            print(
                f"unknown scenario(s) {unknown}; known: {sorted(registry)}",
                file=sys.stderr,
            )
            return 2
        status = 0
        for name in names:
            for result in run_gates(registry[name]):
                print(f"{name:<20s} {result.render()}")
                if not result.ok:
                    status = 1
        return status
    print("scenarios (python -m repro run <name|file.toml>):")
    for name in sorted(registry):
        spec = registry[name]
        lattice = "x".join(str(s) for s in spec.lattice_shape)
        print(
            f"  {name:<20s} {spec.engine.kind:<15s} {lattice:<8s} "
            f"digest {spec.short_digest()}  {spec.description}"
        )
    return 0


def _cmd_sweep(args) -> int:
    from repro.jobs.cli import run

    return run(args)


def _cmd_algorithms(_args) -> int:
    from repro.taxonomy import describe_all

    print(describe_all())
    return 0


def _cmd_lint(args) -> int:
    from repro.lint.cli import run

    return run(args)


def _cmd_info(_args) -> int:
    import repro

    print(f"repro {repro.__version__}")
    print(
        "reproduction of: Nedea, Lukkien, Jansen, Hilbers — "
        "'Methods for parallel simulations of surface reactions', "
        "IPPS 2003 (arXiv:physics/0209017)"
    )
    print("see DESIGN.md / EXPERIMENTS.md in the repository root")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Parse arguments and dispatch to a subcommand; returns the exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="parallel simulation of surface reactions (paper reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list reproduction experiments").set_defaults(
        fn=_cmd_list
    )
    p_run = sub.add_parser("run", help="run one experiment or scenario")
    p_run.add_argument("experiment", help="experiment id or scenario (see 'list')")
    p_run.add_argument(
        "--metrics",
        action="store_true",
        help="collect and print run metrics (counters/gauges/histograms)",
    )
    p_run.add_argument(
        "--until", type=float, default=None,
        help="simulated-time horizon (scenario runs only; default: the "
        "scenario's declared horizon)",
    )
    p_run.add_argument(
        "--seed", type=int, default=None,
        help="engine seed (scenario runs only; default: the scenario's "
        "declared seed)",
    )
    p_run.add_argument(
        "--sweep", action="store_true",
        help="run the scenario's declared [sweep] grid instead of the "
        "base configuration (scenario runs only)",
    )
    p_run.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="write repro.ckpt/1 checkpoints into DIR (scenario runs only)",
    )
    p_run.add_argument(
        "--checkpoint-every", type=int, metavar="N",
        help="checkpoint every N step blocks (default 10 when DIR is set)",
    )
    p_run.add_argument(
        "--checkpoint-seconds", type=float, metavar="T",
        help="checkpoint every T wall seconds instead of (or besides) every N steps",
    )
    p_run.add_argument(
        "--resume", nargs="?", const="", metavar="PATH",
        help="resume from a checkpoint file, a directory's newest good "
        "checkpoint, or (bare) from --checkpoint-dir",
    )
    p_run.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel backend for the run (numpy, cnative, auto); "
        "default: the ambient selection.  Backends are an execution "
        "detail — trajectories and checkpoints are bit-identical across "
        "them, so a run checkpointed under one backend resumes under "
        "another",
    )
    p_run.set_defaults(fn=_cmd_run)
    from repro.jobs.cli import add_sweep_arguments

    p_sweep = sub.add_parser(
        "sweep",
        help="crash-safe batch sweeps: journaled jobs on supervised workers",
    )
    add_sweep_arguments(p_sweep)
    p_sweep.set_defaults(fn=_cmd_sweep)
    p_scenarios = sub.add_parser(
        "scenarios", help="list/lint/gate the declarative scenario zoo"
    )
    p_scenarios.add_argument(
        "--check",
        action="store_true",
        help="preflight-lint every shipped scenario file (the CI gate)",
    )
    p_scenarios.add_argument(
        "--gates",
        nargs="*",
        metavar="NAME",
        default=None,
        help="run the declared acceptance gates (lint, fingerprint, "
        "mean-field) for the named scenarios (default: all)",
    )
    p_scenarios.set_defaults(fn=_cmd_scenarios)
    sub.add_parser("algorithms", help="print the algorithm taxonomy").set_defaults(
        fn=_cmd_algorithms
    )
    from repro.lint.cli import add_lint_arguments

    p_lint = sub.add_parser(
        "lint", help="static conflict/race proofs (models, partitions, kernels)"
    )
    add_lint_arguments(p_lint)
    p_lint.set_defaults(fn=_cmd_lint)
    sub.add_parser("info", help="package information").set_defaults(fn=_cmd_info)
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:  # output piped into head/less and closed
        return 0


if __name__ == "__main__":
    raise SystemExit(main())
