"""``python -m repro sweep``: the batch-orchestrator command line.

Mirrors the structure of :mod:`repro.lint.cli`: :func:`add_sweep_arguments`
wires the subparser, :func:`run` is the dispatch target.  The chaos flags exist
for the soak gate and for reproducing field failures — a seeded
``--chaos kill-job@3`` campaign replays the identical failure scenario
every time, which is what makes the recovery paths testable in CI.
"""

from __future__ import annotations

import sys

__all__ = ["add_sweep_arguments", "run", "parse_chaos_specs"]


def add_sweep_arguments(parser) -> None:
    """CLI surface of the batch orchestrator."""
    parser.add_argument(
        "scenarios", nargs="+", metavar="SCENARIO",
        help="zoo scenario name(s) or scenario .toml path(s); each "
        "declared [sweep] grid expands to one job per point (a scenario "
        "without a grid contributes its base configuration as one job)",
    )
    parser.add_argument(
        "--jobs", type=int, default=2, metavar="N",
        help="supervised worker processes (default 2)",
    )
    parser.add_argument(
        "--journal", metavar="DIR",
        help="write the repro.jobs/1 write-ahead journal into DIR "
        "(required for --resume)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="replay the journal in --journal and run only the jobs "
        "without a recorded completion (completed digest lines are "
        "re-printed bit for bit)",
    )
    parser.add_argument(
        "--max-retries", type=int, default=2, metavar="N",
        help="attempts per job before the sticky in-process serial rung "
        "(default 2)",
    )
    parser.add_argument(
        "--deadline", type=float, default=None, metavar="T",
        help="per-job wall-clock deadline in seconds (default: none; "
        "a worker death is still seen at once)",
    )
    parser.add_argument(
        "--until", type=float, default=None, metavar="T",
        help="override the simulated-time horizon of every job",
    )
    parser.add_argument(
        "--seed", type=int, default=None, metavar="N",
        help="fallback engine seed for grid points that do not sweep it",
    )
    parser.add_argument(
        "--backend", default=None, metavar="NAME",
        help="kernel backend for every job (numpy, cnative, auto); an "
        "unknown name exits 2 before the journal is opened.  Results are "
        "bit-identical across backends",
    )
    parser.add_argument(
        "--checkpoint-dir", metavar="DIR",
        help="give every job its own repro.ckpt/1 checkpoint directory "
        "DIR/<jobkey>/",
    )
    parser.add_argument(
        "--checkpoint-every", type=int, default=None, metavar="N",
        help="checkpoint every N step blocks (default 10 when "
        "--checkpoint-dir is set)",
    )
    parser.add_argument(
        "--checkpoint-seconds", type=float, default=None, metavar="T",
        help="checkpoint every T wall seconds instead of/besides every N",
    )
    parser.add_argument(
        "--chaos", action="append", default=None, metavar="SPEC",
        help="inject a deterministic fault: kind@poll with optional "
        ":key=value details, e.g. kill-job@3, stall-job@2:delay=5, "
        "corrupt-journal@4:mode=flip; repeat or comma-separate for a "
        "schedule",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0, metavar="N",
        help="seed of the chaos payload generator (default 0)",
    )


def parse_chaos_specs(values: list[str]):
    """``kind@at[:key=value...]`` strings -> :class:`FaultSpec` schedule."""
    from ..resilience.chaos import FaultSpec

    specs = []
    for chunk in values:
        for item in chunk.split(","):
            item = item.strip()
            if not item:
                continue
            head, _, detail = item.partition(":")
            kind, at_sep, at = head.partition("@")
            if not at_sep:
                raise ValueError(
                    f"chaos spec {item!r}: expected kind@poll (e.g. kill-job@3)"
                )
            kwargs: dict = {"kind": kind, "at": int(at)}
            for pair in filter(None, detail.split(":")):
                k, eq, v = pair.partition("=")
                if not eq or k not in ("delay", "mode"):
                    raise ValueError(
                        f"chaos spec {item!r}: unknown detail {pair!r} "
                        f"(expected delay=T or mode=truncate|flip)"
                    )
                kwargs[k] = float(v) if k == "delay" else v
            specs.append(FaultSpec(**kwargs))
    return tuple(specs)


def run(args) -> int:
    """Dispatch target of the ``sweep`` subcommand."""
    from ..backends import check_backend_name
    from ..lint.engine import LintError
    from ..resilience.checkpoint import ResilienceError
    from ..scenario import ScenarioError, find_scenario
    from .journal import JournalError
    from .orchestrator import JobOrchestrator

    chaos = None
    if args.chaos:
        from ..resilience.chaos import ChaosMonkey

        try:
            faults = parse_chaos_specs(args.chaos)
        except ValueError as exc:
            print(exc, file=sys.stderr)
            return 2
        chaos = ChaosMonkey(seed=args.chaos_seed, faults=faults)
    try:
        check_backend_name(args.backend)
        specs = tuple(find_scenario(ref) for ref in args.scenarios)
        orchestrator = JobOrchestrator(
            specs,
            n_workers=args.jobs,
            journal_dir=args.journal,
            max_retries=args.max_retries,
            deadline=args.deadline,
            seed=args.seed,
            until=args.until,
            backend=args.backend,
            checkpoint_dir=args.checkpoint_dir,
            checkpoint_every=args.checkpoint_every,
            checkpoint_seconds=args.checkpoint_seconds,
            chaos=chaos,
        )
        return orchestrator.run(resume=args.resume)
    except (ScenarioError, LintError, ResilienceError, JournalError,
            ValueError) as exc:
        print(exc.args[0] if exc.args else exc, file=sys.stderr)
        return 2
