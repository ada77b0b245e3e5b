"""The standard micro-benchmark harness behind ``python -m repro bench``.

Every engine in the taxonomy gets one small, fixed-seed, fixed-size
reference run (ZGB CO-oxidation model, square lattice, five-chunk /
checkerboard partitions as appropriate).  Each run executes with a
:class:`~repro.obs.metrics.MetricsCollector` attached and is rendered
into one schema-``repro.bench/1`` record — printed as a table, or,
with ``--json``, emitted as ``BENCH_<engine>.json`` files so the
benchmark trajectory of the repository accumulates machine-readable
points instead of free text.

The runs are deliberately small (seconds, not minutes): the point of
the per-commit telemetry is *relative* movement under identical
settings, which the record captures exactly (host, git revision, seed,
model, lattice, timings, full metric dict).
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path
from typing import Callable

from .emit import (
    BenchSchemaError,
    bench_record,
    load_bench_json,
    write_bench_json,
)
from .metrics import MetricsCollector

__all__ = [
    "ENGINES",
    "run_engine_bench",
    "run_scenario_bench",
    "run_bench",
    "add_bench_arguments",
    "run",
]

#: default output directory for BENCH_*.json files (repo-relative)
DEFAULT_OUT = Path("benchmarks/reports")


# ----------------------------------------------------------------------
# engine reference runs
# ----------------------------------------------------------------------
def _ziff(side: int):
    """The shared model/lattice pair of the reference runs."""
    from ..core.lattice import Lattice
    from ..models import ziff_model

    return ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0), Lattice((side, side))


def _five(lattice):
    from ..partition import five_chunk_partition

    return five_chunk_partition(lattice)


def _bench_rsm(side: int, until: float, seed: int, n_replicas: int, m: MetricsCollector):
    from ..dmc.rsm import RSM

    model, lat = _ziff(side)
    sim = RSM(model, lat, seed=seed, metrics=m)
    return sim.run(until=until)


def _bench_ndca(side: int, until: float, seed: int, n_replicas: int, m: MetricsCollector):
    from ..ca.ndca import NDCA

    model, lat = _ziff(side)
    sim = NDCA(model, lat, seed=seed, metrics=m)
    return sim.run(until=until)


def _bench_pndca(side: int, until: float, seed: int, n_replicas: int, m: MetricsCollector):
    from ..ca.pndca import PNDCA

    model, lat = _ziff(side)
    sim = PNDCA(model, lat, seed=seed, partition=_five(lat), metrics=m)
    return sim.run(until=until)


def _bench_lpndca(side: int, until: float, seed: int, n_replicas: int, m: MetricsCollector):
    from ..ca.lpndca import LPNDCA

    model, lat = _ziff(side)
    sim = LPNDCA(model, lat, seed=seed, partition=_five(lat), L="chunk", metrics=m)
    return sim.run(until=until)


def _bench_typepart(side: int, until: float, seed: int, n_replicas: int, m: MetricsCollector):
    from ..ca.typepart import TypePartitionedCA

    model, lat = _ziff(side)
    sim = TypePartitionedCA(model, lat, seed=seed, metrics=m)
    return sim.run(until=until)


def _bench_ensemble_rsm(
    side: int, until: float, seed: int, n_replicas: int, m: MetricsCollector
):
    from ..ensemble.rsm import EnsembleRSM

    model, lat = _ziff(side)
    sim = EnsembleRSM(model, lat, n_replicas=n_replicas, seed=seed, metrics=m)
    return sim.run(until=until)


def _bench_ensemble_pndca(
    side: int, until: float, seed: int, n_replicas: int, m: MetricsCollector
):
    from ..ensemble.pndca import EnsemblePNDCA

    model, lat = _ziff(side)
    sim = EnsemblePNDCA(
        model, lat, n_replicas=n_replicas, seed=seed, partition=_five(lat), metrics=m
    )
    return sim.run(until=until)


#: engine id -> reference-run callable
ENGINES: dict[str, Callable] = {
    "rsm": _bench_rsm,
    "ndca": _bench_ndca,
    "pndca": _bench_pndca,
    "lpndca": _bench_lpndca,
    "typepart": _bench_typepart,
    "ensemble-rsm": _bench_ensemble_rsm,
    "ensemble-pndca": _bench_ensemble_pndca,
}

#: the engines benchmarked when none are named
DEFAULT_ENGINES = ("rsm", "pndca", "ensemble-pndca")


def run_engine_bench(
    engine: str,
    *,
    side: int = 20,
    until: float = 5.0,
    seed: int = 1,
    n_replicas: int = 4,
    backend: str | None = None,
) -> dict:
    """One engine reference run -> one validated ``repro.bench/1`` record.

    ``backend`` selects the kernel backend for the run (``None`` keeps
    the ambient selection).  Non-numpy backends get their own record
    name (``<engine>-<backend>``) so per-backend BENCH files coexist in
    the same trajectory directory, and the resolved backend is recorded
    in ``extra["backend"]`` either way — the trajectory stays comparable
    point-for-point under identical settings.
    """
    from ..backends import resolve_backend, use_backend

    try:
        fn = ENGINES[engine]
    except KeyError:
        raise KeyError(
            f"unknown engine {engine!r}; known: {sorted(ENGINES)}"
        ) from None
    be = resolve_backend(backend)
    collector = MetricsCollector()
    wall0 = time.perf_counter()
    with collector.phase("bench"), use_backend(be):
        result = fn(side, until, seed, n_replicas, collector)
    wall = time.perf_counter() - wall0
    # sequential results carry scalar totals; ensemble results arrays
    trials = getattr(result, "total_trials", None)
    if trials is None:
        trials = int(result.n_trials)
    trials = int(trials)
    timings = {
        "wall_s": wall,
        "run_wall_s": float(result.wall_time),
        "trials": float(trials),
        "trials_per_s": trials / result.wall_time if result.wall_time > 0 else 0.0,
    }
    extra: dict = {
        "side": side,
        "until": until,
        "backend": be.name,
    }
    if hasattr(result, "n_replicas"):
        extra["n_replicas"] = int(result.n_replicas)
    name = engine if be.name == "numpy" else f"{engine}-{be.name}"
    return bench_record(
        name,
        algorithm=result.algorithm,
        model=result.model_name,
        lattice_shape=result.lattice_shape,
        seed=seed,
        timings=timings,
        metrics=collector.snapshot(),
        extra=extra,
    )


def run_scenario_bench(
    ref: str,
    *,
    backend: str | None = None,
) -> dict:
    """One scenario reference run -> one ``repro.bench/1`` record.

    The record's ``extra["scenario"]`` block carries the scenario's
    content digest plus the run's params and seed — the exact cache key
    ``(digest, params, seed)`` under which a completed deterministic
    run is reusable.  Lattice, seed and horizon come from the scenario
    itself; ``backend`` (CLI ``--backend``) overrides its declared one.
    """
    from ..scenario import build_engine, find_scenario, provenance

    spec = find_scenario(ref)
    collector = MetricsCollector()
    wall0 = time.perf_counter()
    with collector.phase("bench"):
        engine = build_engine(spec, metrics=collector, backend=backend)
        result = engine.run(until=spec.run.until)
    wall = time.perf_counter() - wall0
    trials = getattr(result, "total_trials", None)
    if trials is None:
        trials = int(result.n_trials)
    trials = int(trials)
    timings = {
        "wall_s": wall,
        "run_wall_s": float(result.wall_time),
        "trials": float(trials),
        "trials_per_s": trials / result.wall_time if result.wall_time > 0 else 0.0,
    }
    extra: dict = {
        "until": spec.run.until,
        "backend": engine.backend.name,
        "scenario": provenance(spec),
    }
    name = f"scenario-{spec.name}"
    if engine.backend.name != "numpy":
        name = f"{name}-{engine.backend.name}"
    return bench_record(
        name,
        algorithm=result.algorithm,
        model=result.model_name,
        lattice_shape=result.lattice_shape,
        seed=spec.run.seed,
        timings=timings,
        metrics=collector.snapshot(),
        extra=extra,
    )


def run_bench(
    engines: tuple[str, ...] = DEFAULT_ENGINES,
    *,
    side: int = 20,
    until: float = 5.0,
    seed: int = 1,
    n_replicas: int = 4,
    backend: str | None = None,
) -> list[dict]:
    """Reference-run every requested engine; returns the records."""
    return [
        run_engine_bench(
            e,
            side=side,
            until=until,
            seed=seed,
            n_replicas=n_replicas,
            backend=backend,
        )
        for e in engines
    ]


# ----------------------------------------------------------------------
# CLI (wired as `python -m repro bench`)
# ----------------------------------------------------------------------
def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to an argparse (sub)parser."""
    parser.add_argument(
        "--engines",
        default=",".join(DEFAULT_ENGINES),
        help=(
            "comma-separated engine ids "
            f"(known: {', '.join(sorted(ENGINES))}; 'all' for every engine)"
        ),
    )
    parser.add_argument(
        "--side", type=int, default=20, help="lattice side length (default 20)"
    )
    parser.add_argument(
        "--until", type=float, default=5.0, help="simulated time horizon (default 5)"
    )
    parser.add_argument("--seed", type=int, default=1, help="run seed (default 1)")
    parser.add_argument(
        "--replicas", type=int, default=4, help="ensemble replica count (default 4)"
    )
    parser.add_argument(
        "--backend",
        default=None,
        metavar="NAME",
        help=(
            "kernel backend for the runs (numpy, cnative, auto); default: "
            "the ambient selection.  An unknown name exits 2; an unavailable "
            "backend falls back to numpy with a warning; non-numpy records "
            "are written as BENCH_<engine>-<backend>.json"
        ),
    )
    parser.add_argument(
        "--scenario",
        default=None,
        metavar="REF",
        help="bench a declarative scenario (zoo name or .toml path) "
        "instead of the engine reference runs; the record's provenance "
        "carries the scenario content digest, params and seed",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="print records as JSON and write BENCH_<engine>.json files to --out",
    )
    parser.add_argument(
        "--out",
        default=str(DEFAULT_OUT),
        help=f"directory for BENCH_*.json files (default {DEFAULT_OUT})",
    )
    parser.add_argument(
        "--check",
        nargs="+",
        metavar="FILE",
        help="validate existing BENCH_*.json files instead of running",
    )


def _check_files(paths: list[str]) -> int:
    status = 0
    for name in paths:
        try:
            record = load_bench_json(name)
        except (OSError, BenchSchemaError) as exc:
            print(f"FAIL {name}: {exc}", file=sys.stderr)
            status = 1
        else:
            print(f"ok   {name}: {record['algorithm']} ({record['schema']})")
    return status


def run(args: argparse.Namespace) -> int:
    """Execute the bench CLI; returns the exit code."""
    if args.check:
        return _check_files(args.check)
    from ..backends import check_backend_name

    try:
        check_backend_name(args.backend)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    from ..lint.engine import LintError

    if args.scenario is not None:
        from ..scenario import ScenarioError

        try:
            records = [run_scenario_bench(args.scenario, backend=args.backend)]
        except (ScenarioError, LintError) as exc:
            print(exc.args[0] if exc.args else exc, file=sys.stderr)
            return 2
    else:
        names = (
            tuple(sorted(ENGINES))
            if args.engines.strip() == "all"
            else tuple(e.strip() for e in args.engines.split(",") if e.strip())
        )
        unknown = [e for e in names if e not in ENGINES]
        if unknown:
            print(
                f"unknown engine(s) {unknown}; known: {sorted(ENGINES)}",
                file=sys.stderr,
            )
            return 2
        try:
            records = run_bench(
                names,
                side=args.side,
                until=args.until,
                seed=args.seed,
                n_replicas=args.replicas,
                backend=args.backend,
            )
        except LintError as exc:  # e.g. a side the five-chunk tiling rejects
            print(exc, file=sys.stderr)
            return 2
    if args.json:
        for record in records:
            path = write_bench_json(args.out, record)
            print(f"wrote {path}", file=sys.stderr)
        print(json.dumps(records, indent=2, sort_keys=True))
        return 0
    from ..io.report import format_table

    rows = [
        (
            r["name"],
            r["algorithm"],
            "x".join(str(x) for x in r["lattice"]),
            int(r["timings"]["trials"]),
            f"{r['timings']['trials_per_s']:.3g}",
            f"{r['timings']['wall_s']:.3f}",
            f"{r['metrics']['gauges'].get('acceptance', float('nan')):.3f}",
        )
        for r in records
    ]
    print(
        format_table(
            ["engine", "algorithm", "lattice", "trials", "trials/s", "wall_s", "accept"],
            rows,
        )
    )
    return 0
