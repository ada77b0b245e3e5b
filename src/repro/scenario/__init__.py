"""Declarative scenarios: the TOML DSL, the model zoo, and its gates.

The package turns the hand-constructed-per-driver models of the
reproduction into a *corpus*: any simulation the engine family can run
is describable as one ``repro.scenario/1`` TOML document (species,
reaction types and rates, lattice, engine + chunk strategy, backend,
seed, sweep grids, acceptance gates), loadable fail-closed, runnable
via ``python -m repro run <scenario>``, and identified by a content
digest that makes completed runs cache-keyable by
``(digest, params, seed)``.

Layout::

    spec.py      the schema + fail-closed loader/validator
    compile.py   spec -> Model (via core.builder) -> engine, lint-gated
    registry.py  the shipped zoo (repro/scenario/zoo/*.toml)
    gates.py     lint / fingerprint / mean-field acceptance gates
    runner.py    `repro run` backend (checkpoint/resume) and the one
                 sweep-point runner of `repro sweep`
    zoo/         the Jansen-catalogue model zoo (TOML files)

Quick start::

    from repro.scenario import build_engine, find_scenario, run_gates

    spec = find_scenario("zgb")          # zoo name or path to a .toml
    engine = build_engine(spec)          # lint-gated construction
    engine.run(until=spec.run.until)
    for result in run_gates(spec):       # the scenario's acceptance gates
        print(result.render())
"""

from .compile import (
    PRESETS,
    build_engine,
    build_model,
    build_partition,
    compile_scenario,
    lint_scenario,
)
from .registry import (
    find_scenario,
    get_scenario,
    is_scenario_ref,
    scenario_names,
    scenario_registry,
)
from .runner import format_overrides, provenance, run_scenario, run_sweep_point
from .spec import (
    ScenarioError,
    ScenarioSpec,
    load_scenario,
    loads_scenario,
)


def __getattr__(name: str):
    # the gates run for `repro scenarios --gates` and the tests only:
    # resolve them on first access (PEP 562), so `repro run` skips them
    if name in ("GateResult", "coverages_after", "run_gates"):
        from . import gates

        return getattr(gates, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "load_scenario",
    "loads_scenario",
    "scenario_registry",
    "scenario_names",
    "get_scenario",
    "find_scenario",
    "is_scenario_ref",
    "PRESETS",
    "build_model",
    "build_partition",
    "build_engine",
    "compile_scenario",
    "lint_scenario",
    "GateResult",
    "run_gates",
    "coverages_after",
    "provenance",
    "run_scenario",
    "run_sweep_point",
    "format_overrides",
]
