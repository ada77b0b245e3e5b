"""Acceptance gates: every zoo scenario proves itself before it ships.

Three gate tiers, in increasing cost:

* **lint** — always on: the model sanity pass (SR010–SR016) and, for
  parallel engine kinds, the symbolic partition race proof.  Run by
  :func:`repro.scenario.compile.lint_scenario`; a scenario that fails
  never reaches an engine.
* **fingerprint** — a statistical-regression gate: the engine is run at
  a fixed ``(seed, until)`` and its state digest (the
  :func:`repro.resilience.runs.run_digest` that ``repro run`` prints
  and the checkpoint CI gate diffs) must equal the recorded value.  Determinism makes this an
  exact regression test of the entire stack — model compilation, RNG
  stream, kernels, engine — per scenario.
* **meanfield** — a physics cross-check where tractable: selected
  coverages after a lattice run must agree with the integrated
  mean-field kinetics (:func:`repro.analysis.meanfield.integrate_mean_field`)
  within a declared tolerance.  Tolerances are loose by design — the
  lattice *should* deviate from the closure where correlations matter —
  so the gate catches wrong rate tables and broken kernels, not
  fluctuations.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .compile import build_engine, build_model, lint_scenario
from .spec import ScenarioSpec

__all__ = ["GateResult", "run_gates", "coverages_after"]


@dataclass(frozen=True)
class GateResult:
    """Outcome of one gate: name, verdict, human-readable detail."""

    gate: str
    ok: bool
    detail: str

    def render(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{status:<4s} {self.gate:<12s} {self.detail}"


def coverages_after(
    spec: ScenarioSpec, *, seed: int, until: float
) -> dict[str, float]:
    """Run the scenario engine and return final per-species coverages.

    Ensemble engines average over replicas; sequential engines read the
    single final configuration.
    """
    engine = build_engine(spec, seed=seed)
    engine.run(until=until)
    model, _ = build_model(spec.model, spec.name)
    n_species = len(model.species)
    if hasattr(engine, "states"):  # ensemble: (R, ...) stacked states
        states = np.asarray(engine.states)
        counts = np.zeros(n_species, dtype=np.float64)
        for r in range(states.shape[0]):
            counts += np.bincount(states[r].ravel(), minlength=n_species)
        counts /= states.shape[0]
        n_sites = states[0].size
    else:
        counts = np.bincount(
            engine.state.array.ravel(), minlength=n_species
        ).astype(np.float64)
        n_sites = engine.state.array.size
    return {
        name: float(counts[i] / n_sites)
        for i, name in enumerate(model.species.names)
    }


def _run_fingerprint(spec: ScenarioSpec) -> GateResult:
    from ..resilience.runs import run_digest

    gate = spec.gates.fingerprint
    assert gate is not None
    engine = build_engine(spec, seed=gate.seed)
    engine.run(until=gate.until)
    got = run_digest(engine)
    ok = got == gate.digest
    detail = (
        f"digest {got} == {gate.digest} (seed={gate.seed}, until={gate.until:g})"
        if ok
        else f"digest {got} != recorded {gate.digest} "
        f"(seed={gate.seed}, until={gate.until:g})"
    )
    return GateResult("fingerprint", ok, detail)


def _run_meanfield(spec: ScenarioSpec) -> GateResult:
    from ..analysis.meanfield import integrate_mean_field

    gate = spec.gates.meanfield
    assert gate is not None
    model, lint_initial = build_model(spec.model, spec.name)
    # theta0 mirrors the engine's starting configuration: the declared
    # fill species, else all-vacant / all-first-species by convention
    from ..core.species import EMPTY

    if spec.run.initial is not None:
        fill = spec.run.initial
    elif EMPTY in model.species:
        fill = EMPTY
    else:
        fill = model.species.names[0]
    theta0 = {fill: 1.0}
    _, series = integrate_mean_field(model, theta0, t_end=gate.t)
    covs = coverages_after(spec, seed=gate.seed, until=gate.t)
    worst: tuple[float, str] | None = None
    for name in gate.species:
        gap = abs(covs[name] - float(series[name][-1]))
        if worst is None or gap > worst[0]:
            worst = (gap, name)
    assert worst is not None
    gap, name = worst
    ok = gap <= gate.tol
    return GateResult(
        "meanfield",
        ok,
        f"max |lattice - meanfield| = {gap:.3f} ({name!r}) "
        f"{'<=' if ok else '>'} tol {gate.tol:g} at t={gate.t:g}",
    )


def run_gates(spec: ScenarioSpec) -> list[GateResult]:
    """Run every gate the scenario declares; lint always runs first.

    A lint failure short-circuits — the other gates would be measuring
    a model the static verifier already rejected.
    """
    from ..lint.engine import LintError

    results: list[GateResult] = []
    try:
        report = lint_scenario(spec)
    except LintError as exc:
        results.append(GateResult("lint", False, str(exc).splitlines()[0]))
        return results
    n_warn = len(report.warnings)
    results.append(
        GateResult("lint", True, f"model sanity + partition proof ({n_warn} warning(s))")
    )
    if spec.gates.fingerprint is not None:
        results.append(_run_fingerprint(spec))
    if spec.gates.meanfield is not None:
        results.append(_run_meanfield(spec))
    return results
