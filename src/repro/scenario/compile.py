"""Compile validated scenario specs into models and engines.

Inline reaction lists go through the existing
:class:`repro.core.builder.ModelBuilder` vocabulary — a scenario can
express exactly what the builder can, nothing more — while
``model.preset`` references the curated model constructors of
:mod:`repro.models` (the Jansen-catalogue zoo entries use both forms).

Compilation is gated: :func:`compile_scenario` refuses any scenario
whose model fails the ``repro lint`` sanity preflight (SR010–SR016)
and, for the parallel engine kinds, any partition the symbolic race
detector cannot prove conflict-free — the same
:class:`~repro.lint.engine.LintError` gates the engine constructors
enforce, surfaced at load time instead of mid-run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..core.builder import ModelBuilder
from ..core.lattice import Lattice
from ..core.model import Model
from ..lint.diagnostics import LintReport
from ..taxonomy import REGISTRY as ENGINES
from ..taxonomy import load, make_simulator
from .spec import (
    ModelSpec,
    ScenarioError,
    ScenarioSpec,
    check_dimensions,
)

if TYPE_CHECKING:
    from ..partition.partition import Partition

__all__ = [
    "PRESETS",
    "Preset",
    "build_model",
    "build_partition",
    "build_engine",
    "check_preset_params",
    "compile_scenario",
    "lint_scenario",
]


@dataclass(frozen=True)
class Preset:
    """One curated model: its constructor, defaults and lint start.

    ``target`` and ``rates`` are ``"module:name"`` strings imported on
    first use, so reading the table loads no model module.
    """

    target: str
    #: parameters passed when the scenario does not set them
    defaults: Mapping[str, Any] = field(default_factory=dict)
    #: species present in the runs' initial configurations (lint's
    #: reachability start); ``None`` -> the model's default fill
    initial: tuple[str, ...] | None = None
    #: the default-rate dict whose keys are the parameters; the
    #: constructor then takes the parameters as one dict
    rates: str | None = None

    def param_names(self) -> list[str]:
        """The accepted parameter names, read off the constructor."""
        if self.rates is not None:
            return sorted(load(self.rates))
        params = inspect.signature(load(self.target)).parameters.values()
        return sorted(
            p.name for p in params
            if p.kind in (p.POSITIONAL_OR_KEYWORD, p.KEYWORD_ONLY)
        )

    def build(self, params: Mapping[str, Any]) -> Model:
        merged = {**self.defaults, **params}
        if self.rates is not None:
            return load(self.target)(merged or None)
        return load(self.target)(**merged)


#: the one preset table: ``model.preset``, ``repro lint`` and
#: ``repro lint --model`` all read it
PRESETS: dict[str, Preset] = {
    "ziff": Preset("repro.models:ziff_model"),
    "zgb": Preset("repro.models:zgb_model", defaults={"y": 0.5}),
    # experiments start from a random gas: vacancies and particles
    "diffusion-1d": Preset("repro.models:diffusion_model_1d", initial=("*", "A")),
    "diffusion-2d": Preset("repro.models:diffusion_model_2d", initial=("*", "A")),
    # both spin species exist in any initial configuration
    "ising": Preset(
        "repro.models:ising_model_2d", defaults={"beta": 0.4}, initial=("-", "+")
    ),
    # tracer experiments place equally spaced particles on the ring
    "single-file": Preset("repro.models:single_file_model", initial=("*", "A")),
    # runs start from the clean hex phase; CO arrives by adsorption
    "pt100": Preset(
        "repro.models:pt100_model",
        initial=("h",),
        rates="repro.models.pt100:OSCILLATING",
    ),
}


def check_preset_params(preset: str, names, where: str) -> None:
    """Refuse parameter names the preset's constructor does not take.

    Without names nothing is imported, so loading the zoo loads no model.
    """
    if not names:
        return
    known = PRESETS[preset].param_names()
    unknown = sorted(set(names) - set(known))
    if unknown:
        raise ScenarioError(
            f"{where}: unknown parameter(s) {unknown} for preset "
            f"{preset!r}; known: {known}"
        )


def build_model(
    model_spec: ModelSpec,
    name: str,
    params_override: Mapping[str, Any] | None = None,
    rates_override: Mapping[str, float] | None = None,
) -> tuple[Model, list[str] | None]:
    """Spec -> ``(Model, lint initial species)``.

    ``params_override`` (presets) and ``rates_override`` (inline
    reactions) apply one sweep point; base values come from the spec.
    """
    if model_spec.preset is not None:
        preset = PRESETS[model_spec.preset]
        params = {**model_spec.params, **(params_override or {})}
        check_preset_params(model_spec.preset, params, "model.params")
        try:
            model = preset.build(params)
        except (TypeError, KeyError, ValueError) as exc:
            raise ScenarioError(
                f"model.preset {model_spec.preset!r}: {exc}"
            ) from None
        return model, list(preset.initial) if preset.initial else None

    rates = dict(rates_override or {})
    unknown = sorted(set(rates) - {r.name for r in model_spec.reactions})
    if unknown:
        raise ScenarioError(
            f"rate override(s) {unknown} name no declared reaction"
        )
    builder = ModelBuilder(name, species=model_spec.species, ndim=model_spec.ndim)
    for r in model_spec.reactions:
        rate = rates.get(r.name, r.rate)
        method = getattr(builder, r.type)
        kwargs = dict(r.args)
        try:
            if r.type == "pair_reaction":
                method(r.name, rate=rate, **kwargs)
            elif r.type == "transformation":
                method(r.name, kwargs["src"], kwargs["tgt"], rate=rate)
            else:  # adsorption/desorption/dissociative_adsorption/hop
                method(r.name, kwargs["species"], rate=rate)
        except ValueError as exc:
            raise ScenarioError(f"model.reactions ({r.name!r}): {exc}") from None
    try:
        return builder.build(), None
    except ValueError as exc:
        raise ScenarioError(f"model: {exc}") from None


def build_partition(partition_spec: str, lattice: Lattice, model: Model):
    """Resolve an ``engine.partition`` string to a concrete partition.

    ``"five-chunk"`` is the paper's Fig. 4 tiling, ``"checkerboard"``
    the 2-colour block tiling, ``"auto"`` searches the smallest
    conflict-free modular tiling for the model, and ``"M:C0,C1"`` is an
    explicit modular labelling.
    """
    from ..partition.tilings import (
        checkerboard,
        find_modular_tiling,
        five_chunk_partition,
        modular_tiling,
        parse_tiling,
    )

    if partition_spec == "five-chunk":
        return five_chunk_partition(lattice)
    if partition_spec == "checkerboard":
        return checkerboard(lattice)
    try:
        if partition_spec == "auto":
            return modular_tiling(lattice, *find_modular_tiling(model))
        if ":" in partition_spec:
            return modular_tiling(lattice, *parse_tiling(partition_spec))
    except ValueError as exc:
        raise ScenarioError(f"engine.partition {partition_spec!r}: {exc}") from None
    raise ScenarioError(
        f"engine.partition: unknown partition {partition_spec!r}; use "
        f"'five-chunk', 'checkerboard', 'auto' or 'M:C0,C1'"
    )


def _check_fit(spec: ScenarioSpec, model: Model) -> None:
    """Refuse a lattice rank or ``run.initial`` species the built model
    does not have (a preset's are known only once it is built)."""
    check_dimensions(spec.lattice_shape, model.ndim)
    if spec.run.initial is not None and spec.run.initial not in model.species:
        raise ScenarioError(
            f"run.initial: species {spec.run.initial!r} is not in the model "
            f"domain {list(model.species)}"
        )


def _initial_configuration(spec: ScenarioSpec, model: Model, lattice: Lattice):
    """The run's starting configuration (None -> engine default)."""
    if spec.run.initial is None:
        return None
    from ..core.state import Configuration

    return Configuration.filled(lattice, model.species, spec.run.initial)


def build_engine(
    spec: ScenarioSpec,
    *,
    seed: int | None = None,
    params_override: Mapping[str, Any] | None = None,
    rates_override: Mapping[str, float] | None = None,
    metrics=None,
    backend: str | None = None,
    partition=None,
):
    """Construct the scenario's engine, ready to ``run(until=...)``.

    The engine constructors run their own lint preflights (model sanity
    and, for parallel kinds, the partition race proof) — a scenario that
    compiles here is exactly one ``repro lint`` accepts.  ``partition``
    is the scenario's partition when the caller holds it already (the
    :class:`ScenarioReport` of :func:`lint_scenario`); the parallel kinds
    build it from the spec otherwise.  Only the engine options the spec
    sets are passed, so the constructors' own defaults apply.
    """
    model, _ = build_model(
        spec.model, spec.name,
        params_override=params_override, rates_override=rates_override,
    )
    _check_fit(spec, model)
    lattice = Lattice(spec.lattice_shape)
    e = spec.engine
    row = ENGINES[e.kind]
    kwargs: dict[str, Any] = {
        "seed": spec.run.seed if seed is None else seed,
        "backend": backend if backend is not None else e.backend,
    }
    if metrics is not None:
        kwargs["metrics"] = metrics
    initial = _initial_configuration(spec, model, lattice)
    if initial is not None:
        kwargs["initial"] = initial
    if row.partitioned:
        if partition is None:
            partition = build_partition(e.partition, lattice, model)
        kwargs["partition"] = partition
    for key in row.options:
        if getattr(e, key) is not None:
            kwargs[key] = getattr(e, key)
    return make_simulator(e.kind, model, lattice, **kwargs)


class ScenarioReport(LintReport):
    """A scenario's preflight report and the partition it proved
    (``None`` for the sequential kinds), for :func:`build_engine`."""

    partition: Partition | None = None


def lint_scenario(spec: ScenarioSpec) -> ScenarioReport:
    """The fail-closed preflight: model sanity + partition race proof.

    Returns the combined report; raises
    :class:`~repro.lint.engine.LintError` when any error-severity
    diagnostic fires — a scenario the linter flags never reaches an
    engine.
    """
    from ..lint.engine import preflight_model, preflight_partition

    model, lint_initial = build_model(spec.model, spec.name)
    _check_fit(spec, model)
    initial = [spec.run.initial] if spec.run.initial is not None else lint_initial
    # gates.mass_dt pins a CA step for the SR010 probability-mass proof;
    # None -> the canonical dt = 1/K, which passes by construction
    report = ScenarioReport()
    report.extend(preflight_model(
        model, dt=spec.gates.mass_dt, initial_species=initial
    ))
    if ENGINES[spec.engine.kind].partitioned:
        lattice = Lattice(spec.lattice_shape)
        report.partition = build_partition(spec.engine.partition, lattice, model)
        report.extend(preflight_partition(report.partition, model))
    return report


def compile_scenario(spec: ScenarioSpec, **kwargs):
    """Preflight-lint the scenario, then build its engine.

    This is the loader's contract: anything ``repro lint`` flags is
    refused (``LintError``) before a single trial runs.
    """
    return build_engine(spec, partition=lint_scenario(spec).partition, **kwargs)
