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

from typing import TYPE_CHECKING, Any, Callable, Mapping

from ..core.builder import ModelBuilder
from ..core.lattice import Lattice
from ..core.model import Model
from ..lint.diagnostics import LintReport
from .spec import (
    PARALLEL_KINDS,
    ModelSpec,
    ScenarioError,
    ScenarioSpec,
)

if TYPE_CHECKING:
    from ..partition.partition import Partition

__all__ = [
    "PRESETS",
    "build_model",
    "build_partition",
    "build_engine",
    "compile_scenario",
    "lint_scenario",
]


def _preset_ziff(**params):
    from ..models import ziff_model

    return ziff_model(**params), None


def _preset_zgb(**params):
    from ..models import zgb_model

    return zgb_model(**params), None


def _preset_pt100(**params):
    from ..models import pt100_model

    # runs start from the clean hex phase (the all-"h" default fill)
    return pt100_model(params or None), ["h"]


def _preset_diffusion_2d(**params):
    from ..models import diffusion_model_2d

    return diffusion_model_2d(**params), ["*", "A"]


#: preset name -> callable(**params) -> (Model, lint initial species | None)
PRESETS: dict[str, Callable[..., tuple[Model, list[str] | None]]] = {
    "ziff": _preset_ziff,
    "zgb": _preset_zgb,
    "pt100": _preset_pt100,
    "diffusion-2d": _preset_diffusion_2d,
}


def _check_preset_params(preset: str, params: Mapping[str, Any]) -> None:
    """Reject unknown preset parameters before calling the constructor."""
    target = {
        "ziff": ("k_co", "k_o2", "k_co2"),
        "zgb": ("y", "k_reaction"),
        "diffusion-2d": ("rate",),
    }.get(preset)
    if target is None:  # pt100: rate-key dict validated by the model itself
        return
    unknown = sorted(set(params) - set(target))
    if unknown:
        raise ScenarioError(
            f"model.params: unknown parameter(s) {unknown} for preset "
            f"{preset!r}; known: {sorted(target)}"
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
        try:
            fn = PRESETS[model_spec.preset]
        except KeyError:
            raise ScenarioError(
                f"model.preset: unknown preset {model_spec.preset!r}; "
                f"known: {sorted(PRESETS)}"
            ) from None
        params = dict(model_spec.params)
        if params_override:
            params.update(params_override)
        _check_preset_params(model_spec.preset, params)
        try:
            return fn(**params)
        except (TypeError, KeyError, ValueError) as exc:
            raise ScenarioError(
                f"model.preset {model_spec.preset!r}: {exc}"
            ) from None

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
    )

    if partition_spec == "five-chunk":
        return five_chunk_partition(lattice)
    if partition_spec == "checkerboard":
        return checkerboard(lattice)
    if partition_spec == "auto":
        try:
            m, coeffs = find_modular_tiling(model)
        except ValueError as exc:
            raise ScenarioError(f"engine.partition 'auto': {exc}") from None
        return modular_tiling(lattice, m, coeffs)
    m_str, sep, coeff_str = partition_spec.partition(":")
    if sep:
        try:
            m = int(m_str)
            coeffs = tuple(int(c) for c in coeff_str.split(","))
            return modular_tiling(lattice, m, coeffs)
        except ValueError as exc:
            raise ScenarioError(
                f"engine.partition {partition_spec!r}: {exc}"
            ) from None
    raise ScenarioError(
        f"engine.partition: unknown partition {partition_spec!r}; use "
        f"'five-chunk', 'checkerboard', 'auto' or 'M:C0,C1'"
    )


def _initial_configuration(spec: ScenarioSpec, model: Model, lattice: Lattice):
    """The run's starting configuration (None -> engine default)."""
    if spec.run.initial is None:
        return None
    from ..core.state import Configuration

    if spec.run.initial not in model.species:
        raise ScenarioError(
            f"run.initial: species {spec.run.initial!r} is not in the model "
            f"domain {list(model.species)}"
        )
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
    build it from the spec otherwise.
    """
    model, _ = build_model(
        spec.model, spec.name,
        params_override=params_override, rates_override=rates_override,
    )
    lattice = Lattice(spec.lattice_shape)
    run_seed = spec.run.seed if seed is None else seed
    be = backend if backend is not None else spec.engine.backend
    common: dict[str, Any] = {"seed": run_seed, "backend": be}
    if metrics is not None:
        common["metrics"] = metrics
    initial = _initial_configuration(spec, model, lattice)
    if initial is not None:
        common["initial"] = initial
    e = spec.engine
    kind = e.kind
    if kind in PARALLEL_KINDS and partition is None:
        partition = build_partition(e.partition, lattice, model)
    if kind == "rsm":
        from ..dmc.rsm import RSM

        return RSM(model, lattice, **common)
    if kind == "ndca":
        from ..ca.ndca import NDCA

        return NDCA(model, lattice, **common)
    if kind == "typepart":
        from ..ca.typepart import TypePartitionedCA

        return TypePartitionedCA(model, lattice, **common)
    if kind == "pndca":
        from ..ca.pndca import PNDCA

        return PNDCA(
            model, lattice, partition=partition,
            strategy=e.strategy or "random-order", **common,
        )
    if kind == "lpndca":
        from ..ca.lpndca import LPNDCA

        return LPNDCA(
            model, lattice, partition=partition,
            L=e.L if e.L is not None else 1,
            chunk_selection=e.chunk_selection or "size-proportional",
            **common,
        )
    raise ScenarioError(f"engine.kind: unknown engine {kind!r}")  # unreachable


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
    initial = [spec.run.initial] if spec.run.initial is not None else lint_initial
    # gates.mass_dt pins a CA step for the SR010 probability-mass proof;
    # None -> the canonical dt = 1/K, which passes by construction
    report = ScenarioReport()
    report.extend(preflight_model(
        model, dt=spec.gates.mass_dt, initial_species=initial
    ))
    if spec.engine.kind in PARALLEL_KINDS:
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
