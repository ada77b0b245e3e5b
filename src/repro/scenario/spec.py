"""The declarative scenario format: TOML schema, loader, validation.

A *scenario* is a complete, runnable description of a simulation —
model (inline reaction types or a named preset), lattice, engine and
chunk strategy, backend, seed, optional sweep grids, and acceptance
gates — in one ``repro.scenario/1`` TOML document::

    [scenario]
    name = "zgb"
    description = "ZGB CO oxidation at y = 0.51"

    [model]
    species = ["*", "CO", "O"]

    [[model.reactions]]
    name = "CO+O"
    type = "pair_reaction"
    a = "CO"
    b = "O"
    rate = 25.0

    [lattice]
    shape = [10, 10]

    [engine]
    kind = "rsm"

    [run]
    seed = 0
    until = 5.0

The loader is **fail-closed**: unknown keys at any level, wrong types,
non-positive or non-finite rates, undeclared species, malformed sweep
grids and inconsistent gate declarations are all rejected with a
:class:`ScenarioError` naming the offending key — nothing is guessed.
Model-level physics errors are caught one layer up by the ``repro
lint`` preflight (:func:`repro.scenario.compile.compile_scenario`).

Scenario identity is the :func:`ScenarioSpec.digest`: a SHA-256 over
the canonical JSON rendering of the *validated* document, so comments
and formatting do not change it but any semantic edit (a rate, the
lattice, the engine) does.  Completed runs are cache-keyable by
``(digest, params, seed)``; the digest is stamped into run output and
keys the sweep journal.
"""

from __future__ import annotations

import hashlib
import json
import math
import tomllib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "ScenarioError",
    "ScenarioSpec",
    "ModelSpec",
    "ReactionSpec",
    "EngineSpec",
    "RunSpec",
    "SweepSpec",
    "GatesSpec",
    "FingerprintGate",
    "MeanFieldGate",
    "load_scenario",
    "loads_scenario",
]

#: schema tag accepted by this loader
SCHEMA = "repro.scenario/1"

#: engine kinds the compiler knows how to construct
ENGINE_KINDS = (
    "rsm",
    "ndca",
    "pndca",
    "lpndca",
    "typepart",
    "ensemble-rsm",
    "ensemble-ndca",
    "ensemble-pndca",
)

#: engine kinds that execute chunks in parallel and therefore need a
#: conflict-free partition (proved by the lint preflight before any run)
PARALLEL_KINDS = ("pndca", "lpndca", "ensemble-pndca")

ENSEMBLE_KINDS = ("ensemble-rsm", "ensemble-ndca", "ensemble-pndca")

#: reaction vocabulary -> required keys (beyond name/type/rate)
REACTION_TYPES: dict[str, tuple[str, ...]] = {
    "adsorption": ("species",),
    "desorption": ("species",),
    "transformation": ("src", "tgt"),
    "dissociative_adsorption": ("species",),
    "pair_reaction": ("a", "b"),
    "hop": ("species",),
}

#: optional keys per reaction vocabulary entry
REACTION_OPTIONAL: dict[str, tuple[str, ...]] = {
    "pair_reaction": ("product_a", "product_b"),
}


class ScenarioError(ValueError):
    """A scenario document failed validation (CLI exit code 2)."""


# ----------------------------------------------------------------------
# validated spec dataclasses
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ReactionSpec:
    """One ``[[model.reactions]]`` entry (builder vocabulary)."""

    name: str
    type: str
    rate: float
    args: Mapping[str, str]  # vocabulary-specific species arguments


@dataclass(frozen=True)
class ModelSpec:
    """``[model]``: either a preset reference or inline reactions."""

    preset: str | None
    params: Mapping[str, Any]
    species: tuple[str, ...]
    ndim: int
    reactions: tuple[ReactionSpec, ...]


@dataclass(frozen=True)
class EngineSpec:
    """``[engine]``: kind plus its chunking/replica options."""

    kind: str
    partition: str | None
    strategy: str | None
    L: int | str | None
    chunk_selection: str | None
    n_replicas: int | None
    sample_interval: float | None
    backend: str | None


@dataclass(frozen=True)
class RunSpec:
    """``[run]``: seed, horizon, optional initial fill species."""

    seed: int
    until: float
    initial: str | None


@dataclass(frozen=True)
class SweepSpec:
    """``[sweep]``: cartesian grids over seed/until/params/rates."""

    seed: tuple[int, ...]
    until: tuple[float, ...]
    params: Mapping[str, tuple[Any, ...]]
    rates: Mapping[str, tuple[float, ...]]

    def grid(self) -> list[dict[str, Any]]:
        """Expand to the cartesian list of override dicts."""
        combos: list[dict[str, Any]] = [{}]

        def _extend(key: str, values: tuple) -> None:
            nonlocal combos
            combos = [{**c, key: v} for c in combos for v in values]

        if self.seed:
            _extend("seed", self.seed)
        if self.until:
            _extend("until", self.until)
        for name, values in self.params.items():
            _extend(f"params.{name}", values)
        for name, values in self.rates.items():
            _extend(f"rates.{name}", values)
        return combos


@dataclass(frozen=True)
class FingerprintGate:
    """Statistical-regression fingerprint: exact run digest at (seed, until)."""

    digest: str
    seed: int
    until: float


@dataclass(frozen=True)
class MeanFieldGate:
    """Mean-field cross-check: lattice coverages vs the closed ODE."""

    species: tuple[str, ...]
    t: float
    tol: float
    seed: int


@dataclass(frozen=True)
class GatesSpec:
    """``[gates]``: the scenario's acceptance criteria.

    ``mass_dt`` pins a CA time step for the SR010 probability-mass
    proof: the lint preflight must show ``K * mass_dt <= 1`` (the
    engines' canonical ``dt = 1/K`` always passes, so declaring a
    coarser step is an extra static claim about the rate budget).
    """

    fingerprint: FingerprintGate | None
    meanfield: MeanFieldGate | None
    mass_dt: float | None = None


@dataclass(frozen=True)
class ScenarioSpec:
    """A fully validated scenario document."""

    name: str
    description: str
    model: ModelSpec
    lattice_shape: tuple[int, ...]
    engine: EngineSpec
    run: RunSpec
    sweep: SweepSpec | None
    gates: GatesSpec
    source: str = "<inline>"
    canonical: Mapping[str, Any] = field(default_factory=dict, compare=False)

    def digest(self) -> str:
        """SHA-256 (hex) of the canonical JSON form of the document.

        Stable under comments/formatting/key order; changed by any
        semantic edit.  The first 16 hex digits are used in output
        lines, mirroring the run-digest convention.
        """
        blob = json.dumps(
            self.canonical, sort_keys=True, separators=(",", ":")
        ).encode()
        return hashlib.sha256(blob).hexdigest()

    def short_digest(self) -> str:
        """First 16 hex digits of :meth:`digest`."""
        return self.digest()[:16]


# ----------------------------------------------------------------------
# validation helpers — every reader is fail-closed
# ----------------------------------------------------------------------
def _err(msg: str) -> ScenarioError:
    return ScenarioError(msg)


def _require_table(doc: Mapping, key: str, where: str) -> Mapping:
    value = doc.get(key)
    if value is None:
        raise _err(f"{where}: missing required table [{key}]")
    if not isinstance(value, Mapping):
        raise _err(f"{where}: [{key}] must be a table, got {type(value).__name__}")
    return value


def _reject_unknown(table: Mapping, allowed: tuple[str, ...], where: str) -> None:
    unknown = sorted(set(table) - set(allowed))
    if unknown:
        raise _err(
            f"{where}: unknown key(s) {unknown}; allowed: {sorted(allowed)}"
        )


def _get_str(table: Mapping, key: str, where: str, default: str | None = None) -> str | None:
    if key not in table:
        return default
    v = table[key]
    if not isinstance(v, str):
        raise _err(f"{where}.{key}: expected a string, got {type(v).__name__}")
    return v


def _get_bool_free_number(v: Any) -> bool:
    # TOML booleans parse as bool, which is an int subclass in python
    return isinstance(v, bool)


def _get_number(table: Mapping, key: str, where: str, default=None):
    if key not in table:
        return default
    v = table[key]
    if _get_bool_free_number(v) or not isinstance(v, (int, float)):
        raise _err(f"{where}.{key}: expected a number, got {type(v).__name__}")
    return v


def _get_int(table: Mapping, key: str, where: str, default=None):
    if key not in table:
        return default
    v = table[key]
    if _get_bool_free_number(v) or not isinstance(v, int):
        raise _err(f"{where}.{key}: expected an integer, got {type(v).__name__}")
    return v


def _get_seed(table: Mapping, where: str, default: int) -> int:
    seed = _get_int(table, "seed", where, default=default)
    if seed < 0:
        raise _err(f"{where}.seed: must be >= 0, got {seed}")
    return seed


def _positive_rate(value: Any, where: str) -> float:
    if _get_bool_free_number(value) or not isinstance(value, (int, float)):
        raise _err(f"{where}: rate must be a number, got {type(value).__name__}")
    rate = float(value)
    if not math.isfinite(rate):
        raise _err(f"{where}: rate must be finite, got {rate!r}")
    if rate <= 0.0:
        raise _err(f"{where}: rate must be strictly positive, got {rate:g}")
    return rate


def _parse_reaction(entry: Any, index: int, species: tuple[str, ...]) -> ReactionSpec:
    where = f"model.reactions[{index}]"
    if not isinstance(entry, Mapping):
        raise _err(f"{where}: expected a table, got {type(entry).__name__}")
    name = _get_str(entry, "name", where)
    if not name:
        raise _err(f"{where}: missing required key 'name'")
    rtype = _get_str(entry, "type", where)
    if rtype is None:
        raise _err(f"{where} ({name!r}): missing required key 'type'")
    if rtype not in REACTION_TYPES:
        raise _err(
            f"{where} ({name!r}): unknown reaction type {rtype!r}; "
            f"known: {sorted(REACTION_TYPES)}"
        )
    required = REACTION_TYPES[rtype]
    optional = REACTION_OPTIONAL.get(rtype, ())
    _reject_unknown(
        entry, ("name", "type", "rate") + required + optional, f"{where} ({name!r})"
    )
    if "rate" not in entry:
        raise _err(f"{where} ({name!r}): missing required key 'rate'")
    rate = _positive_rate(entry["rate"], f"{where} ({name!r}).rate")
    args: dict[str, str] = {}
    for key in required + optional:
        if key not in entry:
            if key in optional:
                continue
            raise _err(f"{where} ({name!r}): missing required key {key!r}")
        value = entry[key]
        if not isinstance(value, str):
            raise _err(
                f"{where} ({name!r}).{key}: expected a species name, "
                f"got {type(value).__name__}"
            )
        if value not in species:
            raise _err(
                f"{where} ({name!r}).{key}: species {value!r} is not declared "
                f"in model.species {list(species)}"
            )
        args[key] = value
    return ReactionSpec(name=name, type=rtype, rate=rate, args=args)


def _parse_model(doc: Mapping) -> ModelSpec:
    table = _require_table(doc, "model", "scenario")
    preset = _get_str(table, "preset", "model")
    if preset is not None:
        _reject_unknown(table, ("preset", "params"), "model")
        params = table.get("params", {})
        if not isinstance(params, Mapping):
            raise _err("model.params: expected a table")
        return ModelSpec(
            preset=preset,
            params=dict(params),
            species=(),
            ndim=2,
            reactions=(),
        )
    _reject_unknown(table, ("species", "ndim", "reactions"), "model")
    species_raw = table.get("species")
    if not isinstance(species_raw, list) or not species_raw:
        raise _err("model.species: expected a non-empty list of species names")
    if not all(isinstance(s, str) for s in species_raw):
        raise _err("model.species: every entry must be a string")
    if len(set(species_raw)) != len(species_raw):
        raise _err(f"model.species: duplicate species in {species_raw}")
    species = tuple(species_raw)
    ndim = _get_int(table, "ndim", "model", default=2)
    if ndim not in (1, 2):
        raise _err(f"model.ndim: must be 1 or 2, got {ndim}")
    reactions_raw = table.get("reactions")
    if not isinstance(reactions_raw, list) or not reactions_raw:
        raise _err(
            "model.reactions: expected a non-empty array of [[model.reactions]] "
            "tables (or use model.preset)"
        )
    reactions = tuple(
        _parse_reaction(entry, i, species) for i, entry in enumerate(reactions_raw)
    )
    names = [r.name for r in reactions]
    if len(set(names)) != len(names):
        dupes = sorted({n for n in names if names.count(n) > 1})
        raise _err(f"model.reactions: duplicate reaction names {dupes}")
    return ModelSpec(
        preset=None, params={}, species=species, ndim=ndim, reactions=reactions
    )


def _parse_lattice(doc: Mapping, ndim: int) -> tuple[int, ...]:
    table = _require_table(doc, "lattice", "scenario")
    _reject_unknown(table, ("shape",), "lattice")
    shape_raw = table.get("shape")
    if not isinstance(shape_raw, list) or not shape_raw:
        raise _err("lattice.shape: expected a non-empty list of side lengths")
    for s in shape_raw:
        if _get_bool_free_number(s) or not isinstance(s, int) or s < 1:
            raise _err(f"lattice.shape: sides must be positive integers, got {shape_raw}")
    shape = tuple(shape_raw)
    if len(shape) != ndim:
        raise _err(
            f"lattice.shape: {len(shape)}-d shape {list(shape)} does not match "
            f"the model dimensionality ({ndim}-d)"
        )
    return shape


_ENGINE_KEYS = (
    "kind",
    "partition",
    "strategy",
    "L",
    "chunk_selection",
    "n_replicas",
    "sample_interval",
    "backend",
)


def _parse_engine(doc: Mapping) -> EngineSpec:
    table = _require_table(doc, "engine", "scenario")
    _reject_unknown(table, _ENGINE_KEYS, "engine")
    kind = _get_str(table, "kind", "engine")
    if kind is None:
        raise _err("engine.kind: missing required key")
    if kind not in ENGINE_KINDS:
        raise _err(
            f"engine.kind: unknown engine {kind!r}; known: {sorted(ENGINE_KINDS)}"
        )
    partition = _get_str(table, "partition", "engine")
    strategy = _get_str(table, "strategy", "engine")
    chunk_selection = _get_str(table, "chunk_selection", "engine")
    backend = _get_str(table, "backend", "engine")
    if backend is not None:
        from ..backends import check_backend_name

        try:
            check_backend_name(backend)
        except ValueError as exc:
            raise _err(f"engine.backend: {exc}") from None
    L: int | str | None = None
    if "L" in table:
        v = table["L"]
        if isinstance(v, str):
            if v != "chunk":
                raise _err(f"engine.L: must be a positive integer or 'chunk', got {v!r}")
            L = v
        elif isinstance(v, int) and not isinstance(v, bool) and v >= 1:
            L = v
        else:
            raise _err(f"engine.L: must be a positive integer or 'chunk', got {v!r}")
    n_replicas = _get_int(table, "n_replicas", "engine")
    if n_replicas is not None and n_replicas < 1:
        raise _err(f"engine.n_replicas: must be >= 1, got {n_replicas}")
    sample_interval = _get_number(table, "sample_interval", "engine")
    if sample_interval is not None and not sample_interval > 0:
        raise _err(f"engine.sample_interval: must be positive, got {sample_interval}")

    # option/kind consistency — refusing silently-ignored options keeps
    # scenario files honest about what actually ran
    if partition is not None and kind not in PARALLEL_KINDS:
        raise _err(f"engine.partition: engine kind {kind!r} takes no partition")
    if partition is None and kind in PARALLEL_KINDS:
        raise _err(
            f"engine.partition: engine kind {kind!r} needs a partition "
            f"('five-chunk', 'checkerboard', 'auto' or 'M:C0,C1')"
        )
    if strategy is not None and kind not in ("pndca", "ensemble-pndca"):
        raise _err(f"engine.strategy: engine kind {kind!r} takes no chunk strategy")
    if (L is not None or chunk_selection is not None) and kind != "lpndca":
        raise _err(f"engine.L/chunk_selection: only the 'lpndca' engine takes them")
    if n_replicas is not None and kind not in ENSEMBLE_KINDS:
        raise _err(f"engine.n_replicas: engine kind {kind!r} is not an ensemble")
    if n_replicas is None and kind in ENSEMBLE_KINDS:
        raise _err(f"engine.n_replicas: required for ensemble kind {kind!r}")
    if sample_interval is not None and kind not in ENSEMBLE_KINDS:
        raise _err(f"engine.sample_interval: only ensemble engines take it")
    return EngineSpec(
        kind=kind,
        partition=partition,
        strategy=strategy,
        L=L,
        chunk_selection=chunk_selection,
        n_replicas=n_replicas,
        sample_interval=sample_interval,
        backend=backend,
    )


def _parse_run(doc: Mapping, model: ModelSpec) -> RunSpec:
    table = _require_table(doc, "run", "scenario")
    _reject_unknown(table, ("seed", "until", "initial"), "run")
    seed = _get_seed(table, "run", default=0)
    until = _get_number(table, "until", "run", default=5.0)
    if not until > 0:
        raise _err(f"run.until: must be positive, got {until}")
    initial = _get_str(table, "initial", "run")
    if initial is not None and model.preset is None and initial not in model.species:
        raise _err(
            f"run.initial: species {initial!r} is not declared in model.species "
            f"{list(model.species)}"
        )
    return RunSpec(seed=seed, until=float(until), initial=initial)


def _scalar_list(value: Any, where: str, kind) -> tuple:
    if not isinstance(value, list) or not value:
        raise _err(f"{where}: expected a non-empty list")
    out = []
    for v in value:
        if _get_bool_free_number(v) or not isinstance(v, kind):
            want = "integers" if kind is int else "numbers"
            raise _err(f"{where}: expected a list of {want}, got {value!r}")
        out.append(v)
    return tuple(out)


def _parse_sweep(doc: Mapping, model: ModelSpec) -> SweepSpec | None:
    table = doc.get("sweep")
    if table is None:
        return None
    if not isinstance(table, Mapping):
        raise _err("sweep: expected a table")
    _reject_unknown(table, ("seed", "until", "params", "rates"), "sweep")
    seed: tuple[int, ...] = ()
    until: tuple[float, ...] = ()
    if "seed" in table:
        seed = _scalar_list(table["seed"], "sweep.seed", int)
        if any(v < 0 for v in seed):
            raise _err(f"sweep.seed: seeds must be >= 0, got {list(seed)}")
    if "until" in table:
        until = tuple(
            float(v)
            for v in _scalar_list(table["until"], "sweep.until", (int, float))
        )
        if any(u <= 0 for u in until):
            raise _err(f"sweep.until: horizons must be positive, got {list(until)}")
    params: dict[str, tuple] = {}
    if "params" in table:
        if model.preset is None:
            raise _err("sweep.params: only preset models take parameter sweeps")
        raw = table["params"]
        if not isinstance(raw, Mapping) or not raw:
            raise _err("sweep.params: expected a non-empty table of grids")
        for key, value in raw.items():
            params[key] = _scalar_list(value, f"sweep.params.{key}", (int, float))
    rates: dict[str, tuple[float, ...]] = {}
    if "rates" in table:
        if model.preset is not None:
            raise _err(
                "sweep.rates: preset models sweep via sweep.params, not sweep.rates"
            )
        raw = table["rates"]
        if not isinstance(raw, Mapping) or not raw:
            raise _err("sweep.rates: expected a non-empty table of grids")
        known = {r.name for r in model.reactions}
        for key, value in raw.items():
            if key not in known:
                raise _err(
                    f"sweep.rates: {key!r} names no declared reaction; "
                    f"known: {sorted(known)}"
                )
            grid = _scalar_list(value, f"sweep.rates.{key}", (int, float))
            rates[key] = tuple(
                _positive_rate(v, f"sweep.rates.{key}") for v in grid
            )
    if not (seed or until or params or rates):
        raise _err("sweep: declared but empty — remove the table or add a grid")
    return SweepSpec(seed=seed, until=until, params=params, rates=rates)


def _parse_gates(doc: Mapping, model: ModelSpec, run: RunSpec) -> GatesSpec:
    table = doc.get("gates", {})
    if not isinstance(table, Mapping):
        raise _err("gates: expected a table")
    _reject_unknown(table, ("fingerprint", "meanfield", "mass_dt"), "gates")
    mass_dt = _get_number(table, "mass_dt", "gates")
    if mass_dt is not None and not mass_dt > 0:
        raise _err(f"gates.mass_dt: must be a positive number, got {mass_dt!r}")
    fingerprint = None
    if "fingerprint" in table:
        fp = table["fingerprint"]
        if not isinstance(fp, Mapping):
            raise _err("gates.fingerprint: expected a table")
        _reject_unknown(fp, ("digest", "seed", "until"), "gates.fingerprint")
        digest = _get_str(fp, "digest", "gates.fingerprint")
        if digest is None:
            raise _err("gates.fingerprint.digest: missing required key")
        if len(digest) != 16 or any(c not in "0123456789abcdef" for c in digest):
            raise _err(
                f"gates.fingerprint.digest: expected 16 lowercase hex digits, "
                f"got {digest!r}"
            )
        until = _get_number(fp, "until", "gates.fingerprint", default=run.until)
        if not until > 0:
            raise _err(f"gates.fingerprint.until: must be positive, got {until}")
        fingerprint = FingerprintGate(
            digest=digest,
            seed=_get_seed(fp, "gates.fingerprint", default=run.seed),
            until=float(until),
        )
    meanfield = None
    if "meanfield" in table:
        mf = table["meanfield"]
        if not isinstance(mf, Mapping):
            raise _err("gates.meanfield: expected a table")
        _reject_unknown(mf, ("species", "t", "tol", "seed"), "gates.meanfield")
        species_raw = mf.get("species")
        if not isinstance(species_raw, list) or not species_raw:
            raise _err("gates.meanfield.species: expected a non-empty list")
        for s in species_raw:
            if not isinstance(s, str):
                raise _err("gates.meanfield.species: every entry must be a string")
            if model.preset is None and s not in model.species:
                raise _err(
                    f"gates.meanfield.species: {s!r} is not declared in "
                    f"model.species {list(model.species)}"
                )
        t = _get_number(mf, "t", "gates.meanfield")
        if t is None or not t > 0:
            raise _err(f"gates.meanfield.t: must be a positive number, got {t!r}")
        tol = _get_number(mf, "tol", "gates.meanfield")
        if tol is None or not tol > 0:
            raise _err(f"gates.meanfield.tol: must be a positive number, got {tol!r}")
        meanfield = MeanFieldGate(
            species=tuple(species_raw),
            t=float(t),
            tol=float(tol),
            seed=_get_seed(mf, "gates.meanfield", default=run.seed),
        )
    return GatesSpec(
        fingerprint=fingerprint,
        meanfield=meanfield,
        mass_dt=float(mass_dt) if mass_dt is not None else None,
    )


_TOP_KEYS = ("scenario", "model", "lattice", "engine", "run", "sweep", "gates")


def _canonicalise(value: Any) -> Any:
    """TOML value -> JSON-safe canonical value (digest input)."""
    if isinstance(value, Mapping):
        return {str(k): _canonicalise(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_canonicalise(v) for v in value]
    if isinstance(value, float) and value.is_integer():
        return value  # json renders 5.0 distinctly from 5; keep as-is
    return value


def loads_scenario(text: str, source: str = "<inline>") -> ScenarioSpec:
    """Parse and validate one scenario document from TOML text."""
    try:
        doc = tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise _err(f"{source}: not valid TOML: {exc}") from None
    _reject_unknown(doc, _TOP_KEYS, source)
    head = _require_table(doc, "scenario", source)
    _reject_unknown(head, ("name", "description", "schema"), "scenario")
    schema = _get_str(head, "schema", "scenario", default=SCHEMA)
    if schema != SCHEMA:
        raise _err(f"scenario.schema: expected {SCHEMA!r}, got {schema!r}")
    name = _get_str(head, "name", "scenario")
    if not name:
        raise _err("scenario.name: missing required key")
    description = _get_str(head, "description", "scenario", default="") or ""
    model = _parse_model(doc)
    lattice_shape = _parse_lattice(doc, model.ndim)
    engine = _parse_engine(doc)
    run = _parse_run(doc, model)
    sweep = _parse_sweep(doc, model)
    gates = _parse_gates(doc, model, run)
    return ScenarioSpec(
        name=name,
        description=description,
        model=model,
        lattice_shape=lattice_shape,
        engine=engine,
        run=run,
        sweep=sweep,
        gates=gates,
        source=source,
        canonical=_canonicalise(doc),
    )


def load_scenario(path: str | Path) -> ScenarioSpec:
    """Load and validate one scenario file."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise _err(f"cannot read scenario file {p}: {exc}") from None
    return loads_scenario(text, source=str(p))
