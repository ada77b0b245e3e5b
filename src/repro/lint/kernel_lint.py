"""Kernel-level static analysis: the scatter/gather aliasing prover.

This pass lifts the package's conflict-freedom story down to the
vectorized NumPy kernels: the partition linter proves that distinct
chunk sites cannot have overlapping reaction footprints; this module
proves that the kernels *exploiting* that theorem cannot reintroduce
a race through aliasing scatter writes, undeclared mutation, or shape
and dtype drift.  It is pure static analysis — no kernel is executed.

Checks (stable codes, see :data:`repro.lint.diagnostics.CODES`):

SR040 *scatter-lost-update* (error)
    ``arr[idx] += v`` (any augmented op) where ``idx`` is a fancy index
    that may contain duplicates.  NumPy buffers the gather, so repeated
    indices silently drop all but one contribution — the in-kernel
    analogue of the within-chunk race the partition rules out.  Safe
    routes: ``np.add.at``, an ``_occurrence_index`` round mask, or a
    provably duplicate-free index (``np.arange``, boolean-mask subsets
    of ``disjoint`` parameters, injective maps gathered at unique
    indices, ...).

SR041 *scatter-write-alias* (error)
    ``arr[idx] = values`` with possibly-repeated ``idx`` and a
    non-scalar right-hand side: which value lands is an ordering
    accident.  (A scalar RHS is exempt — last-write-wins with an
    identical value.)  Justifiable via a contract ``justify`` entry or
    a ``# lint: justified(SR041): ...`` pragma when disjointness
    follows from an argument outside the analyzer's fragment.

SR042 *shape-broadcast-mismatch* (error)
    Provably incompatible operand shapes under broadcasting, using the
    symbolic ``(C, T, N)`` / stacked ``(R, N)`` dims the contracts
    declare.  Only concrete, unequal, non-1 dimension pairs fire.

SR043 *dtype-downcast* (warning)
    Implicit value-narrowing store (e.g. ``float64`` into ``int64``,
    ``int64`` into ``int32``).  Explicit ``astype`` never fires.

SR050 *undeclared-mutation* (error)
    A kernel mutates a parameter (or ``self.*`` attribute) that its
    ``@kernel`` contract does not list in ``writes``/``caches`` — or
    declares ``pure=True`` while mutating anything reachable from its
    arguments.

SR051 *twin-contract-drift* (error)
    A stacked/interleaved ensemble kernel and its declared sequential
    ``twin`` disagree on effects after applying the parameter
    ``rename`` map (purity flip, or mismatched write sets restricted
    to the shared parameters).  This extends the sequential/ensemble
    pairing discipline of :mod:`repro.lint.rng_lint` from RNG draws to
    memory effects; ``caches`` are invisible to twins by design.

Entry point: :func:`lint_kernels`, wired into
``python -m repro lint --kernels`` and the CI strict gate.
:func:`runtime_write_collisions` is the brute-force runtime
counterpart used by the differential tests.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Iterable, Sequence

import numpy as np

from .contracts import KernelContract, contract_of, registered_kernels
from .diagnostics import Diagnostic, LintReport
from .ir import KernelIR, build_ir

__all__ = [
    "KERNEL_MODULES",
    "analyze_kernel",
    "check_twins",
    "lint_kernels",
    "runtime_write_collisions",
]

#: the kernel modules the CI gate analyzes
KERNEL_MODULES: tuple[str, ...] = (
    "repro.core.kernels",
    "repro.core.compiled",
    "repro.ensemble.rsm",
    "repro.ensemble.ndca",
    "repro.ensemble.pndca",
    "repro.backends.cnative",
)


def _subject(ir: KernelIR) -> str:
    return f"{ir.module}.{ir.qualname}"


def _allowed(root: str, allowed: frozenset[str]) -> bool:
    """Is a mutation root covered by a declared write/cache entry?

    ``"compiled"`` covers ``"compiled._seq_tables"`` (object-level
    grants cover attribute stores); dotted declarations match exactly
    or by prefix.
    """
    for w in allowed:
        if root == w or root.startswith(w + "."):
            return True
    return False


def _emit(
    report: LintReport,
    ir: KernelIR,
    code: str,
    lineno: int,
    message: str,
    data: dict[str, Any],
) -> None:
    """Add a diagnostic, honouring pragma / contract justifications."""
    reason = ir.pragma_for(lineno, code) or ir.contract.justify.get(code)
    if reason is not None:
        report.note(
            f"{_subject(ir)}:{lineno}: {code} justified: {reason}"
        )
        return
    report.add(
        Diagnostic(
            code=code,
            subject=f"{_subject(ir)}:{lineno}",
            message=message,
            data=data,
        )
    )


def analyze_kernel(
    fn: Callable[..., Any], source: str | None = None
) -> LintReport:
    """Static report for one ``@kernel``-decorated function.

    ``source`` overrides the function's real source (for analyzing
    seeded mutants in tests).
    """
    return _analyze_ir(build_ir(fn, source=source))


def _analyze_ir(ir: KernelIR) -> LintReport:
    report = LintReport()
    contract = ir.contract

    for sc in ir.scatters:
        if sc.index_unique:
            continue
        if sc.augmented:
            _emit(
                report, ir, "SR040", sc.lineno,
                f"augmented scatter '{sc.target} op= ...' uses a fancy "
                f"index that may repeat values: with duplicate indices "
                f"numpy drops all but one update (lost update); route "
                f"through np.add.at or an occurrence-round dedup, or "
                f"prove the index duplicate-free",
                {"target": sc.target, "roots": sorted(sc.roots)},
            )
        elif not sc.value_scalar:
            _emit(
                report, ir, "SR041", sc.lineno,
                f"scatter '{sc.target} = ...' writes array values "
                f"through a fancy index that may repeat: the surviving "
                f"value per repeated index is an ordering accident",
                {"target": sc.target, "roots": sorted(sc.roots)},
            )

    allowed = contract.allowed_writes()
    seen: set[tuple[str, int]] = set()
    for mu in ir.mutations:
        bad = sorted(r for r in mu.roots if not _allowed(r, allowed))
        if not bad:
            continue
        key = (",".join(bad), mu.lineno)
        if key in seen:
            continue
        seen.add(key)
        what = "pure kernel mutates" if contract.pure else (
            "kernel mutates undeclared"
        )
        _emit(
            report, ir, "SR050", mu.lineno,
            f"{what} {', '.join(bad)} (via {mu.via} on {mu.target}); "
            f"declare it in writes=/caches= or make the effect local",
            {"roots": bad, "via": mu.via, "target": mu.target},
        )

    for sh in ir.shape_issues:
        _emit(
            report, ir, "SR042", sh.lineno, sh.detail, {"detail": sh.detail}
        )
    for ca in ir.cast_issues:
        _emit(
            report, ir, "SR043", ca.lineno,
            f"implicit downcast storing {ca.from_dtype} into "
            f"{ca.to_dtype} array '{ca.target}' (use an explicit astype "
            f"if intended)",
            {
                "target": ca.target,
                "from": ca.from_dtype,
                "to": ca.to_dtype,
            },
        )
    return report


def _find_twin(
    contract: KernelContract, kernels: Sequence[Callable[..., Any]]
) -> Callable[..., Any] | None:
    for fn in kernels:
        if fn.__name__ == contract.twin:
            return fn
    return None


def _twin_params(fn: Callable[..., Any]) -> set[str]:
    import inspect

    try:
        return set(inspect.signature(fn).parameters)
    except (TypeError, ValueError):  # pragma: no cover
        return set()


def check_twins(kernels: Sequence[Callable[..., Any]]) -> LintReport:
    """SR051: effect-contract drift between sequential/ensemble twins."""
    report = LintReport()
    for fn in kernels:
        contract = contract_of(fn)
        if contract is None or contract.twin is None:
            continue
        subject = f"{fn.__module__}.{fn.__qualname__}"
        twin = _find_twin(contract, kernels)
        if twin is None:
            report.add(
                Diagnostic(
                    code="SR051",
                    subject=subject,
                    message=f"declared twin {contract.twin!r} is not a "
                    f"registered kernel",
                    data={"twin": contract.twin},
                )
            )
            continue
        twin_contract = contract_of(twin)
        assert twin_contract is not None
        if contract.pure != twin_contract.pure:
            report.add(
                Diagnostic(
                    code="SR051",
                    subject=subject,
                    message=f"purity drift against twin {contract.twin}: "
                    f"pure={contract.pure} vs {twin_contract.pure}",
                    data={"twin": contract.twin},
                )
            )
            continue
        # writes, mapped through the rename onto the twin's parameter
        # space; the comparison is restricted to parameters both twins
        # actually have (the sequential `record` hook and ensemble-only
        # extras are out of scope), and caches are benign memoisation
        # invisible to the comparison
        rename = dict(contract.rename)
        mapped = {rename.get(w, w) for w in contract.writes}
        shared = {rename.get(p, p) for p in _twin_params(fn)}
        shared &= _twin_params(twin)
        twin_writes = set(twin_contract.writes) & shared
        mapped &= shared
        if mapped != twin_writes:
            report.add(
                Diagnostic(
                    code="SR051",
                    subject=subject,
                    message=f"write-set drift against twin "
                    f"{contract.twin}: {sorted(mapped)} vs "
                    f"{sorted(twin_writes)} on the shared parameters",
                    data={
                        "twin": contract.twin,
                        "writes": sorted(mapped),
                        "twin_writes": sorted(twin_writes),
                    },
                )
            )
        else:
            report.note(
                f"twin contracts agree: {fn.__name__} ≡ "
                f"{contract.twin} on {sorted(mapped)}"
            )
    return report


def lint_kernels(
    modules: Iterable[str] = KERNEL_MODULES,
) -> LintReport:
    """Analyze every registered kernel of the given modules.

    Imports the modules (running their ``@kernel`` decorators), builds
    the dataflow IR of each kernel, emits SR040-SR043/SR050
    diagnostics, then cross-checks the declared sequential/ensemble
    twins (SR051).
    """
    modules = tuple(modules)
    for mod in modules:
        importlib.import_module(mod)
    kernels = registered_kernels(modules)
    report = LintReport()
    n_scatters = 0
    for fn in kernels:
        ir = build_ir(fn)
        n_scatters += len(ir.scatters)
        report.extend(_analyze_ir(ir))
    report.extend(check_twins(kernels))
    report.note(
        f"kernel lint: {len(kernels)} kernels across {len(modules)} "
        f"modules, {n_scatters} scatter site(s) analyzed"
    )
    return report


# ----------------------------------------------------------------------
# runtime ground truth for the differential tests
# ----------------------------------------------------------------------

def runtime_write_collisions(
    compiled: Any, sites: np.ndarray, types: np.ndarray
) -> list[tuple[int, int, int]]:
    """Brute-force write-footprint collisions of one trial batch.

    Enumerates the *write* index set of every trial ``(site, type)``
    through the compiled neighbour maps and reports every flat cell
    written by two distinct trials, as ``(cell, trial_i, trial_j)``
    triples.  An empty result is the runtime ground truth that a
    simultaneous scatter over this batch cannot lose updates — the
    property SR040/SR041 prove statically for the kernels.
    """
    sites = np.asarray(sites, dtype=np.intp)
    types = np.asarray(types, dtype=np.intp)
    owner: dict[int, int] = {}
    collisions: list[tuple[int, int, int]] = []
    for trial, (s, t) in enumerate(zip(sites.tolist(), types.tolist())):
        ct = compiled.types[t]
        for m in ct.maps:
            cell = int(m[s])
            prev = owner.get(cell)
            if prev is not None and prev != trial:
                collisions.append((cell, prev, trial))
            else:
                owner[cell] = trial
    return collisions
