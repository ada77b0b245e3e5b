"""Recovery-ladder draw/snapshot invariance: SR075 / SR076.

The executor's fault-tolerance claim (PR 5) is *bit-identity through
recovery*: a chunk that fails, is retried, respawned or degraded to
serial execution must produce exactly the bytes an undisturbed run
would have.  Two invariants carry the proof:

1. **Draw invariance** (SR075): every random draw is master-drawn
   *before* dispatch; no recovery rung (deadline handling, respawn,
   serial fallback) and no worker-side function may consume RNG state,
   or the retried chunk replays different randoms than the original.
2. **Snapshot sufficiency** (SR076): the retry rung restores the
   pre-chunk snapshot before re-dispatching, the degraded rung
   restores it before the serial pass, and no rung mutates engine
   state outside the set the snapshot captures (the shared state
   array) or the executor's own recovery bookkeeping — anything else
   is state a retry would silently double-apply.

The pass audits a declared set of *rung* methods/functions of the
executor module; the set is part of the protocol spec and is trusted,
not inferred.
"""

from __future__ import annotations

import ast

from ..diagnostics import Diagnostic, LintReport
from ..rng_lint import GENERATOR_METHODS, HELPER_KINDS
from .astutil import (
    attr_chain,
    class_def,
    find_shm_attrs,
    make_diag,
    parse_source,
    walk_calls,
)

__all__ = ["RUNG_METHODS", "WORKER_FUNCS", "ALLOWED_RUNG_MUTATIONS",
           "audit_ladder"]

#: executor methods forming the dispatch path and the recovery ladder
RUNG_METHODS: tuple[str, ...] = (
    "execute_chunk",
    "_dispatch",
    "_execute_fault_tolerant",
    "_armed_jobs",
    "_respawn_pool",
    "_exec_serial",
)

#: module-level functions executed inside worker processes
WORKER_FUNCS: tuple[str, ...] = ("_init_worker", "_exec_slice")

#: attributes a rung may mutate: the snapshot-captured state plus the
#: executor's own recovery bookkeeping (restored/reset deliberately)
ALLOWED_RUNG_MUTATIONS = frozenset(
    {"_pool", "_degraded", "_compiled_master", "_closed"}
)

#: RNG entry points beyond Generator methods: creating a generator or
#: reseeding global state inside a rung also breaks draw invariance
_RNG_FACTORY = frozenset({"default_rng", "seed", "RandomState"})


def _draw_sites(fn: ast.AST) -> list[tuple[ast.Call, str]]:
    """Every call that consumes or reseeds RNG state, with its kind."""
    sites: list[tuple[ast.Call, str]] = []
    for call in walk_calls(fn):
        func = call.func
        if isinstance(func, ast.Attribute):
            if func.attr in GENERATOR_METHODS or func.attr in _RNG_FACTORY:
                sites.append((call, func.attr))
        elif isinstance(func, ast.Name):
            if func.id in HELPER_KINDS:
                sites.append((call, HELPER_KINDS[func.id]))
            elif func.id in _RNG_FACTORY:
                sites.append((call, func.id))
    return sites


def _self_mutations(fn: ast.FunctionDef) -> list[tuple[ast.AST, str]]:
    """``self.X`` attribute stores (plain and augmented) in a method."""
    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for t in targets:
            elts = t.elts if isinstance(t, ast.Tuple) else [t]
            for e in elts:
                if isinstance(e, ast.Attribute):
                    chain = attr_chain(e) or ""
                    if chain.startswith("self.") and chain.count(".") == 1:
                        out.append((node, chain[5:]))
    return out


def _subscript_store_attrs(fn: ast.FunctionDef) -> list[tuple[ast.AST, str]]:
    """``self.X[...] = ...`` stores (the snapshot-restore idiom)."""
    out: list[tuple[ast.AST, str]] = []
    for node in ast.walk(fn):
        if not isinstance(node, (ast.Assign, ast.AugAssign)):
            continue
        targets = (
            node.targets if isinstance(node, ast.Assign) else [node.target]
        )
        for t in targets:
            if isinstance(t, ast.Subscript) and isinstance(
                t.value, ast.Attribute
            ):
                chain = attr_chain(t.value) or ""
                if chain.startswith("self."):
                    out.append((node, chain.split(".")[1]))
    return out


def _snapshot_name(
    fn: ast.FunctionDef, view_attrs: set[str]
) -> tuple[str, ast.AST] | None:
    """The local bound to ``self.<view>.copy()`` (the pre-chunk snapshot)."""
    for node in ast.walk(fn):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
            and isinstance(node.value.func, ast.Attribute)
            and node.value.func.attr == "copy"
        ):
            chain = attr_chain(node.value.func.value) or ""
            if chain.startswith("self.") and chain.split(".")[1] in view_attrs:
                return node.targets[0].id, node
    return None


def _restores_snapshot(
    node: ast.AST, view_attrs: set[str], snap: str
) -> bool:
    """Does the subtree contain ``self.<view>[...] = <snap>``?"""
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Assign):
            continue
        if not (
            isinstance(sub.value, ast.Name) and sub.value.id == snap
        ):
            continue
        for t in sub.targets:
            if isinstance(t, ast.Subscript) and isinstance(
                t.value, ast.Attribute
            ):
                chain = attr_chain(t.value) or ""
                if (
                    chain.startswith("self.")
                    and chain.split(".")[1] in view_attrs
                ):
                    return True
    return False


def audit_ladder(
    source: str,
    filename: str,
    class_name: str = "ParallelChunkExecutor",
    rung_methods: tuple[str, ...] = RUNG_METHODS,
    worker_funcs: tuple[str, ...] = WORKER_FUNCS,
    line_offset: int = 0,
) -> LintReport:
    """The SR075/SR076 pass over one executor module's source."""
    report = LintReport()
    subject = f"protocol:{class_name}.ladder"

    def diag(code: str, message: str, node: ast.AST, **data: object) -> None:
        report.add(
            make_diag(
                code, subject, message, filename, node, line_offset, **data
            )
        )

    try:
        tree = parse_source(source, filename)
    except SyntaxError as exc:
        report.add(
            Diagnostic(
                "SR078",
                subject,
                f"source does not parse, nothing is proven: {exc}",
                {"file": filename, "line": exc.lineno or 0},
            )
        )
        return report
    cls = class_def(tree, class_name)
    if cls is None:
        diag("SR078", f"class {class_name} not found in {filename}", tree)
        return report
    mets = {
        item.name: item
        for item in cls.body
        if isinstance(item, ast.FunctionDef)
    }
    module_funcs = {
        node.name: node
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }
    _, _, _, view_attrs = find_shm_attrs(cls)
    if not view_attrs:
        view_attrs = {"_state"}

    # -- SR075: no rung or worker function consumes RNG state ----------
    audited: list[str] = []
    for name in rung_methods:
        fn = mets.get(name)
        if fn is None:
            continue
        audited.append(name)
        for call, kind in _draw_sites(fn):
            diag(
                "SR075",
                f"{name} draws {kind!r}: recovery rungs must not consume "
                f"RNG state — a retried chunk would replay different "
                f"randoms than the original dispatch",
                call,
                method=name,
                kind=kind,
            )
    for name in worker_funcs:
        fn_mod = module_funcs.get(name)
        if fn_mod is None:
            continue
        audited.append(name)
        for call, kind in _draw_sites(fn_mod):
            diag(
                "SR075",
                f"worker function {name} draws {kind!r}: all randoms are "
                f"master-drawn; a worker-side draw desynchronises the "
                f"bit-identity contract",
                call,
                method=name,
                kind=kind,
            )

    # -- SR076: snapshot discipline in the fault-tolerant rung ---------
    ft = mets.get("_execute_fault_tolerant")
    if ft is not None:
        snap = _snapshot_name(ft, view_attrs)
        if snap is None:
            diag(
                "SR076",
                "_execute_fault_tolerant never snapshots the shared state "
                "before dispatch — a failed slice cannot be rolled back",
                ft,
            )
        else:
            snap_name, _snap_node = snap
            # every except handler that continues the retry loop must
            # restore the snapshot before the next dispatch
            for node in ast.walk(ft):
                if not isinstance(node, ast.Try):
                    continue
                for handler in node.handlers:
                    reraises = any(
                        isinstance(s, ast.Raise)
                        for stmt in handler.body
                        for s in ast.walk(stmt)
                    )
                    if reraises:
                        continue
                    if not _restores_snapshot(
                        handler, view_attrs, snap_name
                    ):
                        diag(
                            "SR076",
                            "retry handler re-dispatches without restoring "
                            "the pre-chunk snapshot — completed co-slices "
                            "stay applied and the retry double-executes "
                            "them",
                            handler,
                            snapshot=snap_name,
                        )
            # the degraded rung: a serial fallback after the loop must
            # also run from the restored snapshot
            serial_call: ast.AST | None = None
            for call in walk_calls(ft):
                chain = attr_chain(call.func) or ""
                if chain == "self._exec_serial":
                    serial_call = call
            if serial_call is not None:
                restored_before = False
                for node in ast.walk(ft):
                    if (
                        isinstance(node, ast.Assign)
                        and node.lineno < serial_call.lineno
                        and not isinstance(node, ast.For)
                        and _restores_snapshot(node, view_attrs, snap_name)
                        and not _inside_loop(ft, node)
                    ):
                        restored_before = True
                if not restored_before:
                    diag(
                        "SR076",
                        "serial degradation executes without restoring the "
                        "pre-chunk snapshot first — the degraded pass "
                        "re-applies slices the failed dispatch completed",
                        serial_call,
                        snapshot=snap_name,
                    )

    # -- SR076: rungs must not mutate uncaptured engine state ----------
    allowed = ALLOWED_RUNG_MUTATIONS | view_attrs
    for name in rung_methods:
        fn = mets.get(name)
        if fn is None:
            continue
        for node, attr in _self_mutations(fn):
            if attr not in allowed:
                diag(
                    "SR076",
                    f"{name} mutates self.{attr}, which the pre-chunk "
                    f"snapshot does not capture — a retry would not roll "
                    f"it back",
                    node,
                    method=name,
                    attr=attr,
                )
        for node, attr in _subscript_store_attrs(fn):
            if attr not in allowed:
                diag(
                    "SR076",
                    f"{name} writes into self.{attr}, which the pre-chunk "
                    f"snapshot does not capture — a retry would not roll "
                    f"it back",
                    node,
                    method=name,
                    attr=attr,
                )

    if report.ok() and audited:
        report.note(
            f"protocol ladder: {len(audited)} rung/worker function(s) "
            f"draw-free and snapshot-disciplined "
            f"({', '.join(sorted(audited))})"
        )
    return report


def _inside_loop(fn: ast.FunctionDef, target: ast.AST) -> bool:
    """Is ``target`` nested inside a for/while loop of the function?"""
    for node in ast.walk(fn):
        if isinstance(node, (ast.For, ast.While)):
            for sub in ast.walk(node):
                if sub is target:
                    return True
    return False
