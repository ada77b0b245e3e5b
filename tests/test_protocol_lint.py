"""Tests for ``repro.lint.protocol`` — the SR070-range protocol verifier.

Three layers:

* the clean pass: the shipped executor/resilience/engine sources must
  be proven leak-free, pairing-balanced, round-trip-consistent,
  draw-invariant and spawn-safe (no diagnostics, one note per pass),
* adversarial mutants of the shipped sources — a removed ``unlink``,
  a dropped ``restore_signals``, a drifted payload key, a stripped
  decoder, an extra RNG draw in a recovery rung, a dropped snapshot
  restore, a live resource in ``initargs`` and a use-after-release —
  each of which must trip *exactly* its intended SR07x code at the
  correct file/line,
* the integration seams: the ``repro lint --protocol`` CLI gate, the
  deterministic ``--json`` ordering, the bench provenance verdict and
  the docstring/registry parity.
"""

import inspect
import json

import repro.dmc.base as dmc_base
import repro.parallel.executor as executor_mod
import repro.resilience.checkpoint as ckpt_mod
from repro.lint.diagnostics import CODES, Diagnostic, LintReport
from repro.lint.protocol import (
    PROTOCOL_CODES,
    audit_ladder,
    audit_pairs,
    audit_roundtrip,
    audit_shm_lifecycle,
    audit_spawn,
    lint_protocol,
    protocol_verdict,
)

EXECUTOR_SRC = inspect.getsource(executor_mod)
CHECKPOINT_SRC = inspect.getsource(ckpt_mod)
DMC_BASE_SRC = inspect.getsource(dmc_base)


def codes_of(report):
    return sorted(d.code for d in report.diagnostics)


def mutate(source: str, old: str, new: str, count: int = 1) -> str:
    """Textual mutant; fails loudly if the anchor text drifted."""
    assert source.count(old) >= count, f"mutation anchor not found: {old!r}"
    return source.replace(old, new, count)


def line_of(source: str, needle: str, occurrence: int = 1) -> int:
    """1-based line of the nth occurrence of ``needle`` in ``source``."""
    seen = 0
    for i, text in enumerate(source.splitlines(), start=1):
        if needle in text:
            seen += 1
            if seen == occurrence:
                return i
    raise AssertionError(f"needle not found: {needle!r}")


# ----------------------------------------------------------------------
# clean pass over the shipped tree
# ----------------------------------------------------------------------
class TestCleanPass:
    def test_shipped_tree_is_clean(self):
        report = lint_protocol()
        assert report.ok(), "\n".join(d.render() for d in report.diagnostics)
        assert codes_of(report) == []

    def test_every_pass_vouches_with_a_note(self):
        notes = "\n".join(lint_protocol().notes)
        for fragment in (
            "protocol typestate",
            "protocol ladder",
            "protocol spawn",
            "protocol pairing",
            "protocol round-trip",
        ):
            assert fragment in notes

    def test_typestate_clean_on_executor(self):
        report = audit_shm_lifecycle(EXECUTOR_SRC, "executor.py")
        assert codes_of(report) == []
        assert "releasers" in report.notes[0]

    def test_pairing_clean_on_checkpoint_and_registry(self):
        import repro.backends.registry as registry_mod

        for mod in (ckpt_mod, registry_mod):
            src = inspect.getsource(mod)
            report = audit_pairs(src, f"{mod.__name__}.py")
            assert codes_of(report) == [], mod.__name__

    def test_roundtrip_clean_on_all_engines(self):
        import repro.ca.pndca as ca_pndca
        import repro.ensemble.base as ens_base
        import repro.ensemble.pndca as ens_pndca

        for mod, cls in (
            (dmc_base, "SimulatorBase"),
            (ens_base, "EnsembleBase"),
            (ca_pndca, "PNDCA"),
            (ens_pndca, "EnsemblePNDCA"),
        ):
            report = audit_roundtrip(inspect.getsource(mod), "m.py", cls)
            assert codes_of(report) == [], cls

    def test_ladder_and_spawn_clean_on_executor(self):
        assert codes_of(audit_ladder(EXECUTOR_SRC, "executor.py")) == []
        assert codes_of(audit_spawn(EXECUTOR_SRC, "executor.py")) == []


# ----------------------------------------------------------------------
# seeded mutants: exactly the intended code at the correct file/line
# ----------------------------------------------------------------------
class TestMutants:
    def test_removed_unlink_trips_sr070_at_close_site(self):
        src = mutate(EXECUTOR_SRC, "shm.unlink()", "pass")
        report = audit_shm_lifecycle(src, "mutant.py")
        assert codes_of(report) == ["SR070"]
        d = report.diagnostics[0]
        assert d.data["file"] == "mutant.py"
        assert d.data["line"] == line_of(src, "shm.close()")
        assert "never unlinks" in d.message

    def test_view_creation_outside_try_trips_sr070(self):
        # regress the __init__ hardening: hoist the view zeroing out of
        # the protective try (the pre-fix shape of the shipped code)
        src = mutate(
            EXECUTOR_SRC,
            "        try:\n"
            "            self._state: np.ndarray | None = np.ndarray(\n"
            "                (lattice.n_sites,), dtype=np.uint8, buffer=self._shm.buf\n"
            "            )\n"
            "            self._state[:] = 0\n",
            "        self._state: np.ndarray | None = np.ndarray(\n"
            "            (lattice.n_sites,), dtype=np.uint8, buffer=self._shm.buf\n"
            "        )\n"
            "        self._state[:] = 0\n"
            "        try:\n",
        )
        report = audit_shm_lifecycle(src, "mutant.py")
        assert set(codes_of(report)) == {"SR070"}
        lines = {d.data["line"] for d in report.diagnostics}
        assert line_of(src, "self._state[:] = 0") in lines

    def test_use_after_release_trips_sr071(self):
        src = mutate(
            EXECUTOR_SRC,
            "        self._release_shm()\n\n    def __enter__",
            "        self._release_shm()\n"
            "        self._state[:] = 0\n\n    def __enter__",
        )
        report = audit_shm_lifecycle(src, "mutant.py")
        assert codes_of(report) == ["SR071"]
        d = report.diagnostics[0]
        assert d.data["line"] == line_of(src, "self._state[:] = 0", 2)
        assert d.data["method"] == "close"

    def test_dropped_restore_signals_trips_sr072_at_install_site(self):
        src = mutate(
            CHECKPOINT_SRC,
            "        if signals:\n            checkpointer.restore_signals()",
            "        pass",
        )
        report = audit_pairs(src, "mutant.py")
        assert codes_of(report) == ["SR072"]
        d = report.diagnostics[0]
        assert d.data["line"] == line_of(src, "checkpointer.install_signals()")
        assert d.data["pop"] == "restore_signals"

    def test_dropped_stack_pop_trips_sr072_at_append_site(self):
        src = mutate(
            CHECKPOINT_SRC,
            "        _default_stack.pop()",
            "        pass",
        )
        report = audit_pairs(src, "mutant.py")
        assert codes_of(report) == ["SR072"]
        d = report.diagnostics[0]
        assert d.data["line"] == line_of(
            src, "_default_stack.append(checkpointer)"
        )

    def test_payload_key_drift_trips_sr073_on_both_sides(self):
        src = mutate(
            DMC_BASE_SRC, '"n_trials": int(self.n_trials)',
            '"trial_count": int(self.n_trials)',
        )
        report = audit_roundtrip(src, "mutant.py", "SimulatorBase")
        assert codes_of(report) == ["SR073", "SR073"]
        by_dir = {d.data["direction"]: d for d in report.diagnostics}
        written = by_dir["written-not-restored"]
        restored = by_dir["restored-not-written"]
        assert written.data["key"] == "trial_count"
        assert written.data["line"] == line_of(src, '"trial_count"')
        assert restored.data["key"] == "n_trials"
        assert restored.data["line"] == line_of(src, 'payload["n_trials"]')

    def test_stripped_decoder_trips_sr074(self):
        src = mutate(
            DMC_BASE_SRC,
            'array = decode_array(payload["state"])',
            'array = payload["state"]',
        )
        report = audit_roundtrip(src, "mutant.py", "SimulatorBase")
        assert codes_of(report) == ["SR074"]
        d = report.diagnostics[0]
        assert d.data["key"] == "state"
        assert d.data["produced"] == "array"
        assert d.data["line"] == line_of(src, 'array = payload["state"]')

    def test_extra_draw_in_retry_rung_trips_sr075(self):
        src = mutate(
            EXECUTOR_SRC,
            "        pre = self._state.copy()\n",
            "        pre = self._state.copy()\n"
            "        jitter = np.random.random()\n",
        )
        report = audit_ladder(src, "mutant.py")
        assert codes_of(report) == ["SR075"]
        d = report.diagnostics[0]
        assert d.data["line"] == line_of(src, "jitter = np.random.random()")
        assert d.data["method"] == "_execute_fault_tolerant"

    def test_worker_side_draw_trips_sr075(self):
        src = mutate(
            EXECUTOR_SRC,
            "    if die:  # chaos: SIGKILL this worker mid-chunk",
            "    _jitter = np.random.random()\n"
            "    if die:  # chaos: SIGKILL this worker mid-chunk",
        )
        report = audit_ladder(src, "mutant.py")
        assert codes_of(report) == ["SR075"]
        d = report.diagnostics[0]
        assert d.data["method"] == "_exec_slice"
        assert d.data["line"] == line_of(src, "_jitter = np.random.random()")

    def test_dropped_snapshot_restore_trips_sr076(self):
        src = mutate(
            EXECUTOR_SRC,
            "                self._respawn_pool(attempt)\n"
            "                self._state[:] = pre",
            "                self._respawn_pool(attempt)",
        )
        report = audit_ladder(src, "mutant.py")
        assert codes_of(report) == ["SR076"]
        d = report.diagnostics[0]
        assert d.data["line"] == line_of(src, "except _RECOVERABLE as exc:")
        assert "snapshot" in d.message

    def test_uncaptured_mutation_in_rung_trips_sr076(self):
        src = mutate(
            EXECUTOR_SRC,
            "        self._degraded = True\n",
            "        self._degraded = True\n"
            "        self.chunk_timeout = None\n",
        )
        report = audit_ladder(src, "mutant.py")
        assert codes_of(report) == ["SR076"]
        d = report.diagnostics[0]
        assert d.data["attr"] == "chunk_timeout"
        assert d.data["line"] == line_of(src, "self.chunk_timeout = None")

    def test_live_shm_in_initargs_trips_sr077(self):
        src = mutate(EXECUTOR_SRC, "self._shm.name,", "self._shm,")
        report = audit_spawn(src, "mutant.py")
        assert codes_of(report) == ["SR077"]
        d = report.diagnostics[0]
        assert d.data["attr"] == "self._shm"
        assert d.data["line"] == line_of(src, "self._shm,")

    def test_live_backend_in_initargs_trips_sr077(self):
        src = mutate(EXECUTOR_SRC, "self.backend.name,", "self.backend,")
        report = audit_spawn(src, "mutant.py")
        assert codes_of(report) == ["SR077"]
        assert report.diagnostics[0].data["attr"] == "self.backend"

    def test_worker_reading_master_global_trips_sr077(self):
        src = mutate(
            EXECUTOR_SRC,
            "_worker_kernels = None",
            "_worker_kernels = None\n_master_cache: dict = {}",
        )
        src = mutate(
            src,
            "    counts = np.zeros(_worker_compiled.n_types, dtype=np.int64)",
            "    _ = len(_master_cache)\n"
            "    counts = np.zeros(_worker_compiled.n_types, dtype=np.int64)",
        )
        report = audit_spawn(src, "mutant.py")
        assert codes_of(report) == ["SR077"]
        d = report.diagnostics[0]
        assert d.data["name"] == "_master_cache"
        assert d.data["line"] == line_of(src, "_ = len(_master_cache)")

    def test_unparseable_source_fails_closed_as_sr078(self):
        for audit in (
            lambda s: audit_shm_lifecycle(s, "m.py"),
            lambda s: audit_pairs(s, "m.py"),
            lambda s: audit_roundtrip(s, "m.py", "X"),
            lambda s: audit_ladder(s, "m.py"),
            lambda s: audit_spawn(s, "m.py"),
        ):
            report = audit("def broken(:\n")
            assert codes_of(report) == ["SR078"]

    def test_missing_class_fails_closed_as_sr078(self):
        report = audit_shm_lifecycle("x = 1\n", "m.py")
        assert codes_of(report) == ["SR078"]

    def test_line_offset_shifts_locations(self):
        src = mutate(EXECUTOR_SRC, "shm.unlink()", "pass")
        base = audit_shm_lifecycle(src, "m.py").diagnostics[0].data["line"]
        shifted = (
            audit_shm_lifecycle(src, "m.py", line_offset=100)
            .diagnostics[0]
            .data["line"]
        )
        assert shifted == base + 100


# ----------------------------------------------------------------------
# integration seams: CLI, JSON determinism, bench provenance, registry
# ----------------------------------------------------------------------
class TestIntegration:
    def test_registry_has_the_sr07x_range(self):
        for code in PROTOCOL_CODES:
            assert code in CODES
            severity, slug, desc = CODES[code]
            assert severity == "error"
            assert slug and desc

    def test_cli_protocol_strict_gate_passes(self):
        from repro.lint import cli

        assert cli.main(["--protocol", "--strict"]) == 0

    def test_cli_list_codes_includes_range(self, capsys):
        from repro.lint import cli

        assert cli.main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in PROTOCOL_CODES:
            assert code in out

    def test_cli_json_is_deterministically_ordered(self, capsys):
        from repro.lint import cli

        assert cli.main(["--protocol", "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["diagnostics"] == []
        assert any("protocol" in n for n in doc["notes"])

    def test_to_json_sorts_by_code_file_line(self):
        report = LintReport()

        def mk(code, file, line):
            return Diagnostic(code, "s", "m", {"file": file, "line": line})

        report.add(mk("SR077", "b.py", 9))
        report.add(mk("SR070", "b.py", 5))
        report.add(mk("SR070", "a.py", 7))
        report.add(mk("SR070", "b.py", 2))
        doc = json.loads(report.to_json())
        got = [
            (d["code"], d["data"]["file"], d["data"]["line"])
            for d in doc["diagnostics"]
        ]
        assert got == [
            ("SR070", "a.py", 7),
            ("SR070", "b.py", 2),
            ("SR070", "b.py", 5),
            ("SR077", "b.py", 9),
        ]

    def test_protocol_verdict_shape(self):
        verdict = protocol_verdict()
        assert verdict["codes"] == list(PROTOCOL_CODES)
        assert verdict["ok"] is True
        assert verdict["errors"] == []
        assert len(verdict["digest"]) == 12

    def test_bench_records_carry_protocol_verdict(self):
        from repro.obs.bench import run_engine_bench

        record = run_engine_bench("rsm", side=8, until=0.5)
        block = record["extra"]["protocol_lint"]
        assert block["ok"] is True
        assert block["codes"] == list(PROTOCOL_CODES)
        assert "lint" not in record["extra"]  # the native block is retired
