"""Tests for repro.lint — the static conflict/race proof engine."""

import numpy as np
import pytest

from repro.core import Lattice, Model, ReactionType
from repro.lint import (
    CODES,
    Diagnostic,
    LintError,
    LintReport,
    check_tiling_on_shape,
    lint_model,
    lint_partition,
    preflight_model,
    preflight_partition,
    run_lint,
)
from repro.partition import Partition, five_chunk_partition
from repro.partition.conflicts import (
    conflict_key,
    conflict_witnesses,
    prove_tiling,
    tiling_conflicts_on_shape,
)
from repro.partition.tilings import modular_tiling


# ----------------------------------------------------------------------
# diagnostics plumbing
# ----------------------------------------------------------------------
class TestDiagnostics:
    def test_codes_are_stable_and_classified(self):
        for code, (sev, slug, desc) in CODES.items():
            assert code.startswith("SR") and len(code) == 5
            assert sev in ("error", "warning", "info")
            assert slug and desc

    def test_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="unknown diagnostic code"):
            Diagnostic(code="SR999", subject="x", message="y")

    def test_report_verdicts(self):
        r = LintReport()
        assert r.ok() and r.ok(strict=True)
        r.add(Diagnostic(code="SR011", subject="m", message="dead"))
        assert r.ok() and not r.ok(strict=True)
        r.add(Diagnostic(code="SR001", subject="p", message="conflict"))
        assert not r.ok()
        assert len(r.errors) == 1 and len(r.warnings) == 1

    def test_render_and_json(self):
        r = LintReport([Diagnostic(code="SR003", subject="p", message="boom")])
        r.note("checked")
        text = r.render()
        assert "SR003" in text and "checked" in text and "1 error(s)" in text
        assert '"SR003"' in r.to_json()

    def test_package_docstring_lists_every_code(self):
        import repro.lint as lint_pkg

        for code in CODES:
            assert f"``{code}``" in lint_pkg.__doc__, code
        assert "{code_table}" not in lint_pkg.__doc__


# ----------------------------------------------------------------------
# offset algebra
# ----------------------------------------------------------------------
class TestOffsets:
    def test_witness_set_matches_difference_set(self, ziff):
        ws = conflict_witnesses(ziff.reaction_types)
        nb = ziff.union_neighborhood()
        expected = {
            tuple(x - y for x, y in zip(a, b)) for a in nb for b in nb if a != b
        }
        assert set(ws) == expected

    def test_witnesses_realise_their_displacement(self, ziff):
        for d, w in conflict_witnesses(ziff.reaction_types).items():
            assert tuple(a - b for a, b in zip(w.offset_a, w.offset_b)) == d

    def test_witnesses_deterministic(self, ziff):
        assert conflict_witnesses(ziff.reaction_types) == conflict_witnesses(
            ziff.reaction_types
        )


# ----------------------------------------------------------------------
# the symbolic race detector
# ----------------------------------------------------------------------
class TestSymbolicProof:
    def test_five_chunk_proof_for_all_aligned_sizes(self, ziff):
        """Acceptance: Fig. 4 tiling proven without lattice enumeration."""
        proof, bad = prove_tiling(ziff, 5, (1, 2))
        assert proof is not None and bad == []
        assert proof.aligned_moduli == (5, 5)
        assert "ALL periodic lattices" in proof.statement()

    def test_all_four_optimal_tilings_prove(self, ziff):
        for coeffs in ((1, 2), (2, 1), (1, 3), (3, 1)):
            proof, _ = prove_tiling(ziff, 5, coeffs)
            assert proof is not None, coeffs

    def test_checkerboard_refuted_with_counterexample(self, ziff):
        """Acceptance: broken partition yields a concrete counterexample."""
        proof, bad = prove_tiling(ziff, 2, (1, 1))
        assert proof is None and bad
        c = bad[0]
        # the counterexample is internally consistent: both reactions
        # touch the same cell
        cell_a = tuple(s + a for s, a in zip(c.site_s, c.offset_a))
        cell_b = tuple(t + b for t, b in zip(c.site_t, c.offset_b))
        assert cell_a == cell_b == c.cell

    def test_mod5_on_7x7_wrap_conflict(self, ziff):
        """Acceptance: misaligned shape flagged with site-level witness."""
        report = check_tiling_on_shape(ziff, 5, (1, 2), (7, 7))
        assert not report.ok()
        codes = {d.code for d in report}
        assert codes == {"SR002"}  # pure wrap artefact, not a residue bug
        c = report.diagnostics[0].data
        # cross-validate the witness against the actual labelling
        lab = lambda x: (x[0] + 2 * x[1]) % 5
        assert lab(c["site_s"]) == lab(c["site_t"])

    def test_mod5_on_10x10_clean(self, ziff):
        report = check_tiling_on_shape(ziff, 5, (1, 2), (10, 10))
        assert report.ok() and not report.diagnostics

    def test_checkerboard_classified_residue_not_wrap(self, ziff):
        report = check_tiling_on_shape(ziff, 2, (1, 1), (10, 10))
        assert {d.code for d in report} == {"SR001"}

    @pytest.mark.parametrize("shape", [(7, 7), (8, 9), (5, 7), (6, 10), (10, 10), (15, 5)])
    def test_symbolic_matches_enumeration(self, ziff, shape):
        """Differential: borrow analysis == brute-force site scan."""
        m, coeffs = 5, (1, 2)
        lat = Lattice(shape)
        labels = np.array(
            [(coeffs[0] * i + coeffs[1] * j) % m for i, j in lat.sites()]
        )
        brute = False
        for d in conflict_witnesses(ziff.reaction_types):
            nbr = lat.neighbor_map(d)
            if (
                (labels == labels[nbr]) & (nbr != np.arange(lat.n_sites))
            ).any():
                brute = True
                break
        symbolic = bool(tiling_conflicts_on_shape(ziff, m, coeffs, shape))
        assert symbolic == brute, shape

    def test_1d_tiling(self):
        hop = Model(
            ["*", "A"],
            [ReactionType("hop", [((0,), "A", "*"), ((1,), "*", "A")], 1.0)],
            name="hop-1d",
        )
        # alternating colours separate 1-d pair patterns...
        proof, _ = prove_tiling(hop, 2, (1,))
        assert proof is not None
        # ...but an even coefficient degenerates every residue to 0
        proof2, bad2 = prove_tiling(hop, 2, (2,))
        assert proof2 is None and bad2
        # and an odd ring breaks the alternation at the wrap
        conflicts = tiling_conflicts_on_shape(hop, 2, (1,), (5,))
        assert conflicts
        assert conflicts[0].site_s != conflicts[0].site_t

    def test_dimension_mismatch_rejected(self, ziff):
        with pytest.raises(ValueError, match="coefficients"):
            prove_tiling(ziff, 5, (1,))
        with pytest.raises(ValueError, match="shape"):
            tiling_conflicts_on_shape(ziff, 5, (1, 2), (7,))


# ----------------------------------------------------------------------
# Partition.find_conflicts / is_conflict_free
# ----------------------------------------------------------------------
class TestFindConflicts:
    def test_symbolic_delegation_on_tiling_partitions(self, ziff):
        p = five_chunk_partition(Lattice((10, 10)))
        assert p.tiling is not None
        assert p.find_conflicts(ziff) == []

    def test_symbolic_and_enumerative_agree_on_7x7(self, ziff):
        p = five_chunk_partition(Lattice((7, 7)))
        symbolic = p.find_conflicts(ziff)
        assert symbolic
        # strip the metadata and rerun through the enumerative path
        p.tiling = None
        enumerative = p.find_conflicts(ziff)
        assert enumerative
        # both agree the partition is broken; chunks come from labels
        for c in symbolic:
            lab = lambda x: (x[0] + 2 * x[1]) % 5
            assert lab(c.site_s) == lab(c.site_t)

    def test_collects_multiple_conflicts_bounded(self, ziff):
        p = Partition.single_chunk(Lattice((10, 10)))
        conflicts = p.find_conflicts(ziff, limit=5)
        assert len(conflicts) == 5
        with pytest.raises(LintError) as exc:
            preflight_partition(p, ziff, limit=16)
        # bounded multi-conflict report, not just the first pair
        assert len(exc.value.report.errors) == 16
        assert "16 lint error(s)" in str(exc.value)

    def test_conflict_attribution(self, ziff):
        p = Partition.single_chunk(Lattice((10, 10)))
        c = p.find_conflicts(ziff, limit=1)[0]
        names = {rt.name for rt in ziff.reaction_types}
        assert c.reaction_a in names and c.reaction_b in names
        assert c.site_s != c.site_t
        assert c.chunk == 0

    def test_clean_partition_reports_ok(self, ziff):
        p = five_chunk_partition(Lattice((10, 10)))
        assert p.find_conflicts(ziff) == [] and p.is_conflict_free(ziff)


# ----------------------------------------------------------------------
# model sanity pass
# ----------------------------------------------------------------------
class TestModelLint:
    def test_ziff_clean(self, ziff):
        report = lint_model(ziff)
        assert report.ok(strict=True)

    def test_probability_mass_violation(self, ziff):
        report = lint_model(ziff, dt=1.0)  # K = 3.5 > 1 per site
        assert report.by_code("SR010")
        assert not report.ok()

    def test_canonical_dt_saturates_mass(self, ziff):
        report = lint_model(ziff, dt=1.0 / ziff.total_rate)
        assert not report.by_code("SR010")

    def test_dead_reaction_and_unreachable_species(self):
        m = Model(
            ["*", "A", "B"],
            [
                ReactionType("ads", [((0, 0), "*", "A")], 1.0),
                ReactionType("ghost", [((0, 0), "B", "*")], 1.0),
            ],
        )
        report = lint_model(m)
        assert {d.data["reaction"] for d in report.by_code("SR011")} == {"ghost"}
        assert {d.data["species"] for d in report.by_code("SR012")} == {"B"}
        assert report.ok()  # warnings only
        assert not report.ok(strict=True)

    def test_initial_species_unlock_reachability(self):
        m = Model(["*", "A"], [ReactionType("des", [((0,), "A", "*")], 1.0)])
        assert not lint_model(m, initial_species=["*", "A"]).diagnostics
        assert lint_model(m).by_code("SR011")

    def test_null_reaction(self):
        m = Model(["*", "A"], [ReactionType("noop", [((0,), "*", "*")], 1.0)])
        assert lint_model(m).by_code("SR013")

    def test_duplicate_reaction(self):
        m = Model(
            ["*", "A"],
            [
                ReactionType("ads1", [((0,), "*", "A")], 1.0),
                ReactionType("ads2", [((0,), "*", "A")], 2.0),
            ],
        )
        dupes = lint_model(m).by_code("SR016")
        assert len(dupes) == 1
        assert dupes[0].data["reactions"] == ["ads1", "ads2"]

    def test_conservation_law_checked(self, ziff):
        good = {"*": 1, "CO": 1, "O": 1}
        bad = {"*": 1, "CO": 2, "O": 1}
        assert not lint_model(ziff, conserved=[good]).by_code("SR014")
        assert lint_model(ziff, conserved=[bad]).by_code("SR014")

    def test_unknown_initial_species_rejected(self, ziff):
        with pytest.raises(ValueError, match="not in model domain"):
            lint_model(ziff, initial_species=["X"])


# ----------------------------------------------------------------------
# preflight gates
# ----------------------------------------------------------------------
class TestPreflight:
    def test_partition_gate_raises_lint_error(self, ziff, small_lattice):
        bad = Partition.single_chunk(small_lattice)
        with pytest.raises(LintError) as exc:
            preflight_partition(bad, ziff)
        assert exc.value.report.errors
        assert "non-overlap" in str(exc.value)

    def test_lint_error_is_value_error(self):
        assert issubclass(LintError, ValueError)

    def test_partition_gate_marks_and_caches(self, ziff, small_lattice):
        p = five_chunk_partition(small_lattice)
        preflight_partition(p, ziff)
        assert p.is_conflict_free(ziff)
        # second call short-circuits on the cache
        assert len(preflight_partition(p, ziff)) == 0

    def test_verdict_keyed_by_conflict_set_not_name(self):
        """Two models named alike share no verdict unless their
        conflict difference sets agree."""
        from repro.ca import LPNDCA, PNDCA
        from repro.models import zgb_model

        lat = Lattice((10, 10))
        ads = ReactionType("ads", [((0, 0), "*", "A")], 1.0)
        hop = ReactionType("hop", [((0, 0), "A", "*"), ((1, 0), "*", "A")], 1.0)
        onsite = Model(["*", "A"], [ads], name="surf")
        hopping = Model(["*", "A"], [ads, hop], name="surf")
        p = Partition.single_chunk(lat)
        PNDCA(onsite, lat, partition=p)  # one chunk suits on-site patterns
        with pytest.raises(LintError, match="violates the non-overlap rule"):
            PNDCA(hopping, lat, partition=p)
        assert PNDCA(hopping, lat, partition=p, validate=False).uses_sequential_fallback

        def run(partition):
            sim = LPNDCA(
                hopping, lat, seed=1, partition=partition, L=lat.n_sites,
                require_conflict_free=False,
            )
            return sim, sim.run(until=5.0)

        sim, res = run(p)
        assert sim.uses_sequential_fallback
        assert sim._visit_kernel == "run_trials_sequential"
        _, fresh = run(Partition.single_chunk(lat))
        assert res.n_trials == fresh.n_trials
        assert np.array_equal(res.final_state.array, fresh.final_state.array)
        # rates do not enter the key: a y sweep shares one verdict
        assert conflict_key(zgb_model(0.5)) == conflict_key(zgb_model(0.51))

    def test_model_gate_passes_warnings(self):
        m = Model(
            ["*", "A", "B"],
            [
                ReactionType("ads", [((0,), "*", "A")], 1.0),
                ReactionType("ghost", [((0,), "B", "*")], 1.0),
            ],
        )
        report = preflight_model(m)  # warnings don't block
        assert report.warnings

    def test_model_gate_raises_on_error(self, ziff):
        with pytest.raises(LintError, match="SR010"):
            preflight_model(ziff, dt=1.0)

    def test_pndca_constructor_uses_gate(self, ziff, small_lattice):
        from repro.ca import PNDCA

        bad = Partition.single_chunk(small_lattice)
        with pytest.raises(LintError):
            PNDCA(ziff, small_lattice, partition=bad)

    def test_ensemble_constructor_uses_gate(self, ziff, small_lattice):
        from repro.ensemble import EnsemblePNDCA

        bad = Partition.single_chunk(small_lattice)
        with pytest.raises(LintError):
            EnsemblePNDCA(ziff, small_lattice, n_replicas=2, partition=bad)


# ----------------------------------------------------------------------
# orchestration + CLI
# ----------------------------------------------------------------------
class TestRunLint:
    def test_full_report_for_ziff(self, ziff):
        report = run_lint(ziff, tiling=(5, (1, 2)))
        assert report.ok(strict=True)
        assert any("proof" in n for n in report.notes)

    def test_tiling_refutation_reported(self, ziff):
        report = run_lint(ziff, tiling=(2, (1, 1)))
        assert report.by_code("SR001")

    def test_shape_specialisation(self, ziff):
        report = run_lint(ziff, tiling=(5, (1, 2)), shape=(7, 7))
        assert report.by_code("SR002")

    def test_partition_lint_with_bounds(self, ziff):
        p = modular_tiling(Lattice((10, 10)), 10, (1, 2))
        report = lint_partition(p, ziff, bounds=True)
        assert report.ok()  # conflict-free, but...
        assert report.by_code("SR004")  # ...more chunks than needed


class TestCli:
    def test_lint_command_clean(self, capsys):
        from repro.__main__ import main

        rc = main(["lint", "--model", "ziff"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "proof" in out and "conflict-free" in out

    def test_lint_command_broken_shape(self, capsys):
        """Acceptance: CLI reports SR002 counterexample, exit code 1."""
        rc_args = ["lint", "--model", "ziff", "--tiling", "5:1,2", "--shape", "7x7"]
        from repro.__main__ import main

        rc = main(rc_args)
        out = capsys.readouterr().out
        assert rc == 1
        assert "SR002" in out and "share chunk" in out

    def test_lint_command_residue_breakage(self, capsys):
        from repro.__main__ import main

        rc = main(["lint", "--model", "ziff", "--tiling", "2:1,1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "SR001" in out

    def test_lint_json_output(self, capsys):
        import json

        from repro.__main__ import main

        rc = main(["lint", "--model", "ziff", "--json"])
        payload = json.loads(capsys.readouterr().out)
        assert rc == 0
        assert payload["ok"] is True

    def test_lint_codes_table(self, capsys):
        from repro.__main__ import main

        rc = main(["lint", "--codes"])
        out = capsys.readouterr().out
        assert rc == 0
        for code in CODES:
            assert code in out

    def test_lint_all_models_default(self, capsys):
        from repro.__main__ import main

        rc = main(["lint"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "pt100" in out and "ziff" in out

    def test_list_codes_covers_full_registry(self, capsys):
        """The lint entry point itself (``repro.lint.cli``, not the
        top-level ``repro lint`` wrapper) lists every registry code."""
        from repro.lint.cli import main

        assert main(["--list-codes"]) == 0
        out = capsys.readouterr().out
        for code in CODES:
            assert code in out

    @pytest.mark.parametrize("flag", ["--kernels", "--no-rng-audit"])
    def test_retired_flags_are_rejected(self, capsys, flag):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", flag])
        assert excinfo.value.code == 2
        assert flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--model", "ziff", "--tiling", "0:1,2"], "m must be >= 1"),
            (["--shape", "0x5"], "every side must be >= 1"),
        ],
    )
    def test_bad_tiling_or_shape_value_exits_2(self, capsys, args, message):
        from repro.__main__ import main

        with pytest.raises(SystemExit) as excinfo:
            main(["lint", *args])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--tiling", "5:1"], "--tiling has 1 dimension(s)"),
            (["--shape", "7"], "--shape has 1 dimension(s)"),
            (["--model", "ziff", "--shape", "7x7x7"], "--shape has 3 dimension(s)"),
        ],
    )
    def test_dimension_mismatch_exits_2_with_one_line(self, capsys, args, message):
        from repro.__main__ import main

        assert main(["lint", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert message in captured.err and "is 2-d" in captured.err
