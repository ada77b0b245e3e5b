"""Tests for the ``python -m repro`` command-line interface."""

import json

import pytest

from repro.__main__ import main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig4" in out and "table1" in out

    def test_run_experiment(self, capsys):
        assert main(["run", "table1"]) == 0
        out = capsys.readouterr().out
        assert "{(s,*,CO)}" in out

    def test_run_unknown(self, capsys):
        assert main(["run", "fig99"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_unknown_message_has_no_stray_quotes(self, capsys):
        """Regression: the KeyError was printed as its repr, wrapping the
        message in quotes (``"unknown experiment ..."``)."""
        assert main(["run", "fig99"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown experiment 'fig99'")
        assert main(["run", "fig99", "--metrics"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("unknown experiment 'fig99'")

    def test_list_survives_docstring_less_module(self, capsys, monkeypatch):
        """Regression: a module with no docstring crashed ``repro list``
        with IndexError on ``__doc__.splitlines()[0]``."""
        import types

        import repro.experiments as experiments

        bare = types.ModuleType("bare")  # __doc__ is None
        registry = dict(experiments.REGISTRY)
        registry["bare1"] = (bare, lambda: "")
        monkeypatch.setattr(experiments, "REGISTRY", registry)
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "bare1" in out

    @pytest.mark.parametrize(
        "flags",
        [
            ["--checkpoint-dir", "/tmp/x"],
            ["--checkpoint-every", "5"],
            ["--checkpoint-seconds", "1.5"],
            ["--resume", "x.json"],
        ],
        ids=["dir", "every", "seconds", "resume"],
    )
    def test_checkpoint_flags_rejected_for_experiments(self, capsys, flags):
        """Regression: the cadence flags were silently ignored while
        ``--checkpoint-dir``/``--resume`` correctly exited 2 — all four
        are rejected consistently now."""
        assert main(["run", "table1", *flags]) == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "only apply to scenario runs" in err

    def test_sweep_rejected_for_experiments(self, capsys):
        assert main(["run", "table1", "--sweep"]) == 2
        assert "--sweep only applies to scenario runs" in capsys.readouterr().err

    def test_algorithms(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "pndca" in out and "rsm" in out

    def test_info(self, capsys):
        assert main(["info"]) == 0
        assert "IPPS 2003" in capsys.readouterr().out

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])


def _warning_report():
    from repro.lint.diagnostics import Diagnostic, LintReport

    report = LintReport()
    report.add(Diagnostic("SR011", "model:fake", "seeded warning"))
    return report


class TestLintCli:
    """Exit codes and ``--json`` schema across the lint passes."""

    def test_model_pass_exit_zero(self, capsys):
        assert main(["lint", "--model", "ziff"]) == 0
        out = capsys.readouterr().out
        assert "conflict-free" in out and "0 error(s)" in out

    def test_bad_tiling_exit_one(self, capsys):
        assert main(["lint", "--model", "ziff", "--tiling", "1:1,1"]) == 1
        assert "SR001" in capsys.readouterr().out

    def test_bad_tiling_json_schema(self, capsys):
        rc = main(
            ["lint", "--model", "ziff", "--tiling", "1:1,1", "--json"]
        )
        assert rc == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is False
        assert {d["code"] for d in doc["diagnostics"]} == {"SR001"}
        for diag in doc["diagnostics"]:
            assert set(diag) >= {
                "code", "severity", "slug", "subject", "message", "data",
            }

    def test_strict_mode_fails_on_warnings(self, capsys, monkeypatch):
        from repro.lint import cli

        monkeypatch.setattr(cli, "run_lint", lambda *a, **k: _warning_report())
        assert main(["lint", "--model", "ziff"]) == 0
        capsys.readouterr()
        assert main(["lint", "--model", "ziff", "--strict"]) == 1
        assert "SR011" in capsys.readouterr().out

    def test_list_codes_spans_registry(self, capsys):
        from repro.lint.diagnostics import CODES

        assert main(["lint", "--list-codes"]) == 0
        out = capsys.readouterr().out
        assert all(code in out for code in CODES)

    def test_native_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--native"])
        assert excinfo.value.code == 2
        assert "--native" in capsys.readouterr().err

    def test_protocol_flag_is_rejected(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["lint", "--protocol"])
        assert excinfo.value.code == 2
        assert "--protocol" in capsys.readouterr().err

    def test_list_codes_has_no_retired_range(self, capsys):
        assert main(["lint", "--list-codes"]) == 0
        out = capsys.readouterr().out
        for retired in ("SR03", "SR04", "SR05", "SR06", "SR07"):
            assert retired not in out


class TestBadNumbers:
    """Out-of-range numeric flags exit 2 with one line naming the flag,
    before any work is done."""

    def assert_refused(self, capsys, rc, flag):
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [captured.err.strip()]
        assert captured.err.startswith(flag) and "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_run_until(self, capsys, value):
        self.assert_refused(capsys, main(["run", "zgb", "--until", value]), "--until")

    def test_run_checkpoint_every_zero(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpts"
        rc = main(["run", "zgb", "--checkpoint-every", "0",
                   "--checkpoint-dir", str(ckpt)])
        self.assert_refused(capsys, rc, "--checkpoint-every")
        assert not ckpt.exists()

    def test_run_checkpoint_seconds_nan(self, capsys, tmp_path):
        rc = main(["run", "zgb", "--checkpoint-seconds", "nan",
                   "--checkpoint-dir", str(tmp_path / "ckpts")])
        self.assert_refused(capsys, rc, "--checkpoint-seconds")

    @pytest.mark.parametrize(
        "flags",
        [["--checkpoint-every", "5"], ["--checkpoint-seconds", "5"], ["--resume"]],
        ids=["every", "seconds", "bare-resume"],
    )
    def test_run_checkpoint_flag_without_dir(self, capsys, tmp_path, monkeypatch, flags):
        """Regression: the cadence flags wrote no checkpoint and exited 0;
        a bare --resume printed the header and built the engine first."""
        monkeypatch.chdir(tmp_path)
        err = self.assert_refused(capsys, main(["run", "zgb", *flags]), flags[0])
        assert "--checkpoint-dir" in err
        assert list(tmp_path.iterdir()) == []

    def test_run_seed_negative(self, capsys, tmp_path):
        ckpt = tmp_path / "ckpts"
        rc = main(["run", "zgb", "--seed", "-1", "--checkpoint-dir", str(ckpt)])
        self.assert_refused(capsys, rc, "--seed")
        assert not ckpt.exists()

    def test_sweep_seed_negative(self, capsys, tmp_path):
        journal = tmp_path / "campaign"
        rc = main(["sweep", "ab2-desorption", "--seed", "-1",
                   "--journal", str(journal)])
        self.assert_refused(capsys, rc, "seed")
        assert not journal.exists()

    @pytest.mark.parametrize("value", ["nan", "inf", "0"])
    def test_sweep_deadline(self, capsys, tmp_path, value):
        """A deadline that can never be enforced is refused by the
        orchestrator before the journal exists."""
        journal = tmp_path / "campaign"
        rc = main(["sweep", "ab2-desorption", "--deadline", value,
                   "--journal", str(journal)])
        self.assert_refused(capsys, rc, "deadline")
        assert not journal.exists()


def test_retired_run_ids_point_to_scenarios(capsys):
    """The named ``zgb-*`` runs are gone; the refusal lists the
    experiment ids and the zoo scenarios, so ``zgb`` is one line away."""
    assert main(["run", "zgb-rsm"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.splitlines() == [err.strip()]
    assert err.startswith("unknown experiment 'zgb-rsm'")
    assert "'fig4'" in err and "'zgb'" in err and "'no-co'" in err


def test_metrics_on_scenario_run(capsys):
    """``--metrics`` prints a metrics block after a scenario's digest
    line, and collecting metrics leaves the trajectory unchanged."""
    assert main(["run", "zgb", "--until", "1"]) == 0
    plain = capsys.readouterr().out
    assert main(["run", "zgb", "--until", "1", "--metrics"]) == 0
    out = capsys.readouterr().out
    digests = [ln for ln in out.splitlines() if ln.startswith("digest ")]
    assert digests == [ln for ln in plain.splitlines() if ln.startswith("digest ")]
    metrics = out.split(digests[0], 1)[1]
    assert "counters:" in metrics and "trials.attempted" in metrics


def test_bench_command_is_retired(capsys):
    """``benchmarks/perf`` is the one benchmark path; ``bench`` is no
    longer a command."""
    with pytest.raises(SystemExit) as excinfo:
        main(["bench"])
    assert excinfo.value.code == 2
    assert "invalid choice: 'bench'" in capsys.readouterr().err


SCENARIO_WITH_BACKEND = """\
[scenario]
name = "bad-backend"

[model]
species = ["*", "A"]

[[model.reactions]]
name = "A_ads"
type = "adsorption"
species = "A"
rate = 1.0

[lattice]
shape = [4, 4]

[engine]
kind = "rsm"
backend = "{backend}"
"""


class TestUnknownBackend:
    """Every command refuses an unknown backend the same way: exit 2, one
    line naming the backend and the known names, before any work."""

    KNOWN = "known: ['auto', 'cnative', 'numpy']"

    def assert_refused(self, capsys, rc, name="bogus"):
        assert rc == 2
        err = capsys.readouterr().err
        assert err.splitlines() == [err.strip()]
        assert f"unknown backend {name!r}" in err and self.KNOWN in err
        assert "Traceback" not in err

    def test_run(self, capsys):
        self.assert_refused(capsys, main(["run", "zgb", "--backend", "bogus"]))

    def test_sweep_fails_before_the_journal(self, capsys, tmp_path):
        journal = tmp_path / "campaign"
        rc = main(["sweep", "ab2-desorption", "--backend", "bogus",
                   "--jobs", "2", "--journal", str(journal)])
        self.assert_refused(capsys, rc)
        assert not journal.exists()

    def test_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "bad.toml"
        path.write_text(SCENARIO_WITH_BACKEND.format(backend="bogus"))
        self.assert_refused(capsys, main(["run", str(path)]))

    def test_auto_and_registered_names_pass(self):
        from repro.backends import check_backend_name

        for name in (None, "auto", "numpy", "cnative"):
            check_backend_name(name)
