"""Tests for the declarative scenario DSL (:mod:`repro.scenario`).

Loader error paths (fail-closed: distinct message, CLI exit code 2, no
traceback), content-digest stability, the zoo registry, the acceptance
gates, and the ZGB bit-identity contract — the inline TOML reaction
list compiles to an engine digest-identical to the Python-constructed
driver.
"""

import re

import pytest

from repro.__main__ import main
from repro.lint.engine import LintError
from repro.scenario import (
    ScenarioError,
    build_engine,
    find_scenario,
    get_scenario,
    is_scenario_ref,
    lint_scenario,
    loads_scenario,
    provenance,
    run_gates,
    run_scenario,
    run_sweep_point,
    scenario_names,
)

BASE = """\
[scenario]
name = "t"

[model]
species = ["*", "A", "B"]

[[model.reactions]]
name = "A_ads"
type = "adsorption"
species = "A"
rate = 0.4

[[model.reactions]]
name = "B2_ads"
type = "dissociative_adsorption"
species = "B"
rate = 0.3

[[model.reactions]]
name = "A+B"
type = "pair_reaction"
a = "A"
b = "B"
rate = 2.0

[lattice]
shape = [6, 6]

[engine]
kind = "rsm"

[run]
seed = 0
until = 1.0
"""


def edited(old: str, new: str) -> str:
    assert old in BASE
    return BASE.replace(old, new)


class TestLoader:
    def test_valid_document(self):
        spec = loads_scenario(BASE)
        assert spec.name == "t"
        assert spec.model.species == ("*", "A", "B")
        assert [r.name for r in spec.model.reactions] == ["A_ads", "B2_ads", "A+B"]
        assert spec.lattice_shape == (6, 6)
        assert spec.engine.kind == "rsm"
        assert spec.run.seed == 0 and spec.run.until == 1.0

    def test_digest_shape(self):
        spec = loads_scenario(BASE)
        assert re.fullmatch(r"[0-9a-f]{64}", spec.digest())
        assert spec.short_digest() == spec.digest()[:16]

    def test_compiles_and_runs(self):
        engine = build_engine(loads_scenario(BASE))
        engine.run(until=0.5)
        assert engine.time > 0


# each row: (broken document, fragment its distinct error must contain)
BAD_DOCS = [
    # --- unknown keys, at every level ---------------------------------
    (BASE + "\n[mystery]\nx = 1\n", "unknown key(s) ['mystery']"),
    (edited('name = "t"', 'name = "t"\ncolour = "red"'), "scenario: unknown key(s) ['colour']"),
    (edited('species = ["*", "A", "B"]', 'species = ["*", "A", "B"]\nflavour = 3'),
     "model: unknown key(s) ['flavour']"),
    (edited('rate = 0.4', 'rate = 0.4\nsticky = true'),
     "model.reactions[0] ('A_ads'): unknown key(s) ['sticky']"),
    (edited('kind = "rsm"', 'kind = "rsm"\nwarp = 9'), "engine: unknown key(s) ['warp']"),
    (edited('until = 1.0', 'until = 1.0\nfast = true'), "run: unknown key(s) ['fast']"),
    # --- rates --------------------------------------------------------
    (edited("rate = 0.4", "rate = -0.4"), "rate must be strictly positive, got -0.4"),
    (edited("rate = 0.4", "rate = 0.0"), "rate must be strictly positive, got 0"),
    (edited("rate = 0.4", "rate = inf"), "rate must be finite"),
    (edited("rate = 0.4", 'rate = "fast"'), "rate must be a number, got str"),
    # --- species discipline -------------------------------------------
    (edited('species = "A"\nrate = 0.4', 'species = "X"\nrate = 0.4'),
     "species 'X' is not declared in model.species"),
    (edited('a = "A"', 'a = "CO"'), "species 'CO' is not declared"),
    (edited('species = ["*", "A", "B"]', 'species = ["*", "A", "A"]'),
     "duplicate species"),
    # --- reaction shape -----------------------------------------------
    (edited('type = "adsorption"', 'type = "teleport"'), "unknown reaction type 'teleport'"),
    (edited('name = "A_ads"\ntype = "adsorption"\nspecies = "A"\nrate = 0.4',
            'name = "A_ads"\ntype = "adsorption"\nrate = 0.4'),
     "missing required key 'species'"),
    (edited('name = "B2_ads"', 'name = "A_ads"'), "duplicate reaction names ['A_ads']"),
    # --- engine/kind consistency --------------------------------------
    (edited('kind = "rsm"', 'kind = "warp-drive"'), "unknown engine 'warp-drive'"),
    (edited('kind = "rsm"', 'kind = "rsm"\npartition = "five-chunk"'),
     "engine kind 'rsm' takes no partition"),
    (edited('kind = "rsm"', 'kind = "pndca"'), "engine kind 'pndca' needs a partition"),
    (edited('kind = "rsm"', 'kind = "rsm"\nn_replicas = 4'),
     "engine.n_replicas: the stacked replica ensemble is retired"),
    (edited('kind = "rsm"', 'kind = "rsm"\nsample_interval = 1.0'),
     "engine.sample_interval: the stacked replica ensemble is retired"),
    (edited('kind = "rsm"', 'kind = "ensemble-rsm"'),
     "engine.kind: 'ensemble-rsm': the stacked replica ensemble is retired"),
    (edited('kind = "rsm"', 'kind = "rsm"\nL = 4'), "only the 'lpndca' engine"),
    (edited('kind = "rsm"', 'kind = "rsm"\nbackend = "jit"'),
     "engine.backend: unknown backend 'jit'; known: ['auto', 'cnative', 'numpy']"),
    # --- lattice ------------------------------------------------------
    (edited("shape = [6, 6]", "shape = [6, 0]"), "sides must be positive integers"),
    (edited("shape = [6, 6]", "shape = [6]"), "does not match the model dimensionality"),
    # --- run ----------------------------------------------------------
    (edited("until = 1.0", "until = -2.0"), "run.until: must be positive"),
    (edited("until = 1.0", 'until = 1.0\ninitial = "Q"'),
     "run.initial: species 'Q' is not declared"),
    (edited("seed = 0", "seed = -1"), "run.seed: must be >= 0, got -1"),
    # --- sweep grids --------------------------------------------------
    (BASE + "\n[sweep]\n", "sweep: declared but empty"),
    (BASE + "\n[sweep]\nseed = 3\n", "sweep.seed: expected a non-empty list"),
    (BASE + "\n[sweep]\nseed = [1, 2.5]\n", "sweep.seed: expected a list of integers"),
    (BASE + "\n[sweep]\nseed = [1, -2]\n", "sweep.seed: seeds must be >= 0, got [1, -2]"),
    (BASE + "\n[sweep]\nuntil = [1.0, -1.0]\n", "sweep.until: horizons must be positive"),
    (BASE + "\n[sweep.rates]\nX_ads = [0.1]\n", "'X_ads' names no declared reaction"),
    (BASE + "\n[sweep.rates]\nA_ads = [0.1, -0.2]\n", "must be strictly positive"),
    (BASE + "\n[sweep.params]\ny = [0.5]\n", "only preset models take parameter sweeps"),
    # --- gates --------------------------------------------------------
    (BASE + '\n[gates.fingerprint]\ndigest = "xyz"\n', "expected 16 lowercase hex digits"),
    (BASE + '\n[gates.fingerprint]\ndigest = "0123456789abcdef"\nseed = -1\n',
     "gates.fingerprint.seed: must be >= 0, got -1"),
    (BASE + '\n[gates.meanfield]\nspecies = ["A"]\nt = 1.0\ntol = 0.1\nseed = -3\n',
     "gates.meanfield.seed: must be >= 0, got -3"),
    (BASE + "\n[gates]\nmass_dt = 0.0\n", "gates.mass_dt: must be a positive number"),
    (BASE + "\n[gates]\nvibes = 1\n", "gates: unknown key(s) ['vibes']"),
    # --- document shape -----------------------------------------------
    ("this is not TOML [", "not valid TOML"),
    ("[scenario]\nname = \"t\"\n", "missing required table [model]"),
]


class TestLoaderErrors:
    """Every malformed document is refused with its own message."""

    @pytest.mark.parametrize(
        "old,new,key",
        [
            ('kind = "rsm"', 'kind = "ensemble-rsm"', "engine.kind"),
            ('kind = "rsm"', 'kind = "ensemble-pndca"', "engine.kind"),
            ('kind = "rsm"', 'kind = "rsm"\nn_replicas = 4', "engine.n_replicas"),
            ('kind = "rsm"', 'kind = "rsm"\nsample_interval = 1.0',
             "engine.sample_interval"),
        ],
        ids=["ensemble-rsm", "ensemble-pndca", "n_replicas", "sample_interval"],
    )
    def test_retired_ensemble_input_exits_2(self, tmp_path, capsys, old, new, key):
        """The CLI refuses retired replica input with one line that
        names the key and points at the seed sweep."""
        from repro.__main__ import main

        path = tmp_path / "retired.toml"
        path.write_text(edited(old, new))
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(key) and "[sweep] seed" in err

    @pytest.mark.parametrize(
        "text,fragment", BAD_DOCS, ids=[frag[:40] for _, frag in BAD_DOCS]
    )
    def test_rejected_with_distinct_message(self, text, fragment):
        with pytest.raises(ScenarioError) as excinfo:
            loads_scenario(text)
        assert fragment in str(excinfo.value)

    def test_messages_are_pairwise_distinct(self):
        messages = set()
        for text, _ in BAD_DOCS:
            with pytest.raises(ScenarioError) as excinfo:
                loads_scenario(text)
            messages.add(str(excinfo.value))
        assert len(messages) == len(BAD_DOCS)

    def test_probability_mass_over_1_is_refused(self):
        # total rate: 0.4 + 4*0.3 + 4*2.0 = large; dt = 1.0 pushes the
        # per-site selection mass over 1 -> SR010 fires in the preflight
        spec = loads_scenario(BASE + "\n[gates]\nmass_dt = 1.0\n")
        with pytest.raises(LintError) as excinfo:
            lint_scenario(spec)
        assert "SR010" in str(excinfo.value)
        assert "probability mass" in str(excinfo.value)

    def test_admissible_mass_dt_passes(self):
        spec = loads_scenario(BASE + "\n[gates]\nmass_dt = 0.01\n")
        assert lint_scenario(spec).ok()


PNDCA = edited('kind = "rsm"', 'kind = "pndca"\npartition = "five-chunk"')
LPNDCA = edited('kind = "rsm"', 'kind = "lpndca"\npartition = "five-chunk"')

PRESET = """\
[scenario]
name = "p"

[model]
preset = "{preset}"
{params}
[lattice]
shape = {shape}

[engine]
kind = "rsm"

[run]
until = 0.5
"""


def preset_doc(preset="diffusion-2d", params="", shape="[6, 6]", sweep=""):
    return PRESET.format(preset=preset, params=params, shape=shape) + sweep


class TestEngineOptions:
    """Engine options are checked against the engine table at load."""

    @pytest.mark.parametrize(
        "text,key,choices",
        [
            (PNDCA.replace('partition = "five-chunk"',
                           'partition = "five-chunk"\nstrategy = "bogus"'),
             "engine.strategy", "'random-order'"),
            (LPNDCA.replace('partition = "five-chunk"',
                            'partition = "five-chunk"\nchunk_selection = "bogus"'),
             "engine.chunk_selection", "'size-proportional'"),
            (LPNDCA.replace('partition = "five-chunk"',
                            'partition = "five-chunk"\nL = 0'),
             "engine.L", "positive integer or 'chunk'"),
        ],
        ids=["strategy", "chunk_selection", "L"],
    )
    def test_bad_value_exits_2_before_the_header(
        self, tmp_path, capsys, text, key, choices
    ):
        path = tmp_path / "bad.toml"
        path.write_text(text)
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.count("\n") == 1
        assert err.startswith(key) and choices in err
        journal = tmp_path / "journal"
        assert main(["sweep", str(path), "--journal", str(journal)]) == 2
        assert not journal.exists()

    def test_option_of_another_kind_names_its_owner(self):
        with pytest.raises(ScenarioError, match="only the 'pndca' engine"):
            loads_scenario(edited('kind = "rsm"', 'kind = "rsm"\nstrategy = "ordered"'))

    def test_set_options_reach_the_engine(self):
        engine = build_engine(loads_scenario(LPNDCA.replace(
            'partition = "five-chunk"',
            'partition = "five-chunk"\nL = 3\nchunk_selection = "uniform"',
        ).replace("shape = [6, 6]", "shape = [10, 10]")))
        assert (engine.L, engine.chunk_selection) == (3, "uniform")

    def test_unset_options_take_the_constructor_defaults(self):
        engine = build_engine(loads_scenario(
            PNDCA.replace("shape = [6, 6]", "shape = [10, 10]")
        ))
        assert engine.strategy == "random-order"


class TestPresets:
    """Preset parameters come from the constructor, checked at load."""

    def test_diffusion_2d_takes_k_hop(self):
        spec = loads_scenario(preset_doc(params="params = { k_hop = 2.0 }"))
        engine = build_engine(spec)
        assert {ct.rate for ct in engine.compiled.types} == {2.0}

    def test_unknown_param_is_refused_at_load(self):
        with pytest.raises(ScenarioError, match=re.escape(
            "model.params: unknown parameter(s) ['rate'] for preset "
            "'diffusion-2d'; known: ['k_hop']"
        )):
            loads_scenario(preset_doc(params="params = { rate = 2.0 }"))

    def test_unknown_swept_param_exits_2_before_any_point(self, tmp_path, capsys):
        path = tmp_path / "sweep.toml"
        path.write_text(preset_doc(sweep="\n[sweep]\nparams.rate = [1.0, 2.0]\n"))
        assert main(["sweep", str(path), "--journal", str(tmp_path / "j")]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("sweep.params: unknown parameter(s) ['rate']")
        assert not (tmp_path / "j").exists()

    def test_pt100_params_are_its_rate_keys(self):
        spec = loads_scenario(preset_doc("pt100", "params = { k_diff = 3.0 }"))
        assert lint_scenario(spec).ok()
        with pytest.raises(ScenarioError, match="known: \\['k_co_ads'"):
            loads_scenario(preset_doc("pt100", "params = { k_nope = 3.0 }"))

    def test_zgb_defaults_y(self):
        from repro.models import zgb_model
        from repro.resilience.runs import run_digest

        a = build_engine(loads_scenario(preset_doc("zgb", shape="[8, 8]")))
        b = build_engine(loads_scenario(preset_doc("zgb", "params = { y = 0.5 }", "[8, 8]")))
        assert a.model.reaction_types == zgb_model(0.5).reaction_types
        a.run(until=0.5)
        b.run(until=0.5)
        assert run_digest(a) == run_digest(b)

    @pytest.mark.parametrize("preset", ["diffusion-1d", "single-file"])
    def test_1d_preset_takes_its_dimension_from_the_model(self, preset, capsys, tmp_path):
        spec = loads_scenario(preset_doc(preset, shape="[12]"))
        assert lint_scenario(spec).ok()
        build_engine(spec).run(until=0.5)
        path = tmp_path / "two.toml"
        path.write_text(preset_doc(preset, shape="[6, 6]"))
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "does not match the model dimensionality (1-d)" in err

    def test_unknown_initial_species_exits_2(self, tmp_path, capsys):
        path = tmp_path / "initial.toml"
        path.write_text(preset_doc().replace("until = 0.5", 'until = 0.5\ninitial = "Q"'))
        assert main(["run", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("run.initial: species 'Q' is not in the model domain")

    def test_every_preset_builds(self):
        from repro.scenario import PRESETS

        assert sorted(PRESETS) == [
            "diffusion-1d", "diffusion-2d", "ising", "pt100", "single-file",
            "zgb", "ziff",
        ]
        for name, preset in PRESETS.items():
            shape = "[12]" if name in ("diffusion-1d", "single-file") else "[10, 10]"
            assert lint_scenario(loads_scenario(preset_doc(name, shape=shape))).ok()


class TestDigest:
    def test_stable_under_comments_and_formatting(self):
        a = loads_scenario(BASE)
        b = loads_scenario("# a comment\n" + BASE.replace("shape = [6, 6]", "shape = [ 6,6 ]"))
        assert a.digest() == b.digest()

    def test_changed_by_semantic_edits(self):
        base = loads_scenario(BASE).digest()
        assert loads_scenario(edited("rate = 0.4", "rate = 0.5")).digest() != base
        assert loads_scenario(edited("shape = [6, 6]", "shape = [8, 8]")).digest() != base
        assert loads_scenario(edited("seed = 0", "seed = 1")).digest() != base

    def test_provenance_carries_cache_key(self):
        spec = loads_scenario(BASE)
        prov = provenance(spec, seed=7, params={"y": 0.5})
        assert prov["digest"] == spec.digest()
        assert prov["seed"] == 7 and prov["params"] == {"y": 0.5}
        assert prov["name"] == "t" and prov["source"] == "<inline>"


class TestRegistry:
    ZOO = ["ab2-desorption", "dimer-dimer", "no-co", "pt100-oscillatory", "zgb"]

    def test_zoo_contents(self):
        assert scenario_names() == self.ZOO

    def test_lookup_by_name_and_ref(self):
        spec = get_scenario("zgb")
        assert spec.name == "zgb"
        assert is_scenario_ref("zgb") and is_scenario_ref("x/y/z.toml")
        assert not is_scenario_ref("fig4")
        with pytest.raises(ScenarioError, match="unknown scenario"):
            get_scenario("nope")

    def test_find_scenario_by_path(self, tmp_path):
        p = tmp_path / "mine.toml"
        p.write_text(BASE)
        assert find_scenario(str(p)).name == "t"

    def test_every_zoo_entry_passes_preflight(self):
        for name in scenario_names():
            assert lint_scenario(get_scenario(name)).ok()


class TestZgbBitIdentity:
    def test_scenario_matches_python_constructed_driver(self):
        """The acceptance criterion: DSL compile == hand-written model."""
        from repro.core.lattice import Lattice
        from repro.dmc.rsm import RSM
        from repro.models import zgb_model
        from repro.resilience.runs import run_digest

        spec = get_scenario("zgb")
        a = build_engine(spec)  # scenario's declared seed 0
        a.run(until=5.0)
        b = RSM(zgb_model(0.51), Lattice((10, 10)), seed=0)
        b.run(until=5.0)
        assert run_digest(a) == run_digest(b)


class TestGates:
    def test_zgb_gates_pass(self):
        results = run_gates(get_scenario("zgb"))
        assert [r.gate for r in results] == ["lint", "fingerprint"]
        assert all(r.ok for r in results), [r.render() for r in results]

    def test_fingerprint_mismatch_fails(self):
        spec = loads_scenario(
            BASE + '\n[gates.fingerprint]\ndigest = "0000000000000000"\n'
        )
        results = run_gates(spec)
        fp = results[-1]
        assert fp.gate == "fingerprint" and not fp.ok
        assert "!= recorded 0000000000000000" in fp.detail

    def test_lint_failure_short_circuits(self):
        spec = loads_scenario(BASE + "\n[gates]\nmass_dt = 1.0\n")
        results = run_gates(spec)
        assert len(results) == 1
        assert results[0].gate == "lint" and not results[0].ok

    def test_meanfield_gate_runs(self):
        spec = loads_scenario(
            BASE + "\n[gates.meanfield]\nspecies = [\"A\"]\nt = 1.0\ntol = 0.9\n"
        )
        results = run_gates(spec)
        mf = results[-1]
        assert mf.gate == "meanfield" and mf.ok, mf.render()


class TestRunner:
    DIGEST_LINE = re.compile(r"digest [0-9a-f]{16} t=[0-9.e+-]+ trials=\d+")

    def test_run_prints_provenance_and_digest(self, capsys):
        spec = loads_scenario(BASE)
        assert run_scenario(spec) == 0
        out = capsys.readouterr().out
        assert f"scenario t (<inline>) digest {spec.short_digest()}" in out
        assert self.DIGEST_LINE.search(out)

    def test_sweep_runs_every_grid_point(self):
        spec = loads_scenario(BASE + "\n[sweep]\nseed = [0, 1]\nuntil = [0.5]\n")
        lines = [run_sweep_point(spec, o) for o in spec.sweep.grid()]
        assert [ln.split(" digest ")[0] for ln in lines] == [
            "sweep seed=0 until=0.5", "sweep seed=1 until=0.5",
        ]
        assert all(self.DIGEST_LINE.search(ln) for ln in lines)
        assert lines[0] != lines[1]

    def test_run_builds_the_partition_once(self, capsys, monkeypatch):
        import repro.scenario.compile as compile_mod

        built = []
        build = compile_mod.build_partition
        monkeypatch.setattr(
            compile_mod, "build_partition",
            lambda *args: built.append(args) or build(*args),
        )
        # the lint preflight's proven partition is the engine's
        assert run_scenario(find_scenario("no-co"), until=0.5) == 0
        assert len(built) == 1

    def test_checkpoint_and_resume_roundtrip(self, capsys, tmp_path):
        spec = loads_scenario(BASE)
        assert run_scenario(spec, checkpoint_dir=tmp_path) == 0
        assert list(tmp_path.glob("ckpt_*.json"))
        straight = capsys.readouterr().out
        assert run_scenario(spec, resume="", checkpoint_dir=tmp_path) == 0
        resumed = capsys.readouterr().out
        assert "nothing to do" in resumed
        # the resumed engine reports the same digest as the straight run
        assert self.DIGEST_LINE.search(straight).group(0) == (
            self.DIGEST_LINE.search(resumed).group(0)
        )


class TestScenarioCli:
    """`repro run <scenario>` / `repro scenarios` / `repro lint --scenarios`."""

    def test_run_zoo_scenario_by_name(self, capsys):
        assert main(["run", "zgb", "--until", "1.0"]) == 0
        out = capsys.readouterr().out
        assert "scenario zgb (zoo/zgb.toml)" in out
        assert TestRunner.DIGEST_LINE.search(out)

    def test_run_scenario_file(self, capsys, tmp_path):
        p = tmp_path / "s.toml"
        p.write_text(BASE)
        assert main(["run", str(p)]) == 0
        assert "scenario t" in capsys.readouterr().out

    def test_sweep_flag(self, capsys):
        """`repro sweep` is the one sweep command; `run --sweep` is gone."""
        assert main(["sweep", "zgb", "--jobs", "1"]) == 0
        out = capsys.readouterr().out
        assert "sweep: 3 point(s)" in out
        assert len([ln for ln in out.splitlines() if ln.startswith("sweep ")]) == 3
        with pytest.raises(SystemExit) as exc:
            main(["run", "zgb", "--sweep"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --sweep" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text,fragment",
        [
            (BAD_DOCS[0][0], BAD_DOCS[0][1]),  # unknown top-level key
            (edited("rate = 0.4", "rate = -0.4"), "strictly positive"),
            (BASE + "\n[gates]\nmass_dt = 1.0\n", "SR010"),
        ],
    )
    def test_bad_scenario_exits_2_without_traceback(
        self, capsys, tmp_path, text, fragment
    ):
        p = tmp_path / "bad.toml"
        p.write_text(text)
        assert main(["run", str(p)]) == 2
        err = capsys.readouterr().err
        assert fragment in err
        assert "Traceback" not in err

    def test_unreadable_file_exits_2(self, capsys, tmp_path):
        assert main(["run", str(tmp_path / "missing.toml")]) == 2
        err = capsys.readouterr().err
        assert "cannot read scenario file" in err and "Traceback" not in err

    def test_scenarios_listing(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        for name in TestRegistry.ZOO:
            assert name in out
        assert "digest" in out

    def test_scenarios_gates_one_entry(self, capsys):
        assert main(["scenarios", "--gates", "ab2-desorption"]) == 0
        out = capsys.readouterr().out
        assert "lint" in out and "fingerprint" in out and "meanfield" in out
        assert "FAIL" not in out

    def test_scenarios_gates_unknown_name(self, capsys):
        assert main(["scenarios", "--gates", "nope"]) == 2
        assert "unknown scenario(s) ['nope']" in capsys.readouterr().err

    def test_lint_scenarios_pass(self, capsys):
        assert main(["lint", "--scenarios", "--strict"]) == 0
        out = capsys.readouterr().out
        for name in TestRegistry.ZOO:
            assert name in out

    def test_list_includes_scenarios(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scenarios (declarative TOML" in out and "zgb" in out
