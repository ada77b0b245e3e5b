"""Tests for the algorithm taxonomy / factory."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import Lattice
from repro.partition import five_chunk_partition
from repro.taxonomy import REGISTRY, describe_all, list_algorithms, make_simulator


class TestRegistry:
    def test_all_expected_keys(self):
        assert set(REGISTRY) == {
            "rsm", "vssm", "frm", "ndca", "sync-ca", "pndca", "lpndca",
            "typepart", "dd-rsm",
        }

    def test_exact_flags(self):
        exact = {k for k, v in REGISTRY.items() if v.exact}
        assert exact == {"rsm", "vssm", "frm"}

    def test_families(self):
        assert REGISTRY["pndca"].family == "CA"
        assert REGISTRY["rsm"].family == "DMC"

    def test_list_sorted(self):
        assert list_algorithms() == sorted(REGISTRY)


class TestFactory:
    def test_make_simple(self, ziff):
        sim = make_simulator("rsm", ziff, Lattice((8, 8)), seed=0)
        res = sim.run(until=1.0)
        assert res.n_trials > 0

    def test_make_with_kwargs(self, ziff, small_lattice):
        p = five_chunk_partition(small_lattice)
        sim = make_simulator(
            "pndca", ziff, small_lattice, seed=0, partition=p, strategy="ordered"
        )
        assert "ordered" in sim.algorithm

    def test_unknown_key(self, ziff):
        with pytest.raises(KeyError, match="unknown algorithm"):
            make_simulator("magic", ziff, Lattice((4, 4)))

    def test_every_entry_constructible(self, ziff, small_lattice):
        p = five_chunk_partition(small_lattice)
        for key in REGISTRY:
            kwargs: dict = {"seed": 1}
            if key in ("pndca", "lpndca"):
                kwargs["partition"] = p
            sim = make_simulator(key, ziff, small_lattice, **kwargs)
            res = sim.run(until=0.5)
            assert res.final_time > 0, key


class TestDescribe:
    def test_table_mentions_everything(self):
        text = describe_all()
        for key in REGISTRY:
            assert key in text
        assert "exact" in text and "approx" in text


class TestEngineTable:
    def test_scenario_kinds(self):
        from repro.taxonomy import scenario_kinds

        assert scenario_kinds() == ["lpndca", "ndca", "pndca", "rsm", "typepart"]
        assert {k for k, v in REGISTRY.items() if v.partitioned} == {"pndca", "lpndca"}

    @pytest.mark.parametrize(
        "key,option,value,fragment",
        [
            ("pndca", "strategy", "bogus", "choose from ('ordered'"),
            ("lpndca", "chunk_selection", "bogus", "choose from ('size-proportional'"),
            ("lpndca", "L", 0, "positive integer or 'chunk'"),
            ("lpndca", "L", True, "positive integer or 'chunk'"),
            ("lpndca", "L", 2.5, "positive integer or 'chunk'"),
            ("lpndca", "L", "half", "positive integer or 'chunk'"),
        ],
    )
    def test_option_checks_name_the_choices(self, key, option, value, fragment):
        with pytest.raises(ValueError, match=re.escape(fragment)):
            REGISTRY[key].options[option](value)

    def test_constructors_check_against_the_table(self, ziff, small_lattice):
        p = five_chunk_partition(small_lattice)
        with pytest.raises(ValueError, match="choose from"):
            make_simulator("pndca", ziff, small_lattice, partition=p, strategy="x")
        sim = make_simulator("lpndca", ziff, small_lattice, partition=p, L=np.int64(3))
        assert sim.L == 3

    def test_reading_the_table_loads_no_engine(self):
        code = (
            "import json, sys\n"
            "from repro.taxonomy import REGISTRY, scenario_kinds\n"
            "scenario_kinds()\n"
            "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, (str(Path(repro.__file__).parents[1]), env.get("PYTHONPATH")))
        )
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, timeout=120, check=True,
        ).stdout
        assert json.loads(out) == ["repro", "repro.taxonomy"]
