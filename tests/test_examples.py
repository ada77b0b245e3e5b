"""Smoke tests for the runnable examples.

Only the fast example is executed end-to-end (the others run for
minutes and are documented runs); for the rest we verify they at
least import and expose ``main``.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parents[1] / "examples"


def load_example(name: str):
    path = EXAMPLES / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"example_{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


class TestExamples:
    def test_quickstart_runs(self, capsys):
        mod = load_example("quickstart")
        mod.main()
        out = capsys.readouterr().out
        assert "coverage kinetics" in out
        assert "RSM on ziff" in out

    @pytest.mark.parametrize(
        "name",
        [
            "quickstart",
            "exact_vs_dmc",
            "parallel_partitions",
            "pt100_oscillations",
            "ziff_phase_diagram",
            "custom_model",
        ],
    )
    def test_example_importable_with_main(self, name):
        mod = load_example(name)
        assert callable(mod.main)
