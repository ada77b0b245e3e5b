"""Shared fixtures for the test suite.

Markers
-------
``slow``
    Long-running tests: statistical/long-horizon checks, the full
    backend differential matrix
    (``test_backends.py::TestDifferentialMatrix``), the seeded C
    mutants (``test_backends.py::TestCMutantsAreKilled``, one
    subprocess and one C build each) and the compiled kernel speedup
    gate (``test_backends.py::TestSpeedup``).  The
    default run excludes them (``addopts = "-q -m 'not slow'"`` in
    pyproject.toml); run them with ``pytest -m slow``, or everything
    with ``pytest -m ''``.  CI's backend-matrix job runs the slow
    differential suite explicitly — fast backend smoke coverage stays
    in the default tier-1 run.
"""

import numpy as np
import pytest

from repro.core import Lattice, Model, ReactionType
from repro.models import ziff_model


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


@pytest.fixture
def ziff():
    """The CO-oxidation (Table I) model with unit-ish rates."""
    return ziff_model(k_co=1.0, k_o2=0.5, k_co2=2.0)


@pytest.fixture
def small_lattice():
    """A 10x10 lattice (multiple of 5 and 2: all tilings apply)."""
    return Lattice((10, 10))


@pytest.fixture
def adsorption_1d():
    """Minimal 1-d model: A adsorbs on a vacant site."""
    return Model(
        ["*", "A"],
        [ReactionType("ads", [((0,), "*", "A")], 2.0)],
        name="adsorption-1d",
    )
