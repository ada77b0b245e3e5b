"""Throughput comparison across the full algorithm taxonomy.

One trial-throughput measurement per implemented algorithm on the
same CO-oxidation workload — the performance landscape behind the
paper's accuracy-for-speed trade (exact DMC at the bottom, chunked
vectorised CA at the top).
"""

import pytest

from repro.core import Lattice
from repro.lint import preflight_partition
from repro.models import ziff_model
from repro.partition import five_chunk_partition
from repro.taxonomy import REGISTRY, make_simulator

MODEL = ziff_model()
LATTICE = Lattice((50, 50))
P5 = five_chunk_partition(LATTICE)
preflight_partition(P5, MODEL)

#: per-algorithm constructor kwargs (event-driven methods get shorter
#: horizons: their per-event python cost dominates)
CASES = {
    "rsm": ({}, 5.0),
    "vssm": ({}, 0.3),
    "frm": ({}, 0.3),
    "ndca": ({}, 5.0),
    "pndca": ({"partition": P5}, 5.0),
    "lpndca": ({"partition": P5, "L": "chunk", "chunk_selection": "random-order"}, 5.0),
    "typepart": ({}, 5.0),
    "dd-rsm": ({"n_strips": 4}, 5.0),
    "sync-ca": ({"on_conflict": "discard"}, 5.0),
}


@pytest.mark.parametrize("key", sorted(CASES))
def test_algorithm_throughput(benchmark, key):
    kwargs, horizon = CASES[key]
    assert key in REGISTRY

    def run():
        sim = make_simulator(key, MODEL, LATTICE, seed=1, **kwargs)
        return sim.run(until=horizon)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    assert result.n_trials > 0


def test_throughput_report(benchmark, save_report):
    """Summarise trials/second for every algorithm into one table."""
    import time

    from repro.io import format_table

    def collect():
        rows = []
        for key in sorted(CASES):
            kwargs, horizon = CASES[key]
            sim = make_simulator(key, MODEL, LATTICE, seed=1, **kwargs)
            t0 = time.perf_counter()
            res = sim.run(until=horizon)
            wall = time.perf_counter() - t0
            rows.append(
                (
                    key,
                    REGISTRY[key].family,
                    "exact" if REGISTRY[key].exact else "approx",
                    f"{res.n_trials / wall / 1e6:.2f}",
                    f"{res.acceptance:.3f}",
                )
            )
        return rows

    rows = benchmark.pedantic(collect, rounds=1, iterations=1)
    save_report(
        "algorithm_throughput",
        "Algorithm throughput on the CO-oxidation workload (50x50)\n"
        + format_table(["algorithm", "family", "ME", "Mtrials/s", "acceptance"], rows),
    )
