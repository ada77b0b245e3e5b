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


# ----------------------------------------------------------------------
# stacked-ensemble engine vs. loop-over-replicas baseline
# ----------------------------------------------------------------------

ENS_LATTICE = Lattice((64, 64))
ENS_UNTIL = 2.0


def _ensemble_case(n_replicas: int):
    """Measure loop vs. stacked PNDCA for one replica count."""
    import time

    import numpy as np

    from repro.ca.pndca import PNDCA
    from repro.ensemble import EnsemblePNDCA, run_replicated
    from repro.partition.coloring import greedy_partition

    part = greedy_partition(ENS_LATTICE, MODEL)
    seeds = [100 + i for i in range(n_replicas)]

    def factory(s):
        return PNDCA(MODEL, ENS_LATTICE, seed=s, partition=part, strategy="ordered")

    t0 = time.perf_counter()
    loop_results = run_replicated(factory, seeds, ENS_UNTIL)
    t_loop = time.perf_counter() - t0
    loop_trials = sum(r.n_trials for r in loop_results)

    ens = EnsemblePNDCA(MODEL, ENS_LATTICE, seeds=seeds, partition=part)
    t0 = time.perf_counter()
    eres = ens.run(until=ENS_UNTIL)
    t_ens = time.perf_counter() - t0

    identical = all(
        np.array_equal(eres.states[i], r.final_state.array.reshape(-1))
        for i, r in enumerate(loop_results)
    )
    return {
        "R": n_replicas,
        "loop_mps": loop_trials / t_loop / 1e6,
        "ens_mps": eres.total_trials / t_ens / 1e6,
        "speedup": t_loop / t_ens,
        "identical": identical,
    }


@pytest.mark.parametrize("n_replicas", [16, 64])
def test_ensemble_vs_loop(benchmark, save_report, n_replicas):
    """Stacked ensemble must beat the replica loop >= 3x and bit-match it.

    Site-visit throughput (trials/s summed over replicas) on the 64x64
    ZGB workload — the acceptance bar for the vectorised replication
    route ("averaging of a large number of small, independent
    simulations").
    """
    row = benchmark.pedantic(lambda: _ensemble_case(n_replicas), rounds=1, iterations=1)
    save_report(
        f"ensemble_vs_loop_R{n_replicas}",
        f"Stacked PNDCA ensemble vs replica loop (64x64 ZGB, R={row['R']})\n"
        f"loop: {row['loop_mps']:.2f} Mtrials/s  "
        f"ensemble: {row['ens_mps']:.2f} Mtrials/s  "
        f"speedup: {row['speedup']:.2f}x  bit-identical: {row['identical']}",
    )
    assert row["identical"], "ensemble diverged from sequential replicas"
    assert row["speedup"] >= 3.0, f"ensemble speedup {row['speedup']:.2f}x < 3x"
