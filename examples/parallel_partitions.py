#!/usr/bin/env python3
"""Partitioned CA in action: conflict-free chunks, kernels, real processes.

Walks through the paper's central construction:

1. build the five-chunk partition of Fig. 4 and *prove* it optimal
   (clique lower bound = 5 = chunks used);
2. run PNDCA with vectorised simultaneous chunk updates and compare its
   throughput against sequential RSM;
3. run the same algorithm on a real multiprocessing shared-memory
   executor and verify the result is bit-identical to the serial run;
4. model the speedup on a 2003-era parallel machine (the Fig. 7 story).

Run:  python examples/parallel_partitions.py
"""

import time

import numpy as np

from repro import Lattice, PNDCA, RSM, five_chunk_partition
from repro.io import format_surface
from repro.lint import preflight_partition
from repro.models import empty_surface, ziff_model
from repro.parallel import (
    DEFAULT_2003,
    ParallelChunkExecutor,
    ParallelPNDCA,
    speedup_surface,
)
from repro.partition import clique_lower_bound, find_modular_tiling


def main() -> None:
    model = ziff_model()
    lattice = Lattice((100, 100))

    # --- 1. the partition and its optimality ---------------------------
    partition = five_chunk_partition(lattice)
    preflight_partition(partition, model)
    bound = clique_lower_bound(model)
    m_found, coeffs = find_modular_tiling(model)
    print(f"five-chunk partition validated; clique lower bound = {bound}; ")
    print(f"smallest modular tiling found by search: m={m_found}, coeffs={coeffs}")
    print("tile (top-left 5x5):")
    print(partition.grid_labels()[:5, :5])
    print()

    # --- 2. vectorised chunks vs sequential RSM ------------------------
    horizon = 10.0
    t0 = time.perf_counter()
    r_rsm = RSM(model, lattice, seed=1, initial=empty_surface(lattice, model)).run(
        until=horizon
    )
    t_rsm = time.perf_counter() - t0
    t0 = time.perf_counter()
    r_ca = PNDCA(
        model, lattice, seed=1, initial=empty_surface(lattice, model),
        partition=partition,
    ).run(until=horizon)
    t_ca = time.perf_counter() - t0
    print(f"RSM   : {r_rsm.n_trials / t_rsm / 1e6:5.2f} Mtrials/s "
          f"(theta_O = {r_rsm.final_state.coverage('O'):.3f})")
    print(f"PNDCA : {r_ca.n_trials / t_ca / 1e6:5.2f} Mtrials/s "
          f"(theta_O = {r_ca.final_state.coverage('O'):.3f})  "
          f"<- the chunk parallelism, expressed as numpy SIMD")
    print()

    # --- 3. real processes, bit-identical result -----------------------
    small = Lattice((20, 20))
    p_small = five_chunk_partition(small)
    serial = PNDCA(model, small, seed=7, partition=p_small, strategy="ordered")
    rs = serial.run(until=5.0)
    with ParallelChunkExecutor(model, small, n_workers=2) as ex:
        par = ParallelPNDCA(
            model, small, seed=7, partition=p_small, strategy="ordered", executor=ex
        )
        rp = par.run(until=5.0)
    identical = np.array_equal(rs.final_state.array, rp.final_state.array)
    print(f"multiprocessing executor (2 workers) bit-identical to serial: {identical}")
    print()

    # --- 4. the modelled Fig. 7 speedup --------------------------------
    sides = [200, 600, 1000]
    ps = [2, 4, 6, 8, 10]
    surf = speedup_surface(DEFAULT_2003, sides, ps)
    print("modelled speedup T(1,N)/T(p,N) on a 2003-era cluster:")
    print(format_surface("N", sides, "p", ps, np.round(surf, 2)))


if __name__ == "__main__":
    main()
