#!/usr/bin/env python3
"""Oscillatory CO oxidation on reconstructing Pt(100): RSM vs L-PNDCA.

The workload of the paper's Figs. 8-10: CO oxidation with hex <-> 1x1
surface reconstruction produces self-sustained coverage oscillations.
We run the exact DMC (RSM) and the approximate, parallelisable
L-PNDCA (five chunks, all visited once per step in random order at
maximal L — the paper's full-parallelisation configuration) and
compare the oscillations.

Run:  python examples/pt100_oscillations.py          (~1-2 minutes)
"""

import numpy as np

from repro import CoverageObserver, Lattice, LPNDCA, RSM, five_chunk_partition
from repro.analysis import analyze_oscillations, curve_rmse
from repro.lint import preflight_partition
from repro.models import hex_surface, pt100_model


def ascii_plot(times: np.ndarray, values: np.ndarray, width: int = 72, height: int = 14) -> str:
    """Tiny ASCII line plot (values in [0, 1])."""
    idx = np.linspace(0, len(times) - 1, width).astype(int)
    cols = np.clip((values[idx] * (height - 1)).astype(int), 0, height - 1)
    canvas = [[" "] * width for _ in range(height)]
    for x, y in enumerate(cols):
        canvas[height - 1 - y][x] = "*"
    return "\n".join("".join(row) for row in canvas)


def main() -> None:
    model = pt100_model()
    lattice = Lattice((40, 40))
    partition = five_chunk_partition(lattice)
    preflight_partition(partition, model)
    horizon = 80.0

    def observer():
        return CoverageObserver(0.25, species=("hC", "sC", "sO"))

    print("running RSM (exact DMC)...")
    r_rsm = RSM(
        model, lattice, seed=3, initial=hex_surface(lattice, model),
        observers=[observer()],
    ).run(until=horizon)

    print("running L-PNDCA (five chunks, random order, L = N/m)...")
    r_ca = LPNDCA(
        model, lattice, seed=4, initial=hex_surface(lattice, model),
        partition=partition, L="chunk", chunk_selection="random-order",
        observers=[observer()],
    ).run(until=horizon)

    for label, res in (("RSM", r_rsm), ("L-PNDCA", r_ca)):
        co = res.coverage["hC"] + res.coverage["sC"]
        s = analyze_oscillations(res.times, co)
        print()
        print(f"--- {label}: CO coverage over time ---")
        print(ascii_plot(res.times, co))
        print(
            f"period ~ {s.period:.1f}, amplitude ~ {s.amplitude:.2f}, "
            f"oscillating: {s.oscillating}, "
            f"throughput {res.n_trials / res.wall_time / 1e6:.2f} Mtrials/s"
        )

    co1 = r_rsm.coverage["hC"] + r_rsm.coverage["sC"]
    co2 = r_ca.coverage["hC"] + r_ca.coverage["sC"]
    print()
    print(
        "RMS deviation between the CO curves: "
        f"{curve_rmse(r_rsm.times, co1, r_ca.times, co2):.3f} "
        "(independent stochastic runs dephase; compare the periods/amplitudes)"
    )


if __name__ == "__main__":
    main()
