"""Compare two results files of the performance benchmark.

    python3 benchmarks/perf/compare.py A.json B.json

A is the reference (the parent commit), B the candidate.  Each
(workload, end-to-end metric) row shows both medians with their
quartiles, how much worse B is than A (negative: better) and a verdict:

``better``        B beats A by more than the metric's bound, or every
                  run of B reads better than every run of A
``within bound``  B is no worse (and no better) than A by more than the bound
``worse``         B is worse than A by more than the bound
``unresolved``    the spread (IQR / median) of A or B exceeds the bound, so
                  the runs cannot tell a change of that size from noise

Bounds come from ``BENCHMARK.json``; ``error_rate`` has bound 0 (any
increase is worse).  When both files hold traced runs, every ``(exact)``
count must be identical.  The exit status is 1 when any row is worse or
an exact count differs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import EXACT_METRICS  # noqa: E402


def verdict(a: dict, b: dict, better: str, bound: float) -> tuple[float, str]:
    """``(relative change, verdict)``; a positive change is a worsening."""
    sign = 1.0 if better == "lower" else -1.0
    if bound == 0:  # error_rate: absolute, any increase counts
        change = sign * (b["median"] - a["median"])
        return change, "worse" if change > 0 else "better" if change < 0 else "within bound"
    change = sign * (b["median"] - a["median"]) / a["median"]
    spread = max((s["q3"] - s["q1"]) / s["median"] for s in (a, b))
    b_runs, a_runs = b.get("samples", [b["median"]]), a.get("samples", [a["median"]])
    all_better = (
        max(b_runs) < min(a_runs) if better == "lower" else min(b_runs) > max(a_runs)
    )
    if spread > bound:
        return change, "better" if all_better else "unresolved"
    if change > bound:
        return change, "worse"
    if change < -bound:
        return change, "better"
    return change, "within bound"


def compare(a: dict, b: dict, bench: dict) -> tuple[list[str], bool]:
    """Report lines and whether the candidate passes."""
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    metrics["error_rate"] = {"better": "lower", "bound": 0.0}
    lines = [
        f"{'workload':<20} {'metric':<14} {'A median [q1, q3]':>32} "
        f"{'B median [q1, q3]':>32} {'worse by':>8}  verdict"
    ]
    ok = True
    for name in [n for n in a["workloads"] if n in b["workloads"]]:
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric, decl in metrics.items():
            sa, sb = wa["metrics"][metric], wb["metrics"][metric]
            change, word = verdict(sa, sb, decl["better"], decl["bound"])
            ok &= word != "worse"
            lines.append(
                f"{name:<20} {metric:<14} "
                + "".join(
                    f"{s['median']:>12.5g} [{s['q1']:.4g}, {s['q3']:.4g}]".rjust(33)
                    for s in (sa, sb)
                )
                + f" {100 * change:>+7.1f}%  {word}"
            )
        if wa["layers"] and wb["layers"]:
            for metric in EXACT_METRICS:
                if wa["layers"][metric] != wb["layers"][metric]:
                    ok = False
                    lines.append(
                        f"{name:<20} exact count {metric} differs: "
                        f"{wa['layers'][metric]} != {wb['layers'][metric]}"
                    )
    return lines, ok


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    a, b = (json.loads(Path(p).read_text()) for p in args)
    bench = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    lines, ok = compare(a, b, bench)
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
