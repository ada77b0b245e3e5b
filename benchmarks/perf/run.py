"""Layered performance benchmark of the repro package (see README.md).

Run one workload, as the benchmark contract in ``BENCHMARK.json`` does::

    python3 benchmarks/perf/run.py --workload pndca-500 --seed 1 --seconds 15 --trace 0

or every workload, writing the full results (quartiles, layer metrics,
ledgers and provenance) for ``compare.py``::

    python3 benchmarks/perf/run.py --workload all --seed 1 --out results.json

Each workload runs in a child process (``harness.py``) started from the
checkout root with ``src`` on ``PYTHONPATH``, one BLAS/OpenMP thread, and a
``cnative`` kernel cache and temp directory under ``.bench_build/perf``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics
with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

from harness import EXACT_METRICS, make_workload  # noqa: E402

perf = time.perf_counter

#: set-ups timed per in-process workload; the median is ``setup_s``
SETUPS = 5
#: a workload's child processes must be done within this many seconds
DEADLINE = 170.0


class RunError(RuntimeError):
    """A workload could not be measured (no result is printed)."""


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env(build: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["REPRO_CNATIVE_CACHE"] = str(build / "cnative")
    env["TMPDIR"] = str(build / "tmp")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def start_harness(args: list[str], env: dict, deadline: float):
    """Start ``harness.py``; a timer kills it at ``deadline`` (perf clock)."""
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "harness.py"), *args],
        stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT,
    )
    timer = threading.Timer(max(deadline - perf(), 0.0), proc.kill)
    timer.start()
    return proc, timer


def finish(proc, timer) -> int:
    try:
        code = proc.wait()
    finally:
        timer.cancel()
        proc.stdout.close()
    if code < 0:
        raise RunError(f"harness killed by signal {-code} (deadline {DEADLINE:g} s)")
    return code


def prepare(env: dict) -> dict:
    """Compile the C kernels before anything is timed; fail closed."""
    proc, timer = start_harness(["--prepare"], env, perf() + DEADLINE)
    out = proc.stdout.read()
    if finish(proc, timer) != 0:
        raise RunError("environment check failed (see stderr)")
    return json.loads(out)


def run_workload(name: str, seed: int, seconds: float, trace: bool, env: dict,
                 work: Path, spans: str | None) -> dict:
    """Set-up repeats, then one measuring child; returns its result."""
    deadline = perf() + DEADLINE
    base = ["--workload", name, "--seed", str(seed), "--work", str(work)]
    setups = []
    # CLI workloads time set-up per unit (to the command's first line)
    cli = make_workload(name, seed, work).cli
    runs = 1 if cli else SETUPS
    for i in range(runs):
        last = i == runs - 1
        args = base + (
            ["--seconds", str(seconds), "--trace", str(int(trace))]
            + (["--spans", spans] if spans else [])
            if last else ["--setup-only"]
        )
        t0 = perf()
        proc, timer = start_harness(args, env, deadline)
        if proc.stdout.readline().strip() != "READY":
            finish(proc, timer)
            raise RunError(f"{name}: set-up failed (see stderr)")
        setups.append(perf() - t0)
        result = None
        for line in proc.stdout:
            if line.startswith("RESULT "):
                result = json.loads(line[len("RESULT "):])
        if finish(proc, timer) != 0:
            raise RunError(f"{name}: harness exited non-zero (see stderr)")
    if result is None:
        raise RunError(f"{name}: harness printed no result")
    if not cli:
        result["samples"]["setup_s"] = setups
    return result


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def end_to_end(bench: dict, result: dict) -> dict:
    """Median, quartiles and n of every declared end-to-end metric.

    ``error_rate`` is added with bound 0: any increase is a regression.
    """
    samples = dict(result["samples"], peak_rss_mb=[result["peak_rss_mb"]])
    out = {}
    for m in bench["end_to_end"]:
        values = samples[m["name"]]
        if not values:
            raise RunError(f"{result['workload']}: no passing unit measured {m['name']}")
        out[m["name"]] = {**quartiles(values), "unit": m["unit"], "samples": values}
    rate = result["failed"] / result["attempted"]
    out["error_rate"] = {"median": rate, "q1": rate, "q3": rate, "n": 1,
                         "unit": "failed/attempted"}
    return out


def contract_line(bench: dict, results: dict, trace: bool) -> dict:
    """The last stdout line: the declared metrics of the run."""
    declared = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for name, result in results.items():
        prefix = "" if len(results) == 1 else f"{name}/"
        for m in declared:
            value = (result["layers"] if trace else result["metrics"][m["name"]])
            value = value[m["name"]] if trace else value["median"]
            metrics[prefix + m["name"]] = {"value": value, "unit": m["unit"]}
    return {
        "correct": all(r["failed"] == 0 for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }


def report(name: str, result: dict) -> list[str]:
    """Human-readable lines: metrics by name with unit, then the ledgers."""
    lines = [
        f"== {name}: seed {result['seed']}, nproc {result['nproc']}, "
        f"{result['attempted']} units attempted, {result['failed']} failed"
    ]
    lines += [f"   error: {e}" for e in result["errors"]]
    for metric, s in result["metrics"].items():
        lines.append(
            f"   {metric:<14} {s['median']:>14.6g} {s['unit']:<17} "
            f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  n={s['n']}"
        )
    for metric, value in result["layers"].items():
        tag = "  (exact)" if metric in EXACT_METRICS else ""
        lines.append(f"   {metric:<30} {value:>16.6g}{tag}")
    for root, ledger in result["ledgers"].items():
        wall = ledger["wall_s"]
        lines.append(f"   ledger of the traced {root} ({wall:.4f} s):")
        for layer, seconds in sorted(ledger["rows"].items(), key=lambda kv: -kv[1]):
            lines.append(f"     {layer:<28} {seconds:>10.5f} s {100 * seconds / wall:6.1f} %")
    return lines


def provenance(seed: int, versions: dict) -> dict:
    """Host, toolchain and source identity of a results file."""

    def first_line(cmd: list[str]) -> str | None:
        try:
            out = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
        except (OSError, subprocess.CalledProcessError):
            return None
        return out.stdout.splitlines()[0] if out.stdout else ""

    cpu = next(
        (ln.split(":", 1)[1].strip() for ln in Path("/proc/cpuinfo").read_text().splitlines()
         if ln.startswith("model name")), platform.processor(),
    )
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = (index / "level").read_text().strip()
        if level in ("2", "3"):
            caches[f"l{level}"] = (index / "size").read_text().strip()
    dirty = first_line(["git", "status", "--porcelain"])
    return {
        "seed": seed,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "l2_cache": caches.get("l2"),
        "l3_cache": caches.get("l3"),
        **versions,
        "cc": first_line(["cc", "--version"]),
        "git_rev": first_line(["git", "rev-parse", "HEAD"]),
        "git_dirty": None if dirty is None else dirty != "",
    }


def main(argv: list[str] | None = None) -> int:
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full results (for compare.py) here")
    parser.add_argument("--spans", help="append every traced span here (JSON lines)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perf: no repro source tree at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    build = ROOT / ".bench_build" / "perf"
    (build / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env(build)
    spans = str(Path(args.spans).resolve()) if args.spans else None
    try:
        versions = prepare(env)
        results = {}
        for name in names if args.workload == "all" else [args.workload]:
            with tempfile.TemporaryDirectory(dir=build, prefix=f"{name}-") as work:
                result = run_workload(
                    name, args.seed, args.seconds, bool(args.trace), env, Path(work), spans
                )
            result["metrics"] = end_to_end(bench, result)
            results[name] = result
    except RunError as exc:
        print(f"perf: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print("\n".join(report(name, result)), flush=True)
    if args.out:
        doc = {
            "schema": "repro.perf/1",
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "provenance": provenance(args.seed, versions),
            "workloads": results,
        }
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(contract_line(bench, results, bool(args.trace))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
