"""Smoke tests of the performance benchmark at reduced sizes.

Not part of the tier-1 suite; run explicitly::

    PYTHONPATH=src python -m pytest benchmarks/perf
"""

from __future__ import annotations

import json

import pytest

import compare
import harness
import run


def small(name: str, tmp_path):
    """Each workload at a size that runs in seconds."""
    if name == "pndca-500":
        return harness.Pndca(name, 3, tmp_path, side=20, until=1.0, check_until=0.2)
    if name == "pndca-60":
        return harness.Pndca(name, 3, tmp_path, side=20, until=2.0, observe=0.05, check_until=0.5)
    if name == "parallel-pndca-500":
        return harness.ParallelPndca(name, 3, tmp_path, side=20, until=1.0)
    if name == "sweep-campaign":
        return harness.SweepCampaign(name, 3, tmp_path, side=10, rates=(0.2, 0.4), n_seeds=2)
    return harness.CliCold(name, 3, tmp_path)


def measured(wl, trace=False):
    t0 = harness.perf()
    wl.setup()
    setup_s = harness.perf() - t0
    try:
        result = harness.measure(wl, 0.0, trace=trace)
    finally:
        wl.close()
    if not wl.cli:  # run.py times set-up from the child's launch instead
        result["samples"]["setup_s"] = [setup_s]
    return result


@pytest.mark.parametrize("name", [w["name"] for w in run.load_benchmark()["workloads"]])
def test_workload_passes_its_checks(name, tmp_path):
    result = measured(small(name, tmp_path), trace=True)
    assert result["failed"] == 0, result["errors"]
    assert result["attempted"] == 2 + harness.MIN_UNITS + 1
    assert set(result["layers"]) == set(harness.LAYER_METRICS)
    assert result["layers"]["kernel.trials"] > 0
    for wall, rows in ((ld["wall_s"], ld["rows"]) for ld in result["ledgers"].values()):
        assert sum(rows.values()) == pytest.approx(wall, rel=1e-6)
        if name.startswith("pndca"):  # named layers cover >= 90 % of the unit
            assert rows["unattributed"] <= 0.1 * wall, rows


def test_forged_digest_is_one_failed_unit(tmp_path):
    wl = small("pndca-500", tmp_path)
    unit, calls = wl.unit, []

    def forged():
        u = unit()
        calls.append(u)
        if len(calls) == 2:
            u.output = dict(u.output, digest="0" * 16)
        return u

    wl.unit = forged
    result = measured(wl)
    assert (result["failed"], result["attempted"]) == (1, 2 + harness.MIN_UNITS)
    assert len(result["samples"]["wall_s"]) == harness.MIN_UNITS - 1


def test_failing_cli_call_is_one_failed_unit(tmp_path):
    wl = small("sweep-campaign", tmp_path)
    calls = []

    def run_cli(args, work, timeout=harness.CLI_TIMEOUT):
        calls.append(args)
        if len(calls) == 2:
            args = args + ["--jobs", "0"]  # the orchestrator refuses: exit 2
        return cli(args, work, timeout)

    cli, harness.run_cli = harness.run_cli, run_cli
    try:
        result = measured(wl)
    finally:
        harness.run_cli = cli
    assert (result["failed"], result["attempted"]) == (1, 2 + harness.MIN_UNITS)
    assert "exited 2" in result["errors"][0]


def test_results_carry_exactly_the_declared_metrics(tmp_path):
    bench = run.load_benchmark()
    result = measured(small("pndca-60", tmp_path), trace=True)
    result["metrics"] = run.end_to_end(bench, result)
    for trace, declared in ((False, bench["end_to_end"]), (True, bench["per_layer"])):
        line = json.loads(json.dumps(run.contract_line(bench, {"pndca-60": result}, trace)))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
    assert set(result["metrics"]) == {m["name"] for m in bench["end_to_end"]} | {"error_rate"}


def test_compare_verdicts_and_exact_counts():
    bench = run.load_benchmark()

    def stats(median, spread=0.0):
        return {"median": median, "q1": median * (1 - spread), "q3": median * (1 + spread),
                "n": 9, "samples": [median]}

    def doc(wall, steps):
        metrics = {m["name"]: stats(1.0) for m in bench["end_to_end"]}
        metrics["error_rate"] = stats(0.0)
        metrics["wall_s"] = wall
        layers = dict.fromkeys(harness.LAYER_METRICS, 0)
        layers["engine.steps"] = steps
        return {"workloads": {"w": {"metrics": metrics, "layers": layers}}}

    def verdict_of(a, b):
        lines, ok = compare.compare(a, b, bench)
        return next(ln for ln in lines if " wall_s " in ln).split()[-1], ok

    assert verdict_of(doc(stats(1.0), 5), doc(stats(1.05), 5)) == ("bound", True)
    assert verdict_of(doc(stats(1.0), 5), doc(stats(1.5), 5)) == ("worse", False)
    assert verdict_of(doc(stats(1.0), 5), doc(stats(0.5), 5)) == ("better", True)
    assert verdict_of(doc(stats(1.0, 0.3), 5), doc(stats(1.5), 5))[0] == "unresolved"
    assert compare.compare(doc(stats(1.0), 5), doc(stats(1.0), 6), bench)[1] is False
