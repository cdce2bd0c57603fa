"""The benchmark's own tests: ``python -m pytest perf/tests``.

Not in ``testpaths``, so the repo's tier-1 run does not collect them.
Everything runs in ``--quick`` shape: half-size graphs, one set-up, one
cycle per loop.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
from pathlib import Path

import pytest

from perf import bench, catalog, compare, harness, probes, trace
from perf.workloads import WORKLOADS, reference_database

ROOT = Path(__file__).resolve().parent.parent.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
EXACT = ("joins.lftj.seeks_per_row", "joins.ms.probes_per_row",
         "joins.ms.constraints_per_row")


# ----------------------------------------------------------------------
# BENCHMARK.json against the driver's contract and against the code
# ----------------------------------------------------------------------
def test_benchmark_json_meets_the_contract():
    spec = catalog.load_benchmark()
    assert set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert spec["paths"] == ["perf"]
    assert len(spec["command"]) <= 32
    assert isinstance(spec["run_seconds"], int) \
        and 1 <= spec["run_seconds"] <= 60
    assert 2 <= len(spec["workloads"]) <= 8
    assert 1 <= len(spec["end_to_end"]) <= 16
    assert 1 <= len(spec["per_layer"]) <= 128
    names = []
    for entry in spec["workloads"]:
        assert set(entry) == {"name", "why"}
        assert len(entry["why"]) <= 200 and "\n" not in entry["why"]
        names.append(entry["name"])
    for entry in spec["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert 0 < entry["bound"] <= 0.25
        names.append(entry["name"])
    for entry in spec["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}
        names.append(entry["name"])
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(entry["unit"]), entry
        assert entry["better"] in ("lower", "higher")
    assert all(NAME.match(name) for name in names)
    assert len(names) == len(set(names)), "a name is used once"
    setup = catalog.end_to_end()["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(e["bound"] for e in spec["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_names_agree_between_json_and_code():
    assert set(catalog.workload_names()) == set(WORKLOADS)
    assert set(catalog.MOVES) == set(catalog.per_layer())
    known = set(catalog.end_to_end()), set(WORKLOADS)
    for name, pairs in catalog.MOVES.items():
        assert pairs, name
        for metric, workload in pairs:
            assert metric in known[0] and workload in known[1], name


# ----------------------------------------------------------------------
# Quick smoke of every workload
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_quick_run_is_clean_and_names_every_metric(name):
    report = bench.run_untraced(name, seed=0, seconds=0.05, quick=True)
    assert report["correct"], report["errors"]
    assert report["failed"] == 0 and report["attempted"] >= 1
    declared = catalog.end_to_end()
    assert set(report["metrics"]) == set(declared)
    for metric, entry in report["metrics"].items():
        assert entry["unit"] == declared[metric]["unit"]
        assert entry["value"] > 0, metric
    values = {metric: entry["value"]
              for metric, entry in report["metrics"].items()}
    # Served work runs on CPUs the driver's speed samples say nothing about.
    assert (values == report["raw"]) == WORKLOADS[name].served
    assert not [pid for pid in harness.process_tree()
                if pid != harness.os.getpid()], "a child outlived the run"


def test_calibrated_values_divide_each_cycle_by_its_speed():
    loop = harness.LoopResult(cycle_s=[1.0, 2.0], speed=[1.0, 2.0],
                              op_ms=[[10.0], [20.0]])
    assert loop.latencies_ms() == [10.0, 10.0]
    assert loop.latencies_ms(calibrated=False) == [10.0, 20.0]
    assert loop.per_second(4) == 2.0
    assert loop.per_second(4, calibrated=False) == pytest.approx(2 / 1.5)
    assert loop.mean_speed() == 1.5


def test_a_wrong_answer_lands_in_failed():
    workload = WORKLOADS["cold-acyclic"](seed=0, quick=True)
    workload.plan()
    try:
        workload.setup()
        workload.oracle()
        victim = workload.cycles[0][0]
        rows, digest = workload.expected[victim]
        workload.expected[victim] = (rows, digest ^ 1)  # same count
        loop = harness.run_loop(workload.clients(), 0.05)
    finally:
        workload.teardown()
    cycles = loop.attempted // len(workload.cycles[0])
    assert loop.failed == cycles
    assert loop.verified == loop.attempted - cycles
    assert victim.cell in loop.errors[0]


def test_an_operation_that_raises_is_a_failure_not_a_crash():
    def boom():
        raise RuntimeError("refused")
    ops = [harness.Op("ok", lambda: (1, None), (1, None)),
           harness.Op("boom", boom, (1, None))]
    loop = harness.run_loop([ops], 0.0)
    assert (loop.attempted, loop.failed) == (2, 1)
    assert "refused" in loop.errors[0]


# ----------------------------------------------------------------------
# Tracing
# ----------------------------------------------------------------------
def test_span_trees_are_closed_nested_and_add_up():
    workload = WORKLOADS["cold-acyclic"](seed=0, quick=True)
    workload.plan()
    workload.oracle()
    recorder = trace.Recorder()
    uninstall = trace.install(recorder)
    try:
        workload.setup()
        loop = harness.run_loop(workload.clients(), 0.05, recorder)
    finally:
        workload.teardown()
        uninstall()
    assert loop.failed == 0
    driver = [span for span in recorder.spans
              if span[trace.OP] is not None]
    assert trace.check_tree(driver) == []
    layers = {span[trace.LAYER] for span in driver}
    assert {"bench", "api", "exec", "joins", "storage", "engine"} <= layers
    shares, seconds = trace.layer_shares(driver, [])
    assert seconds > 0 and abs(sum(shares.values()) - 1.0) < 0.05
    # The checker does catch a broken tree.
    broken = [list(span) for span in driver]
    child = next(span for span in broken if span[trace.PARENT])
    child[trace.END] += 10 ** 12
    assert any("escapes" in problem
               for problem in trace.check_tree(broken))
    broken[-1][trace.END] = 0
    assert any("never closed" in problem
               for problem in trace.check_tree(broken))


def test_wrappers_are_removed_again():
    from repro.storage.database import Database
    from repro.net import protocol

    before = (Database.index, protocol.read_frame)
    uninstall = trace.install(trace.Recorder())
    assert Database.index is not before[0]
    uninstall()
    assert (Database.index, protocol.read_frame) == before


@pytest.fixture(scope="module")
def traced_drain(tmp_path_factory):
    out = tmp_path_factory.mktemp("out")
    report = bench.run_traced("remote-drain", seed=0, seconds=0.1,
                              quick=True, out_dir=out)
    return report, out


def test_traced_run_names_every_per_layer_metric(traced_drain):
    report, out = traced_drain
    assert report["correct"], report["errors"]
    assert set(report["metrics"]) == set(catalog.per_layer())
    value = {name: entry["value"]
             for name, entry in report["metrics"].items()}
    assert abs(report["share_sum"] - 1.0) < 0.05
    assert value["service.result_hit_rate"] >= 0.99
    assert value["share.joins"] == 0.0, "a drain must not reach the kernel"
    assert value["share.net"] > 0.5
    assert value["net.bytes_per_row"] > 0
    assert value["obs.bench_trace_overhead"] > 0
    kept = json.loads((out / "trace-remote-drain.json").read_text())
    assert kept["driver"] and kept["foreign"], "server spans were merged"
    assert {span[4] for span in kept["foreign"]} >= {"service", "net"}
    view = trace.cell_shares(kept)
    assert {cell for cell, *_ in view} == {"edges-2col", "two-hop-3col"}
    for _, count, median_ms, shares in view:
        assert count >= 2 and median_ms > 0
        assert abs(sum(shares.values()) - 1.0) < 0.05
    assert not list(out.glob("spans-*")) and not list(out.glob(".spool-*"))


def test_exact_counts_repeat(traced_drain):
    reference = reference_database(*probes.REFERENCE, scale=0.5)
    first, second = probes.kernels(reference), probes.kernels(reference)
    for name in EXACT:
        assert first[name] == second[name] > 0, name
    report, out = traced_drain
    again = bench.run_traced("remote-drain", seed=0, seconds=0.1, quick=True,
                             out_dir=out)
    assert again["metrics"]["net.bytes_per_row"]["value"] \
        == report["metrics"]["net.bytes_per_row"]["value"]


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------
def _summary(median, spread=0.0):
    half = median * spread / 2
    return {"median": median, "q1": median - half, "q3": median + half}


def test_compare_verdicts():
    assert compare.verdict(_summary(100), _summary(105), "lower", 0.1) \
        == "within"
    assert compare.verdict(_summary(100), _summary(112), "lower", 0.1) \
        == "regressed"
    assert compare.verdict(_summary(100), _summary(112), "higher", 0.1) \
        == "improved"
    assert compare.verdict(_summary(100), _summary(88), "higher", 0.1) \
        == "regressed"
    assert compare.verdict(_summary(100, 0.3), _summary(150), "lower", 0.1) \
        == "unresolved"


def test_compare_flags_a_rise_in_failures():
    entry = {"attempted": [10], "failed": [0], "end_to_end": {
        name: _summary(1.0) for name in catalog.end_to_end()}}
    base = {"workloads": {"churn": entry}}
    worse = {"workloads": {"churn": dict(entry, failed=[1])}}
    assert compare.compare(base, base)[1] == []
    assert "failed share rose" in compare.compare(base, worse)[1][0]


# ----------------------------------------------------------------------
# Process hygiene and the driver's empty-checkout probe
# ----------------------------------------------------------------------
def test_a_failed_fleet_launch_leaves_no_orphan():
    good = ["--dataset", "p2p-Gnutella04", "--port", "0"]
    with pytest.raises(RuntimeError):
        harness.start_servers([good, ["--dataset", "no-such-dataset"]])
    assert harness.process_tree() == [harness.os.getpid()]


def test_without_the_program_the_command_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    command = catalog.load_benchmark()["command"] + [
        "--workload", "churn", "--seed", "0", "--seconds", "1",
        "--trace", "0"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True,
                          text=True, timeout=180,
                          env={"PATH": harness.os.environ["PATH"]})
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
