"""The benchmark's one command.

``python3 perf/bench.py --workload W --seed S --seconds N --trace 0|1`` runs
one workload and prints, as the last line of standard output, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` — the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.

Without ``--workload`` it runs every workload, each in a fresh interpreter
so RSS and caches do not leak between them, prints every metric by name with
its unit, and writes ``perf/out/result.json``; ``--trace`` adds the traced
pass, ``--repeat N`` makes the run sets ``perf/compare.py`` consumes.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    # Run as a script: drop perf/ from the path (perf/trace.py would shadow
    # the stdlib's trace module) and import through the package instead.
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf import catalog, harness, trace  # noqa: E402

SETUPS = 3   # set-ups per run; setup_s is their median


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def _tree_cpu() -> Dict[int, float]:
    return harness.cpu_seconds(harness.process_tree())


def _cpu_delta(before: Dict[int, float], after: Dict[int, float]) -> float:
    return sum(value - before.get(pid, 0.0) for pid, value in after.items())


def _timed_setup(workload) -> Tuple[float, float]:
    """One set-up: its raw seconds, and the machine speed around it."""
    before = harness.speed_factor(15)
    started = time.perf_counter()
    workload.setup()
    elapsed = time.perf_counter() - started
    return elapsed, (before + harness.speed_factor(15)) / 2


def end_to_end(loop: harness.LoopResult, cpu_s: float, rss_mib: float,
               setups: List[Tuple[float, float]],
               calibrated: bool) -> Dict[str, float]:
    """The end-to-end metrics of one run; ``calibrated`` divides every
    time by the machine speed sampled around it, which holds for work
    done on this thread (``harness.speed_factor``)."""
    speed = loop.mean_speed() if calibrated else 1.0
    return {
        "ops_per_s": loop.per_second(loop.verified, calibrated),
        "rows_per_s": loop.per_second(loop.rows, calibrated),
        "cpu_ms_per_op": cpu_s * 1e3 / speed / max(loop.verified, 1),
        "peak_rss_mb": rss_mib,
        "setup_s": statistics.median(
            seconds / (factor if calibrated else 1.0)
            for seconds, factor in setups),
    }


def run_untraced(name: str, seed: int, seconds: float, quick: bool) -> dict:
    from perf.workloads import WORKLOADS

    workload = WORKLOADS[name](seed, quick=quick)
    workload.plan()
    setups: List[Tuple[float, float]] = []
    try:
        for attempt in range(1 if quick else SETUPS):
            if attempt:
                workload.teardown()
            setups.append(_timed_setup(workload))
        workload.oracle()
        clients = workload.clients()
        cpu_before = _tree_cpu()
        loop = harness.run_loop(clients, seconds)
        # The calibration kernel ran on this process's CPU clock too.
        cpu = _cpu_delta(cpu_before, _tree_cpu()) - loop.calibration_s
        rss = harness.peak_rss_mib(harness.process_tree())
    finally:
        workload.teardown()
    return _report(
        end_to_end(loop, cpu, rss, setups, calibrated=not workload.served),
        catalog.end_to_end(), loop,
        extra={"raw": end_to_end(loop, cpu, rss, setups, calibrated=False),
               "wall_s": loop.wall_s, "cycles": loop.cycles,
               "samples": sum(map(len, loop.op_ms)),
               "machine_speed": loop.mean_speed()})


def run_traced(name: str, seed: int, seconds: float, quick: bool,
               out_dir: Path) -> dict:
    from perf import probes
    from perf.workloads import WORKLOADS

    out_dir.mkdir(parents=True, exist_ok=True)
    spool = out_dir / f".spool-{os.getpid()}.jsonl"
    workload = WORKLOADS[name](seed, quick=quick)
    workload.plan()
    workload.oracle()

    # Untraced reference pass, for the tracing overhead.
    try:
        workload.setup()
        reference = harness.run_loop(workload.clients(), seconds / 4)
    finally:
        workload.teardown()

    recorder = trace.Recorder(spool_path=str(spool))
    uninstall = trace.install(recorder)
    workload.spans_dir = str(out_dir)
    try:
        workload.setup()
        clients = workload.clients()
        counters_before = workload.counters()
        own_before = harness.cpu_seconds([os.getpid()])
        tree_before = _tree_cpu()
        loop = harness.run_loop(clients, seconds / 2, recorder)
        tree_cpu = _cpu_delta(tree_before, _tree_cpu())
        own_cpu = _cpu_delta(own_before, harness.cpu_seconds([os.getpid()]))
        counters = {key: value - counters_before.get(key, 0)
                    for key, value in workload.counters().items()}
    finally:
        workload.teardown()
        uninstall()

    driver = [span for span in recorder.spans if span[trace.OP] is not None]
    foreign = [span for span in recorder.spans if span[trace.OP] is None]
    for path in workload.span_files:
        foreign.extend(trace.load_spans(path))
    foreign.extend(trace.load_spool(str(spool)))
    foreign = trace.in_window(foreign, loop.start_ns, loop.end_ns)
    shares, op_seconds = trace.layer_shares(driver, foreign)
    problems = trace.check_tree(driver)
    with open(out_dir / f"trace-{name}.json", "w") as handle:
        json.dump({"workload": name, "seed": seed,
                   "fields": ["id", "parent", "op", "name", "layer",
                              "thread", "start_ns", "end_ns", "self_ns"],
                   "cells": recorder.cells,
                   "driver": driver, "foreign": foreign}, handle,
                  separators=(",", ":"))
    for path in workload.span_files + [str(spool)]:
        if os.path.exists(path):
            os.remove(path)

    metrics = probes.run_all(workload)
    calibrated = not workload.served
    latencies = reference.latencies_ms(calibrated)
    metrics.update({f"share.{layer}": share
                    for layer, share in shares.items()})
    hits, misses = counters.get("result_hits", 0), \
        counters.get("result_misses", 0)
    plan_hits, plan_misses = counters.get("plan_hits", 0), \
        counters.get("plan_misses", 0)
    writes = sum(1 for cycle in workload.cycles for spec in cycle
                 if spec.write) * (loop.attempted
                                   // max(sum(map(len, workload.cycles)), 1))
    metrics.update({
        "service.result_hit_rate": hits / max(hits + misses, 1),
        "service.plan_hit_rate": plan_hits / max(plan_hits + plan_misses, 1),
        "service.invalidations_per_write":
            counters.get("result_invalidations", 0) / max(writes, 1),
        "service.rejected": counters.get("rejected", 0),
        "net.bytes_per_row":
            counters.get("fetch_payload_bytes", 0.0) / max(loop.fetched, 1),
        "net.retries": counters.get("retries", 0),
        "net.client_cpu_share": own_cpu / tree_cpu if tree_cpu else 1.0,
        "dist.hedged": counters.get("hedged", 0),
        "dist.rerouted": counters.get("rerouted", 0),
        # Latency percentiles of the untraced reference pass.  Demoted
        # from the end-to-end list: they ride cell boundaries that move
        # with where the scheduler puts pool workers and servers.
        "op_p50_ms": harness.percentile(latencies, 0.50),
        "op_p95_ms": harness.percentile(latencies, 0.95),
        # Base: the untraced reference pass of this same run.
        "obs.bench_trace_overhead":
            loop.per_second(loop.verified, calibrated)
            / max(reference.per_second(reference.verified, calibrated),
                  1e-9),
    })
    loop.failed += reference.failed + len(problems)
    loop.attempted += reference.attempted
    loop.errors.extend(reference.errors + problems[:5])
    return _report(metrics, catalog.per_layer(), loop, extra={
        "op_seconds": op_seconds, "share_sum": sum(shares.values())})


def _report(metrics: Dict[str, float], declared: Dict[str, dict],
            loop: harness.LoopResult, extra: dict) -> dict:
    if set(metrics) != set(declared):
        raise SystemExit(
            f"metric names drifted from BENCHMARK.json: "
            f"{sorted(set(metrics) ^ set(declared))}")
    return {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": metrics[name],
                           "unit": declared[name]["unit"]}
                    for name in declared},
        "errors": loop.errors,
        **extra,
    }


def run_workload(args: argparse.Namespace) -> int:
    harness.interrupt_on_sigterm()
    if args.trace:
        report = run_traced(args.workload, args.seed, args.seconds,
                            args.quick, Path(args.out))
    else:
        report = run_untraced(args.workload, args.seed, args.seconds,
                              args.quick)
    for error in report.pop("errors"):
        print(f"FAILED {error}", file=sys.stderr)
    extras = {key: report.pop(key) for key in list(report)
              if key not in ("correct", "attempted", "failed", "metrics")}
    raw = extras.pop("raw", {})
    for name, entry in report["metrics"].items():
        measured = f"   (raw {raw[name]:.6g})" \
            if raw.get(name, entry["value"]) != entry["value"] else ""
        print(f"{args.workload:14s} {name:36s} {entry['value']:14.6g} "
              f"{entry['unit']}{measured}")
    print(f"{args.workload:14s} " + " ".join(
        f"{key}={value:.6g}" for key, value in extras.items()))
    print(json.dumps(report))
    return 0


# ----------------------------------------------------------------------
# Every workload, each in a fresh interpreter
# ----------------------------------------------------------------------
def _child(workload: str, args: argparse.Namespace, traced: bool) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(int(traced)),
               "--out", args.out]
    if args.quick:
        command.append("--quick")
    started = time.perf_counter()
    # A new session, so an interrupt can take the whole group down:
    # servers and pool workers included.
    process = subprocess.Popen(command, stdout=subprocess.PIPE, text=True,
                               start_new_session=True)
    try:
        output, _ = process.communicate()
    except BaseException:
        harness.kill_group(process)
        raise
    if process.returncode != 0:
        raise SystemExit(f"{workload}: exit code {process.returncode}")
    lines = output.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    report = json.loads(lines[-1])
    report["wall_s"] = time.perf_counter() - started
    return report


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def summarize(values: List[float]) -> dict:
    """Median and quartiles of one metric over a run set."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0],
                "runs": values}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "runs": values}


def run_all(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = {
        "meta": {
            "commit": _commit(), "seed": args.seed,
            "seconds": args.seconds, "repeat": args.repeat,
            "quick": args.quick, "python": platform.python_version(),
            "nproc": os.cpu_count(),
        },
        "workloads": {},
    }
    failed = False
    for workload in catalog.workload_names():
        runs = [_child(workload, args, traced=False)
                for _ in range(args.repeat)]
        entry = {
            "attempted": [run["attempted"] for run in runs],
            "failed": [run["failed"] for run in runs],
            "wall_s": [run["wall_s"] for run in runs],
            "end_to_end": {
                name: dict(summarize([run["metrics"][name]["value"]
                                      for run in runs]),
                           unit=runs[0]["metrics"][name]["unit"])
                for name in runs[0]["metrics"]
            },
        }
        failed = failed or not all(run["correct"] for run in runs)
        if args.trace:
            traced = _child(workload, args, traced=True)
            failed = failed or not traced["correct"]
            entry["per_layer"] = traced["metrics"]
            entry["traced_wall_s"] = traced["wall_s"]
        result["workloads"][workload] = entry
    with open(out_dir / "result.json", "w") as handle:
        json.dump(result, handle, indent=1)
    print(f"wrote {out_dir / 'result.json'}")
    return 1 if failed else 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=catalog.workload_names())
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long each closed loop measures "
                             "(default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="1: the traced pass (per-layer metrics)")
    parser.add_argument("--quick", action="store_true",
                        help="smoke run: half-size graphs, one set-up, "
                             "one cycle")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload (all-workloads mode)")
    parser.add_argument("--out", default=str(ROOT / "perf" / "out"))
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = 0.05 if args.quick \
            else float(catalog.load_benchmark()["run_seconds"])
    if not (ROOT / "src" / "repro").is_dir():
        # Never measure a copy of the program installed somewhere else.
        raise SystemExit(f"{ROOT / 'src' / 'repro'}: no program to measure")
    if args.workload:
        return run_workload(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
