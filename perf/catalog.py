"""Metric and workload names.

``BENCHMARK.json`` at the repo root is the one list of workloads, metrics,
units, directions and bounds; this module loads it and adds what its
schema has no room for: which end-to-end metric, on which workload, each
per-layer metric is expected to move.  ``perf/tests`` fail if the two, or
a run's output, disagree on any name.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Tuple

ROOT = Path(__file__).resolve().parent.parent


def load_benchmark() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def workload_names() -> List[str]:
    return [entry["name"] for entry in load_benchmark()["workloads"]]


def end_to_end() -> Dict[str, dict]:
    return {entry["name"]: entry for entry in load_benchmark()["end_to_end"]}


def per_layer() -> Dict[str, dict]:
    return {entry["name"]: entry for entry in load_benchmark()["per_layer"]}


IN_PROCESS = ("cold-cyclic", "cold-acyclic", "churn")
SERVED = ("serve-hot", "remote-drain", "fleet-fanout")
ALL = IN_PROCESS + SERVED
_KERNEL = ("ops_per_s", "cpu_ms_per_op")


def _each(metrics: Tuple[str, ...],
          workloads: Tuple[str, ...]) -> List[Tuple[str, str]]:
    return [(metric, workload) for metric in metrics
            for workload in workloads]


#: per-layer metric -> the (end-to-end metric, workload) pairs it should
#: move.  Written down before measuring; see README "Interaction".
MOVES: Dict[str, List[Tuple[str, str]]] = {
    "data.generate_s": _each(("setup_s",), IN_PROCESS),
    "cli.server_ready_s": _each(("setup_s",), SERVED),
    "datalog.parse_us": [("ops_per_s", "churn")],
    "datalog.gao_us": [("ops_per_s", "churn")],
    "engine.prepare_us": _each(("ops_per_s",), ("cold-cyclic", "churn")),
    "engine.plan_us": _each(("ops_per_s",), ("cold-cyclic", "churn")),
    "storage.load_s": _each(("setup_s",), ALL),
    "storage.index_build_us_per_ktuple":
        [("ops_per_s", "churn")]
        + _each(("setup_s",), ("cold-cyclic", "cold-acyclic")),
    "storage.index_bytes_per_tuple": _each(("peak_rss_mb",), ALL),
    "storage.seek_ns": [("ops_per_s", "cold-cyclic")],
    "storage.gap_around_ns": [("ops_per_s", "cold-acyclic")],
    "storage.write_ms": [("ops_per_s", "churn")],
    "joins.lftj.3-clique_ms": _each(_KERNEL, ("cold-cyclic",)),
    "joins.ms.3-clique_ms": _each(_KERNEL, ("cold-cyclic",)),
    "joins.lftj.4-clique_ms": _each(_KERNEL, ("cold-cyclic",)),
    "joins.lftj.4-cycle_ms": _each(_KERNEL, ("cold-cyclic",)),
    "joins.ms.4-cycle_ms": _each(_KERNEL, ("cold-cyclic",)),
    "joins.ms.3-path_ms": _each(("ops_per_s", "rows_per_s"),
                                ("cold-acyclic",)),
    "joins.lftj.3-path_ms": _each(("ops_per_s", "rows_per_s"),
                                  ("cold-acyclic",)),
    "joins.ms.2-comb_ms": _each(("ops_per_s", "rows_per_s"),
                                ("cold-acyclic",)),
    "joins.yannakakis.2-comb_ms": _each(("ops_per_s", "rows_per_s"),
                                        ("cold-acyclic",)),
    "joins.ms.1-tree_ms": _each(("ops_per_s", "rows_per_s"),
                                ("cold-acyclic",)),
    "joins.lftj.seeks_per_row": [("ops_per_s", "cold-cyclic")],
    "joins.ms.probes_per_row": [("ops_per_s", "cold-acyclic")],
    "joins.ms.constraints_per_row": [("ops_per_s", "cold-acyclic")],
    "exec.serial_overhead_us": [("ops_per_s", "cold-cyclic")],
    "exec.partition_ms": [("ops_per_s", "cold-cyclic")],
    "exec.shard_codec_ns_per_tuple": [("ops_per_s", "cold-cyclic")],
    "exec.p2_speedup": [("ops_per_s", "cold-cyclic")],
    "api.run_overhead_us": _each(("ops_per_s",),
                                 ("cold-cyclic", "serve-hot")),
    "api.emit_ns_per_row": [("rows_per_s", "cold-acyclic")],
    "service.hit_us": _each(("ops_per_s",), ("serve-hot", "churn")),
    "service.result_hit_rate": _each(("ops_per_s",),
                                     ("churn", "serve-hot", "remote-drain")),
    "service.plan_hit_rate": [("ops_per_s", "churn")],
    "service.invalidations_per_write": [("ops_per_s", "churn")],
    "service.rejected": _each(("ops_per_s",), SERVED),
    "net.rtt_us": [("ops_per_s", "serve-hot")],
    "net.frame_us": [("ops_per_s", "serve-hot")],
    "net.encode_ns_per_row": _each(("rows_per_s",),
                                   ("remote-drain", "fleet-fanout")),
    "net.decode_ns_per_row": _each(("rows_per_s",),
                                   ("remote-drain", "fleet-fanout")),
    "net.page_fetch_us": _each(("rows_per_s",),
                               ("remote-drain", "fleet-fanout")),
    "net.bytes_per_row": _each(("rows_per_s", "cpu_ms_per_op"),
                               ("remote-drain",)),
    "net.retries": _each(("ops_per_s",), SERVED),
    "net.client_cpu_share": [("cpu_ms_per_op", "remote-drain")],
    "dist.plan_us": [("ops_per_s", "fleet-fanout")],
    "dist.merge_ns_per_row": [("rows_per_s", "fleet-fanout")],
    "dist.fanout_overhead_ms": [("ops_per_s", "fleet-fanout")],
    "dist.straggler_ratio": [("ops_per_s", "fleet-fanout")],
    "dist.peer_over_client": [("ops_per_s", "fleet-fanout")],
    "dist.hedged": [("ops_per_s", "fleet-fanout")],
    "dist.rerouted": [("ops_per_s", "fleet-fanout")],
    "op_p50_ms": _each(("ops_per_s",), ALL),
    "op_p95_ms": _each(("ops_per_s",), ALL),
    "obs.bench_trace_overhead": [("ops_per_s", "cold-cyclic")],
    "obs.query_trace_overhead": [("ops_per_s", "cold-cyclic")],
    "share.datalog": [("ops_per_s", "churn")],
    "share.engine": _each(("ops_per_s",), ("cold-cyclic", "churn")),
    "share.storage": _each(("ops_per_s",), ("churn", "cold-acyclic")),
    "share.joins": _each(("ops_per_s",), ("cold-cyclic", "cold-acyclic")),
    "share.exec": [("ops_per_s", "cold-cyclic")],
    "share.api": [("rows_per_s", "cold-acyclic")],
    "share.service": _each(("ops_per_s",), ("churn", "serve-hot")),
    "share.net": _each(("ops_per_s",), ("serve-hot", "remote-drain")),
    "share.dist": [("ops_per_s", "fleet-fanout")],
    "share.bench": _each(("ops_per_s",), ALL),
}
