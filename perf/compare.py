"""``python3 perf/compare.py A.json B.json`` — base against new.

One row per (end-to-end metric, workload): base median, new median, their
ratio **with its base** (new ÷ base), and a verdict against the bound
``BENCHMARK.json`` fixes for the metric:

* ``regressed``  — new is worse than base by more than the bound;
* ``improved``   — new is better than base by more than the bound;
* ``within``     — neither;
* ``unresolved`` — the run-to-run spread of either side (quartile distance
  over median) is wider than the bound, so the runs cannot tell.

Exits non-zero on any ``regressed`` and on any rise in failed operations.
Both files are ``result.json`` run sets from ``perf/bench.py --repeat N``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import List, Tuple

ROOT = Path(__file__).resolve().parent.parent
if __package__ in (None, ""):
    sys.path[0:1] = [str(ROOT), str(ROOT / "src")]

from perf import catalog  # noqa: E402


def spread(summary: dict) -> float:
    median = summary["median"]
    return (summary["q3"] - summary["q1"]) / median if median else 0.0


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    if max(spread(base), spread(new)) > bound:
        return "unresolved"
    if not base["median"]:
        return "within"
    change = new["median"] / base["median"] - 1.0
    if better == "higher":
        change = -change
    # ``change`` is now "how much worse", as a share of the base.
    if change > bound:
        return "regressed"
    if change < -bound:
        return "improved"
    return "within"


def compare(base: dict, new: dict) -> Tuple[List[tuple], List[str]]:
    declared = catalog.end_to_end()
    rows: List[tuple] = []
    failures: List[str] = []
    for workload, base_entry in base["workloads"].items():
        new_entry = new["workloads"].get(workload)
        if new_entry is None:
            failures.append(f"{workload}: missing from the new run set")
            continue
        base_failed = sum(base_entry["failed"]) / sum(base_entry["attempted"])
        new_failed = sum(new_entry["failed"]) / sum(new_entry["attempted"])
        if new_failed > base_failed:
            failures.append(
                f"{workload}: failed share rose from {base_failed:.6f} "
                f"to {new_failed:.6f}")
        for name, spec in declared.items():
            base_summary = base_entry["end_to_end"][name]
            new_summary = new_entry["end_to_end"][name]
            outcome = verdict(base_summary, new_summary, spec["better"],
                              spec["bound"])
            if outcome == "regressed":
                failures.append(f"{workload}: {name} regressed")
            rows.append((workload, name, spec["unit"],
                         base_summary["median"], new_summary["median"],
                         outcome))
    return rows, failures


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    with open(argv[0]) as handle:
        base = json.load(handle)
    with open(argv[1]) as handle:
        new = json.load(handle)
    rows, failures = compare(base, new)
    print(f"base {argv[0]} @ {base['meta']['commit'][:12]}   "
          f"new {argv[1]} @ {new['meta']['commit'][:12]}")
    print(f"{'workload':14s} {'metric':14s} {'base':>14s} {'new':>14s} "
          f"{'new/base':>9s}  verdict")
    for workload, name, unit, old, fresh, outcome in rows:
        ratio = fresh / old if old else float("nan")
        print(f"{workload:14s} {name:14s} {old:14.6g} {fresh:14.6g} "
              f"{ratio:9.3f}  {outcome}  ({unit})")
    for failure in failures:
        print(f"FAIL {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
