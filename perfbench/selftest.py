#!/usr/bin/env python3
"""Self-test of the benchmark at toy size.

Usage: python3 perfbench/selftest.py

Runs every workload at toy size (connected:5, cubic:6, path:10) through the
same code as a real run, untraced and traced, and checks that:

  * every metric BENCHMARK.json names is reported, with its unit;
  * no toy operation fails the correctness gate;
  * the traced layer self times add up to the traced operation minus
    process start-up and teardown;
  * a deliberately corrupted expected value makes the operation fail.

Exits 1 on the first kind of trouble it reports.
"""

from __future__ import annotations

import dataclasses
import math
import shutil
import sys
import tempfile
from pathlib import Path

import run
from workloads import KERNELS, WORKLOAD_NAMES, make_workload

# Self time of every layer; together they cover every traced span.
LAYER_SELF = (
    "smallgraphs.canonical_form.self_s",
    "smallgraphs.enumerate_s",
    *(f"engine.{kernel}.s" for kernel in KERNELS),
    "solver.self_s",
    "sequences.recheck_s",
    "checks.self_s",
    "theorems.self_s",
    "hypergraph.s",
    "formats.s",
    "cli.self_s",
)


def corrupted(workload):
    """The same workload with one expected value off by one."""
    if workload.graphs:
        label = workload.graphs[0].label
        pinned = dict(workload.pinned[label], gamma_t=workload.pinned[label]["gamma_t"] + 1)
        return dataclasses.replace(workload, pinned={**workload.pinned, label: pinned})
    return dataclasses.replace(workload, tested=workload.tested + 1)


def main() -> int:
    contract = run.load_contract()
    errors: list[str] = []
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=run.HERE))
    try:
        for name in WORKLOAD_NAMES:
            for trace in (False, True):
                res = run.run_workload(make_workload(name, 0, toy=True), 0, trace, workdir)
                tag = f"{name} trace={int(trace)}"
                for m in contract["per_layer" if trace else "end_to_end"]:
                    got = res.metrics.get(m["name"])
                    if got is None or got[1] != m["unit"]:
                        errors.append(f"{tag}: {m['name']} missing or not in {m['unit']}")
                if res.failed:
                    errors.append(f"{tag}: {res.failed} failed: {res.problems[:3]}")
                if trace:
                    value = {k: v for k, (v, _) in res.metrics.items()}
                    parts = sum(value[k] for k in LAYER_SELF)
                    rest = value["trace.op_s"] - value["trace.startup_s"] - value["trace.teardown_s"]
                    if not (math.isclose(parts, value["trace.self_sum_s"], abs_tol=1e-6)
                            and math.isclose(parts, rest, abs_tol=1e-6)):
                        errors.append(f"{tag}: layer self times {parts} do not add up to {rest}")
                print(f"{tag}: {res.attempted} ops, {res.failed} failed, {len(res.metrics)} metrics")
            res = run.run_workload(corrupted(make_workload(name, 0, toy=True)), 0, False, workdir)
            if not res.failed:
                errors.append(f"{name}: a corrupted expected value was not counted as a failure")
            print(f"{name} corrupted: {res.attempted} ops, {res.failed} failed: {res.problems[:1]}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for error in errors:
        print(f"SELF-TEST FAILED: {error}")
    print("self-test:", "FAILED" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
