#!/usr/bin/env python3
"""End-to-end benchmark of the grundytd command line, one layer at a time.

Usage:
  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]
  python3 perfbench/run.py --compare OLD.json NEW.json

Closed loop with one client: each operation is a fresh
`python3 -m grundytd.cli ...` process on the package in src/, and the next
one starts only after the previous has exited.  Operations repeat until the
next one would end past --seconds (at least one runs).  Every output goes
through the workload's correctness gate; an operation fails on a nonzero
exit or on any gate problem.

The shared machine this runs on changes speed by up to two times from one
minute to the next, for every process alike.  So the run also times a fixed
reference loop in its own process next to every set-up sample, before and
after each operation.  The gated times
(op_norm_s, setup_s) are medians of the ratio of each measured time to the
reference loops timed next to it, times REF_NOMINAL_S.  The measured times
are printed as well.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1
alternates untraced operations with traced ones (perfbench/tracer.py) and
reports the per-layer metrics, including the tracing overhead.  The last
line of stdout is the JSON result; the lines before it print every metric
by name and unit, plus the run record (backend, Python, nproc, seed,
commit), which --out also writes to a file together with the metrics.
--compare refuses two such files whose backends differ.  The exit code is
0 only when every operation passed the gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (  # noqa: E402
    DEFAULT_SEED,
    GRAPH_SUITE,
    KERNELS,
    REGULAR_SUITE,
    WORKLOAD_NAMES,
    make_workload,
)

SETUP_SAMPLES = 6  # set-up samples before the loop; one more before each operation
REF_PER_SAMPLE = 2  # reference loops timed right after each set-up sample
# The gated times are scaled to a machine on which reference_loop() takes
# this long (about its time on two vCPUs of an idle shared virtual machine,
# Python 3.11), so they read as seconds there.
REF_NOMINAL_S = 0.05
OP_TIMEOUT_S = 100
PROBE = (
    "import grundytd, grundytd.cli\n"
    "try:\n"
    "    import grundytd._kernels_c\n"
    "except ImportError:\n"
    "    compiled = False\n"
    "else:\n"
    "    compiled = True\n"
    "print(grundytd.BACKEND, compiled, grundytd.__file__)\n"
)


@dataclass
class Op:
    traced: bool
    wall_s: float
    rss_mb: float
    problems: list[str]
    stdout: str
    layers: dict | None = None


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def child_env(engine: str | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("GRUNDYTD_ENGINE", "GRUNDY_CAP")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    if engine is not None:
        env["GRUNDYTD_ENGINE"] = engine
    return env


def spawn(argv: list[str], workdir: Path, env: dict) -> tuple[int, float, float, float, float, str, str]:
    """Run one process to exit: (code, wall, peak RSS MB, start, end, stdout, stderr)."""
    out_path, err_path = workdir / "stdout", workdir / "stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = perf_counter()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (
        proc.returncode,
        end - start,
        usage.ru_maxrss / 1024,
        start,
        end,
        out_path.read_text(encoding="utf-8", errors="replace"),
        err_path.read_text(encoding="utf-8", errors="replace"),
    )


def run_op(workload, args: list[str], workdir: Path, traced: bool, engine: str | None = None) -> Op:
    if traced:
        spans_path = workdir / "spans.json"
        argv = [sys.executable, str(HERE / "tracer.py"), str(spans_path), *args]
    else:
        argv = [sys.executable, "-m", "grundytd.cli", *args]
    code, wall, rss, start, end, stdout, stderr = spawn(argv, workdir, child_env(engine))
    problems = workload.problems(stdout) if code == 0 else [f"exit code {code}: {stderr.strip()[-300:]}"]
    op = Op(traced, wall, rss, problems, stdout)
    if traced and code == 0:
        op.layers = layer_metrics(json.loads(spans_path.read_text()), start, end)
    return op


# -- per-layer metrics from spans -------------------------------------------------


def layer_metrics(doc: dict, spawned: float, exited: float) -> dict[str, float]:
    """Per-layer counts and times of one traced operation.

    A span's self time is its duration minus that of its direct child spans;
    the self times of all spans add up to the cli.main span.
    """
    spans = doc["spans"]
    children = [0.0] * len(spans)
    for _, parent, start, end, _ in spans:
        if parent >= 0:
            children[parent] += end - start
    calls: Counter = Counter()
    incl: Counter = Counter()
    own: Counter = Counter()
    extra: Counter = Counter()
    universe_bits = 0
    for i, (name, _, start, end, more) in enumerate(spans):
        calls[name] += 1
        incl[name] += end - start
        own[name] += end - start - children[i]
        if name.startswith("engine."):
            universe_bits = max(universe_bits, more)
        elif more is not None:
            extra[name] += more

    def layer_self(prefix: str) -> float:
        return sum(t for name, t in own.items() if name.startswith(prefix))

    canon = "smallgraphs.canonical_form"
    m = {
        f"{canon}.calls": calls[canon],
        f"{canon}.self_s": own[canon],
        "smallgraphs.enumerate_s": own["smallgraphs.enumerate"],
        "smallgraphs.classes_per_call": doc["classes"] / calls[canon] if calls[canon] else 0.0,
    }
    for kernel in KERNELS:
        m[f"engine.{kernel}.calls"] = calls[f"engine.{kernel}"]
        m[f"engine.{kernel}.s"] = own[f"engine.{kernel}"]
    m["engine.max_universe_bits"] = universe_bits
    solver_spans = [name for name in calls if name.startswith("solver.")]
    m["solver.calls"] = sum(extra[name] or calls[name] for name in solver_spans)
    m["solver.self_s"] = layer_self("solver.")
    m["sequences.recheck_calls"] = calls["sequences.recheck"]
    m["sequences.recheck_s"] = own["sequences.recheck"]
    for check in GRAPH_SUITE + REGULAR_SUITE:
        m[f"checks.{check}.s"] = incl[f"checks.{check}"]
        m[f"checks.{check}.tested"] = extra[f"checks.{check}"]
    m["checks.self_s"] = layer_self("checks.")
    m["theorems.bound_report.s"] = incl["theorems.bound_report"]
    m["theorems.regular_greedy_sequence.s"] = incl["theorems.regular_greedy_sequence"]
    m["theorems.self_s"] = layer_self("theorems.")
    m["hypergraph.s"] = layer_self("hypergraph.")
    m["formats.s"] = layer_self("formats.")
    m["cli.self_s"] = own["cli"]
    root = spans[0]
    m["trace.op_s"] = exited - spawned
    m["trace.startup_s"] = root[2] - spawned
    m["trace.teardown_s"] = exited - root[3]
    m["trace.self_sum_s"] = sum(own.values())
    return m


# -- one run ---------------------------------------------------------------------------


@dataclass
class Result:
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    problems: list[str]
    record: dict


def unit_of(name: str) -> str:
    if name.endswith(("calls", "tested")):
        return "count"
    if name.endswith("classes_per_call"):
        return "ratio"
    if name.endswith("bits"):
        return "bits"
    return "s"


def probe(workdir: Path) -> tuple[str, bool]:
    """Warm the bytecode cache; report the backend and whether the compiled engine imports."""
    code, _, _, _, _, out, err = spawn([sys.executable, "-c", PROBE], workdir, child_env())
    if code != 0:
        raise BenchError(f"grundytd does not import from {ROOT / 'src'}: {err.strip()[-300:]}")
    backend, compiled, where = out.split(maxsplit=2)
    if Path(where.strip()).parent != ROOT / "src" / "grundytd":
        raise BenchError(f"grundytd imports from {where.strip()}, not from {ROOT / 'src'}")
    return backend, compiled == "True"


def time_import(workdir: Path) -> float:
    """Wall time of a fresh process that only imports grundytd.cli."""
    code, wall, *_ = spawn([sys.executable, "-c", "import grundytd.cli"], workdir, child_env())
    if code != 0:
        raise BenchError("importing grundytd.cli failed")
    return wall


def reference_loop(n: int = 250_000) -> int:
    """Fixed pure-Python work shaped like the kernels' memo tables.

    Bit masks of 22 bits looked up in and added to a dict, in the benchmark's
    own process.  Nothing of grundytd runs, so a change to the program cannot
    change its time; only the speed the shared machine gives to Python does.
    """
    memo: dict[int, int] = {}
    x = 1
    for i in range(n):
        x = (x * 1103515245 + 12345) & 0x3FFFFF
        if memo.get(x) is None:
            memo[x] = i
    return len(memo)


def time_reference() -> float:
    start = perf_counter()
    reference_loop()
    return perf_counter() - start


def speed_sample(workdir: Path) -> tuple[float, float]:
    """(set-up wall time, mean time of REF_PER_SAMPLE reference loops), taken back to back."""
    setup = time_import(workdir)
    return setup, statistics.mean(time_reference() for _ in range(REF_PER_SAMPLE))


def tail(walls: list[float]) -> tuple[str, float] | None:
    """Highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(walls)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    return f"op_s.p{p}", sorted(walls)[math.ceil(p * n / 100) - 1]


def parity_problems(compiled_out: str, pure_out: str) -> list[str]:
    def strip(text: str):
        reports = json.loads(text)["reports"]
        return [
            {k: (v["value"], v["witness"]) for k, v in r["invariants"].items()}
            for r in reports
        ]

    a, b = strip(compiled_out), strip(pure_out)
    return [] if a == b else ["engine parity: compiled and pure engines differ"]


def run_workload(workload, seconds: float, trace: bool, workdir: Path) -> Result:
    backend, compiled = probe(workdir)
    before_loop = [speed_sample(workdir) for _ in range(SETUP_SAMPLES)]
    args = workload.prepare(workdir)
    deadline = perf_counter() + seconds
    ops: list[Op] = []
    around: list[tuple[float, float]] = []  # speed samples before each operation and after the last
    while True:
        around.append(speed_sample(workdir))
        ops.append(run_op(workload, args, workdir, traced=trace and len(ops) % 2 == 1))
        enough = len(ops) >= (2 if trace else 1)
        if enough and perf_counter() + statistics.median(o.wall_s for o in ops) > deadline:
            break
    around.append(speed_sample(workdir))
    problems = [p for op in ops for p in op.problems]
    attempted, failed = len(ops), sum(1 for op in ops if op.problems)
    if workload.graphs and not trace:
        if compiled:
            pure = run_op(workload, args, workdir, traced=False, engine="py")
            last = next((op for op in reversed(ops) if not op.problems), None)
            extra = pure.problems or (parity_problems(last.stdout, pure.stdout) if last else [])
            attempted += 1
            failed += bool(extra)
            problems += extra
            print("engine parity:", "FAILED" if extra else "identical values and witnesses")
        else:
            print("engine parity: skipped (compiled engine not importable)")

    plain = [op for op in ops if not op.traced]
    walls = [op.wall_s for op in plain]
    # each operation against the reference loops timed just before and just after it
    op_refs = [(around[k][1] + around[k + 1][1]) / 2 for k, op in enumerate(ops) if not op.traced]
    samples = before_loop + around
    metrics = {
        "op_s": (statistics.median(walls), "s"),
        "op_min_s": (min(walls), "s"),
        "op_norm_s": (REF_NOMINAL_S * statistics.median(w / r for w, r in zip(walls, op_refs)), "s"),
        "setup_wall_s": (statistics.median(wall for wall, _ in samples), "s"),
        "setup_s": (REF_NOMINAL_S * statistics.median(wall / ref for wall, ref in samples), "s"),
        "ref_s": (statistics.median(ref for _, ref in samples), "s"),
        "peak_rss_mb": (statistics.median(op.rss_mb for op in plain), "MB"),
        "fail_ratio": (failed / attempted, "ratio"),
        "op_count": (len(walls), "count"),
    }
    if (slow := tail(walls)) is not None:
        metrics[slow[0]] = (slow[1], "s")
    traced = [op.layers for op in ops if op.layers is not None]
    if traced:
        for name in traced[0]:
            metrics[name] = (statistics.median(t[name] for t in traced), unit_of(name))
        overhead = metrics["trace.op_s"][0] - metrics["op_s"][0]
        metrics["trace.overhead_s"] = (overhead, "s")
    record = {
        "workload": workload.name,
        "backend": backend,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(),
        "op_walls_s": walls,
        "op_ref_s": op_refs,
        "speed_samples_s": samples,
    }
    return Result(attempted, failed, metrics, problems, record)


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


# -- command line ------------------------------------------------------------------------


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def compare(old_path: str, new_path: str) -> int:
    old, new = (json.loads(Path(p).read_text()) for p in (old_path, new_path))
    for key in ("backend", "workload", "trace"):
        if old[key] != new[key]:
            print(f"refused: {key} differs ({old[key]!r} vs {new[key]!r})", file=sys.stderr)
            return 2
    bounds = {m["name"]: m.get("bound") for m in load_contract()["end_to_end"]}
    worse = 0
    for name, (value, unit) in new["metrics"].items():
        if name not in old["metrics"]:
            continue
        base = old["metrics"][name][0]
        change = (value - base) / base if base else 0.0
        verdict = ""
        if bounds.get(name) is not None and change > bounds[name]:
            verdict = f"  worse than bound {bounds[name]}"
            worse += 1
        print(f"{name}: {base:.6g} -> {value:.6g} {unit} ({change:+.1%}){verdict}")
    return 1 if worse else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="also write the metrics and run record to this file")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")

    # a terminated benchmark still stops its child and removes its work directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    contract = load_contract()
    wanted = contract["per_layer" if args.trace else "end_to_end"]
    seconds = contract["run_seconds"] if args.seconds is None else args.seconds
    workdir = Path(tempfile.mkdtemp(prefix=".work-", dir=HERE))
    try:
        result = run_workload(make_workload(args.workload, args.seed), seconds, bool(args.trace), workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {**result.record, "seed": args.seed, "seconds": seconds, "trace": args.trace}
    for name, (value, unit) in result.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    for problem in result.problems[:20]:
        print(f"FAILED: {problem}")
    print("record:", json.dumps(record))
    if args.out:
        full = {**record, "attempted": result.attempted, "failed": result.failed,
                "metrics": result.metrics}
        Path(args.out).write_text(json.dumps(full, indent=2) + "\n")
    print(json.dumps({
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            m["name"]: {"value": result.metrics[m["name"]][0], "unit": m["unit"]}
            for m in wanted
            if m["name"] in result.metrics  # only missing when operations failed
        },
    }))
    return 0 if result.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
