"""regsync benchmark: one client in a closed loop over regsync's public API.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all

The client sends the next query only when the previous verdict is back (one
process, one thread).  Each query is DSL text plus parameters generated from
the seed; the program parses it and decides.  The query list is sent in
whole passes, each later one in a fresh seeded order: at least one, and more
while they are expected to end by about `--seconds`.

`--trace 0` prints the end-to-end metrics, measured untraced.  `--trace 1`
runs one traced pass, replays its first half untraced, and prints the
per-layer metrics, including the traced/untraced time ratio on that half;
the spans are written to perfbench/out/.  Every verdict goes through the
correctness gate (gate.py) after timing; a mismatch exits with status 1.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import gzip
import json
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
WORKLOADS = ("decide", "membership")
SETUP_REPEATS = 3
# Address-space cap: a runaway query fails with MemoryError instead of
# exhausting the machine.
MEMORY_CAP_BYTES = 3 << 30

END_TO_END = {
    "setup_s": "s",
    "throughput_qps": "queries/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "decided_ratio": "fraction",
    "peak_rss_mb": "MB",
}


def _import_program() -> float:
    """Put the checkout's sources first on the path and import them; the
    seconds taken count toward set-up."""
    if not (SRC / "regsync" / "__init__.py").is_file():
        raise SystemExit(f"error: regsync sources not found at {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import regsync  # noqa: F401
    import client  # noqa: F401
    import gate  # noqa: F401
    import inputs  # noqa: F401
    import tracing  # noqa: F401
    return time.perf_counter() - start


def _signature(verdict) -> tuple:
    """A comparable form of a verdict (exceptions compare by type and count)."""
    result = verdict.result
    if isinstance(result, Exception):
        result = (type(result).__name__, getattr(result, "explored", None))
    return verdict.decided, result, verdict.dra1


def _warm_up(queries) -> None:
    """Run the shortest query of each kind once, untimed."""
    import client

    shortest = {}
    for q in queries:
        if q.kind not in shortest or len(q.text) < len(shortest[q.kind].text):
            shortest[q.kind] = q
    for q in shortest.values():
        client.execute(q)


class _Run:
    """Verdicts of one run: the first per query, and any disagreement later."""

    def __init__(self, queries):
        self.queries = queries
        self.first = [None] * len(queries)
        self.errors = 0
        self.unstable = []

    def execute(self, index: int, execute) -> None:
        try:
            verdict = execute(self.queries[index])
        except Exception:
            self.errors += 1
            traceback.print_exc(file=sys.stderr)
            return
        if self.first[index] is None:
            self.first[index] = verdict
        elif _signature(verdict) != _signature(self.first[index]):
            self.unstable.append(index)

    def decided_ratio(self) -> float:
        return sum(1 for v in self.first if v is not None and v.decided) / len(self.first)

    def gate(self) -> tuple:
        """(failures, checks, seconds) of the correctness gate over the
        first verdict of every query."""
        import gate

        start = time.perf_counter()
        checker = gate.Gate()
        for query, verdict in zip(self.queries, self.first):
            if verdict is not None:
                checker.check(query, verdict)
        failures = checker.failures + [
            f"query {i} ({self.queries[i].label}) answered differently on a later pass"
            for i in self.unstable]
        return failures, checker.calls, time.perf_counter() - start


def measure(workload: str, seed: int, seconds: float, import_s: float) -> dict:
    """End-to-end metrics, tracing off."""
    import client
    import inputs

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        queries = inputs.generate(workload, seed)
        _warm_up(queries)
        setup_times.append(time.perf_counter() - start)

    run = _Run(queries)
    latencies = []
    order = list(range(len(queries)))
    shuffle = random.Random(seed)
    passes = 0
    start = time.perf_counter()
    # Whole passes only, so every run sends each query equally often; another
    # pass starts while it is expected to end by about `seconds`.
    while not passes or (time.perf_counter() - start) * (passes + 0.5) / passes < seconds:
        for index in order:
            t0 = time.perf_counter()
            run.execute(index, client.execute)
            latencies.append(time.perf_counter() - t0)
        passes += 1
        shuffle.shuffle(order)
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, checks, _ = run.gate()
    if len(latencies) < 100:
        failures.append(f"only {len(latencies)} queries; p90 needs at least 100")
    deciles = statistics.quantiles(latencies, n=10)
    metrics = {
        "setup_s": import_s + statistics.median(setup_times),
        "throughput_qps": len(latencies) / wall,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * deciles[8],
        "decided_ratio": run.decided_ratio(),
        "peak_rss_mb": peak_rss_mb,
    }
    return {"metrics": metrics, "units": END_TO_END, "attempted": len(latencies),
            "failed": run.errors, "failures": failures, "checks": checks,
            "samples": len(latencies), "passes": passes, "wall_s": wall,
            "distinct_queries": len(queries)}


def traced(workload: str, seed: int) -> dict:
    """Per-layer metrics from one traced pass, and the traced/untraced ratio
    from replaying its first half untraced (half keeps the run short)."""
    import client
    import inputs
    import tracing

    begin = time.perf_counter()
    tracer = tracing.Tracer()
    tracer.install()
    try:
        queries = inputs.generate(workload, seed)
    finally:
        tracer.uninstall()
    _warm_up(queries)

    run = _Run(queries)
    tracer.install()
    try:
        execute = tracer.wrap("query", "client", client.execute)
        for index in range(len(queries)):
            tracer.begin_query(index)
            run.execute(index, execute)
    finally:
        tracer.uninstall()

    replay = len(queries) // 2
    traced_s = sum(span.duration for span in tracer.spans
                   if span.name == "query" and span.query < replay)
    start = time.perf_counter()
    for index in range(replay):
        run.execute(index, client.execute)
    untraced_s = time.perf_counter() - start

    failures, checks, verify_s = run.gate()
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["oracle.verify_s"] = verify_s
    metrics["oracle.verify_calls"] = checks
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{workload}-{seed}.jsonl.gz"
    with gzip.open(spans_path, "wt") as handle:
        tracer.write(handle)
    print(f"# {len(tracer.spans)} spans written to {spans_path}")
    return {"metrics": metrics, "units": tracing.PER_LAYER, "attempted": len(queries),
            "failed": run.errors, "failures": failures, "checks": checks,
            "samples": len(queries), "passes": 1, "wall_s": time.perf_counter() - begin,
            "distinct_queries": len(queries)}


def _report(workload: str, out: dict) -> dict:
    print(f"# {workload}: {out['samples']} queries ({out['distinct_queries']} distinct, "
          f"{out['passes']} full passes) in {out['wall_s']:.2f} s; "
          f"{out['checks']} gate checks, {len(out['failures'])} failures")
    for name, value in out["metrics"].items():
        print(f"#   {name:32s} {value:14.6g} {out['units'][name]}")
    for failure in out["failures"]:
        print(f"GATE FAILURE: {failure}", file=sys.stderr)
    return {name: {"value": value, "unit": out["units"][name]}
            for name, value in out["metrics"].items()}


def _run_all(args) -> int:
    """Each workload in its own process, so peak memory is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1]) if lines else {"correct": False}
        combined["correct"] &= proc.returncode == 0 and result["correct"]
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return _run_all(args)
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP_BYTES, MEMORY_CAP_BYTES))
    import_s = _import_program()
    if args.trace:
        out = traced(args.workload, args.seed)
    else:
        out = measure(args.workload, args.seed, args.seconds, import_s)
    metrics = _report(args.workload, out)
    correct = not out["failures"]
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
