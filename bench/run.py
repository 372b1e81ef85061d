"""Layered benchmark of the schubert engine.

    python3 bench/run.py --workload {replay,big_ring,queries} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the engine is
imported from its ``src`` tree.  The run measures set-up (a fresh
interpreter importing ``schubert``, plus input generation, several times),
makes one checked warm-up pass, then repeats cold passes for ``--seconds``.
With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes and reports the per-layer
metrics.  Times are reported in reference seconds, corrected for the
speed of the shared host as sampled throughout the run (see speed.py).  The last line of stdout is the result object; the line before
it records what ran and where.  The exit code is 0 when every output
check passed, 1 when one failed and 2 when there is no engine to measure.
See README.md in this directory for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 7


def percentile(samples: list[float], q: int) -> float:
    if len(samples) < 2:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def git_sha() -> str | None:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        packed = (git / "packed-refs").read_text().splitlines()
    except OSError:
        return None
    return next((line.split()[0] for line in packed if line.endswith(" " + ref)), None)


def source_sha256() -> str:
    """Digest of the engine's sources, which identifies a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "schubert").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def measure_setup(make_workload) -> tuple[object, list[tuple[float, float]]]:
    """Fresh-interpreter import of the engine plus input generation, repeated;
    returns the workload and the (start, end) of each repeat."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); import schubert"
    intervals = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-I", "-c", code, str(SRC)],
            check=True, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
        )
        workload = make_workload()
        intervals.append((start, time.perf_counter()))
    return workload, intervals


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("replay", "big_ring", "queries"))
    parser.add_argument("--seed", type=int, default=1)  # the seed with a recorded query digest
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "schubert" / "__init__.py").is_file():
        print(f"error: no engine sources at {SRC / 'schubert'}; run inside a checkout",
              file=sys.stderr)
        return 2
    load_at_start = os.getloadavg()
    # One CPU for the whole run, so that the set-up's child interpreter
    # runs where the speed samples are taken.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    sys.path.insert(0, str(SRC))

    import schubert
    import tracing
    import workloads
    from speed import SpeedSampler

    caches = workloads.Caches(schubert)
    workload_cls = workloads.WORKLOADS[args.workload]
    tracer = tracing.Tracer()
    speed = SpeedSampler()
    untraced, traced, layers = [], [], []
    speed.start()
    try:
        workload, setup_intervals = measure_setup(lambda: workload_cls(args.seed, caches))
        passes = [workload.run_pass()]  # warm-up: checked, not timed
        deadline = time.perf_counter() + args.seconds
        while not untraced or time.perf_counter() < deadline:
            untraced.append(workload.run_pass())
            if args.trace:
                tracer.install(schubert)
                tracer.reset()
                speed.on_sample = tracer.exclude
                try:
                    result = workload.run_pass()
                finally:
                    speed.on_sample = None
                    tracer.uninstall()
                traced.append(result)
                scale = speed.scale(result.intervals[0][0], result.intervals[-1][1])
                layers.append(
                    tracing.layer_metrics(tracer, result.segments, result.stdout_bytes, scale)
                )
    finally:
        speed.stop()
    passes += untraced + traced

    def request_seconds(p) -> list[float]:
        """Reference seconds of each request of a pass."""
        spans = [speed.reference_seconds(a, b) for a, b in p.intervals]
        return spans if workload.requests_per_pass > 1 else [sum(spans)]

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    good = [p for p in untraced if p.ok]
    errors = [e for p in passes for e in p.errors]
    for line in errors[:10]:
        print(f"check failed: {line}", file=sys.stderr)

    good_requests = [request_seconds(p) for p in good]
    pass_s = [sum(r) for r in good_requests]
    metrics = {}
    if args.trace:
        if good and all(p.ok for p in traced):
            for name, unit in tracing.PER_LAYER:
                if name != "trace.overhead_ratio":
                    value = statistics.median(snap[name] for snap in layers)
                    metrics[name] = {"value": value, "unit": unit}
            overhead = statistics.median(
                sum(request_seconds(p)) for p in traced
            ) / statistics.median(pass_s)
            metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
    elif good:
        if workload.requests_per_pass > 1:
            # Percentiles of each pass, then their median over the passes,
            # so that a brief slowdown of the machine moves one pass only.
            p50 = statistics.median(statistics.median(r) for r in good_requests)
            p99 = statistics.median(percentile(r, 99) for r in good_requests)
        else:
            p50, p99 = statistics.median(pass_s), percentile(pass_s, 99)
        metrics = {
            "wall_s": {"value": statistics.median(pass_s), "unit": "s"},
            "query_ms.p50": {"value": 1000 * p50, "unit": "ms"},
            "query_ms.p99": {"value": 1000 * p99, "unit": "ms"},
            "queries_per_s": {
                "value": workload.requests_per_pass / statistics.median(pass_s), "unit": "1/s"
            },
        }
    setup_s = [speed.reference_seconds(a, b) for a, b in setup_intervals]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
        metrics["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "loadavg_at_start": load_at_start,
        "passes": {
            "warmup": 1,
            "untraced": len(untraced),
            "traced": len(traced),
            "failed": sum(not p.ok for p in passes),
        },
        "requests_per_pass": workload.requests_per_pass,
        "latency_samples": sum(len(r) for r in good_requests),
        "times_in": "reference seconds (speed.py) unless named wall",
        "pass_s": pass_s,
        "pass_wall_s": [sum(b - a for a, b in p.intervals) for p in good],
        "error_rate": failed / attempted,
        "setup_samples_s": setup_s,
        "setup_samples_wall_s": [b - a for a, b in setup_intervals],
        "speed_kernel": speed.kernel_stats(),
        "peak_rss_mb": peak_rss_mb,
        "cache_entries_end_of_pass": {
            name: info.currsize for name, info in passes[-1].segments[-1].items()
        },
    }
    if args.trace:
        report["layer_counts"] = tracing.count_report(
            layers, workloads.REPLAY_EXACT_COUNTS if args.workload == "replay" else {}
        )
    print(json.dumps({"report": report}, sort_keys=True))
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
