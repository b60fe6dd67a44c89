"""One benchmark process for one workload.

    python3 steerbench/worker.py --workload W --seed N --seconds S --trace 0|1 [--setup-only]

The process imports steerdist from the checkout's ``src`` and times that
import plus the generation of the warm-up inputs (set-up).  It then runs
the requests one after another through ``steerdist.cli.main(argv)`` with
stdout captured: a closed loop with a single client and no threads.  Only
the call itself is timed; every output is checked against its oracle
afterwards.  Timed chunks run until their summed request time reaches
``--seconds``, and at least MIN_CHUNKS of them.

With ``--trace 1`` odd chunks run with the tracer installed and even
chunks without it; per-layer figures come from the traced chunks and the
tracing overhead from the difference of the two.

The last line of stdout is one JSON object with the measurements.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

MIN_CHUNKS = 3
MIN_CHUNKS_TRACED = 4
# Failure reasons kept in the record.
MAX_REASONS = 20


def import_steerdist() -> float:
    """Import steerdist from the checkout; returns the import time in seconds."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import steerdist
    import steerdist.cli  # noqa: F401
    elapsed = time.perf_counter() - start
    if Path(steerdist.__file__).resolve().parent != (SRC / "steerdist").resolve():
        raise SystemExit(f"steerdist imported from {steerdist.__file__}, not from {SRC}")
    return elapsed


def run_request(cli, check, request, workdir: str, name: str) -> tuple[float, str | None]:
    """Run one request through ``cli.main`` and its output through ``check``.

    Returns (seconds spent in cli.main, failure reason or None).
    """
    argv = request.argv_for(workdir, name)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except (Exception, SystemExit) as exc:
        return time.perf_counter() - start, f"{argv[0]} raised {exc!r}"
    elapsed = time.perf_counter() - start
    if code != 0:
        return elapsed, f"{argv[0]} exited {code}: {err.getvalue().strip()[:200]}"
    reason = check(request, out.getvalue())
    return elapsed, None if reason is None else f"{' '.join(argv)}: {reason}"


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with ten requests beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


class Session:
    """State of one workload process: counts, latencies and failures."""

    def __init__(self, cli, workdir: str, tracer=None):
        import oracles

        self.cli = cli
        self.check = oracles.check
        self.workdir = workdir
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []

    def run(self, requests) -> list[float]:
        latencies = []
        for request in requests:
            self.attempted += 1
            if self.tracer is not None:
                self.tracer.request_id = self.attempted
            elapsed, reason = run_request(
                self.cli, self.check, request, self.workdir, f"req{self.attempted}.json"
            )
            if reason is not None:
                self.failures.append(reason)
            latencies.append(elapsed)
        return latencies


def provenance(args, request_digest: str, chunks: int) -> dict:
    import numpy as np
    import steerdist

    src_hash = hashlib.sha256()
    for path in sorted((SRC / "steerdist").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "steerdist": steerdist.__version__,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "git_commit": git_commit(),
        "src_sha256": src_hash.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "request_digest": request_digest,
        "timed_chunks": chunks,
    }


def git_commit() -> str:
    """HEAD of the checkout read from its .git directory, without running git."""
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


def per_layer(tracer, traced_walls, untraced_walls) -> dict[str, float]:
    from tracer import COUNT_NAMES, SPAN_NAMES

    chunks = len(traced_walls)
    traced_total = sum(traced_walls)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_pct"] = 100.0 * tracer.self_s[name] / traced_total
        metrics[f"{name}.calls"] = tracer.calls[name] / chunks
    for name in COUNT_NAMES:
        metrics[name] = tracer.counts[name] / chunks
    traced = statistics.median(traced_walls)
    untraced = statistics.median(untraced_walls)
    metrics["trace.wall_s"] = traced
    metrics["trace.untraced_wall_s"] = untraced
    metrics["trace.overhead_s"] = traced - untraced
    metrics["trace.span_coverage_pct"] = 100.0 * sum(tracer.self_s.values()) / traced_total
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small Monte Carlo sizes and steps")
    parser.add_argument("--setup-only", action="store_true", help="measure set-up and exit")
    args = parser.parse_args(argv)

    import_s = import_steerdist()
    start = time.perf_counter()
    import workloads

    warmup = workloads.warmup_requests(args.workload, args.seed, args.smoke)
    setup_s = import_s + time.perf_counter() - start
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    cli = sys.modules["steerdist.cli"]
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        session = Session(cli, str(workdir), tracer)
        warmup_latencies = session.run(warmup)
        all_requests = list(warmup)
        latencies, walls, traced_walls, traced_latencies = [], [], [], []
        min_chunks = MIN_CHUNKS_TRACED if args.trace else MIN_CHUNKS
        index = 0
        while index < min_chunks or sum(walls) + sum(traced_walls) < args.seconds:
            index += 1
            chunk = workloads.make_chunk(args.workload, args.seed, index, args.smoke)
            all_requests += chunk
            traced = tracer is not None and index % 2 == 1
            if traced:
                tracer.install()
            try:
                chunk_latencies = session.run(chunk)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_latencies if traced else latencies).extend(chunk_latencies)
            (traced_walls if traced else walls).append(sum(chunk_latencies))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "setup_s": setup_s,
        "attempted": session.attempted,
        "failed": len(session.failures),
        "failures": session.failures[:MAX_REASONS],
        "warmup_ms": [1e3 * t for t in warmup_latencies],
        "provenance": provenance(args, workloads.digest(all_requests), index),
    }
    if tracer is None:
        tail, tail_pct = tail_latency(latencies)
        result["metrics"] = {
            "wall_s": statistics.median(walls),
            "req_p50_ms": 1e3 * statistics.median(latencies),
            "req_tail_ms": 1e3 * tail,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        result["samples"] = len(latencies)
        result["tail_percentile"] = tail_pct
        if args.workload == "monte_carlo":
            trials = sum(r.spec["trials"] for r in all_requests[len(warmup):])
            result["trials_per_s"] = trials / sum(walls)
    else:
        result["metrics"] = per_layer(tracer, traced_walls, walls)
        result["samples"] = len(traced_latencies)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl.gz"
        tracer.write_spans(spans_path)
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["spans"] = len(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
