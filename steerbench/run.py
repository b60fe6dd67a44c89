"""Benchmark entry point for steerdist.

    python3 steerbench/run.py --workload optimal_scan|fixed_scan|monte_carlo \
        --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/steerdist``.  With ``--trace 0`` the
run measures set-up in SETUP_PROBES short processes plus the workload
process itself, then reports the end-to-end metrics of the untraced
workload process.  With ``--trace 1`` it reports per-layer metrics from a
traced workload process instead.  Human-readable lines come first; the
last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with
failures, sample counts and provenance, goes to ``steerbench/out/``.

Exits 2 without a result when the checkout has no steerdist sources, and
1 when a benchmark process fails.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
WORKER = BENCH_DIR / "worker.py"

SETUP_PROBES = 6
# Whole-run budget, under the 180 s a run may take.
BUDGET_S = 170.0


def run_worker(args, extra: list[str], deadline: float) -> dict:
    cmd = [
        sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    if args.smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[1:4])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="steerdist benchmark")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small sizes and one set-up probe, for the benchmark's tests")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "steerdist" / "__init__.py").is_file():
        print(f"error: no steerdist sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + BUDGET_S
    try:
        setup = []
        if not args.trace:
            probes = 1 if args.smoke else SETUP_PROBES
            setup = [run_worker(args, ["--setup-only"], deadline)["setup_s"] for _ in range(probes)]
        result = run_worker(args, [], deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    measured = result["metrics"]
    if not args.trace:
        setup.append(result["setup_s"])
        measured["setup_s"] = statistics.median(setup)
        result["setup_samples_s"] = setup
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    metrics = {name: measured[name] for name in units}
    attempted, failed = result["attempted"], result["failed"]

    OUT_DIR.mkdir(exist_ok=True)
    record = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record.write_text(json.dumps({**result, "metrics": metrics}, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    for name, value in metrics.items():
        print(f"{name:42s} {value:14.6g} {units[name]}")
    print(f"{'fail_frac':42s} {failed / attempted:14.6g} ({failed}/{attempted} requests)")
    if "trials_per_s" in result:
        print(f"{'trials_per_s':42s} {result['trials_per_s']:14.6g} 1/s")
    if not args.trace:
        print(f"# latency samples {result['samples']}, "
              f"tail at p{result['tail_percentile']:.2f}")
    for reason in result["failures"]:
        print(f"# FAILED {reason}")
    prov = result["provenance"]
    print("# " + " ".join(f"{k}={prov[k]}" for k in sorted(prov)))
    print(f"# record {record.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
