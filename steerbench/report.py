"""Run the benchmark over several seeds and summarize each metric.

    python3 steerbench/report.py [--workloads a,b] [--seeds 10] [--first-seed 1]
                                 [--seconds 25] [--trace 0|1] [--save name]
    python3 steerbench/report.py --compare A.json B.json

For every workload and metric this prints the median over seeds, the
quartiles and the spread (Q3 - Q1) / median next to the metric's bound
from BENCHMARK.json.  Seeds go round the workloads in turn, so slow drift
of the machine spreads over all of them.  ``--save`` writes the values to
``steerbench/out/<name>.json``; ``--compare`` prints, for two saved runs,
how far each median of the second moved against the first, as a share of
the first, next to the bound.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """(median, Q1, Q3, (Q3 - Q1) / median) as statistics.quantiles gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd[1:])} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: dict, bounds: dict) -> None:
    for workload, runs in values.items():
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        print(f"\n{workload}: {len(runs)} runs, fail_frac {failed / attempted:.3g} "
              f"({failed}/{attempted})")
        print(f"  {'metric':42s} {'median':>12s} {'Q1':>12s} {'Q3':>12s} {'spread':>8s} "
              f"{'bound':>6s}")
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            unit = runs[0]["metrics"][name]["unit"]
            if len(vals) < 2:
                print(f"  {name:42s} {vals[0]:12.6g} {unit}")
                continue
            med, q1, q3, share = spread(vals)
            bound = bounds.get(name)
            print(f"  {name:42s} {med:12.6g} {q1:12.6g} {q3:12.6g} {share:8.2%} "
                  f"{'' if bound is None else f'{bound:6.0%}'} {unit}")


def compare(path_a: str, path_b: str, bounds: dict) -> None:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    for workload in a:
        if workload not in b:
            continue
        print(f"\n{workload}")
        for name in a[workload][0]["metrics"]:
            med_a = statistics.median(r["metrics"][name]["value"] for r in a[workload])
            med_b = statistics.median(r["metrics"][name]["value"] for r in b[workload])
            change = (med_b - med_a) / med_a if med_a else float("nan")
            bound = bounds.get(name)
            print(f"  {name:42s} {med_a:12.6g} -> {med_b:12.6g} {change:+8.2%} "
                  f"{'' if bound is None else f'bound {bound:.0%}'}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", default=None, help="file name under steerbench/out/")
    parser.add_argument("--compare", nargs=2, metavar=("A", "B"), default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.compare:
        compare(*args.compare, bounds)
        return 0

    workloads = args.workloads.split(",")
    values: dict[str, list] = {w: [] for w in workloads}
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in workloads:
            values[workload].append(run_one(workload, seed, args.seconds, args.trace))
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
    if args.save:
        OUT_DIR.mkdir(exist_ok=True)
        (OUT_DIR / f"{args.save}.json").write_text(json.dumps(values, indent=1) + "\n")
    summarize(values, bounds)
    return 0


if __name__ == "__main__":
    sys.exit(main())
