"""Record the reference witness roots that the threshold oracle compares against.

    python3 steerbench/record_roots.py

Writes ``reference_roots.json`` beside this file: one root per
(filter, N, scenario) that the workloads can request.  The committed file
was recorded from the steerdist sources it was benchmarked against first;
re-record only to extend it, never to make a changed program pass.
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from steerdist.cli import parse_filter, threshold_theta  # noqa: E402

from workloads import FIXED_KAPPAS, N_CHOICES  # noqa: E402

FILTERS = ("none", "asymptotic", "optimal") + tuple(f"fixed:{k}" for k in FIXED_KAPPAS)


def main() -> None:
    roots = {}
    for filter_arg in FILTERS:
        kind, kappa = parse_filter(filter_arg)
        for n in N_CHOICES:
            for scenario in ("1sdi", "2sdi"):
                roots[f"{filter_arg}/{n}/{scenario}"] = threshold_theta(kind, n, scenario, kappa)
    path = BENCH_DIR / "reference_roots.json"
    path.write_text(json.dumps(roots, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(roots)} roots to {path}")


if __name__ == "__main__":
    main()
