"""Command-line interface: theta/N sweeps, witness-threshold search, filter
optimization, Monte Carlo runs and assemblage JSON linting.

Data goes to stdout (or --out); diagnostics go to stderr.  Exit status is
0 only when the command completed without errors (for ``validate``, only
when the assemblage is valid).
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import asdict, dataclass, fields
from operator import attrgetter

import numpy as np

from .assemblage import (
    Assemblage,
    Scenario,
    _gghz_stacks,
    _valid_rows,
    ghz_assemblage,
    require_valid,
    validate,
)
from .distillation import (
    _branch_weights,
    _distilled,
    asymptotic_kappa,
    check_copies,
    check_kappa,
    optimize_kappa,
    two_copy_optimal_kappa,
)
from .errors import (
    BadArgumentError,
    NoSignChangeError,
    SteerdistError,
    ThetaOutOfRangeError,
    check_integer,
    check_real,
    check_sequence,
)
from .metrics import _fidelities, _witness_values
from .protocol import run_protocol, single_copy_success_probability
from .states import THETA_MAX

CSV_HEADER = "theta,n,filter,kappa,p_succ,f_1sdi,f_2sdi,s_1sdi,s_2sdi"
# Grid points a sweep may ask for, exclusive.
MAX_STEPS = 10**6
# Sweeps score this many grid points at a time, in about 2 MB.
THETA_BLOCK = 256
# Known-kappa thresholds score the midpoints of this many bisection levels,
# 2**BISECT_LEVELS - 1 points, at a time.
BISECT_LEVELS = 3


@dataclass
class SweepRow:
    """One sweep point; the fields are the CSV_HEADER columns, in order."""

    theta: float
    n_copies: int
    filter_kind: str
    kappa: float
    p_succ_total: float
    f_1sdi: float | None = None
    f_2sdi: float | None = None
    s_1sdi: float | None = None
    s_2sdi: float | None = None

    def to_csv(self) -> str:
        return ",".join(map(_fmt, _row_cells(self)))

    def to_json_dict(self) -> dict:
        return dict(zip(_CSV_COLUMNS, _row_cells(self)))


# The fields' values, in order; the cells are numbers, text or None, so no copy is needed.
_row_cells = attrgetter(*(f.name for f in fields(SweepRow)))
_CSV_COLUMNS = tuple(CSV_HEADER.split(","))


def _fmt(v) -> str:
    # The one cell rule: None is a skipped scenario; str keeps every digit of n.
    if v is None:
        return ""
    return format(v, ".9g") if isinstance(v, float) else str(v)


def parse_filter(text: str):
    """Parse --filter into (kind, fixed_kappa_or_None)."""
    if text.startswith("fixed:"):
        return "fixed", float(text.split(":", 1)[1])
    if text in ("none", "optimal", "asymptotic"):
        return text, None
    raise argparse.ArgumentTypeError(
        f"filter must be none|optimal|asymptotic|fixed:<kappa>, got {text!r}"
    )


def resolve_kappa(filter_kind, fixed_kappa, theta, n_copies) -> float:
    """Filter strength for one grid point.

    The "optimal" kind maximizes the one-sided fidelity; for GGHZ inputs
    the two scenarios share the same optimum.
    """
    if filter_kind == "none":
        return 1.0
    if filter_kind == "asymptotic":
        return asymptotic_kappa(theta)
    if filter_kind == "fixed":
        return check_kappa(fixed_kappa)
    if filter_kind == "optimal":
        return optimize_kappa(theta, n_copies).kappa_star
    raise BadArgumentError(f"filter must be none|optimal|asymptotic|fixed, got {filter_kind!r}")


def _scenarios(scenario) -> tuple[Scenario, ...]:
    return tuple(Scenario) if scenario == "both" else (Scenario(scenario),)


def _distilled_block(thetas, kappas, n_copies, sc: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Distilled GGHZ stacks (T, E, d, d), one per (theta, kappa), and their (T,) validity mask."""
    stacks = _distilled(_gghz_stacks(thetas, sc), kappas, check_copies(n_copies), sc)
    return stacks, _valid_rows(stacks, sc)


def _block_rows(thetas, kappas, n_copies, filter_kind, scenarios):
    """One SweepRow per (theta, kappa) of a block, scored from (T, E, d, d) stacks.

    Rows are yielded up to the first theta whose distilled stack is invalid
    in some scenario; there ``require_valid`` raises its error.
    """
    n = check_copies(n_copies)
    p = np.array([single_copy_success_probability(t, k) for t, k in zip(thetas, kappas)])
    rows = [SweepRow(check_real(t, "theta"), n, filter_kind, check_kappa(k), p_succ)
            for t, k, p_succ in zip(thetas, kappas, _branch_weights(p, n)[1].tolist())]
    blocks = [_distilled_block(thetas, kappas, n_copies, sc) for sc in scenarios]
    valid = np.logical_and.reduce([ok for _, ok in blocks])
    good = len(rows) if valid.all() else int(np.argmin(valid))
    for sc, (stacks, _) in zip(scenarios, blocks):
        fidelities = _fidelities(stacks[:good], ghz_assemblage(sc)).tolist()
        for row, f, s in zip(rows, fidelities, _witness_values(stacks[:good], sc).tolist()):
            setattr(row, f"f_{sc.value}", f)
            setattr(row, f"s_{sc.value}", s)
    yield from rows[:good]
    if good < len(rows):
        for sc, (stacks, _) in zip(scenarios, blocks):
            require_valid(Assemblage._of_stack(sc, stacks[good], thetas[good]))


def _grid(lo: float, hi: float, steps: int, start: int, stop: int) -> np.ndarray:
    """Points start..stop-1 of np.linspace(lo, hi, steps), computed as linspace computes them."""
    div = steps - 1
    delta = np.subtract(hi, lo)
    step = delta / div
    y = np.arange(start, stop, dtype=float)
    if step == 0:   # subnormal spacing: linspace divides first
        y /= div
        y *= delta
    else:
        y *= step
    y += lo
    if stop == steps:
        y[-1] = hi
    return y


def _bracket(lo, hi, lo_name: str, hi_name: str) -> tuple[float, float]:
    """Two angles in [0, THETA_MAX] with ``lo < hi``; anything else raises ThetaOutOfRangeError."""
    top = THETA_MAX + 1e-12
    lo = check_real(lo, lo_name, 0.0, top, ThetaOutOfRangeError)
    hi = check_real(hi, hi_name, 0.0, top, ThetaOutOfRangeError)
    if hi <= lo:
        raise ThetaOutOfRangeError(
            f"{hi_name} must be greater than {lo_name}, got {hi_name}={hi!r}, {lo_name}={lo!r}"
        )
    return lo, hi


def sweep_rows(theta_min, theta_max, steps, n_copies, filter_kind, fixed_kappa=None,
               scenario="both"):
    """One SweepRow per point of the grid np.linspace(theta_min, theta_max, steps).

    The grid is made and scored THETA_BLOCK points at a time: every filter
    resolves the kappa of each point of a block first, then the block is
    scored from stacked arrays, with the numbers of a per-point distill,
    fidelity and witness.
    """
    theta_min, theta_max = _bracket(theta_min, theta_max, "theta_min", "theta_max")
    steps = check_integer(steps, "steps", 2, MAX_STEPS)
    scenarios = _scenarios(scenario)
    for start in range(0, steps, THETA_BLOCK):
        thetas = _grid(theta_min, theta_max, steps, start, min(start + THETA_BLOCK, steps))
        kappas = [resolve_kappa(filter_kind, fixed_kappa, t, n_copies) for t in thetas]
        yield from _block_rows(thetas, kappas, n_copies, filter_kind, scenarios)


def _bisection_points(lo: float, hi: float, tol: float, levels: int) -> list[float]:
    """Every midpoint that the next ``levels`` steps of bisecting [lo, hi] can visit."""
    points, brackets = [], [(lo, hi)]
    for _ in range(levels):
        inner = []
        for a, b in brackets:
            mid = (a + b) / 2
            if b - a > tol and a < mid < b:
                points.append(mid)
                inner += [(a, mid), (mid, b)]
        brackets = inner
    return points


def threshold_theta(filter_kind, n_copies, scenario="1sdi", fixed_kappa=None,
                    lo=0.01, hi=THETA_MAX, tol=1e-6):
    """Bisect the witness zero of the (possibly distilled) GGHZ assemblage.

    The bracket is halved until it is at most ``tol`` wide or its midpoint
    is no longer strictly inside it.  Every filter scores its points in
    blocks of stacked arrays, with the numbers of a per-point witness, and
    the steps read their values from them.  A block holds the midpoints of
    the next BISECT_LEVELS steps, or of the next step only for "optimal",
    where every point costs one optimizer run.
    """
    sc = Scenario(scenario)
    lo, hi = _bracket(lo, hi, "lo", "hi")
    tol = check_real(tol, "tol", np.nextafter(0.0, 1.0))
    levels = 1 if filter_kind == "optimal" else BISECT_LEVELS
    # theta -> witness value; an invalid distilled stack waits here until visited
    scored: dict[float, float | np.ndarray] = {}

    def score(thetas) -> None:
        kappas = [resolve_kappa(filter_kind, fixed_kappa, t, n_copies) for t in thetas]
        stacks, valid = _distilled_block(thetas, kappas, n_copies, sc)
        values = iter(_witness_values(stacks[valid], sc).tolist())
        for theta, stack, ok in zip(thetas, stacks, valid):
            scored[theta] = next(values) if ok else stack

    def s_of(theta: float) -> float:
        s = scored[theta]
        if isinstance(s, np.ndarray):
            require_valid(Assemblage._of_stack(sc, s, theta))   # raises the witness's error
        return s

    score([lo, hi, *_bisection_points(lo, hi, tol, levels - 1)])
    s_lo, s_hi = s_of(lo), s_of(hi)
    if s_lo == 0.0:
        return lo
    if s_hi == 0.0:
        return hi
    if (s_lo > 0) == (s_hi > 0):
        raise NoSignChangeError(
            f"witness has sign {'+' if s_lo > 0 else '-'} at both ends of "
            f"[{lo}, {hi}] for filter={filter_kind}, n={n_copies}"
        )
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:   # the bracket is one float step wide
            break
        if mid not in scored:
            score(_bisection_points(lo, hi, tol, levels))
        s_mid = s_of(mid)
        if s_mid == 0.0:
            return mid
        if (s_mid > 0) == (s_lo > 0):
            lo, s_lo = mid, s_mid
        else:
            hi = mid
    return (lo + hi) / 2


def _emit(text: str, out_path) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_json(doc, out_path) -> None:
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", out_path)


def cmd_sweep(args) -> int:
    rows = sweep_rows(args.theta_min, args.theta_max, args.steps, args.n, *args.filter,
                      args.scenario)
    if args.format == "csv":
        _emit("\n".join([CSV_HEADER, *(r.to_csv() for r in rows)]) + "\n", args.out)
    else:
        _emit_json([r.to_json_dict() for r in rows], args.out)
    return 0


def cmd_threshold(args) -> int:
    root = threshold_theta(args.filter[0], args.n, args.scenario, args.filter[1])
    _emit_json(
        {
            "theta_root": root,
            "filter": args.filter[0],
            "n": args.n,
            "scenario": args.scenario,
        },
        args.out,
    )
    return 0


def cmd_optimize(args) -> int:
    if (args.theta is None) == (args.assemblage is None):
        raise BadArgumentError("provide exactly one of --theta or --assemblage")
    source = args.theta if args.theta is not None else Assemblage.load(args.assemblage)
    result = optimize_kappa(source, args.n, scenario=args.scenario)
    doc = {**asdict(result), "n": args.n}
    if args.theta is not None and args.n == 2:
        # comparison point: the analytic two-copy optimum for GGHZ inputs
        doc["closed_form_kappa"] = two_copy_optimal_kappa(args.theta)
    _emit_json(doc, args.out)
    return 0


def cmd_simulate(args) -> int:
    outcome = run_protocol(args.theta, args.kappa, args.n, args.trials, args.seed)
    _emit_json(outcome.to_json_dict(), args.out)
    return 0


def cmd_validate(args) -> int:
    asm = Assemblage.load(args.assemblage)
    report = validate(asm)
    _emit_json(report.to_json_dict(), args.out)
    if not report.ok:
        print(f"{args.assemblage}: {len(report.violations)} violation(s)", file=sys.stderr)
        return 1
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerdist",
        description="Tripartite steering distillation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None, help="write output to this path")

    p = sub.add_parser("sweep", help="theta sweep of fidelity and witness values")
    p.add_argument("--theta-min", type=float, default=0.0)
    p.add_argument("--theta-max", type=float, default=THETA_MAX)
    p.add_argument("--steps", type=int, default=50)
    p.add_argument("--n", type=int, default=2, help="number of copies")
    p.add_argument("--filter", type=parse_filter, default=("none", None),
                   help="none|optimal|asymptotic|fixed:<kappa>")
    p.add_argument("--scenario", choices=("1sdi", "2sdi", "both"), default="both")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("threshold", help="bisect the witness sign change over theta")
    p.add_argument("--filter", type=parse_filter, default=("none", None))
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--scenario", choices=("1sdi", "2sdi"), default="1sdi")
    add_common(p)
    p.set_defaults(func=cmd_threshold)

    p = sub.add_parser("optimize", help="maximize distilled fidelity over kappa")
    p.add_argument("--theta", type=float, default=None)
    p.add_argument("--assemblage", default=None, help="assemblage JSON file")
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--scenario", choices=("1sdi", "2sdi"), default=None,
                   help="--theta source: default 1sdi; --assemblage: must match the file")
    add_common(p)
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("simulate", help="seeded Monte Carlo of the protocol")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--n", type=int, default=2)
    p.add_argument("--trials", type=int, default=100000)
    p.add_argument("--seed", type=int, default=0)
    add_common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("validate", help="lint an assemblage JSON file")
    p.add_argument("assemblage", help="assemblage JSON file")
    add_common(p)
    p.set_defaults(func=cmd_validate)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call: parse_args keeps no state between calls, and
    # the one-shot process pays for it once either way.
    return build_parser()


def _check_argv(argv) -> tuple[str, ...]:
    argv = check_sequence(argv, "argv")
    for item in argv:
        if not isinstance(item, str):
            raise BadArgumentError(f"argv items must be str, got {item!r}")
    return argv


def main(argv=None) -> int:
    """Run one command; ``argv`` defaults to ``sys.argv[1:]``.

    Repeated calls in one process share one parser.
    """
    try:
        args = _parser().parse_args(None if argv is None else _check_argv(argv))
        return args.func(args)
    except (SteerdistError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
