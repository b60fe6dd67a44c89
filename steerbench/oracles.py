"""Output oracles for the benchmark requests.

Every check here is computed without steerdist: closed forms from
``math``, a reference table of witness roots, a small numpy reference for
fidelities against the rank-one GHZ target, and the Philox draws replayed
chunk by chunk.  ``check`` returns None for a correct output and a short
reason otherwise.

Closed forms for the distilled GGHZ assemblage against the GHZ target
(c = cos theta, s = sin theta, p = kappa^2 c^2 + s^2, w_f = (1-p)^(N-1),
w_s = 1 - w_f, r = w_s / p).  Every GHZ target element is w|v><v| with
rank at most one, so an element's root fidelity is sqrt(w v^dag sigma v):

    f_X = f_Y = sqrt(((r (kappa c + s)^2 + w_f (c + s)^2) / 2)
    f_Z = sqrt(c^2 (r kappa^2 + w_f) / 2) + sqrt(s^2 (r + w_f) / 2)
    f   = min(f_X, f_Z),  the same in both scenarios
    C   = 2 c s (r kappa + w_f)
    S_1sdi = 1 + 0.1547 - (2 + 4 C) / 3
    S_2sdi = 1 - 3 * 0.1831 - 4 * 0.2582 C
"""
from __future__ import annotations

import functools
import json
import math
from pathlib import Path

import numpy as np

from workloads import gghz_elements

CSV_HEADER = "theta,n,filter,kappa,p_succ,f_1sdi,f_2sdi,s_1sdi,s_2sdi"
ROOTS_PATH = Path(__file__).resolve().parent / "reference_roots.json"

# The CLI prints CSV cells with 9 significant digits: half a unit in the
# 9th digit is at most 5e-9 of the value.
CSV_REL = 5.01e-9
# Deviation allowed between the program and the closed forms at full
# precision; the two agree to about 5e-15.
ABS_TOL = 1e-12
# The threshold bisection stops at a bracket of width 1e-6.
ROOT_TOL = 1e-6
# Criterion 2 of the acceptance suite bounds the two-copy optimum to 1e-6.
KAPPA_STAR_TOL = 1e-6
# Allowed distance of a Monte Carlo success fraction from its expectation.
MAX_Z = 5.0


def gghz_point(theta: float, kappa: float, n: int) -> dict[str, float]:
    """Total success probability, fidelity and witnesses of the distilled GGHZ."""
    c, s = math.cos(theta), math.sin(theta)
    p = kappa * kappa * c * c + s * s
    w_f = (1.0 - p) ** (n - 1)
    r = (1.0 - w_f) / p
    f_x = math.sqrt(0.5 * (r * (kappa * c + s) ** 2 + w_f * (c + s) ** 2))
    f_z = math.sqrt(0.5 * c * c * (r * kappa * kappa + w_f)) + math.sqrt(0.5 * s * s * (r + w_f))
    coherence = 2 * c * s * (r * kappa + w_f)
    return {
        "p_succ": 1.0 - w_f,
        "f": min(f_x, f_z),
        "s_1sdi": 1.0 + 0.1547 - (2.0 + 4.0 * coherence) / 3.0,
        "s_2sdi": 1.0 - 3 * 0.1831 - 4 * 0.2582 * coherence,
    }


def asymptotic_fidelity(theta: float, n: int) -> float:
    """N-copy fidelity with kappa = tan(theta)."""
    return math.sqrt(1.0 - 0.5 * (1.0 - math.sin(2 * theta)) * math.cos(2 * theta) ** (n - 1))


@functools.cache
def _ghz_target(scenario: str):
    """Target elements as u u^dag (u = sqrt(w) v), grouped by setting."""
    groups: dict[str, list[tuple[str, np.ndarray]]] = {}
    for key, m in gghz_elements(math.pi / 4, scenario).items():
        w, v = np.linalg.eigh(m)
        groups.setdefault(key.split("|")[1], []).append(
            (key, math.sqrt(max(w[-1], 0.0)) * v[:, -1])
        )
    return list(groups.values())


def distilled_fidelity(elements: dict[str, np.ndarray], scenario: str, kappa: float,
                       n: int) -> float:
    """Fidelity of the N-copy distilled assemblage against the GHZ target."""
    d = np.array([kappa, 1.0, kappa, 1.0] if scenario == "1sdi" else [kappa, 1.0])
    scale = np.outer(d, d)
    first_setting = "0" if scenario == "1sdi" else "00"
    p = sum(
        float(np.trace(scale * m).real) for k, m in elements.items()
        if k.split("|")[1] == first_setting
    )
    w_f = (1.0 - p) ** (n - 1)
    r = (1.0 - w_f) / p
    best = math.inf
    for group in _ghz_target(scenario):
        total = 0.0
        for key, u in group:
            sigma = r * scale * elements[key] + w_f * elements[key]
            total += math.sqrt(max(float(np.real(u.conj() @ sigma @ u)), 0.0))
        best = min(best, total)
    return best


def elements_from_doc(doc: dict) -> dict[str, np.ndarray]:
    return {
        k: np.array([[complex(re, im) for re, im in row] for row in rows])
        for k, rows in doc["elements"].items()
    }


@functools.cache
def reference_roots() -> dict[str, float]:
    return json.loads(ROOTS_PATH.read_text(encoding="utf-8"))


def philox_histogram(theta: float, kappa: float, n: int, trials: int, seed: int,
                     chunk: int = 1 << 16) -> dict[str, int]:
    """Bit-string histogram of the protocol, replayed from the Philox draws.

    Draws come in row chunks of the same (trials, n-1) stream, which the
    generator yields identically, so memory stays bounded.  Keys are the
    filter failure bits of copies 1..N-1 followed by the run success bit.
    """
    p = kappa * kappa * math.cos(theta) ** 2 + math.sin(theta) ** 2
    m = n - 1
    rng = np.random.Generator(np.random.Philox(key=seed))
    weights = 1 << np.arange(m - 1, -1, -1, dtype=np.int64)
    counts = np.zeros(1 << m, dtype=np.int64)
    left = trials
    while left:
        rows = min(chunk, left)
        codes = (rng.random((rows, m)) >= p).astype(np.int64) @ weights
        counts += np.bincount(codes, minlength=1 << m)
        left -= rows
    all_failed = (1 << m) - 1
    return {
        format(code, f"0{m}b") + ("0" if code == all_failed else "1"): int(count)
        for code, count in enumerate(counts) if count
    }


def _close(value, ref: float, tol: float) -> bool:
    return value is not None and math.isfinite(value) and abs(value - ref) <= tol


def _parse_sweep(text: str, fmt: str) -> list[dict]:
    if fmt == "json":
        return json.loads(text)
    lines = text.splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError("missing CSV header")
    names = CSV_HEADER.split(",")
    rows = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(names):
            raise ValueError(f"CSV row has {len(cells)} cells")
        row = dict(zip(names, cells))
        for k in names:
            if k == "n":
                row[k] = int(row[k])
            elif k != "filter":
                row[k] = float(row[k]) if row[k] else None
        rows.append(row)
    return rows


def _kappa_for(filter_arg: str, theta: float) -> float | None:
    if filter_arg == "none":
        return 1.0
    if filter_arg == "asymptotic":
        return math.tan(theta)
    if filter_arg.startswith("fixed:"):
        return float(filter_arg.split(":", 1)[1])
    return None


def check_sweep(spec: dict, text: str) -> str | None:
    fmt, n, filter_arg, scenario = spec["format"], spec["n"], spec["filter"], spec["scenario"]
    rows = _parse_sweep(text, fmt)
    steps = spec["steps"]
    if len(rows) != steps:
        return f"{len(rows)} rows, expected {steps}"
    rel = CSV_REL if fmt == "csv" else 0.0

    def tol(ref: float) -> float:
        return rel * abs(ref) + ABS_TOL

    lo, hi = spec["theta_min"], spec["theta_max"]
    for i, row in enumerate(rows):
        theta = hi if i == steps - 1 else lo + i * (hi - lo) / (steps - 1)
        if not _close(row["theta"], theta, tol(theta) + 1e-15):
            return f"row {i}: theta {row['theta']} != {theta}"
        if row["n"] != n or row["filter"] != filter_arg.split(":")[0]:
            return f"row {i}: n/filter echo {row['n']}/{row['filter']}"
        kappa = _kappa_for(filter_arg, theta)
        if kappa is None:
            kappa = row["kappa"]
            if kappa is None or not 0.0 <= kappa <= 1.0:
                return f"row {i}: optimal kappa {kappa} outside [0, 1]"
            if n == 2 and abs(kappa - 1 / (2 * math.cos(theta) ** 2)) > KAPPA_STAR_TOL:
                return f"row {i}: two-copy optimum {kappa} != 1/(2 cos^2 theta)"
        elif not _close(row["kappa"], kappa, tol(kappa)):
            return f"row {i}: kappa {row['kappa']} != {kappa}"
        ref = gghz_point(theta, kappa, n)
        # A kappa read back from a CSV cell is rounded; widen each bound by
        # how far the closed form moves within that rounding.
        dk = rel * kappa
        spread = {
            q: max(abs(gghz_point(theta, min(kappa + dk, 1.0), n)[q] - ref[q]),
                   abs(gghz_point(theta, kappa - dk, n)[q] - ref[q]))
            for q in ref
        } if dk else dict.fromkeys(ref, 0.0)
        if not _close(row["p_succ"], ref["p_succ"], tol(ref["p_succ"]) + spread["p_succ"]):
            return f"row {i}: p_succ {row['p_succ']} != {ref['p_succ']}"
        for sc in ("1sdi", "2sdi"):
            f, s = row[f"f_{sc}"], row[f"s_{sc}"]
            if scenario not in (sc, "both"):
                if f is not None or s is not None:
                    return f"row {i}: unexpected {sc} columns"
                continue
            if not _close(f, ref["f"], tol(ref["f"]) + spread["f"]):
                return f"row {i}: f_{sc} {f} != {ref['f']}"
            if not 0.0 <= f <= 1.0 + ABS_TOL:
                return f"row {i}: f_{sc} {f} outside [0, 1]"
            if not _close(s, ref[f"s_{sc}"], tol(ref[f"s_{sc}"]) + spread[f"s_{sc}"]):
                return f"row {i}: s_{sc} {s} != {ref[f's_{sc}']}"
        if scenario == "both" and not _close(row["f_1sdi"], row["f_2sdi"], 2 * tol(ref["f"])):
            return f"row {i}: f_1sdi {row['f_1sdi']} != f_2sdi {row['f_2sdi']}"
        if filter_arg == "optimal":
            f_asym = asymptotic_fidelity(theta, n)
            if row["f_1sdi"] < f_asym - tol(f_asym) - spread["f"]:
                return f"row {i}: optimal f {row['f_1sdi']} below asymptotic {f_asym}"
    return None


def check_threshold(spec: dict, text: str) -> str | None:
    doc = json.loads(text)
    if (doc["filter"], doc["n"], doc["scenario"]) != (
        spec["filter"].split(":")[0], spec["n"], spec["scenario"]
    ):
        return f"echo mismatch {doc['filter']}/{doc['n']}/{doc['scenario']}"
    ref = reference_roots()[f"{spec['filter']}/{spec['n']}/{spec['scenario']}"]
    if not _close(doc["theta_root"], ref, ROOT_TOL):
        return f"root {doc['theta_root']} != reference {ref}"
    return None


def check_optimize(spec: dict, assemblage: dict, text: str) -> str | None:
    doc = json.loads(text)
    if doc["n"] != spec["n"]:
        return f"n echo {doc['n']}"
    kappa, f_star = doc["kappa_star"], doc["f_star"]
    if not 0.0 <= kappa <= 1.0:
        return f"kappa_star {kappa} outside [0, 1]"
    elements = elements_from_doc(assemblage)
    scenario, n = assemblage["scenario"], spec["n"]
    f_ref = distilled_fidelity(elements, scenario, kappa, n)
    if not _close(f_star, f_ref, ABS_TOL):
        return f"f_star {f_star} != reference fidelity {f_ref} at kappa_star"
    grid_best = max(distilled_fidelity(elements, scenario, k, n) for k in np.linspace(0, 1, 101))
    if f_star < grid_best - ABS_TOL:
        return f"f_star {f_star} below the best grid fidelity {grid_best}"
    return None


def check_simulate(spec: dict, text: str) -> str | None:
    doc = json.loads(text)
    for key, name in (("theta", "theta"), ("kappa", "kappa"), ("n", "n_copies"),
                      ("trials", "trials"), ("seed", "seed")):
        if doc[name] != spec[key]:
            return f"{name} echo {doc[name]} != {spec[key]}"
    theta, kappa, n, trials = spec["theta"], spec["kappa"], spec["n"], spec["trials"]
    hist = philox_histogram(theta, kappa, n, trials, spec["seed"])
    if doc["bitstring_histogram"] != hist:
        return "histogram differs from the Philox replay"
    successes = sum(c for key, c in hist.items() if key.endswith("1"))
    if doc["success_count"] != successes:
        return f"success_count {doc['success_count']} != {successes}"
    if doc["success_fraction"] != successes / trials:
        return f"success_fraction {doc['success_fraction']} != {successes}/{trials}"
    p_total = gghz_point(theta, kappa, n)["p_succ"]
    std_err = math.sqrt(p_total * (1.0 - p_total) / trials)
    if abs(successes / trials - p_total) > MAX_Z * std_err + ABS_TOL:
        return f"success fraction {successes / trials} beyond {MAX_Z} SE of {p_total}"
    return None


def check(request, text: str) -> str | None:
    """None when ``text``, the stdout of ``request``, passes its oracle."""
    try:
        if request.kind == "sweep":
            return check_sweep(request.spec, text)
        if request.kind == "threshold":
            return check_threshold(request.spec, text)
        if request.kind == "optimize":
            return check_optimize(request.spec, request.assemblage, text)
        return check_simulate(request.spec, text)
    except (ValueError, KeyError, TypeError) as exc:
        return f"unparseable output: {exc!r}"
