"""Seeded request lists for the steerdist benchmark workloads.

A workload is an unbounded sequence of chunks of CLI requests.  Chunk ``k``
of workload ``w`` under seed ``s`` is drawn from a generator keyed by
``(s, w, k)``, so one seed gives the same requests however many chunks a
run gets through.  Chunk 0 is the warm-up; the timed phase starts at
chunk 1.

Every chunk of a workload has the same shape: the same commands,
scenarios and Monte Carlo sizes, in a seeded order.  What the seed varies
is what a program could exploit or be sensitive to: theta sub-ranges, N,
filter kinds and kappas, output formats, noise levels, Monte Carlo seeds.
A fixed shape keeps the cost of a chunk, and the request class that sits
at the median and at the tail, the same across chunks and seeds.

This module does not import steerdist; the noisy assemblages that
``optimize --assemblage`` reads are built here from the README's
conventions (qubit order A, B, C; outcome a of observable O projects on
(1 + (-1)**a O) / 2; settings 0, 1, 2 = X, Y, Z).
"""
from __future__ import annotations

import hashlib
import json
import math
import os
from dataclasses import dataclass

import numpy as np

WORKLOADS = ("optimal_scan", "fixed_scan", "monte_carlo")

# Largest theta written to argv: just below pi/4 = 0.78539816...
THETA_TOP = 0.785398
N_CHOICES = (2, 3, 4, 6)
FORMATS = ("csv", "json")
# Fixed filter strengths; thresholds with these filters have recorded roots.
FIXED_KAPPAS = ("0.5", "0.6", "0.7", "0.8")
ASSEMBLAGE_ARG = "{assemblage}"

# monte_carlo: (n, trials) per chunk slot.  The costs step up by about 1.6x
# from slot to slot, so neither the median nor the tail request sits
# between two slots of similar cost.
MC_SLOTS = ((2, 100_000), (7, 100_000), (4, 280_000), (6, 340_000), (3, 750_000))
# One request at the largest size per run, so that peak RSS compares
# across seeds.
MC_SIZING = (8, 1_000_000)
# Smoke runs divide every Monte Carlo size by this.
SMOKE_TRIALS_DIVISOR = 100


@dataclass(frozen=True)
class Request:
    """One CLI invocation plus what its oracle needs to check the output."""

    kind: str
    argv: tuple[str, ...]
    spec: dict
    assemblage: dict | None = None

    def argv_for(self, workdir: str, name: str) -> list[str]:
        """Concrete argv; writes the request's assemblage file into workdir first."""
        if self.assemblage is None:
            return list(self.argv)
        path = os.path.join(workdir, name)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.assemblage, fh)
        return [path if a == ASSEMBLAGE_ARG else a for a in self.argv]

    def to_json(self) -> dict:
        doc = {"kind": self.kind, "argv": list(self.argv), "spec": self.spec}
        if self.assemblage is not None:
            doc["assemblage"] = self.assemblage
        return doc


def _rng(workload: str, seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), WORKLOADS.index(workload), int(index)])


def _angle(x: float) -> str:
    return f"{x:.6f}"


def _sweep(rng, steps: int, filter_arg: str, scenario: str) -> Request:
    width = rng.uniform(0.05, 0.25)
    lo = rng.uniform(0.02, THETA_TOP - width)
    n = int(rng.choice(N_CHOICES))
    fmt = str(rng.choice(FORMATS))
    tmin, tmax = _angle(lo), _angle(lo + width)
    argv = (
        "sweep", "--theta-min", tmin, "--theta-max", tmax, "--steps", str(steps),
        "--n", str(n), "--filter", filter_arg, "--scenario", scenario, "--format", fmt,
    )
    spec = {
        "theta_min": float(tmin), "theta_max": float(tmax), "steps": steps, "n": n,
        "filter": filter_arg, "scenario": scenario, "format": fmt,
    }
    return Request("sweep", argv, spec)


def _threshold(rng, filter_arg: str, scenario: str) -> Request:
    n = int(rng.choice(N_CHOICES))
    argv = ("threshold", "--filter", filter_arg, "--n", str(n), "--scenario", scenario)
    return Request("threshold", argv, {"filter": filter_arg, "n": n, "scenario": scenario})


def _random_filter(rng) -> str:
    kind = str(rng.choice(("none", "asymptotic", "fixed")))
    return f"fixed:{rng.choice(FIXED_KAPPAS)}" if kind == "fixed" else kind


_PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _projector(a: int, x: int) -> np.ndarray:
    return (np.eye(2) + (-1) ** a * _PAULI[x]) / 2


def gghz_elements(theta: float, scenario: str) -> dict[str, np.ndarray]:
    """Assemblage of cos(theta)|000> + sin(theta)|111> under Pauli X, Y, Z.

    Keys are the JSON element keys: "a|x" (1sdi, elements on B and C) or
    "ab|xy" (2sdi, elements on C).
    """
    psi = np.zeros(8, dtype=complex)
    psi[0], psi[7] = math.cos(theta), math.sin(theta)
    rho = np.outer(psi, psi.conj())
    out = {}
    if scenario == "1sdi":
        for x in range(3):
            for a in (0, 1):
                op = np.kron(_projector(a, x), np.eye(4))
                out[f"{a}|{x}"] = np.einsum("aiaj->ij", (op @ rho).reshape(2, 4, 2, 4))
    else:
        for x in range(3):
            for y in range(3):
                for a in (0, 1):
                    for b in (0, 1):
                        op = np.kron(np.kron(_projector(a, x), _projector(b, y)), np.eye(2))
                        out[f"{a}{b}|{x}{y}"] = np.einsum(
                            "aiaj->ij", (op @ rho).reshape(4, 2, 4, 2)
                        )
    return out


def noisy_gghz_doc(theta: float, scenario: str, noise: float) -> dict:
    """Assemblage JSON of GGHZ(theta) mixed with white noise of weight ``noise``.

    The noise element of each outcome is the maximally mixed state times
    the uniform outcome probability, so the mixture stays normalized and
    no-signaling.
    """
    elements = gghz_elements(theta, scenario)
    dim = 4 if scenario == "1sdi" else 2
    outcomes = 2 if scenario == "1sdi" else 4
    white = np.eye(dim) / (dim * outcomes)
    return {
        "scenario": scenario,
        "theta": theta,
        "elements": {
            key: [[[float(z.real), float(z.imag)] for z in row]
                  for row in (1 - noise) * m + noise * white]
            for key, m in elements.items()
        },
    }


def _optimize(rng, scenario: str) -> Request:
    theta = float(_angle(rng.uniform(0.05, THETA_TOP)))
    noise = round(float(rng.uniform(0.02, 0.3)), 6)
    n = int(rng.choice(N_CHOICES))
    argv = ("optimize", "--assemblage", ASSEMBLAGE_ARG, "--n", str(n))
    spec = {"theta": theta, "noise": noise, "scenario": scenario, "n": n}
    return Request("optimize", argv, spec, noisy_gghz_doc(theta, scenario, noise))


def _simulate(rng, n: int, trials: int) -> Request:
    theta = _angle(rng.uniform(0.05, THETA_TOP))
    kappa = _angle(rng.uniform(0.05, 1.0))
    seed = int(rng.integers(0, 2**31))
    argv = (
        "simulate", "--theta", theta, "--kappa", kappa, "--n", str(n),
        "--trials", str(trials), "--seed", str(seed),
    )
    spec = {"theta": float(theta), "kappa": float(kappa), "n": n, "trials": trials, "seed": seed}
    return Request("simulate", argv, spec)


def _mc_trials(rng, base: int, smoke: bool) -> int:
    trials = base + int(rng.integers(0, base // 20 + 1))
    return trials // SMOKE_TRIALS_DIVISOR if smoke else trials


def make_chunk(workload: str, seed: int, index: int, smoke: bool = False) -> list[Request]:
    """Chunk ``index`` of ``workload`` under ``seed``, in its seeded order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    rng = _rng(workload, seed, index)
    if workload == "optimal_scan":
        steps = 3 if smoke else 5
        reqs = [_sweep(rng, steps, "optimal", "both") for _ in range(4)]
        reqs += [_threshold(rng, "optimal", sc) for sc in ("1sdi", "2sdi")]
        reqs += [_optimize(rng, sc) for sc in ("1sdi", "1sdi", "2sdi")]
    elif workload == "fixed_scan":
        steps = 4 if smoke else 20
        reqs = [_sweep(rng, steps, _random_filter(rng), sc) for sc in ("1sdi", "2sdi", "both")]
        reqs += [_threshold(rng, _random_filter(rng), sc) for sc in ("1sdi",) * 3 + ("2sdi",) * 3]
    else:
        reqs = [_simulate(rng, n, _mc_trials(rng, base, smoke)) for n, base in MC_SLOTS]
    return [reqs[i] for i in rng.permutation(len(reqs))]


def warmup_requests(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    """Untimed requests run before the timed phase.

    For monte_carlo this is the one request at the largest size; for the
    scans it is chunk 0.
    """
    if workload == "monte_carlo":
        n, trials = MC_SIZING
        if smoke:
            trials //= SMOKE_TRIALS_DIVISOR
        return [_simulate(_rng(workload, seed, 0), n, trials)]
    return make_chunk(workload, seed, 0, smoke)


def digest(requests) -> str:
    """SHA-256 over the canonical JSON of a request list."""
    h = hashlib.sha256()
    for req in requests:
        h.update(json.dumps(req.to_json(), sort_keys=True).encode())
    return h.hexdigest()
