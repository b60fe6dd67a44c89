"""Seeded Monte Carlo of the three-step filter-and-communicate protocol.

Per trial, Charlie filters copies 1..N-1; outcome c_n = 0 flags success.
He then sets c_N = 1 if any earlier copy succeeded (the unmeasured Nth copy
is discarded) and c_N = 0 otherwise, and broadcasts the bit string; every
copy with c_n = 1 is discarded.  Note the deliberate asymmetry: c_N = 1
marks a *successful* run even though c_n = 1 marks filter failure on the
measured copies.

Only the filter outcomes are sampled; the conditional states of the two
branches are attached analytically, so the empirical assemblage is the
observed-frequency mixture of the filtered and unfiltered assemblages.

Randomness comes from the counter-based Philox 4x64 generator keyed by the
seed, giving bit-for-bit reproducible output for a given NumPy version.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .assemblage import Assemblage, convex_mix, gghz_assemblage_1sdi
from .distillation import (
    P_SUCC_FLOOR,
    _branch_weights,
    apply_filter,
    check_copies,
    check_kappa,
    make_filter,
)
from .errors import BadArgumentError, check_integer
from .states import check_theta

# Cap on the filter outcomes one run draws, trials x (N - 1).  It bounds run
# time, not memory: a run at the cap takes 4-10 s (130-290 ns per draw for
# N = 8..2 on a 2-vCPU x86_64 host) and, for N = 2..8, allocates under 1.1 MiB
# beyond the process, since trials are drawn and counted DRAW_BLOCK at a time.
MAX_DRAWS = 2**25
# Trials drawn and counted at a time.
DRAW_BLOCK = 2**14
_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


def single_copy_success_probability(theta, kappa) -> float:
    """kappa^2 cos^2(theta) + sin^2(theta): one filter attempt on one copy."""
    t = check_theta(theta)
    k = check_kappa(kappa)
    return k * k * math.cos(t) ** 2 + math.sin(t) ** 2


def success_probability(theta, kappa, n_copies: int) -> float:
    """Probability that at least one of the N-1 filtered copies succeeds.

    It is the p_succ of the distillation's branch weights, which libm
    evaluates, with log1p/expm1 for one-copy probabilities 0 < p < P_SUCC_FLOOR.
    """
    n = check_copies(n_copies)
    p = single_copy_success_probability(theta, kappa)
    return float(_branch_weights(np.array([p]), n)[1][0])


@dataclass(frozen=True)
class SimOutcome:
    """Record of one Monte Carlo run."""

    theta: float
    kappa: float
    n_copies: int
    trials: int
    seed: int
    success_count: int
    bitstring_histogram: dict[str, int]
    empirical_assemblage: Assemblage

    @property
    def success_fraction(self) -> float:
        return self.success_count / self.trials

    def to_json_dict(self) -> dict:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc.update(
            success_fraction=self.success_fraction,
            bitstring_histogram=dict(sorted(self.bitstring_histogram.items())),
            empirical_assemblage=self.empirical_assemblage.to_json_dict(),
        )
        return doc


def run_protocol(theta, kappa, n_copies: int, trials: int, seed: int) -> SimOutcome:
    """Simulate ``trials`` independent runs of the N-copy protocol.

    Identical arguments reproduce identical outcomes bit for bit.  The
    one-sided GGHZ assemblage is the simulated resource.
    """
    t = check_theta(theta)
    k = check_kappa(kappa)
    n = check_copies(n_copies)
    trials = check_integer(trials, "trials", 1)
    seed = check_integer(seed, "seed", 0, 2**128)   # a Philox key is 128 bits
    if trials * (n - 1) > MAX_DRAWS:
        raise BadArgumentError(
            f"trials x (n_copies - 1) = {trials * (n - 1)} draws exceeds the cap of {MAX_DRAWS}"
        )
    p = single_copy_success_probability(t, k)

    rng = np.random.Generator(np.random.Philox(key=seed))
    # Blocks of rows drawn in order from the one stream equal the rows of a
    # single (trials, n - 1) draw, so memory is bounded by the block size
    # and the number of distinct bit strings, not by ``trials``.
    bits = np.empty((min(trials, DRAW_BLOCK), n), dtype=np.uint8)
    tally: dict[bytes, int] = {}
    success_count = 0
    for start in range(0, trials, DRAW_BLOCK):
        block = bits[: min(DRAW_BLOCK, trials - start)]
        early_fail = block[:, :-1]                # c_n = 1 on filter failure
        np.greater_equal(rng.random(early_fail.shape), p, out=early_fail)
        block[:, -1] = ~early_fail.all(axis=1)
        success_count += int(block[:, -1].sum())
        rows, counts = np.unique(block, axis=0, return_counts=True)
        for key, cnt in zip(map(bytes, rows), counts.tolist()):
            tally[key] = tally.get(key, 0) + cnt
    # Sorted bytes keys are in np.unique's row order, the order of one draw.
    histogram = {key.translate(_BIT_CHARS).decode(): tally[key] for key in sorted(tally)}

    base = gghz_assemblage_1sdi(t)
    if success_count == 0 or p < P_SUCC_FLOOR:
        empirical = base
    else:
        _, filtered = apply_filter(base, make_filter(k))
        frac = success_count / trials
        empirical = convex_mix([frac, 1.0 - frac], [filtered, base])
    return SimOutcome(
        theta=t,
        kappa=k,
        n_copies=n,
        trials=trials,
        seed=seed,
        success_count=success_count,
        bitstring_histogram=histogram,
        empirical_assemblage=empirical,
    )
