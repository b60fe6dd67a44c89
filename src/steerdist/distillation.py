"""Local filtering distillation: filter POVM, N-copy mixing, closed-form
optima and the bounded one-dimensional fidelity maximizer.

The filter acts on Charlie's qubit only.  Success on at least one of the
first N-1 copies leaves the filtered assemblage; failure on all of them
keeps an unfiltered copy, so the distilled output is the convex mixture of
the two branches with weights 1 - (1-p)**(N-1) and (1-p)**(N-1).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assemblage import (
    Assemblage,
    Scenario,
    gghz_assemblage,
    ghz_assemblage,
    group_rows,
    require_assemblage,
    require_valid,
)
from .errors import (
    BadArgumentError,
    KappaOutOfRangeError,
    NonFiniteObjectiveError,
    ScenarioMismatchError,
    ZeroSuccessProbabilityError,
    check_integer,
    check_real,
)
from .linalg import clamp_spectrum
from .metrics import _target_factor, fidelity_terms
from .states import check_theta

# One-copy success probabilities below this make apply_filter refuse and
# run_protocol keep the unfiltered source; _branch_weights switches to
# log1p/expm1 below it.
P_SUCC_FLOOR = 1e-12

# Optimizer knobs: the dense first scan guards against multimodality of
# arbitrary input assemblages; each refinement re-scans the best point's two
# neighbouring cells with REFINE_POINTS points until they span BRACKET_TOL.
PRE_SCAN_POINTS = 1001
REFINE_POINTS = 9
BRACKET_TOL = 1e-8
# Fidelity differences below this are ties; well above eigensolver noise
# (~1e-15) and well below the optimizer's accuracy budget.
F_TIE_TOL = 1e-12


def check_kappa(kappa) -> float:
    return check_real(kappa, "kappa", 0.0, 1.0, KappaOutOfRangeError)


def check_copies(n_copies) -> int:
    return check_integer(n_copies, "n_copies", 2)


@dataclass(frozen=True)
class FilterOp:
    """Dichotomic filter POVM on one qubit: success branch C0, failure C1.

    C0 = kappa|0><0| + |1><1| and C1 = sqrt(1 - kappa^2)|0><0| satisfy
    C0^dag C0 + C1^dag C1 = identity.
    """

    kappa: float
    c0: np.ndarray
    c1: np.ndarray


def make_filter(kappa) -> FilterOp:
    k = check_kappa(kappa)
    c0 = np.array([[k, 0], [0, 1]], dtype=complex)
    c1 = np.array([[math.sqrt(1 - k * k), 0], [0, 0]], dtype=complex)
    return FilterOp(k, c0, c1)


def _filtered(stack: np.ndarray, kappas, scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Unnormalized filtered elements (K, E, d, d) and one-copy success probabilities (K,).

    ``stack`` is one (E, d, d) stack, filtered by each of the K kappas, or a
    (K, E, d, d) block whose row k is filtered by kappas[k].  The filter C0
    acts on the last qubit of every element (Charlie's), so its action on a
    d-dim element is the diagonal (kappa, 1, kappa, 1, ...).
    """
    ks = np.asarray(kappas, dtype=float).reshape(-1, 1)
    diag = np.tile(np.hstack([ks, np.ones_like(ks)]), stack.shape[-1] // 2)   # (K, d)
    scale = diag[:, :, None] * diag[:, None, :]
    un = scale[:, None, :, :] * stack
    first = un[:, group_rows(scenario)[0]]
    p = np.trace(first, axis1=-2, axis2=-1).real.sum(axis=1)
    return un, p


def _branch_weights(p: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Weights p_fail = (1-p)**(N-1) of the input, p_succ = 1 - p_fail, and
    w_succ = p_succ / p of the unnormalized filtered branch.  libm computes every
    power, so the bits do not depend on numpy's SIMD dispatch.  For 0 < p <
    P_SUCC_FLOOR, where 1 - p keeps too few digits of p, p_fail and p_succ are
    exp and -expm1 of (N-1) log1p(-p); p <= 0 is certain failure (p_succ = 0).
    """
    above = p >= P_SUCC_FLOOR
    p_fail = np.where(above, np.float_power(1.0 - p, n - 1), 1.0)
    p_succ = 1.0 - p_fail
    w_succ = p_succ / np.maximum(p, P_SUCC_FLOOR)
    if not above.all():
        for i in zip(*np.nonzero(~above & (p > 0))):
            log_fail = (n - 1) * math.log1p(-p[i])
            p_fail[i], p_succ[i] = math.exp(log_fail), -math.expm1(log_fail)
            w_succ[i] = p_succ[i] / p[i]
    return p_fail, p_succ, w_succ


def _distilled(stack: np.ndarray, kappas, n: int, scenario: Scenario) -> np.ndarray:
    """N-copy distilled stacks (K, E, d, d) of ``_filtered``'s input, mixed by _branch_weights."""
    un, p = _filtered(stack, kappas, scenario)
    p_fail, _, w_succ = _branch_weights(p, n)
    return w_succ[:, None, None, None] * un + p_fail[:, None, None, None] * stack


def apply_filter(asm: Assemblage, filt: FilterOp | float):
    """Post-selected single-copy filtering.

    Returns (p_succ, filtered) where p_succ is the success probability of
    the filter on one copy and ``filtered`` is the renormalized assemblage
    conditioned on success.
    """
    kappa = check_kappa(filt.kappa if isinstance(filt, FilterOp) else filt)
    un, p = _filtered(require_assemblage(asm).stack, kappa, asm.scenario)
    p = float(p[0])
    if p < P_SUCC_FLOOR:
        raise ZeroSuccessProbabilityError(f"p_succ = {p:.3e} below {P_SUCC_FLOOR:.0e}")
    return p, Assemblage._of_stack(asm.scenario, un[0] / p)


def distill(asm: Assemblage, kappa, n_copies: int) -> Assemblage:
    """N-copy distilled mixture of the filtered and unfiltered branches.

    For inputs whose success probability is zero the failure branch carries
    all the weight and the input is returned unchanged.
    """
    kappa, n = check_kappa(kappa), check_copies(n_copies)
    stack = _distilled(require_assemblage(asm).stack, kappa, n, asm.scenario)[0]
    return Assemblage._of_stack(asm.scenario, stack, asm.theta)


@dataclass(frozen=True)
class DistillationConfig:
    """One distillation instance: source angle, copy count, filter, scenario."""

    theta: float
    n_copies: int
    kappa: float
    scenario: Scenario = Scenario.ONE_SIDED

    def __post_init__(self):
        object.__setattr__(self, "theta", check_theta(self.theta))
        object.__setattr__(self, "kappa", check_kappa(self.kappa))
        object.__setattr__(self, "scenario", Scenario(self.scenario))
        object.__setattr__(self, "n_copies", check_copies(self.n_copies))


def distilled_assemblage(config: DistillationConfig) -> Assemblage:
    """Distilled GGHZ assemblage for the given configuration."""
    if not isinstance(config, DistillationConfig):
        raise BadArgumentError(f"expected a DistillationConfig, got {type(config).__name__}")
    base = gghz_assemblage(config.theta, config.scenario)
    return distill(base, config.kappa, config.n_copies)


def two_copy_optimal_kappa(theta) -> float:
    """Closed-form two-copy optimum 1 / (2 cos^2 theta), in [1/2, 1]."""
    t = check_theta(theta)
    return 1.0 / (2.0 * math.cos(t) ** 2)


def asymptotic_kappa(theta) -> float:
    """tan(theta): the optimal filter in the infinite-copy limit."""
    t = check_theta(theta)
    return math.tan(t)


def two_copy_fidelity_closed_form(theta, kappa) -> float:
    """Two-copy distilled fidelity against the GHZ target, pre-maximization."""
    t = check_theta(theta)
    k = check_kappa(kappa)
    c, s = math.cos(t), math.sin(t)
    return math.sqrt(0.5 + c * s * (c * c - k * k * c * c + k))


def kappa_prime_ncopy_fidelity(theta, n_copies: int) -> float:
    """N-copy distilled fidelity with the asymptotic filter kappa = tan(theta)."""
    t = check_theta(theta)
    n = check_copies(n_copies)
    return math.sqrt(1.0 - 0.5 * (1.0 - math.sin(2 * t)) * math.cos(2 * t) ** (n - 1))


@dataclass(frozen=True)
class OptimizationResult:
    kappa_star: float
    f_star: float
    evaluations: int
    bracket_width: float


def optimize_kappa(
    source,
    n_copies: int,
    target: Assemblage | None = None,
    scenario: Scenario | None = None,
) -> OptimizationResult:
    """Maximize the distilled-assemblage fidelity over kappa in [0, 1].

    ``source`` is either a GGHZ angle (an assemblage is built for the given
    scenario, one-sided by default) or an arbitrary valid assemblage.
    ``target`` defaults to the perfectly steerable GHZ assemblage of the
    matching scenario; against a rank <= 1 target such as this one, a kappa
    costs O(E) arithmetic.  A dense scan of [0, 1] finds the best point, exact
    ties going to their middle; its two neighbouring cells are re-scanned
    on a finer grid until they span at most 1e-8 (``bracket_width``).  The
    refined point then competes with the domain ends, which win ties within
    ``F_TIE_TOL`` toward the larger kappa (higher success probability).
    """
    n = check_copies(n_copies)
    if isinstance(source, Assemblage):
        asm = source
        if scenario is not None and Scenario(scenario) is not asm.scenario:
            raise ScenarioMismatchError(
                f"assemblage is {asm.scenario.value}, requested {Scenario(scenario).value}"
            )
    else:
        asm = gghz_assemblage(source, scenario or Scenario.ONE_SIDED)
    require_valid(asm)
    if target is not None and require_assemblage(target, "target").scenario is not asm.scenario:
        raise ScenarioMismatchError(
            f"target is {target.scenario.value}, source is {asm.scenario.value}"
        )
    ref = _target_factor(target or ghz_assemblage(asm.scenario))
    rows = group_rows(asm.scenario)
    evaluations = 0

    if ref.shape[-1] == 1:
        # A rank <= 1 target element u u^dag scores sqrt(u^dag sigma u).  With
        # u0 the entries of u that D = diag(kappa, 1, kappa, 1, ...) scales and
        # u1 the rest, u^dag D sigma D u = a kappa^2 + b kappa + c and
        # p = P0 kappa^2 + P1: each kappa costs O(E) arithmetic, no stack.
        scaled = np.arange(asm.element_dim) % 2 == 0
        parts = np.stack([scaled, ~scaled])[:, None] * ref[..., 0]   # u0, u1: (2, E, d)
        m = np.einsum("xei,eij,yej->xye", parts.conj(), asm.stack, parts).real
        a, b, c = m[0, 0], 2 * m[0, 1], m[1, 1]
        diag = np.einsum("eii->i", asm.stack[rows[0]]).real
        p0, p1 = diag[scaled].sum(), diag[~scaled].sum()

        def fidelities(grid):
            k = grid[:, None]
            p_fail, _, w_succ = _branch_weights(p0 * k * k + p1, n)
            w = w_succ * (a * k * k + b * k + c) + p_fail * (a + b + c)
            return np.sqrt(clamp_spectrum(w[..., None]))[..., 0]   # one spectrum per w: (K, E)
    else:
        def fidelities(grid):
            return fidelity_terms(_distilled(asm.stack, grid, n, asm.scenario), ref)

    def scan(grid) -> np.ndarray:
        nonlocal evaluations
        evaluations += len(grid)
        values = fidelities(grid)[:, rows].sum(axis=2).min(axis=1)
        if not np.all(np.isfinite(values)):
            raise NonFiniteObjectiveError(
                f"objective produced NaN or Inf on kappa in [{grid[0]}, {grid[-1]}]"
            )
        return values

    grid = np.linspace(0.0, 1.0, PRE_SCAN_POINTS)
    values = scan(grid)
    ends = [(values[0], 0.0), (values[-1], 1.0)]
    while True:
        # F is flat to rounding near its maximum: take the middle of the ties
        ties = np.flatnonzero(values == values.max())
        best = int(ties[len(ties) // 2])
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
        if hi - lo <= BRACKET_TOL:
            break
        grid = np.linspace(lo, hi, REFINE_POINTS)
        values = scan(grid)

    # A boundary maximum reports kappa exactly 0 or 1: the domain ends,
    # already scanned, compete with the refined point, larger kappa on ties.
    scored = [(values[best], grid[best])] + ends
    best_f = max(f_val for f_val, _ in scored)
    f_star, kappa_star = max(
        (s for s in scored if s[0] >= best_f - F_TIE_TOL), key=lambda s: s[1]
    )
    return OptimizationResult(
        kappa_star=float(kappa_star),
        f_star=float(f_star),
        evaluations=evaluations,
        bracket_width=float(hi - lo),
    )
