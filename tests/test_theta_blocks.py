"""Sweeps and thresholds score theta in blocks; the numbers are the per-point ones.

``sweep_rows`` and ``threshold_theta`` score every filter, ``optimal``
included, from (T, E, d, d) stacks.  Every row must equal the per-point
reference ``conftest.evaluate_point`` float for float, every root must equal
a plain bisection over the per-point witness, memory must stay bounded on
the largest grid, and an invalid distilled stack must raise ``require_valid``'s
error.
"""
import math
import signal
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from steerdist import cli  # noqa: E402
from steerdist.assemblage import Assemblage, Scenario, gghz_assemblage, require_valid  # noqa: E402
from steerdist.cli import MAX_STEPS, resolve_kappa, sweep_rows, threshold_theta  # noqa: E402
from steerdist.distillation import distill  # noqa: E402
from steerdist.errors import InvariantViolationError, NoSignChangeError  # noqa: E402
from steerdist.metrics import witness  # noqa: E402
from steerdist.states import THETA_MAX  # noqa: E402

from conftest import evaluate_point  # noqa: E402

EXAMPLES = settings(derandomize=True, database=None, deadline=None, max_examples=40)
KNOWN_KAPPA = ("none", "asymptotic", "fixed")


def reference_root(kind, n, scenario, kappa=None, lo=0.01, hi=THETA_MAX, tol=1e-6,
                   visited=None):
    """Bisection over the per-point witness, one theta at a time."""
    sc = Scenario(scenario)

    def s_of(theta):
        if visited is not None:
            visited.add(theta)
        k = resolve_kappa(kind, kappa, theta, n)
        return witness(distill(gghz_assemblage(theta, sc), k, n)).value

    s_lo, s_hi = s_of(lo), s_of(hi)
    if s_lo == 0.0:
        return lo
    if s_hi == 0.0:
        return hi
    if (s_lo > 0) == (s_hi > 0):
        raise NoSignChangeError("same sign at both ends")
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if not lo < mid < hi:
            break
        s_mid = s_of(mid)
        if s_mid == 0.0:
            return mid
        if (s_mid > 0) == (s_lo > 0):
            lo, s_lo = mid, s_mid
        else:
            hi = mid
    return (lo + hi) / 2


@contextmanager
def deadline(seconds):
    """Raise TimeoutError in the main thread once ``seconds`` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@contextmanager
def corrupted(predicate):
    """Scale by 1.5, which breaks normalization, every distilled row whose theta passes."""
    real = cli._distilled_block

    def block(thetas, kappas, n_copies, sc):
        stacks, _ = real(thetas, kappas, n_copies, sc)
        stacks[[predicate(t) for t in thetas]] *= 1.5
        return stacks, cli._valid_rows(stacks, sc)

    with mock.patch.object(cli, "_distilled_block", block):
        yield


def require_valid_text(scenario, theta, kappa, n):
    stack = distill(gghz_assemblage(theta, scenario), kappa, n).stack * 1.5
    with pytest.raises(InvariantViolationError) as info:
        require_valid(Assemblage._of_stack(Scenario(scenario), stack, theta))
    return str(info.value)


@EXAMPLES
@given(
    lo=st.floats(0.0, THETA_MAX),
    width=st.floats(1e-12, THETA_MAX),
    steps=st.integers(2, 12),
    block=st.integers(1, 8),
    n=st.one_of(st.integers(2, 1000), st.just(10**30)),
    kind=st.sampled_from(KNOWN_KAPPA + ("optimal",)),
    kappa=st.floats(0.0, 1.0),
    scenario=st.sampled_from(["1sdi", "2sdi", "both"]),
)
@example(lo=0.1, width=0.6, steps=12, block=5, n=3, kind="optimal", kappa=0.0, scenario="both")
@example(lo=0.0, width=0.7, steps=7, block=3, n=10**30, kind="optimal", kappa=0.0, scenario="2sdi")
def test_block_rows_equal_evaluate_point(lo, width, steps, block, n, kind, kappa, scenario):
    hi = min(lo + width, THETA_MAX + 1e-12)
    assume(hi > lo)
    with mock.patch.object(cli, "THETA_BLOCK", block):
        rows = list(sweep_rows(lo, hi, steps, n, kind, kappa, scenario))
    assert [r.theta for r in rows] == np.linspace(lo, hi, steps).tolist()
    for row in rows:
        point = evaluate_point(row.theta, n, row.kappa, kind, scenario)
        assert row == point


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(
    lo=st.floats(0.0, THETA_MAX),
    gap=st.one_of(st.tuples(st.just("ulps"), st.integers(1, 10**6)),
                  st.tuples(st.just("width"), st.floats(1e-300, THETA_MAX))),
    steps=st.integers(2, 1500),
    block=st.integers(1, 400),
)
def test_grid_blocks_are_linspace(lo, gap, steps, block):
    kind, size = gap
    hi = min(lo + (size * float(np.spacing(lo)) if kind == "ulps" else size), THETA_MAX + 1e-12)
    assume(hi > lo)
    pieces = [cli._grid(lo, hi, steps, i, min(i + block, steps)) for i in range(0, steps, block)]
    assert np.array_equal(np.concatenate(pieces), np.linspace(lo, hi, steps))


def test_grid_of_subnormal_spacing_is_linspace():
    # the spacing underflows to 0, where linspace divides before it multiplies
    for hi in (5e-324, 1e-320):
        pieces = [cli._grid(0.0, hi, 7, i, min(i + 3, 7)) for i in range(0, 7, 3)]
        assert np.array_equal(np.concatenate(pieces), np.linspace(0.0, hi, 7))


@pytest.mark.parametrize("scenario", ["1sdi", "2sdi"])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("kind", KNOWN_KAPPA + ("optimal",))
def test_threshold_replays_the_plain_bisection(kind, n, scenario):
    kappa = 0.6 if kind == "fixed" else None
    assert threshold_theta(kind, n, scenario, kappa) == reference_root(kind, n, scenario, kappa)


@pytest.mark.parametrize("kind, kappa", [("none", None), ("asymptotic", None), ("fixed", 0.7)])
def test_threshold_replay_with_tolerance_and_bracket(kind, kappa):
    assert (threshold_theta(kind, 3, "2sdi", kappa, tol=1e-8)
            == reference_root(kind, 3, "2sdi", kappa, tol=1e-8))
    assert (threshold_theta(kind, 2, "1sdi", kappa, lo=0.05, hi=0.6, tol=1e-5)
            == reference_root(kind, 2, "1sdi", kappa, lo=0.05, hi=0.6, tol=1e-5))
    with pytest.raises(NoSignChangeError):
        threshold_theta(kind, 2, "1sdi", kappa, lo=0.6, hi=0.7)
    with pytest.raises(NoSignChangeError):
        reference_root(kind, 2, "1sdi", kappa, lo=0.6, hi=0.7)


@pytest.mark.parametrize("kind, n, kappa", [("asymptotic", 4, None), ("fixed", 6, 0.6)])
def test_threshold_below_the_float_spacing_returns(kind, n, kappa):
    # a bracket one float step wide has its midpoint at an end: the loop
    # used to make no progress there and never returned
    with deadline(10):
        root = threshold_theta(kind, n, "2sdi", kappa, tol=1e-300)
        assert root == reference_root(kind, n, "2sdi", kappa, tol=1e-300)


def test_largest_grid_is_made_a_block_at_a_time():
    next(sweep_rows(0.1, 0.2, 3, 2, "none"))   # fill the module caches first
    tracemalloc.start()
    try:
        next(sweep_rows(0.1, 0.2, MAX_STEPS - 1, 2, "none"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


@pytest.mark.parametrize("scenario", ["1sdi", "2sdi"])
def test_invalid_sweep_row_raises_require_valid_error(scenario):
    thetas = np.linspace(0.1, 0.7, 6)
    bad = float(thetas[3])
    clean = list(sweep_rows(0.1, 0.7, 6, 3, "fixed", 0.6, scenario))
    seen = []
    with corrupted(lambda t: t == bad), pytest.raises(InvariantViolationError) as info:
        for row in sweep_rows(0.1, 0.7, 6, 3, "fixed", 0.6, scenario):
            seen.append(row)
    assert seen == clean[:3]
    assert str(info.value) == require_valid_text(scenario, bad, 0.6, 3)


@pytest.mark.parametrize("scenario", ["1sdi", "2sdi"])
def test_invalid_threshold_point_raises_only_when_visited(scenario):
    visited = set()
    root = reference_root("asymptotic", 2, scenario, visited=visited)
    with corrupted(lambda t: t not in visited):
        assert threshold_theta("asymptotic", 2, scenario) == root
    lo = 0.01
    with corrupted(lambda t: t == lo), pytest.raises(InvariantViolationError) as info:
        threshold_theta("asymptotic", 2, scenario, lo=lo)
    assert str(info.value) == require_valid_text(scenario, lo, math.tan(lo), 2)
