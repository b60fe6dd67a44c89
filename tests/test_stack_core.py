"""The array-backed core against per-element reference loops.

Random valid assemblages are convex mixtures of a closed-form GGHZ
assemblage, a generic-route assemblage of another GGHZ state measured in
random rotated Pauli bases, and white noise; the noise keeps every element
full rank, so matrix roots taken by scipy.linalg.sqrtm stay accurate.
"""
import math

import numpy as np
import pytest

from steerdist.assemblage import (
    Assemblage,
    Scenario,
    assemblage_from_state,
    convex_mix,
    element_keys,
    gghz_assemblage,
    ghz_assemblage,
    group_rows,
    setting_groups,
    validate,
)
from steerdist.distillation import _distilled, distill, optimize_kappa
from steerdist.errors import DimMismatchError
from steerdist.linalg import (
    as_matrix,
    clamp_spectrum,
    eig_hermitian,
    kron,
    partial_trace,
    psd_sqrt,
    require_psd,
)
from steerdist.metrics import (
    assemblage_fidelity,
    fidelity_terms,
    witness,
    witness_value_from_terms,
)
from steerdist.states import PAULI_X, PAULI_Y, PAULI_Z, MeasurementSet, gghz

from conftest import random_psd

SEEDS = range(6)
EPS = np.finfo(float).eps


def random_unitary(rng):
    q, r = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_pauli_set(rng):
    u = random_unitary(rng)
    return MeasurementSet(tuple(u @ p @ u.conj().T for p in (PAULI_X, PAULI_Y, PAULI_Z)))


def random_assemblage(rng, scenario):
    scenario = Scenario(scenario)
    parties = "A" if scenario is Scenario.ONE_SIDED else "AB"
    dim = 4 if scenario is Scenario.ONE_SIDED else 2
    per_setting = len(setting_groups(scenario)[0])
    noise = Assemblage(
        scenario, {k: np.eye(dim) / (dim * per_setting) for k in element_keys(scenario)}
    )
    generic = assemblage_from_state(
        gghz(rng.uniform(0, math.pi / 4)), parties, [random_pauli_set(rng) for _ in parties]
    )
    weights = 0.8 * rng.dirichlet(np.ones(3)) + np.array([0.0, 0.0, 0.2])
    return convex_mix(weights, [gghz_assemblage(rng.uniform(0, math.pi / 4), scenario), generic, noise])


def sqrtm_root_fidelity(a, b):
    from scipy.linalg import sqrtm

    r = sqrtm(a)
    return float(np.trace(sqrtm(r @ b @ r)).real)


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_assemblages_are_valid(scenario, seed):
    assert validate(random_assemblage(np.random.default_rng(seed), scenario)).ok


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("seed", SEEDS)
def test_assemblage_fidelity_matches_sqrtm_loop(scenario, seed):
    pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(100 + seed)
    asm, target = random_assemblage(rng, scenario), random_assemblage(rng, scenario)
    expect = min(
        sum(sqrtm_root_fidelity(asm.elements[k], target.elements[k]) for k in group)
        for group in setting_groups(asm.scenario)
    )
    assert abs(assemblage_fidelity(asm, target) - expect) <= 1e-12


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("n", [2, 3, 7])
def test_distilled_rows_equal_distill(scenario, n):
    rng = np.random.default_rng(200 + n)
    asm = random_assemblage(rng, scenario)
    ks = np.concatenate([[0.0, 1.0], rng.uniform(0, 1, size=6)])
    rows = _distilled(asm.stack, ks, n, asm.scenario)
    for k, kappa in enumerate(ks):
        assert np.array_equal(rows[k], distill(asm, kappa, n).stack)


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("seed", SEEDS[:3])
def test_objective_at_kappa_star_equals_f_star(scenario, seed):
    rng = np.random.default_rng(300 + seed)
    asm = random_assemblage(rng, scenario)
    n = int(rng.integers(2, 8))
    res = optimize_kappa(asm, n)
    target = ghz_assemblage(scenario)
    f = fidelity_terms(_distilled(asm.stack, [res.kappa_star], n, asm.scenario),
                       psd_sqrt(target.stack))
    objective = f[:, group_rows(asm.scenario)].sum(axis=2).min(axis=1)[0]
    assert abs(objective - res.f_star) <= 1e-12
    assert abs(assemblage_fidelity(distill(asm, res.kappa_star, n), target) - res.f_star) <= 1e-12


def trace_loop_terms(asm):
    """Witness expectation values as explicit outcome-signed trace sums."""
    def corr(setting, op, sign):
        total = 0.0
        for key, m in asm.elements.items():
            half = len(key) // 2
            if key[half:] == setting:
                total += sign(*key[:half]) * float(np.trace(op @ m).real)
        return total

    if asm.scenario is Scenario.ONE_SIDED:
        signed = lambda a: (-1) ** a  # noqa: E731
        return {
            "ZZ": corr((2,), np.kron(PAULI_Z, PAULI_Z), lambda a: 1),
            "A3ZB": corr((2,), np.kron(PAULI_Z, np.eye(2)), signed),
            "A3ZC": corr((2,), np.kron(np.eye(2), PAULI_Z), signed),
            "A1XX": corr((0,), np.kron(PAULI_X, PAULI_X), signed),
            "A1YY": corr((0,), np.kron(PAULI_Y, PAULI_Y), signed),
            "A2XY": corr((1,), np.kron(PAULI_X, PAULI_Y), signed),
            "A2YX": corr((1,), np.kron(PAULI_Y, PAULI_X), signed),
        }
    joint = lambda a, b: (-1) ** (a + b)  # noqa: E731
    return {
        "A3B3": corr((2, 2), np.eye(2), joint),
        "A3ZC": corr((2, 2), PAULI_Z, lambda a, b: (-1) ** a),
        "B3ZC": corr((2, 2), PAULI_Z, lambda a, b: (-1) ** b),
        "A1B1X": corr((0, 0), PAULI_X, joint),
        "A1B2Y": corr((0, 1), PAULI_Y, joint),
        "A2B1Y": corr((1, 0), PAULI_Y, joint),
        "A2B2X": corr((1, 1), PAULI_X, joint),
    }


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("seed", SEEDS)
def test_witness_terms_match_trace_loop(scenario, seed):
    asm = random_assemblage(np.random.default_rng(400 + seed), scenario)
    res = witness(asm)
    expect = trace_loop_terms(asm)
    assert res.terms.keys() == expect.keys()
    for name, value in expect.items():
        assert abs(res.terms[name] - value) <= 1e-12
    assert res.value == witness_value_from_terms(scenario, res.terms)


def key_str(k):
    return f"{k[0]}|{k[1]}" if len(k) == 2 else f"{k[0]}{k[1]}|{k[2]}{k[3]}"


def loop_validate(asm, tol=1e-10, tol_psd=1e-9):
    """(check, where, deviation) triples from an element-by-element scan."""
    out = []
    for k, m in asm.elements.items():
        dev = float(np.max(np.abs(m - m.conj().T)))
        if dev > 1e-10:
            out.append(("hermitian", key_str(k), dev))
    for k, m in asm.elements.items():
        low = float(np.linalg.eigvalsh((m + m.conj().T) / 2)[0])
        if low < -tol_psd:
            out.append(("psd", key_str(k), -low))
    groups = setting_groups(asm.scenario)
    totals = [sum(asm.elements[k] for k in g) for g in groups]
    for g, total in zip(groups, totals):
        dev = abs(float(np.trace(total).real) - 1.0)
        if dev > tol:
            out.append(("normalization", "x=" + key_str(g[0]).split("|")[1], dev))
    for g, total in zip(groups[1:], totals[1:]):
        dev = float(np.max(np.abs(total - totals[0])))
        if dev > tol:
            out.append(("no_signaling", "setting " + key_str(g[0]).split("|")[1], dev))
    if asm.scenario is Scenario.TWO_SIDED:
        e = asm.elements
        for b in (0, 1):
            for y in range(3):
                marg = [e[(0, b, x, y)] + e[(1, b, x, y)] for x in range(3)]
                for x in (1, 2):
                    dev = float(np.max(np.abs(marg[x] - marg[0])))
                    if dev > tol:
                        out.append(("no_signaling", f"sum_a sigma(a,{b}|x,{y}) varies with x", dev))
        for a in (0, 1):
            for x in range(3):
                marg = [e[(a, 0, x, y)] + e[(a, 1, x, y)] for y in range(3)]
                for y in (1, 2):
                    dev = float(np.max(np.abs(marg[y] - marg[0])))
                    if dev > tol:
                        out.append(("no_signaling", f"sum_b sigma({a},b|{x},y) varies with y", dev))
    return out


@pytest.mark.parametrize("scenario", list(Scenario))
@pytest.mark.parametrize("seed", SEEDS)
def test_validate_matches_element_loop(scenario, seed):
    rng = np.random.default_rng(500 + seed)
    asm = random_assemblage(rng, scenario)
    other = random_assemblage(rng, scenario)
    elements = dict(asm.elements)
    keys = list(elements)
    for i in rng.choice(len(keys), size=3, replace=False):
        k = keys[i]
        d = elements[k].shape[0]
        elements[k] = [
            elements[k] * 1.1,
            other.elements[k],
            elements[k] - 0.05 * np.eye(d),
            elements[k] + 1e-3 * rng.normal(size=(d, d)),
        ][rng.integers(4)]
    broken = Assemblage(scenario, elements)
    report = validate(broken)
    assert not report.ok
    expect = loop_validate(broken)
    assert [(v.check, v.where) for v in report.violations] == [e[:2] for e in expect]
    scale = {key_str(k): float(np.abs(m).max()) for k, m in broken.elements.items()}
    for v, (_, _, reference) in zip(report.violations, expect):
        if v.check == "psd" and broken.element_dim == 2:
            # the closed-form smallest eigenvalue of a 2x2 element, against LAPACK's
            assert abs(v.deviation - reference) <= 4 * EPS * scale[v.where]
        else:
            assert v.deviation == reference


def test_stack_is_read_only_and_shared():
    asm = gghz_assemblage(0.3, Scenario.TWO_SIDED)
    assert asm.stack.shape == (36, 2, 2)
    assert not asm.stack.flags.writeable
    for i, key in enumerate(element_keys(asm.scenario)):
        assert np.shares_memory(asm.elements[key], asm.stack[i])
    with pytest.raises(ValueError):
        asm.stack[0, 0, 0] = 1.0
    with pytest.raises(TypeError):
        asm.elements[(0, 0, 0, 0)] = np.eye(2)


class TestLinalgStacks:
    def test_stack_results_match_single_matrices(self, rng):
        stack = np.stack([random_psd(rng, 4) for _ in range(5)])
        w, v = eig_hermitian(stack)
        roots = psd_sqrt(stack)
        assert np.array_equal(require_psd(stack), (stack + np.swapaxes(stack.conj(), 1, 2)) / 2)
        for i, m in enumerate(stack):
            w1, _ = eig_hermitian(m)
            assert np.allclose(w[i], w1, rtol=0, atol=1e-12)
            assert np.max(np.abs((v[i] * w[i]) @ v[i].conj().T - m)) < 1e-9
            assert np.max(np.abs(roots[i] - psd_sqrt(m))) < 1e-12

    def test_clamp_cut_is_per_matrix(self):
        w = np.array([[1e-15, 1.0], [1e-15, 1e-3]])
        out = clamp_spectrum(w)
        assert out[0, 0] == 0.0
        assert out[1, 0] == 1e-15

    @pytest.mark.parametrize(
        "call",
        [
            lambda s: as_matrix(s),
            lambda s: kron(s, np.eye(2)),
            lambda s: kron(np.eye(2), s),
            lambda s: partial_trace(s, keep=(0,)),
        ],
    )
    def test_single_matrix_callers_reject_stacks(self, call):
        with pytest.raises(DimMismatchError):
            call(np.stack([np.eye(2), np.eye(2)]))
