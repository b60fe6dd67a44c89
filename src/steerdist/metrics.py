"""Fidelity and genuine-steering witness functionals on assemblages.

The assemblage fidelity is the minimum over measurement settings of the
summed root fidelities f(sigma, rho) = Tr sqrt( sqrt(sigma) rho sqrt(sigma) )
between corresponding elements.  The witnesses are linear functionals whose
negativity certifies genuine tripartite steering; their published
coefficients are printed decimals, kept verbatim.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .assemblage import (
    Assemblage,
    Scenario,
    element_keys,
    group_rows,
    require_assemblage,
    require_valid,
)
from .errors import DimMismatchError, ScenarioMismatchError
from .linalg import _psd_factors, as_matrix, clamp_spectrum, dagger, psd_sqrt, require_psd
from .states import IDENTITY_2, PAULI_X, PAULI_Y, PAULI_Z

# Witness coefficients as published (decimals, not presumed exact surds).
COEFF_ZZ = 0.1547
COEFF_2SDI_MARGINAL = 0.1831
COEFF_2SDI_CORRELATOR = 0.2582

# Setting index used for single-party marginal terms (the Z slot); the
# witnesses validate their input first, per-party marginal no-signaling
# included, so the choice cannot shift the value.
MARGINAL_SETTING = 2


def fidelity_terms(stacks, factors) -> np.ndarray:
    """Root fidelities Tr sqrt(R^dag sigma R) of (..., E, d, d) stacks against (E, d, r) factors.

    R R^dag is the reference element, and R is either its principal root
    (r = d, used as R^dag) or, for a rank <= 1 element, the column u (r = 1),
    which gives sqrt(u^dag sigma u) with no eigensolve (Nielsen & Chuang,
    sec. 9.2.2).  The result has shape (..., E).  Inputs are trusted PSD.
    """
    if factors.shape[-1] == 1:
        w = np.einsum("eir,...eij,ejr->...er", factors.conj(), stacks, factors).real
    else:
        m = factors @ stacks @ factors
        w = np.linalg.eigvalsh((m + dagger(m)) / 2)
    return np.sqrt(clamp_spectrum(w)).sum(axis=-1)


def root_fidelity(sigma, rho) -> float:
    """Tr sqrt( sqrt(sigma) rho sqrt(sigma) ) for equal-dim PSD matrices.

    Symmetric in its arguments and bounded by sqrt(Tr sigma * Tr rho).
    """
    a = require_psd(as_matrix(sigma))
    b = require_psd(as_matrix(rho))
    if a.shape != b.shape:
        raise DimMismatchError(f"shape mismatch {a.shape} vs {b.shape}")
    return float(fidelity_terms(b, psd_sqrt(a)))


@functools.lru_cache(maxsize=8)
def _target_factor(target: Assemblage) -> np.ndarray:
    """Read-only factors R (E, d, r), R R^dag = element, of a target; Assemblage hashes by identity.

    R is the column u (r = 1) when every element has rank <= 1, so that
    ``fidelity_terms`` runs no eigensolve, and the principal root otherwise.
    """
    factors, roots = _psd_factors(target.stack)
    factor = roots if factors[..., :-1].any() else factors[..., -1:]
    factor.setflags(write=False)
    return factor


def _fidelities(stacks: np.ndarray, target: Assemblage) -> np.ndarray:
    """``assemblage_fidelity`` of each (E, d, d) stack of a trusted PSD (..., E, d, d) block."""
    f = fidelity_terms(stacks, _target_factor(target))
    return f[..., group_rows(target.scenario)].sum(axis=-1).min(axis=-1)


def assemblage_fidelity(asm: Assemblage, target: Assemblage) -> float:
    """Minimum over settings of the summed element root fidelities.

    Equals 1 only when the assemblages coincide; for the two-sided scenario
    the minimum runs over all nine joint settings.
    """
    if require_assemblage(asm).scenario is not require_assemblage(target, "target").scenario:
        raise ScenarioMismatchError(
            f"cannot compare {asm.scenario.value} against {target.scenario.value}"
        )
    return float(_fidelities(require_psd(asm.stack), target))


@dataclass(frozen=True)
class WitnessResult:
    """Witness value plus the named expectation values entering it."""

    scenario: Scenario
    value: float
    terms: dict[str, float]

    @property
    def violated(self) -> bool:
        """Negative value certifies genuine tripartite steering."""
        return self.value < 0


def witness_value_from_terms(scenario: Scenario, terms: dict[str, float]) -> float:
    """Recombine named expectation values with the published coefficients."""
    t = terms
    if Scenario(scenario) is Scenario.ONE_SIDED:
        return 1.0 + COEFF_ZZ * t["ZZ"] - (
            t["A3ZB"] + t["A3ZC"] + t["A1XX"] - t["A1YY"] - t["A2XY"] - t["A2YX"]
        ) / 3.0
    return (
        1.0
        - COEFF_2SDI_MARGINAL * (t["A3B3"] + t["A3ZC"] + t["B3ZC"])
        - COEFF_2SDI_CORRELATOR * (t["A1B1X"] - t["A1B2Y"] - t["A2B1Y"] - t["A2B2X"])
    )


def _term_table(scenario: Scenario, spec) -> tuple[tuple[str, ...], np.ndarray]:
    """Operator table W (T, E, d, d) with term_t = Re sum_e Tr(W[t, e] sigma_e).

    Each spec entry (name, setting, op, mask) sums op over the outcomes of
    one setting with sign (-1)**(mask . outcomes).
    """
    keys = element_keys(scenario)
    d = spec[0][2].shape[0]
    table = np.zeros((len(spec), len(keys), d, d), dtype=complex)
    for t, (_, setting, op, mask) in enumerate(spec):
        for e, key in enumerate(keys):
            outcomes, key_setting = key[: len(mask)], key[len(mask):]
            if key_setting == setting:
                table[t, e] = (-1) ** sum(m * o for m, o in zip(mask, outcomes)) * op
    table.setflags(write=False)
    return tuple(name for name, *_ in spec), table


_TERMS = {
    # Correlators with Alice use the (-1)**a sign convention; the trusted
    # Z (x) Z marginal is read off the Z setting.
    Scenario.ONE_SIDED: _term_table(Scenario.ONE_SIDED, (
        ("ZZ", (MARGINAL_SETTING,), np.kron(PAULI_Z, PAULI_Z), (0,)),
        ("A3ZB", (2,), np.kron(PAULI_Z, IDENTITY_2), (1,)),
        ("A3ZC", (2,), np.kron(IDENTITY_2, PAULI_Z), (1,)),
        ("A1XX", (0,), np.kron(PAULI_X, PAULI_X), (1,)),
        ("A1YY", (0,), np.kron(PAULI_Y, PAULI_Y), (1,)),
        ("A2XY", (1,), np.kron(PAULI_X, PAULI_Y), (1,)),
        ("A2YX", (1,), np.kron(PAULI_Y, PAULI_X), (1,)),
    )),
    # Joint correlators carry (-1)**(a+b); the single-party marginal terms fix
    # the partner's setting to the Z slot.
    Scenario.TWO_SIDED: _term_table(Scenario.TWO_SIDED, (
        ("A3B3", (2, 2), IDENTITY_2, (1, 1)),
        ("A3ZC", (2, MARGINAL_SETTING), PAULI_Z, (1, 0)),
        ("B3ZC", (MARGINAL_SETTING, 2), PAULI_Z, (0, 1)),
        ("A1B1X", (0, 0), PAULI_X, (1, 1)),
        ("A1B2Y", (0, 1), PAULI_Y, (1, 1)),
        ("A2B1Y", (1, 0), PAULI_Y, (1, 1)),
        ("A2B2X", (1, 1), PAULI_X, (1, 1)),
    )),
}


def _term_values(stacks: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Named expectation values of (..., E, d, d) stacks, one per ``_TERMS`` name (last axis)."""
    return np.einsum("teij,...eji->...t", _TERMS[scenario][1], stacks).real


def _witness(asm: Assemblage, scenario: Scenario) -> WitnessResult:
    if require_assemblage(asm).scenario is not scenario:
        raise ScenarioMismatchError(f"witness_{scenario.value} needs a {scenario.value} assemblage")
    require_valid(asm)
    terms = dict(zip(_TERMS[scenario][0], _term_values(asm.stack, scenario).tolist()))
    return WitnessResult(scenario, witness_value_from_terms(scenario, terms), terms)


def _witness_values(stacks: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Witness values (T,) of a valid (T, E, d, d) block, each as ``witness`` computes it."""
    columns = _term_values(stacks, scenario).T
    return witness_value_from_terms(scenario, dict(zip(_TERMS[scenario][0], columns)))


def witness_1sdi(asm: Assemblage) -> WitnessResult:
    """One-sided genuine-steering witness; negative on steerable assemblages."""
    return _witness(asm, Scenario.ONE_SIDED)


def witness_2sdi(asm: Assemblage) -> WitnessResult:
    """Two-sided genuine-steering witness; negative on steerable assemblages."""
    return _witness(asm, Scenario.TWO_SIDED)


def witness(asm: Assemblage) -> WitnessResult:
    """Dispatch to the witness matching the assemblage's scenario."""
    return (witness_1sdi, witness_2sdi)[require_assemblage(asm).scenario.parties - 1](asm)
