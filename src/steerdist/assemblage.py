"""Conditional-state families (assemblages) for the one- and two-sided
device-independent steering scenarios.

One-sided: Alice is untrusted; elements sigma_{a|x} live on the B (x) C
qubits (dim 4).  Two-sided: Alice and Bob are untrusted; elements
sigma_{ab|xy} live on Charlie's qubit (dim 2).  Elements are unnormalized:
Tr sigma is the outcome probability.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType

import numpy as np

from .errors import (
    BadMaskError,
    DimMismatchError,
    InvariantViolationError,
    SchemaError,
    ScenarioMismatchError,
)
from .linalg import TOL_HERM, TOL_PSD, dagger, kron, partial_trace
from .states import MeasurementSet, PureState, check_theta, pauli_xyz

OUTCOMES = (0, 1)
N_SETTINGS = 3

# Default tolerance for normalization and no-signaling checks.
TOL_ASSEMBLAGE = 1e-10


class Scenario(str, Enum):
    ONE_SIDED = "1sdi"
    TWO_SIDED = "2sdi"


def element_keys(scenario: Scenario) -> tuple[tuple[int, ...], ...]:
    """Full index grid of an assemblage: (a, x) or (a, b, x, y) tuples."""
    if scenario is Scenario.ONE_SIDED:
        return tuple((a, x) for x in range(N_SETTINGS) for a in OUTCOMES)
    return tuple(
        (a, b, x, y)
        for x in range(N_SETTINGS)
        for y in range(N_SETTINGS)
        for a in OUTCOMES
        for b in OUTCOMES
    )


def setting_groups(scenario: Scenario) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Element keys grouped by measurement setting.

    Normalization sums, the fidelity minimum and filter success
    probabilities all run over these groups.
    """
    if scenario is Scenario.ONE_SIDED:
        return tuple(tuple((a, x) for a in OUTCOMES) for x in range(N_SETTINGS))
    return tuple(
        tuple((a, b, x, y) for a in OUTCOMES for b in OUTCOMES)
        for x in range(N_SETTINGS)
        for y in range(N_SETTINGS)
    )


@functools.cache
def group_rows(scenario: Scenario) -> np.ndarray:
    """(G, outcomes) table of stack rows, one row per setting group."""
    row = {k: i for i, k in enumerate(element_keys(scenario))}
    rows = np.array([[row[k] for k in group] for group in setting_groups(scenario)])
    rows.setflags(write=False)
    return rows


def _key_str(key: tuple[int, ...]) -> str:
    if len(key) == 2:
        return f"{key[0]}|{key[1]}"
    a, b, x, y = key
    return f"{a}{b}|{x}{y}"


def _key_from_str(s: str, scenario: Scenario) -> tuple[int, ...]:
    out, setting = s.split("|")
    digits = tuple(int(c) for c in out) + tuple(int(c) for c in setting)
    expected = 2 if scenario is Scenario.ONE_SIDED else 4
    if len(digits) != expected:
        raise ValueError(f"element key {s!r} does not match scenario {scenario.value}")
    return digits


@dataclass
class Violation:
    check: str
    where: str
    deviation: float


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def max_deviation(self, check: str | None = None) -> float:
        devs = [v.deviation for v in self.violations if check is None or v.check == check]
        return max(devs, default=0.0)

    def checks_failed(self) -> set[str]:
        return {v.check for v in self.violations}

    def to_json_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [
                {"check": v.check, "where": v.where, "deviation": v.deviation}
                for v in self.violations
            ],
        }


@dataclass(frozen=True)
class Assemblage:
    """Immutable table of unnormalized conditional states over the index grid.

    The elements are stored once, as the read-only ``stack`` of shape
    (E, d, d) in ``element_keys`` order; ``elements`` maps each key to its
    row of the stack.
    """

    scenario: Scenario
    elements: Mapping[tuple[int, ...], np.ndarray]
    theta: float | None = None
    stack: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        scenario = Scenario(self.scenario)
        dim = 4 if scenario is Scenario.ONE_SIDED else 2
        keys = element_keys(scenario)
        if set(self.elements) != set(keys):
            missing = set(keys) - set(self.elements)
            extra = set(self.elements) - set(keys)
            raise ScenarioMismatchError(
                f"element grid mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        stack = np.empty((len(keys), dim, dim), dtype=complex)
        for i, k in enumerate(keys):
            m = np.asarray(self.elements[k], dtype=complex)
            if m.shape != (dim, dim):
                raise DimMismatchError(
                    f"element {_key_str(k)} has shape {m.shape}, expected ({dim}, {dim})"
                )
            stack[i] = m
        finite = np.isfinite(stack).all(axis=(1, 2))
        if not finite.all():
            bad = keys[int(np.argmin(finite))]
            raise InvariantViolationError(f"element {_key_str(bad)} has NaN or Inf entries")
        stack.setflags(write=False)
        object.__setattr__(self, "scenario", scenario)
        object.__setattr__(self, "stack", stack)
        object.__setattr__(self, "elements", MappingProxyType(dict(zip(keys, stack))))

    @classmethod
    def _of_stack(cls, scenario: Scenario, stack: np.ndarray, theta=None) -> "Assemblage":
        return cls(scenario, dict(zip(element_keys(scenario), stack)), theta)

    @property
    def element_dim(self) -> int:
        return 4 if self.scenario is Scenario.ONE_SIDED else 2

    def element(self, *key: int) -> np.ndarray:
        return self.elements[tuple(key)]

    def setting_totals(self) -> np.ndarray:
        """Sum of elements over outcomes, one matrix per setting group."""
        return self.stack[group_rows(self.scenario)].sum(axis=1)

    def probabilities(self) -> dict[tuple[int, ...], float]:
        traces = np.trace(self.stack, axis1=1, axis2=2).real
        return dict(zip(element_keys(self.scenario), traces.tolist()))

    def to_json_dict(self) -> dict:
        doc = {
            "scenario": self.scenario.value,
            "elements": {
                _key_str(k): [[[float(z.real), float(z.imag)] for z in row] for row in m]
                for k, m in self.elements.items()
            },
        }
        if self.theta is not None:
            doc["theta"] = float(self.theta)
        return doc

    @classmethod
    def from_json_dict(cls, doc: dict) -> "Assemblage":
        """Parse the interchange format; any structural defect raises SchemaError."""
        try:
            scenario = Scenario(doc["scenario"])
            elements = {
                _key_from_str(key_s, scenario): np.array(
                    [[complex(re, im) for re, im in row] for row in rows], dtype=complex
                )
                for key_s, rows in doc["elements"].items()
            }
            theta = None if doc.get("theta") is None else float(doc["theta"])
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"malformed assemblage JSON ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(scenario, elements, theta=theta)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Assemblage":
        with open(path, encoding="utf-8") as fh:
            return cls.from_json_dict(json.load(fh))


def convex_mix(weights, assemblages) -> Assemblage:
    """Elementwise convex mixture of assemblages from one scenario."""
    assemblages = list(assemblages)
    weights = [float(w) for w in weights]
    if len(weights) != len(assemblages) or not assemblages:
        raise ValueError("need one weight per assemblage")
    scenario = assemblages[0].scenario
    if any(a.scenario is not scenario for a in assemblages):
        raise ScenarioMismatchError("cannot mix assemblages across scenarios")
    mixed = sum(w * a.stack for w, a in zip(weights, assemblages))
    return Assemblage._of_stack(scenario, mixed)


def _flag(report: ValidationReport, check: str, devs, limit: float, wheres) -> None:
    for i in np.flatnonzero(devs > limit):
        report.violations.append(Violation(check, wheres[i], float(devs[i])))


def validate(
    asm: Assemblage,
    tol: float = TOL_ASSEMBLAGE,
    tol_psd: float = TOL_PSD,
) -> ValidationReport:
    """Check Hermiticity, positivity, normalization and no-signaling.

    Returns a report listing every violated invariant with its maximum
    deviation; an empty report means the assemblage is valid.
    """
    report = ValidationReport()
    s = asm.stack
    keys = [_key_str(k) for k in element_keys(asm.scenario)]
    _flag(report, "hermitian", np.abs(s - dagger(s)).max(axis=(1, 2)), TOL_HERM, keys)
    low = np.linalg.eigvalsh((s + dagger(s)) / 2)[:, 0]
    _flag(report, "psd", -low, tol_psd, keys)

    settings = [_key_str(g[0]).split("|")[1] for g in setting_groups(asm.scenario)]
    totals = asm.setting_totals()
    norm = np.abs(np.trace(totals, axis1=1, axis2=2).real - 1.0)
    _flag(report, "normalization", norm, tol, [f"x={x}" for x in settings])
    # No-signaling: the reduced state summed over outcomes must not depend
    # on the measurement setting(s).
    drift = np.abs(totals[1:] - totals[0]).max(axis=(1, 2))
    _flag(report, "no_signaling", drift, tol, [f"setting {x}" for x in settings[1:]])

    if asm.scenario is Scenario.TWO_SIDED:
        # Bob-side marginal independent of Alice's setting, and vice versa;
        # each marginal is laid out as (varied setting, fixed setting, outcome).
        o, x = len(OUTCOMES), N_SETTINGS
        grid = s.reshape(x, x, o, o, *s.shape[1:])
        marginals = (
            (grid.sum(axis=2), "sum_a sigma(a,{o}|x,{s}) varies with x"),
            (grid.sum(axis=3).swapaxes(0, 1), "sum_b sigma({o},b|{s},y) varies with y"),
        )
        for marg, text in marginals:
            dev = np.abs(marg[1:] - marg[:1]).max(axis=(-2, -1)).transpose(2, 1, 0)
            wheres = [text.format(o=o, s=s) for o, s, _ in np.ndindex(dev.shape)]
            _flag(report, "no_signaling", dev.ravel(), tol, wheres)

    return report


def require_valid(asm: Assemblage, tol: float = TOL_ASSEMBLAGE) -> Assemblage:
    report = validate(asm, tol=tol)
    if not report.ok:
        failed = ", ".join(sorted(report.checks_failed()))
        raise InvariantViolationError(
            f"assemblage invalid ({failed}; max deviation {report.max_deviation():.3e})"
        )
    return asm


def _two_qubit_pair_ket(c: float, s: complex) -> np.ndarray:
    """c|00> + s|11> on the B (x) C register (indices 0 and 3)."""
    v = np.zeros(4, dtype=complex)
    v[0] = c
    v[3] = s
    return v


def _proj(v: np.ndarray) -> np.ndarray:
    return np.outer(v, v.conj())


def gghz_assemblage_1sdi(theta) -> Assemblage:
    """Closed-form one-sided assemblage of the GGHZ state under X, Y, Z.

    The X and Y settings leave (cos|00> +- sin|11>)-type pure states with
    probability 1/2 each; the Z setting leaves |00> and |11> with
    probabilities cos^2 and sin^2.
    """
    t = check_theta(theta)
    c, s = math.cos(t), math.sin(t)
    plus_re = _two_qubit_pair_ket(c, s)
    minus_re = _two_qubit_pair_ket(c, -s)
    plus_im = _two_qubit_pair_ket(c, 1j * s)
    minus_im = _two_qubit_pair_ket(c, -1j * s)
    zero_zero = np.zeros(4, dtype=complex)
    zero_zero[0] = 1.0
    one_one = np.zeros(4, dtype=complex)
    one_one[3] = 1.0

    elements = {
        (0, 0): _proj(plus_re) / 2,
        (1, 0): _proj(minus_re) / 2,
        (0, 1): _proj(minus_im) / 2,  # Y outcome 0 picks the -i branch
        (1, 1): _proj(plus_im) / 2,
        (0, 2): c**2 * _proj(zero_zero),
        (1, 2): s**2 * _proj(one_one),
    }
    return Assemblage(Scenario.ONE_SIDED, elements, theta=t)


def gghz_assemblage_2sdi(theta) -> Assemblage:
    """Closed-form two-sided assemblage of the GGHZ state under X, Y, Z.

    Elements live on Charlie's qubit.  The two zero-probability slots of
    the (Z, Z) setting are stored as explicit zero matrices so that
    normalization sums close.
    """
    t = check_theta(theta)
    c, s = math.cos(t), math.sin(t)
    q_plus = np.array([c, s], dtype=complex)
    q_minus = np.array([c, -s], dtype=complex)
    q_plus_i = np.array([c, 1j * s], dtype=complex)
    q_minus_i = np.array([c, -1j * s], dtype=complex)
    p0 = np.array([[1, 0], [0, 0]], dtype=complex)
    p1 = np.array([[0, 0], [0, 1]], dtype=complex)

    elements: dict[tuple[int, ...], np.ndarray] = {}
    for x in range(2):
        for y in range(2):
            for a in OUTCOMES:
                for b in OUTCOMES:
                    if x == y:
                        # XX / YY settings: parity of outcomes picks the branch;
                        # the YY setting swaps which parity gets the + branch.
                        even = (a + b) % 2 == 0
                        plus = even if x == 0 else not even
                        v = q_plus if plus else q_minus
                    else:
                        # XY / YX settings: even parity picks the -i branch.
                        even = (a + b) % 2 == 0
                        v = q_minus_i if even else q_plus_i
                    elements[(a, b, x, y)] = _proj(v) / 4
    # One party measures Z while the other measures X or Y: the Z outcome
    # fixes Charlie's state, the partner's outcome is uniform.
    for other in range(2):
        for a_z in OUTCOMES:
            branch = (c**2 / 2) * p0 if a_z == 0 else (s**2 / 2) * p1
            for a_other in OUTCOMES:
                elements[(a_other, a_z, other, 2)] = branch  # Bob on Z
                elements[(a_z, a_other, 2, other)] = branch  # Alice on Z
    elements[(0, 0, 2, 2)] = c**2 * p0
    elements[(1, 1, 2, 2)] = s**2 * p1
    elements[(0, 1, 2, 2)] = np.zeros((2, 2), dtype=complex)
    elements[(1, 0, 2, 2)] = np.zeros((2, 2), dtype=complex)
    return Assemblage(Scenario.TWO_SIDED, elements, theta=t)


def gghz_assemblage(theta, scenario: Scenario) -> Assemblage:
    """Closed-form GGHZ assemblage of the given scenario."""
    if Scenario(scenario) is Scenario.ONE_SIDED:
        return gghz_assemblage_1sdi(theta)
    return gghz_assemblage_2sdi(theta)


def ghz_assemblage(scenario: Scenario) -> Assemblage:
    """The perfectly genuine-steerable target: GGHZ at theta = pi/4."""
    return gghz_assemblage(math.pi / 4, scenario)


def assemblage_from_state(state: PureState, parties, sets=None) -> Assemblage:
    """Generic route: measure the listed untrusted parties of a tripartite state.

    ``parties`` is "A" (one-sided) or "AB" (two-sided); ``sets`` is one
    MeasurementSet shared by all measured parties, or one per party
    (defaults to the Pauli X, Y, Z set).  The result is validated before
    being returned.
    """
    if state.dim != 8:
        raise DimMismatchError(f"need a three-qubit state, got dim {state.dim}")
    party_str = "".join(parties).upper()
    if party_str not in ("A", "AB"):
        raise BadMaskError(f"measured parties must be 'A' or 'AB', got {parties!r}")
    if sets is None:
        sets = pauli_xyz()
    if isinstance(sets, MeasurementSet):
        sets = (sets,) * len(party_str)
    sets = tuple(sets)
    if len(sets) != len(party_str):
        raise BadMaskError(f"need one measurement set per measured party, got {len(sets)}")

    rho = state.density_matrix()
    eye2 = np.eye(2, dtype=complex)
    elements: dict[tuple[int, ...], np.ndarray] = {}
    if party_str == "A":
        set_a = sets[0]
        for x in range(N_SETTINGS):
            for a in OUTCOMES:
                op = kron(set_a.projector(a, x), kron(eye2, eye2))
                elements[(a, x)] = partial_trace(op @ rho, keep=(1, 2))
        asm = Assemblage(Scenario.ONE_SIDED, elements, theta=state.theta)
    else:
        set_a, set_b = sets
        for x in range(N_SETTINGS):
            for y in range(N_SETTINGS):
                for a in OUTCOMES:
                    for b in OUTCOMES:
                        op = kron(
                            set_a.projector(a, x), kron(set_b.projector(b, y), eye2)
                        )
                        elements[(a, b, x, y)] = partial_trace(op @ rho, keep=(2,))
        asm = Assemblage(Scenario.TWO_SIDED, elements, theta=state.theta)
    return require_valid(asm)
