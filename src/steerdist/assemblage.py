"""Conditional-state families (assemblages) for the one- and two-sided
device-independent steering scenarios.

A scenario is fixed by k, the number of untrusted parties, which are the
first k of the three qubits A, B, C.  One-sided: k = 1 (Alice); elements
sigma_{a|x} live on the B (x) C qubits (dim 4).  Two-sided: k = 2 (Alice
and Bob); elements sigma_{ab|xy} live on Charlie's qubit (dim 2).
Elements are unnormalized: Tr sigma is the outcome probability.
"""
from __future__ import annotations

import functools
import json
import math
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field
from enum import Enum
from itertools import product
from types import MappingProxyType

import numpy as np

from .errors import (
    BadArgumentError,
    BadMaskError,
    DimMismatchError,
    InvariantViolationError,
    SchemaError,
    ScenarioMismatchError,
    check_array,
    check_path,
    check_real,
    check_sequence,
)
from .linalg import TOL_HERM, TOL_PSD, _lowest_eigenvalues, dagger, kron, partial_trace
from .states import MeasurementSet, PureState, check_theta, pauli_xyz

OUTCOMES = (0, 1)
N_SETTINGS = 3

# Default tolerance for normalization and no-signaling checks.
TOL_ASSEMBLAGE = 1e-10


class Scenario(str, Enum):
    ONE_SIDED = "1sdi"
    TWO_SIDED = "2sdi"

    @classmethod
    def _missing_(cls, value):
        raise ScenarioMismatchError(f"unknown scenario {value!r}, expected '1sdi' or '2sdi'")

    @property
    def parties(self) -> int:
        """Number of untrusted (measured) parties, k."""
        return 1 if self is Scenario.ONE_SIDED else 2

    @property
    def element_dim(self) -> int:
        """Dimension of an element: the trusted qubits, 2**(3 - k)."""
        return 2 ** (3 - self.parties)


@functools.cache
def setting_groups(scenario: Scenario) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """Element keys (outcomes..., settings...) grouped by measurement setting.

    Settings run outer and outcomes inner, each in ``itertools.product``
    order over the k untrusted parties.  Normalization sums, the fidelity
    minimum and filter success probabilities all run over these groups.
    """
    k = Scenario(scenario).parties
    return tuple(
        tuple(outcomes + settings for outcomes in product(OUTCOMES, repeat=k))
        for settings in product(range(N_SETTINGS), repeat=k)
    )


@functools.cache
def element_keys(scenario: Scenario) -> tuple[tuple[int, ...], ...]:
    """Full index grid of an assemblage: (a, x) or (a, b, x, y) tuples."""
    return tuple(key for group in setting_groups(scenario) for key in group)


@functools.cache
def group_rows(scenario: Scenario) -> np.ndarray:
    """(G, outcomes) table of stack rows, one row per setting group."""
    # element_keys lists the groups one after another.
    rows = np.arange(len(element_keys(scenario))).reshape(len(setting_groups(scenario)), -1)
    rows.setflags(write=False)
    return rows


@functools.cache
def _key_str(key: tuple[int, ...]) -> str:
    k = len(key) // 2
    return "".join(map(str, key[:k])) + "|" + "".join(map(str, key[k:]))


def _key_from_str(s: str, scenario: Scenario) -> tuple[int, ...]:
    parts = s.split("|")
    if len(parts) != 2 or any(len(p) != scenario.parties for p in parts):
        raise SchemaError(f"element key {s!r} does not match scenario {scenario.value}")
    return tuple(int(c) for c in "".join(parts))


def _json_number(x) -> float:
    """A number from the interchange format; JSON true/false and text are refused."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise SchemaError(f"expected a number, got {x!r}")
    return float(x)


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
        return {"ok": self.ok, "violations": [asdict(v) for v in self.violations]}


@dataclass(frozen=True, eq=False)
class Assemblage:
    """Immutable table of unnormalized conditional states over the index grid.

    The elements are stored once, as the read-only ``stack`` of shape
    (E, d, d) in ``element_keys`` order; ``elements`` maps each key to its
    row of the stack.  Equality and hashing are by identity.
    """

    scenario: Scenario
    elements: Mapping[tuple[int, ...], np.ndarray]
    theta: float | None = None
    stack: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        scenario = Scenario(self.scenario)
        if self.theta is not None:
            check_real(self.theta, "theta", error=InvariantViolationError)
        if not isinstance(self.elements, Mapping):
            kind = type(self.elements).__name__
            raise BadArgumentError(f"elements must be a mapping, got {kind}")
        dim = scenario.element_dim
        keys = element_keys(scenario)
        if set(self.elements) != set(keys):
            missing = set(keys) - set(self.elements)
            extra = set(self.elements) - set(keys)
            raise ScenarioMismatchError(
                f"element grid mismatch (missing {sorted(missing)}, extra {sorted(extra)})"
            )
        stack = check_array([self.elements[k] for k in keys], "elements", InvariantViolationError)
        if stack.shape[1:] != (dim, dim):
            raise DimMismatchError(f"element shape {stack.shape[1:]}, expected ({dim}, {dim})")
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
        return self.scenario.element_dim

    def element(self, *key: int) -> np.ndarray:
        try:
            return self.elements[key]
        except (KeyError, TypeError):   # off the grid, or unhashable
            raise BadArgumentError(f"{key!r} is not a {self.scenario.value} key") from None

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
                    [[complex(_json_number(re), _json_number(im)) for re, im in row]
                     for row in rows],
                    dtype=complex,
                )
                for key_s, rows in doc["elements"].items()
            }
            theta = None if doc.get("theta") is None else _json_number(doc["theta"])
        except (AttributeError, KeyError, OverflowError, TypeError, ValueError) as exc:
            raise SchemaError(
                f"malformed assemblage JSON ({type(exc).__name__}: {exc})"
            ) from exc
        return cls(scenario, elements, theta=theta)

    def save(self, path) -> None:
        with open(check_path(path), "w", encoding="utf-8") as fh:
            json.dump(self.to_json_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Assemblage":
        with open(check_path(path), encoding="utf-8") as fh:
            try:
                return cls.from_json_dict(json.load(fh))
            except RecursionError as exc:   # nesting deeper than the parser's stack
                raise SchemaError(f"malformed assemblage JSON (RecursionError: {exc})") from exc


def require_assemblage(asm, name: str = "assemblage") -> Assemblage:
    if not isinstance(asm, Assemblage):
        raise BadArgumentError(f"{name} must be an Assemblage, got {type(asm).__name__}")
    return asm


def convex_mix(weights, assemblages) -> Assemblage:
    """Elementwise convex mixture of assemblages from one scenario.

    The weights must be finite, non-negative and sum to 1 within
    TOL_ASSEMBLAGE, so that the mixture is an assemblage again.
    """
    weights = [check_real(w, "mixing weights", 0.0) for w in check_sequence(weights, "weights")]
    assemblages = [require_assemblage(a) for a in check_sequence(assemblages, "assemblages")]
    if len(weights) != len(assemblages) or not assemblages:
        raise BadArgumentError("need one weight per assemblage")
    if abs(sum(weights) - 1.0) > TOL_ASSEMBLAGE:
        raise BadArgumentError(f"mixing weights must sum to 1, got {weights}")
    scenario = assemblages[0].scenario
    if any(a.scenario is not scenario for a in assemblages):
        raise ScenarioMismatchError("cannot mix assemblages across scenarios")
    mixed = sum(w * a.stack for w, a in zip(weights, assemblages))
    return Assemblage._of_stack(scenario, mixed)


def _flag(report: ValidationReport, check: str, devs, limit: float, wheres) -> None:
    for i in np.flatnonzero(devs > limit):
        report.violations.append(Violation(check, wheres[i], float(devs[i])))


@functools.cache
def _sites(scenario: Scenario) -> tuple[tuple[str, ...], ...]:
    """Where each deviation of ``_deviations`` is reported, in the same order."""
    keys = tuple(_key_str(k) for k in element_keys(scenario))
    settings = [_key_str(g[0]).split("|")[1] for g in setting_groups(scenario)]
    sites = [keys, keys, tuple(f"x={x}" for x in settings),
             tuple(f"setting {x}" for x in settings[1:])]
    if scenario is Scenario.TWO_SIDED:
        for text in ("sum_a sigma(a,{o}|x,{s}) varies with x",
                     "sum_b sigma({o},b|{s},y) varies with y"):
            shape = (len(OUTCOMES), N_SETTINGS, N_SETTINGS - 1)
            sites.append(tuple(text.format(o=o, s=s) for o, s, _ in np.ndindex(shape)))
    return tuple(sites)


def _deviations(stacks: np.ndarray, scenario: Scenario) -> list[tuple[str, np.ndarray]]:
    """(check, deviations (T, n)) of every invariant of a (T, E, d, d) block of finite stacks.

    The n deviations of a check are reported at ``_sites(scenario)``, in the
    same order: Hermiticity and positivity per element, normalization per
    setting group, no-signaling per setting after the first and, two-sided,
    per single-party marginal.
    """
    herm = np.abs(stacks - dagger(stacks)).max(axis=(-2, -1))
    low = _lowest_eigenvalues(stacks / 2 + dagger(stacks) / 2)
    totals = stacks[:, group_rows(scenario)].sum(axis=2)
    norm = np.abs(np.trace(totals, axis1=-2, axis2=-1).real - 1.0)
    # No-signaling: the reduced state summed over outcomes must not depend
    # on the measurement setting(s).
    drift = np.abs(totals[:, 1:] - totals[:, :1]).max(axis=(-2, -1))
    devs = [("hermitian", herm), ("psd", -low), ("normalization", norm), ("no_signaling", drift)]
    if scenario is Scenario.TWO_SIDED:
        # Bob-side marginal independent of Alice's setting, and vice versa;
        # each marginal is laid out as (varied setting, fixed setting, outcome).
        o, x = len(OUTCOMES), N_SETTINGS
        grid = stacks.reshape(len(stacks), x, x, o, o, *stacks.shape[-2:])
        for marg in (grid.sum(axis=3), grid.sum(axis=4).swapaxes(1, 2)):
            dev = np.abs(marg[:, 1:] - marg[:, :1]).max(axis=(-2, -1)).transpose(0, 3, 2, 1)
            devs.append(("no_signaling", dev.reshape(len(stacks), -1)))
    return devs


def _limit(check: str, tol: float, tol_psd: float) -> float:
    return {"hermitian": TOL_HERM, "psd": tol_psd}.get(check, tol)


def validate(
    asm: Assemblage,
    tol: float = TOL_ASSEMBLAGE,
    tol_psd: float = TOL_PSD,
) -> ValidationReport:
    """Check Hermiticity, positivity, normalization and no-signaling.

    Returns a report listing every violated invariant with its maximum
    deviation; an empty report means the assemblage is valid.
    """
    require_assemblage(asm)
    tol, tol_psd = check_real(tol, "tol", 0.0), check_real(tol_psd, "tol_psd", 0.0)
    report = ValidationReport()
    found = _deviations(asm.stack[None], asm.scenario)
    for (check, devs), wheres in zip(found, _sites(asm.scenario)):
        _flag(report, check, devs[0], _limit(check, tol, tol_psd), wheres)
    return report


def _valid_rows(stacks: np.ndarray, scenario: Scenario) -> np.ndarray:
    """Which rows of a (T, E, d, d) block ``require_valid`` would pass, as a (T,) mask."""
    finite = np.isfinite(stacks).all(axis=(1, 2, 3))
    ok = np.ones(int(finite.sum()), dtype=bool)
    for check, devs in _deviations(stacks if finite.all() else stacks[finite], scenario):
        ok &= ~(devs > _limit(check, TOL_ASSEMBLAGE, TOL_PSD)).any(axis=1)
    finite[finite] = ok
    return finite


def require_valid(asm: Assemblage, tol: float = TOL_ASSEMBLAGE) -> Assemblage:
    report = validate(asm, tol=tol)
    if not report.ok:
        failed = ", ".join(sorted(report.checks_failed()))
        raise InvariantViolationError(
            f"assemblage invalid ({failed}; max deviation {report.max_deviation():.3e})"
        )
    return asm


@functools.cache
def _gghz_parts(scenario: Scenario) -> np.ndarray:
    """Theta-free (3, E, d, d) stacks whose mix is the GGHZ assemblage.

    The GGHZ state is c**2 |000><000| + s**2 |111><111| + c*s (|000><111| +
    h.c.), and an element is linear in it.  Under the projector P of the k
    untrusted parties, the three terms leave <0..0|P|0..0> |0..0><0..0|,
    <1..1|P|1..1> |1..1><1..1| and <1..1|P|0..0> |0..0><1..1| + h.c. on the
    trusted qubits.  Entries are products of 0, 1, +-1/2 and +-i/2, so exact.
    """
    k, d = scenario.parties, scenario.element_dim
    projector = pauli_xyz().projector
    parts = np.zeros((3, len(element_keys(scenario)), d, d), dtype=complex)
    for e, key in enumerate(element_keys(scenario)):
        p = functools.reduce(np.kron, map(projector, key[:k], key[k:]))
        parts[0, e, 0, 0], parts[1, e, -1, -1] = p[0, 0], p[-1, -1]
        parts[2, e, 0, -1], parts[2, e, -1, 0] = p[-1, 0], p[0, -1]
    parts += 0.0  # no negative zeros from the products
    parts.setflags(write=False)
    return parts


def _gghz_stacks(thetas, scenario: Scenario) -> np.ndarray:
    """GGHZ element stacks (T, E, d, d), one per angle; each angle is checked."""
    weights = []
    for t in map(check_theta, thetas):
        c, s = math.cos(t), math.sin(t)
        weights.append((c**2, s**2, c * s))
    c2, s2, cs = np.array(weights).T.reshape(3, -1, 1, 1, 1)
    zero, one, coherence = _gghz_parts(scenario)
    return c2 * zero + s2 * one + cs * coherence


def _gghz_assemblage(theta, scenario: Scenario) -> Assemblage:
    t = check_theta(theta)
    return Assemblage._of_stack(scenario, _gghz_stacks((t,), scenario)[0], t)


def gghz_assemblage_1sdi(theta) -> Assemblage:
    """Closed-form one-sided GGHZ assemblage under X, Y, Z (Alice measured)."""
    return _gghz_assemblage(theta, Scenario.ONE_SIDED)


def gghz_assemblage_2sdi(theta) -> Assemblage:
    """Closed-form two-sided GGHZ assemblage under X, Y, Z (Alice, Bob measured)."""
    return _gghz_assemblage(theta, Scenario.TWO_SIDED)


def gghz_assemblage(theta, scenario: Scenario) -> Assemblage:
    """Closed-form GGHZ assemblage of the given scenario."""
    # Looked up by name, so wrappers of the public builders see every build.
    builders = (gghz_assemblage_1sdi, gghz_assemblage_2sdi)
    return builders[Scenario(scenario).parties - 1](theta)


def ghz_assemblage(scenario: Scenario) -> Assemblage:
    """The perfectly genuine-steerable target: GGHZ at theta = pi/4, built once per scenario."""
    return _ghz_assemblage(Scenario(scenario))


@functools.cache
def _ghz_assemblage(scenario: Scenario) -> Assemblage:
    return gghz_assemblage(math.pi / 4, scenario)


def assemblage_from_state(state: PureState, parties, sets=None) -> Assemblage:
    """Generic route: measure the listed untrusted parties of a tripartite state.

    ``parties`` is "A" (one-sided) or "AB" (two-sided); ``sets`` is one
    MeasurementSet shared by all measured parties, or one per party
    (defaults to the Pauli X, Y, Z set).  The result is validated before
    being returned.
    """
    if not isinstance(state, PureState):
        raise BadArgumentError(f"state must be a PureState, got {type(state).__name__}")
    if state.dim != 8:
        raise DimMismatchError(f"need a three-qubit state, got dim {state.dim}")
    party_str = parties.upper() if isinstance(parties, str) else None
    scenario = {"A": Scenario.ONE_SIDED, "AB": Scenario.TWO_SIDED}.get(party_str)
    if scenario is None:
        raise BadMaskError(f"measured parties must be 'A' or 'AB', got {parties!r}")
    k = scenario.parties
    if sets is None:
        sets = pauli_xyz()
    if isinstance(sets, MeasurementSet):
        sets = (sets,) * k
    sets = check_sequence(sets, "sets", BadMaskError)
    if len(sets) != k or not all(isinstance(m, MeasurementSet) for m in sets):
        kinds = [type(m).__name__ for m in sets]
        raise BadMaskError(f"need one MeasurementSet per measured party, got {kinds}")

    rho = state.density_matrix()
    trusted = np.eye(scenario.element_dim, dtype=complex)
    elements: dict[tuple[int, ...], np.ndarray] = {}
    for key in element_keys(scenario):
        projectors = [m.projector(a, x) for m, a, x in zip(sets, key[:k], key[k:])]
        op = functools.reduce(kron, projectors + [trusted])
        elements[key] = partial_trace(op @ rho, keep=range(k, 3))
    return require_valid(Assemblage(scenario, elements, theta=state.theta))
