"""GGHZ-family pure states and the Pauli projective measurement set.

Qubit ordering is A (x) B (x) C throughout: basis index = 4a + 2b + c.
Measurement outcomes a in {0, 1} correspond to eigenvalue (-1)**a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ThetaOutOfRangeError
from .linalg import TOL_HERM

THETA_MAX = math.pi / 4

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def check_theta(theta) -> float:
    """Validate a GGHZ angle against the domain [0, pi/4]."""
    try:
        t = float(theta)
    except (TypeError, ValueError) as exc:   # None, complex, text
        raise ThetaOutOfRangeError(f"theta must be a real number, got {theta!r}") from exc
    if not (0.0 <= t <= THETA_MAX + 1e-12):
        raise ThetaOutOfRangeError(f"theta = {t} outside [0, pi/4]")
    return min(t, THETA_MAX)


@dataclass(frozen=True)
class PureState:
    """Unit vector on a qubit register; ``theta`` records a GGHZ origin."""

    amplitudes: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.ndim != 1:
            raise ValueError(f"amplitudes must be a vector, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise ValueError("amplitudes contain NaN or Inf")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise ValueError(f"amplitudes have norm {norm}, expected 1")
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return self.amplitudes.shape[0]

    def density_matrix(self) -> np.ndarray:
        return np.outer(self.amplitudes, self.amplitudes.conj())


def gghz(theta) -> PureState:
    """cos(theta)|000> + sin(theta)|111>, the generalized GHZ family.

    theta = pi/4 is the GHZ state; theta = 0 the product state |000>.
    """
    t = check_theta(theta)
    amps = np.zeros(8, dtype=complex)
    amps[0] = math.cos(t)
    amps[7] = math.sin(t)
    return PureState(amps, theta=t)


@dataclass(frozen=True)
class MeasurementSet:
    """Ordered dichotomic observables with +-1 spectrum.

    Outcome a of setting x projects with (1 + (-1)**a O_x) / 2.
    """

    observables: tuple[np.ndarray, ...]

    def __post_init__(self):
        obs = tuple(np.asarray(o, dtype=complex) for o in self.observables)
        for i, o in enumerate(obs):
            dev = float(np.max(np.abs(o @ o - np.eye(o.shape[0]))))
            if dev > TOL_HERM:
                raise ValueError(f"observable {i} does not square to identity ({dev:.2e})")
        for o in obs:
            o.setflags(write=False)
        object.__setattr__(self, "observables", obs)

    @property
    def n_settings(self) -> int:
        return len(self.observables)

    def projector(self, outcome: int, setting: int) -> np.ndarray:
        if outcome not in (0, 1):
            raise ValueError(f"outcome must be 0 or 1, got {outcome}")
        obs = self.observables[setting]
        return (np.eye(obs.shape[0], dtype=complex) + (-1) ** outcome * obs) / 2


def pauli_xyz() -> MeasurementSet:
    """The (X, Y, Z) measurement set; internal settings 0, 1, 2."""
    return MeasurementSet((PAULI_X, PAULI_Y, PAULI_Z))
