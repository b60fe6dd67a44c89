"""GGHZ-family pure states and the Pauli projective measurement set.

Qubit ordering is A (x) B (x) C throughout: basis index = 4a + 2b + c.
Measurement outcomes a in {0, 1} correspond to eigenvalue (-1)**a.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadArgumentError,
    DimMismatchError,
    ThetaOutOfRangeError,
    check_array,
    check_integer,
    check_real,
)
from .linalg import TOL_HERM, _as_stack

THETA_MAX = math.pi / 4

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
IDENTITY_2 = np.eye(2, dtype=complex)


def check_theta(theta) -> float:
    """Validate a GGHZ angle against the domain [0, pi/4]."""
    return min(check_real(theta, "theta", 0.0, THETA_MAX + 1e-12, ThetaOutOfRangeError), THETA_MAX)


@dataclass(frozen=True)
class PureState:
    """Unit vector on a qubit register; ``theta`` records a GGHZ origin."""

    amplitudes: np.ndarray
    theta: float | None = None

    def __post_init__(self):
        amps = check_array(self.amplitudes, "amplitudes")
        if amps.ndim != 1:
            raise DimMismatchError(f"amplitudes must be a vector, got shape {amps.shape}")
        if not np.all(np.isfinite(amps)):
            raise BadArgumentError("amplitudes contain NaN or Inf")
        norm = float(np.linalg.norm(amps))
        if abs(norm - 1.0) > 1e-12:
            raise BadArgumentError(f"amplitudes have norm {norm}, expected 1")
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
        obs = _as_stack(self.observables)
        if obs.ndim != 3:
            raise DimMismatchError(f"need a sequence of square matrices, got shape {obs.shape}")
        dev = np.abs(obs @ obs - np.eye(obs.shape[-1])).max(axis=(1, 2))
        if dev.max(initial=0.0) > TOL_HERM:
            i = int(np.argmax(dev))
            raise BadArgumentError(f"observable {i} does not square to identity ({dev[i]:.2e})")
        obs.setflags(write=False)
        object.__setattr__(self, "observables", tuple(obs))

    @property
    def n_settings(self) -> int:
        return len(self.observables)

    def projector(self, outcome: int, setting: int) -> np.ndarray:
        sign = (-1) ** check_integer(outcome, "outcome", 0, 2)
        obs = self.observables[check_integer(setting, "setting", 0, self.n_settings)]
        return (np.eye(obs.shape[0], dtype=complex) + sign * obs) / 2


def pauli_xyz() -> MeasurementSet:
    """The (X, Y, Z) measurement set; internal settings 0, 1, 2."""
    return MeasurementSet((PAULI_X, PAULI_Y, PAULI_Z))
