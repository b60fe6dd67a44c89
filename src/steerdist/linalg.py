"""Complex linear algebra for small fixed dimensions (2, 4, 8).

Hermitian eigendecomposition, PSD matrix square roots, Kronecker products
and partial traces over qubit factors.  All functions are pure and operate
on plain complex ndarrays.  The PSD checks of 2x2 matrices use the closed
form of the smallest eigenvalue; 4x4 and 8x8 matrices go through LAPACK.
"""
from __future__ import annotations

import numpy as np

from .errors import (
    BadArgumentError,
    BadMaskError,
    DimMismatchError,
    DimOverflowError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    check_array,
    check_integer,
    check_real,
    check_sequence,
)

# Centralized tolerances; everything downstream imports these.
TOL_HERM = 1e-10        # max |m - m^dagger| accepted as Hermitian
TOL_PSD = 1e-9          # most negative eigenvalue still accepted as PSD
TOL_RECON = 1e-9        # eigendecomposition reconstruction / orthonormality

# Eigenvalues below REL_EIG_ZERO * lambda_max are treated as exact zeros.
# Rank-deficient matrices are everywhere in this toolkit; without the cutoff,
# float noise of order eps on their null modes turns into sqrt(eps) ~ 1e-8
# errors in matrix roots and fidelities, which would blow the 1e-10 budgets.
REL_EIG_ZERO = 1e-13

_ALLOWED_DIMS = (2, 4, 8)


def _as_stack(m) -> np.ndarray:
    """Coerce to a stack (..., d, d) of square complex matrices, d in 2, 4, 8."""
    a = check_array(m, "matrix")
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise DimMismatchError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[-1] not in _ALLOWED_DIMS:
        raise DimOverflowError(f"dimension {a.shape[-1]} not in {_ALLOWED_DIMS}")
    if not np.all(np.isfinite(a)):
        raise BadArgumentError("matrix contains NaN or Inf entries")
    return a


def as_matrix(m) -> np.ndarray:
    """Coerce to a square complex ndarray of dimension 2, 4 or 8."""
    a = _as_stack(m)
    if a.ndim != 2:
        raise DimMismatchError(f"expected a square matrix, got shape {a.shape}")
    return a


def dagger(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of each matrix in a stack."""
    return np.swapaxes(a.conj(), -1, -2)


def require_hermitian(m, tol: float = TOL_HERM) -> np.ndarray:
    """Check Hermiticity and return the exactly symmetrized matrix (or stack).

    The halves are taken first, so that no finite entry overflows.
    """
    a = _as_stack(m)
    dev = float(np.max(np.abs(a - dagger(a))))
    if dev > check_real(tol, "tol", 0.0):
        raise NotHermitianError(f"max |m - m^dagger| = {dev:.3e} exceeds {tol:.1e}")
    return a / 2 + dagger(a) / 2


def _lowest_eigenvalues(h: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of each Hermitian matrix in a (..., d, d) stack.

    For d = 2 it is a/2 + c/2 - hypot(a/2 - c/2, |b|) of [[a, b], [b*, c]],
    halved first so that no finite entry overflows; larger d go to LAPACK.
    """
    if h.shape[-1] == 2:
        a, c = h[..., 0, 0].real / 2, h[..., 1, 1].real / 2
        return a + c - np.hypot(a - c, np.abs(h[..., 0, 1]))
    return np.linalg.eigvalsh(h)[..., 0]


def require_psd(m, tol: float = TOL_PSD) -> np.ndarray:
    """Check positive semidefiniteness (within tol) of a Hermitian matrix or stack."""
    a = require_hermitian(m)
    low = float(_lowest_eigenvalues(a).min())
    if low < -tol:
        raise NotPSDError(f"eigenvalue {low:.3e} below -{tol:.1e}")
    return a


def eig_hermitian(m, tol: float = TOL_HERM) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix or stack of matrices.

    Returns (eigenvalues, eigenvectors) with eigenvalues ascending and
    eigenvectors as orthonormal columns, so that V diag(w) V^dagger == m.
    """
    a = require_hermitian(m, tol)
    try:
        w, v = np.linalg.eigh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    # Cheap at dim <= 8; audits every decomposition performed by the toolkit.
    recon = float(np.max(np.abs((v * w[..., None, :]) @ dagger(v) - a)))
    ortho = float(np.max(np.abs(dagger(v) @ v - np.eye(a.shape[-1]))))
    if max(recon, ortho) > TOL_RECON:
        raise NoConvergenceError(
            f"eigendecomposition off by {max(recon, ortho):.3e} (limit {TOL_RECON:.0e})"
        )
    return w, v


def clamp_spectrum(w: np.ndarray, tol: float = TOL_PSD) -> np.ndarray:
    """Clamp the spectrum of a nominally PSD matrix to exact non-negativity.

    ``w`` holds one spectrum per matrix along its last axis.  Values in
    [-tol, 0) become 0; values below REL_EIG_ZERO times their own matrix's
    largest eigenvalue are zeroed as numerical null modes; anything below
    -tol raises NotPSDError.
    """
    w = np.asarray(w, dtype=float)
    if w.size and float(w.min()) < -check_real(tol, "tol", 0.0):
        raise NotPSDError(f"eigenvalue {float(w.min()):.3e} below -{tol:.1e}")
    cut = REL_EIG_ZERO * np.max(w, axis=-1, keepdims=True, initial=0.0)
    return np.where(w < cut, 0.0, w)


def _psd_factors(m, tol: float = TOL_PSD) -> tuple[np.ndarray, np.ndarray]:
    """F = V sqrt(W) and the principal root; F F^dagger == m, columns by ascending eigenvalue."""
    w, v = eig_hermitian(m)
    factor = v * np.sqrt(clamp_spectrum(w, tol))[..., None, :]
    root = factor @ dagger(v)
    return factor, (root + dagger(root)) / 2


def psd_sqrt(m, tol: float = TOL_PSD) -> np.ndarray:
    """Principal square root of a PSD matrix (or stack) via eigendecomposition."""
    return _psd_factors(m, tol)[1]


def kron(a, b) -> np.ndarray:
    """Kronecker product; row index of the result is i_a * dim_b + i_b."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape[0] * b.shape[0] > 8:
        raise DimOverflowError(
            f"kron of dims {a.shape[0]} x {b.shape[0]} exceeds dimension 8"
        )
    return np.kron(a, b)


def partial_trace(m, keep) -> np.ndarray:
    """Trace out every qubit factor not listed in ``keep``.

    ``m`` must act on a register of qubits (dimension 2**k).  ``keep`` lists
    the factor indices that survive (0 = leftmost), must be a non-empty
    subset without duplicates, and the surviving factors keep their order.
    """
    a = as_matrix(m)
    n = int(a.shape[0]).bit_length() - 1
    if 2**n != a.shape[0]:
        raise BadMaskError(f"dimension {a.shape[0]} is not a power of two")
    kept = [check_integer(i, "mask entry", 0, n, BadMaskError)
            for i in check_sequence(keep, "mask", BadMaskError)]
    if not kept or len(set(kept)) != len(kept):
        raise BadMaskError(f"mask {kept} must be a non-empty set of factor indices")
    kept = sorted(kept)

    t = a.reshape((2,) * (2 * n))
    traced = [i for i in range(n) if i not in kept]
    for count, i in enumerate(traced):
        ax = i - count
        t = np.trace(t, axis1=ax, axis2=ax + (n - count))
    d = 2 ** len(kept)
    return t.reshape(d, d)
