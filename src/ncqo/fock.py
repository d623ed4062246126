"""Truncated Fock-space linear algebra.

State vectors and dense operator matrices on the number basis
|0>, ..., |cutoff-1>, together with the handful of matrix operations the
rest of the library needs: expectations, Hermitian eigendecomposition and
the inverse square root used to build the metric eta = (1 + tau p^2)^(-1/2).

Truncation corrupts the top rows of operator products, so operator
identities are only asserted on the "interior block": indices below
cutoff - interior_margin(cutoff).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, HermiticityError, SingularMetricError

MAX_CUTOFF = 512
# Largest hermiticity defect, relative to max(1, max |entry|), that
# hermitian_eigendecomposition accepts.
HERMITICITY_TOL = 1e-12


def interior_margin(cutoff: int) -> int:
    """Number of top basis indices excluded from operator-identity checks."""
    return math.ceil(cutoff / 5)


@dataclass(frozen=True)
class FockVector:
    """Complex coefficient vector over the truncated number basis."""

    coeffs: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.coeffs, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 1:
            raise DimensionError("FockVector needs a 1-d coefficient array of length >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "coeffs", arr)

    @property
    def cutoff(self) -> int:
        return self.coeffs.size

    @property
    def norm_sq(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def is_normalized(self, tol: float = 1e-10) -> bool:
        return abs(self.norm_sq - 1.0) <= tol

    def renormalized(self) -> "FockVector":
        n = math.sqrt(self.norm_sq)
        if n == 0.0:
            raise DimensionError("cannot renormalize the zero vector")
        return FockVector(self.coeffs / n)

    def dot(self, other: "FockVector") -> complex:
        """Inner product <self|other>."""
        if other.cutoff != self.cutoff:
            raise DimensionError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")
        return complex(np.vdot(self.coeffs, other.coeffs))


def basis_state(n: int, cutoff: int) -> FockVector:
    """Number state |n> on a cutoff-dimensional basis."""
    if not 0 <= n < cutoff:
        raise DimensionError(f"basis index {n} outside 0..{cutoff - 1}")
    c = np.zeros(cutoff, dtype=np.complex128)
    c[n] = 1.0
    return FockVector(c)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix on the truncated number basis."""

    mat: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.mat, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
            raise DimensionError("OperatorMatrix must be square with dimension >= 1")
        arr.setflags(write=False)
        object.__setattr__(self, "mat", arr)

    @property
    def cutoff(self) -> int:
        return self.mat.shape[0]

    def dagger(self) -> "OperatorMatrix":
        return OperatorMatrix(self.mat.conj().T)

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.mat - self.mat.conj().T)))

    def is_hermitian(self, tol: float = 1e-12) -> bool:
        return self.hermiticity_defect() <= tol

    def __matmul__(self, other: "OperatorMatrix") -> "OperatorMatrix":
        if other.cutoff != self.cutoff:
            raise DimensionError(f"cutoff mismatch: {self.cutoff} vs {other.cutoff}")
        return OperatorMatrix(self.mat @ other.mat)

    def apply(self, vec: FockVector) -> FockVector:
        if vec.cutoff != self.cutoff:
            raise DimensionError(f"cutoff mismatch: {self.cutoff} vs {vec.cutoff}")
        return FockVector(self.mat @ vec.coeffs)


def identity(cutoff: int) -> OperatorMatrix:
    if cutoff < 1:
        raise DimensionError("cutoff must be >= 1")
    return OperatorMatrix(np.eye(cutoff, dtype=np.complex128))


def ladder_lowering(cutoff: int) -> OperatorMatrix:
    """Bosonic annihilation operator a with <n-1|a|n> = sqrt(n)."""
    if cutoff < 1:
        raise DimensionError("cutoff must be >= 1")
    m = np.zeros((cutoff, cutoff), dtype=np.complex128)
    n = np.arange(1, cutoff)
    m[n - 1, n] = np.sqrt(n)
    return OperatorMatrix(m)


def quadratures(cutoff: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Dimensionless position/momentum pair y = (a^† + a)/√2, z = i(a^† − a)/√2."""
    if cutoff < 2:
        raise DimensionError("quadratures need cutoff >= 2")
    a = ladder_lowering(cutoff).mat
    ad = a.conj().T
    y = (ad + a) / math.sqrt(2.0)
    z = 1j * (ad - a) / math.sqrt(2.0)
    return OperatorMatrix(y), OperatorMatrix(z)


def expectation(op: OperatorMatrix, state: FockVector) -> complex:
    """<state|op|state> on matching cutoffs."""
    if op.cutoff != state.cutoff:
        raise DimensionError(f"cutoff mismatch: {op.cutoff} vs {state.cutoff}")
    return complex(np.vdot(state.coeffs, op.mat @ state.coeffs))


def hermitian_eigendecomposition(op: OperatorMatrix) -> tuple[np.ndarray, OperatorMatrix]:
    """Eigenvalues (ascending) and unitary eigenvector matrix of a hermitian operator.

    The contract is the reconstruction quality, not the algorithm; LAPACK's
    dense Hermitian solver is used.
    """
    if op.cutoff > MAX_CUTOFF:
        raise DimensionError(f"cutoff {op.cutoff} exceeds supported maximum {MAX_CUTOFF}")
    scale = max(1.0, float(np.max(np.abs(op.mat))))
    if op.hermiticity_defect() > HERMITICITY_TOL * scale:
        raise HermiticityError(
            f"operator is not hermitian (defect {op.hermiticity_defect():.3e})"
        )
    evals, evecs = np.linalg.eigh(op.mat)
    return evals, OperatorMatrix(evecs)


def inverse_sqrt(op: OperatorMatrix) -> OperatorMatrix:
    """M = op^(-1/2) for a positive-definite hermitian operator."""
    evals, v = hermitian_eigendecomposition(op)
    if np.min(evals) <= 0.0:
        raise SingularMetricError(
            f"inverse_sqrt requires positive eigenvalues; min eigenvalue {np.min(evals):.3e}"
        )
    m = (v.mat * (evals**-0.5)) @ v.mat.conj().T
    return OperatorMatrix(m)
