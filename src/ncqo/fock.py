"""Truncated Fock-space linear algebra.

State vectors and operators on the number basis |0>, ..., |cutoff-1>.
A state is a FockVector, whose coefficients are read-only; an operator is
a plain square complex np.ndarray, so products are numpy's `@`. The
module holds the handful of matrix operations the rest of the library
needs: expectations, the hermiticity defect, Hermitian eigendecomposition
and the inverse square root used to build the metric
eta = (1 + tau p^2)^(-1/2).

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


def basis_state(n: int, cutoff: int) -> FockVector:
    """Number state |n> on a cutoff-dimensional basis."""
    if not 0 <= n < cutoff:
        raise DimensionError(f"basis index {n} outside 0..{cutoff - 1}")
    c = np.zeros(cutoff, dtype=np.complex128)
    c[n] = 1.0
    return FockVector(c)


def ladder_lowering(cutoff: int) -> np.ndarray:
    """Bosonic annihilation operator a with <n-1|a|n> = sqrt(n)."""
    if cutoff < 1:
        raise DimensionError("cutoff must be >= 1")
    m = np.zeros((cutoff, cutoff), dtype=np.complex128)
    n = np.arange(1, cutoff)
    m[n - 1, n] = np.sqrt(n)
    return m


def quadratures(cutoff: int) -> tuple[np.ndarray, np.ndarray]:
    """Dimensionless position/momentum pair y = (a^† + a)/√2, z = i(a^† − a)/√2."""
    if cutoff < 2:
        raise DimensionError("quadratures need cutoff >= 2")
    a = ladder_lowering(cutoff)
    ad = a.conj().T
    y = (ad + a) / math.sqrt(2.0)
    z = 1j * (ad - a) / math.sqrt(2.0)
    return y, z


def expectation(op: np.ndarray, state: FockVector) -> complex:
    """<state|op|state> for a (cutoff, cutoff) operator."""
    if op.shape != (state.cutoff, state.cutoff):
        raise DimensionError(f"operator shape {op.shape} does not match cutoff {state.cutoff}")
    return complex(np.vdot(state.coeffs, op @ state.coeffs))


def hermiticity_defect(op: np.ndarray) -> float:
    """max |op - op^dagger| over all entries."""
    return float(np.max(np.abs(op - op.conj().T)))


def hermitian_eigendecomposition(op: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues (ascending) and unitary eigenvector matrix of a hermitian operator.

    The contract is the reconstruction quality, not the algorithm; LAPACK's
    dense Hermitian solver is used.
    """
    if op.shape[0] > MAX_CUTOFF:
        raise DimensionError(f"cutoff {op.shape[0]} exceeds supported maximum {MAX_CUTOFF}")
    defect = hermiticity_defect(op)
    if defect > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(op)))):
        raise HermiticityError(f"operator is not hermitian (defect {defect:.3e})")
    return np.linalg.eigh(op)


def inverse_sqrt(op: np.ndarray) -> np.ndarray:
    """M = op^(-1/2) for a positive-definite hermitian operator."""
    evals, v = hermitian_eigendecomposition(op)
    if np.min(evals) <= 0.0:
        raise SingularMetricError(
            f"inverse_sqrt requires positive eigenvalues; min eigenvalue {np.min(evals):.3e}"
        )
    return (v * (evals**-0.5)) @ v.conj().T
