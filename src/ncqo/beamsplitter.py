"""Beam-splitter entanglement of Fock-expanded inputs against a vacuum port.

The splitter acts on |n> (x) |0> as

    B(|n> (x) |0>) = sum_q binom(n, q)^(1/2) t^q r^(n-q) |q> (x) |n-q>,

with t = cos(theta/2) and r = -e^{i phi} sin(theta/2), so the output of
sum_n c_n |n> (x) |0> is the dense amplitude matrix

    A[q, m] = c_{q+m} binom(q+m, q)^(1/2) t^q r^m,   zero for q + m >= K,

and rho_A = A A^+. Linear entropy S = 1 - Tr rho_A^2 = 1 - ||A A^+||_F^2 is
evaluated through this one kernel twice: as a density-matrix oracle on the
renormalized state (entropy_for_kind on one build_state vector,
linear_entropy_rows on a stack of states.state_rows vectors, one
(cells, K, K) matmul with the alpha-independent splitter_tables, whose
index and binomial blocks are built once per states._table_size and
shared), and as the closed coherent-state sum on the raw coefficients
with the closed-form norm (linear_entropy_closed). Both guard the cutoff with
the one tail criterion, states.tail_converged. A naive four-index loop is
kept as a micro-oracle for the closed sum at small cutoffs.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .deformation import amplitude_inv_f_factorial, coefficient_C
from .errors import ConfigError, DimensionError
from .fock import MAX_CUTOFF, FockVector, basis_state
from .states import (
    _read_only,
    _table_size,
    DeformedState,
    StateKind,
    build_state,
    coherent_norm_sq,
    cutoff_error,
    log_factorials,
    raw_coherent_coeffs,
    require_normalized,
    tail_converged,
)


@dataclass(frozen=True)
class SplitterParams:
    theta: float = math.pi / 2.0  # 50:50 by default
    phi: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.theta <= math.pi:
            raise ConfigError("theta must lie in [0, pi]")
        if not 0.0 <= self.phi < 2.0 * math.pi:
            raise ConfigError("phi must lie in [0, 2 pi)")

    @property
    def t(self) -> float:
        """Transmission amplitude cos(theta/2)."""
        return math.cos(self.theta / 2.0)

    @property
    def r(self) -> complex:
        """Reflection amplitude -e^{i phi} sin(theta/2)."""
        return -cmath.exp(1j * self.phi) * math.sin(self.theta / 2.0)


@functools.lru_cache(maxsize=None)
def _binomial_table(size: int) -> tuple[np.ndarray, np.ndarray]:
    """The index q + m and sqrt(binom(q+m, q)) for q, m < size, shared read-only.

    sqrt(binom) comes from log factorials, taken at index 0 where q + m >= size.
    """
    n = np.arange(size)
    total = n[:, None] + n[None, :]
    lf = log_factorials(size)
    sqrt_binom = np.exp(0.5 * (lf[np.where(total < size, total, 0)] - lf[:, None] - lf[None, :]))
    return _read_only(total, sqrt_binom)


def splitter_tables(cutoff: int, params: SplitterParams) -> tuple[np.ndarray, ...]:
    """The alpha-independent factors of A at cutoff K.

    Returns the index q + m and sqrt(binom(q+m, q)), read-only K x K blocks
    of one table shared by every cutoff of the same states._table_size, then
    t^q and r^m. Every entry depends on q and m only, so the [:k, :k] blocks
    serve any k <= K. Entries with q + m >= K come from that larger table
    and hold its values, not binomials at cutoff K; A zeroes those positions.
    A cutoff above fock.MAX_CUTOFF is a DimensionError, so the shared table
    never outgrows the MAX_CUTOFF bucket.
    """
    if cutoff > MAX_CUTOFF:
        raise DimensionError(f"cutoff {cutoff} exceeds supported maximum {MAX_CUTOFF}")
    total, sqrt_binom = _binomial_table(_table_size(cutoff))
    n = np.arange(cutoff)
    return (
        total[:cutoff, :cutoff],
        sqrt_binom[:cutoff, :cutoff],
        np.power(params.t, n),
        np.power(params.r, n),
    )


def _amplitude_matrix(coeffs: np.ndarray, tables: tuple) -> np.ndarray:
    """A[..., q, m] = c_{q+m} sqrt(binom(q+m, q)) t^q r^m, zero where q + m >= K.

    coeffs is (..., K), one input per leading index; tables come from
    splitter_tables at any cutoff >= K.
    """
    k = coeffs.shape[-1]
    total, sqrt_binom, t_pow, r_pow = tables
    # index k of the row padded with one zero serves every q + m >= k
    padded = np.concatenate((coeffs, np.zeros(coeffs.shape[:-1] + (1,), np.complex128)), axis=-1)
    amp = np.take(padded, np.minimum(total[:k, :k], k), axis=-1)
    # the real factors scale both parts of each entry, on the float64 view:
    # the bits of a complex times real product, without the complex multiply
    parts = amp.view(np.float64)
    parts *= np.repeat(sqrt_binom[:k, :k], 2, axis=-1)
    parts *= t_pow[:k, None]
    amp *= r_pow[:k]
    return amp


def split_state(state: DeformedState | FockVector, params: SplitterParams) -> np.ndarray:
    """Splitter output A[q, m] of a normalized input (x) vacuum, K x K for cutoff K."""
    vec = state.vector if isinstance(state, DeformedState) else state
    require_normalized(vec.coeffs)
    return _amplitude_matrix(vec.coeffs, splitter_tables(vec.cutoff, params))


def split_fock(n: int, params: SplitterParams) -> np.ndarray:
    """Splitter action on |n> (x) |0>: (n+1) x (n+1), nonzero only on q + m = n."""
    if n < 0:
        raise ValueError("n >= 0 required")
    return split_state(basis_state(n, n + 1), params)


def reduced_density(amplitudes: np.ndarray) -> np.ndarray:
    """Partial trace over mode b: rho = A A^+, stacked over any leading axes."""
    return amplitudes @ np.swapaxes(amplitudes.conj(), -1, -2)


def linear_entropy_oracle(rho: np.ndarray):
    """S = 1 - Tr rho^2 = 1 - sum |rho_ij|^2: a float, or an array over leading axes."""
    s = 1.0 - np.sum(np.abs(rho) ** 2, axis=(-2, -1))
    return float(s) if s.ndim == 0 else s


def linear_entropy_rows(vectors: np.ndarray, tables: tuple) -> np.ndarray:
    """S for each normalized state row of (cells, K) as one stacked kernel.

    The batched form of entropy_for_kind: the same normalization check,
    amplitude matrix, rho and purity, per row. tables come from
    splitter_tables at any cutoff >= K.
    """
    require_normalized(vectors)
    return linear_entropy_oracle(reduced_density(_amplitude_matrix(vectors, tables)))


def linear_entropy_closed(
    alpha: complex,
    tau: float,
    params: SplitterParams,
    cutoff: int,
    exact: bool = False,
    check_tail: bool = True,
) -> float:
    """Closed quadruple sum for the coherent-state linear entropy.

    All four Fock indices range so that every index stays below the cutoff.
    With ghat_k = C(alpha,k)/f(k)! and W_qs = sum_m |r|^(2m)/m! ghat_{m+q} conj(ghat_{m+s}),

        S = 1 - (1/N^4) sum_{q,s} t^(2(q+s)) / (q! s!) |W_qs|^2,

    which is the splitter kernel on the raw (unnormalized) coefficients,
    |rho_qs|^2 with rho = A A^+, divided by the closed N^4. N^2 is the
    first-order closed-form norm; this is the one place the closed norm is
    consumed, so the defect against the renormalized density-matrix oracle
    is O(tau^2).

    The convergence guard is states.tail_converged, the one that
    build_state applies; check_tail=False skips it, for comparisons with
    the naive quadruple loop at deliberately small cutoffs.
    """
    raw = raw_coherent_coeffs(alpha, tau, cutoff, exact=exact)
    if check_tail and not tail_converged(raw):
        raise cutoff_error(alpha, raw)
    rho = reduced_density(_amplitude_matrix(raw, splitter_tables(cutoff, params)))
    n2 = coherent_norm_sq(alpha, tau)
    return 1.0 - float(np.sum(np.abs(rho) ** 2)) / n2**2


def linear_entropy_quadruple(
    alpha: complex,
    tau: float,
    params: SplitterParams,
    cutoff: int,
    exact: bool = False,
) -> float:
    """Naive four-index evaluation of the closed sum; micro-oracle for K <= ~20.

    Builds ghat_k from the scalar deformation references, so it checks the
    coefficient table as well as the kernel.
    """
    gh = np.array(
        [
            coefficient_C(alpha, k, tau, exact_ratios=exact)
            * amplitude_inv_f_factorial(k, tau, exact=exact)
            for k in range(cutoff)
        ]
    )
    n2 = coherent_norm_sq(alpha, tau)
    t2 = params.t**2
    r2 = abs(params.r) ** 2
    fact = [math.factorial(k) for k in range(cutoff)]
    total = 0.0
    for q in range(cutoff):
        for s in range(cutoff):
            lim = cutoff - max(q, s)
            for m in range(lim):
                for n in range(lim):
                    total += (
                        (t2 ** (q + s))
                        * (r2 ** (m + n))
                        * (
                            gh[m + q]
                            * np.conj(gh[m + s])
                            * gh[n + s]
                            * np.conj(gh[n + q])
                        ).real
                        / (fact[q] * fact[s] * fact[m] * fact[n])
                    )
    return 1.0 - total / n2**2


def entropy_for_kind(
    kind: StateKind,
    params: SplitterParams,
    cutoff: int | None = None,
    exact: bool = False,
) -> float:
    """Linear entropy of the splitter output for a state template.

    The density-matrix oracle on build_state's normalized vector; the
    closed coherent sum is linear_entropy_closed.
    """
    state = build_state(kind, cutoff, exact)
    return linear_entropy_oracle(reduced_density(split_state(state, params)))
