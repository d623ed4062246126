"""Noncommutative coherent and Schroedinger-cat states as Fock vectors.

state_rows is the one place a normalized state is built: from a stack of
coherent coefficient rows raw(alpha) it applies the cutoff tail check,
forms the cat combination and renormalizes each row. Scans call it on
whole tau slices; build_state (and build_coherent / build_cat) call it on
one row and raise CutoffError where the row fails the tail check (NcqoError
where its coefficients overflowed). Both take an automatic cutoff from
sized_cutoffs, below default_cutoff wherever the row's own tail allows.
States are always renormalized numerically after truncation; the closed
first-order normalization constants are kept as metadata for cross-checks
and are never used to scale the vector. Two coefficient modes exist:

* first-order (default): 1/f(n)! = 1 - tau n(3+n)/8 and f-ratios inside
  C(alpha, n) set to 1, consistent with the first-order closed formulas;
* exact: Pochhammer factorials and exact f-ratios, used for qualitative
  large-tau figure reproduction where the first-order coefficients blow up.

The alpha-independent rows (log n!, 1/sqrt(n!), n!/(n-4)! and the tau/mode
factors of coefficient_table) are built once per size bucket, _table_size(K),
and shared read-only: each row is elementwise in n or a prefix sum or
product, so its first K entries equal the row built at K, bit for bit.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CutoffError, DegenerateStateError, NcqoError
from .fock import FockVector

MIN_CAT_ODD_ALPHA = 1e-3
TAIL_PROBABILITY = 1e-12
CUTOFF_STEP = 8  # automatic cutoffs below default_cutoff are multiples of this


class StateFamily(Enum):
    COHERENT = "coherent"
    CAT_EVEN = "cat-even"
    CAT_ODD = "cat-odd"

    @property
    def parity(self) -> int:
        """+1 for even cats, -1 for odd cats; 0 for coherent."""
        return {"coherent": 0, "cat-even": +1, "cat-odd": -1}[self.value]


@dataclass(frozen=True)
class StateKind:
    """A state template: family plus the point (alpha, tau) it lives at."""

    family: StateFamily
    alpha: complex
    tau: float

    def __post_init__(self):
        if self.tau < 0:
            raise ValueError("tau >= 0 required")
        if self.family is StateFamily.CAT_ODD and abs(self.alpha) < MIN_CAT_ODD_ALPHA:
            raise DegenerateStateError(
                f"odd cat state degenerates at |alpha| = {abs(self.alpha):.2e} < {MIN_CAT_ODD_ALPHA}"
            )


def coherent_norm_sq(alpha: complex, tau: float) -> float:
    """Closed first-order N^2(alpha, f) = e^{|a|^2} (1 - tau|a|^2 - tau|a|^4/4).

    Past the first-order validity region the value is non-positive; it is
    returned as it is, since callers keep it as metadata or as a closed
    denominator.
    """
    r = abs(alpha) ** 2
    return math.exp(r) * (1.0 - tau * r - tau * r**2 / 4.0)


def cat_norm_sq(alpha: complex, tau: float, parity: int) -> float:
    """Closed first-order N^2(alpha, f)_± of the even/odd cat states."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    if parity == -1 and abs(alpha) < MIN_CAT_ODD_ALPHA:
        raise DegenerateStateError(
            f"odd cat norm degenerates at |alpha| = {abs(alpha):.2e} < {MIN_CAT_ODD_ALPHA}"
        )
    r = abs(alpha) ** 2
    n2 = coherent_norm_sq(alpha, tau)
    return 2.0 + parity * (math.exp(-r) / (2.0 * n2)) * (4.0 + 4.0 * tau * r - tau * r**2)


def default_cutoff(alpha: complex) -> int:
    """The bound B of the automatic cutoff: Poisson tail plus the +4 sideband.

    Rows are built at B, and sized_cutoffs takes each cell's cutoff at or
    below it from the row's own tail. B alone decides whether a cell fits
    at all: a cell whose B passes fock.MAX_CUTOFF gets no table in a scan.
    """
    r = abs(alpha) ** 2
    return max(30, math.ceil(r + 8.0 * math.sqrt(r + 1.0) + 8.0))


def perturbative_warning_indicator(alpha: complex, tau: float) -> bool:
    """True when first-order corrections are large at the occupied levels.

    The effective highest occupied level is estimated from the Poisson
    bulk, n_eff = ceil(|alpha|^2 + 4 sqrt(|alpha|^2) + 4); the flag trips
    when the amplitude correction tau n(3+n)/8 exceeds 0.5 there or when
    the closed norm prefactor 1 - tau r - tau r^2/4 drops below 0.5.
    """
    r = abs(alpha) ** 2
    n_eff = math.ceil(r + 4.0 * math.sqrt(r) + 4.0)
    if tau * n_eff * (3 + n_eff) / 8.0 > 0.5:
        return True
    return (1.0 - tau * r - tau * r**2 / 4.0) < 0.5


def _table_size(cutoff: int) -> int:
    """The size a cutoff's shared tables are built at: the power of two >= cutoff, at least 32."""
    if cutoff < 0:
        raise ValueError("cutoff >= 0 required")
    return max(32, 1 << (cutoff - 1).bit_length())


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """The arrays, each made read-only in place, for a cache that shares them."""
    for a in arrays:
        a.flags.writeable = False
    return arrays


@functools.lru_cache(maxsize=None)
def _factorial_rows(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """log(n!) and exp(-log(n!)/2) = 1/sqrt(n!) for n < size, and n!/(n-4)! for 4 <= n < size."""
    log_fact = np.zeros(size)
    log_fact[1:] = np.cumsum(np.log(np.arange(1, size)))
    m = np.arange(4, size)
    return _read_only(log_fact, np.exp(-0.5 * log_fact), (m - 3) * (m - 2) * (m - 1) * m)


@functools.lru_cache(maxsize=64)
def _mode_rows(tau: float, exact: bool, size: int) -> tuple:
    """(ratio_up, ratio_dn, inv_f) of coefficient_table for n < size.

    Exact mode: f(n)!/f(n+4)!, f(n)!/f(n-4)! (n >= 4) and 1/sqrt(f^2(n)!);
    first-order mode: both ratios 1.0 and 1/f(n)! = 1 - tau n(3+n)/8.
    """
    if exact:
        f2 = 1.0 + tau * (1 + np.arange(size + 4)) / 2.0
        quad = f2[1:-3] * f2[2:-2] * f2[3:-1] * f2[4:]  # f^2(n+1) ... f^2(n+4)
        # 1/sqrt(f^2(n)!) as a running product of f^2(k)^(-1/2): the factorial itself overflows
        inv_f = np.cumprod(np.concatenate(([1.0], f2[1:size] ** -0.5)))
        ratio_dn = quad[: size - 4] ** 0.5  # f^2(n-3) ... f^2(n), n >= 4
        return _read_only(quad**-0.5, ratio_dn, inv_f)
    n = np.arange(size)
    return (1.0, 1.0, *_read_only(1.0 - tau * n * (3 + n) / 8.0))


def log_factorials(k: int) -> np.ndarray:
    """log(n!) for n < k, as a cumulative sum of logs; read-only."""
    return _factorial_rows(_table_size(k))[0][:k]


def coefficient_table(alpha, tau: float, cutoff: int, exact: bool = False) -> np.ndarray:
    """ghat_n = C(alpha, n) / f(n)! for every n < cutoff, in either coefficient mode.

    The vectorized form of deformation.coefficient_C times
    deformation.amplitude_inv_f_factorial, which stay as its scalar
    references: C = alpha^n - (tau/16) alpha^(n+4) f(n)!/f(n+4)!
    + (tau/16) alpha^(n-4) n!/(n-4)! f(n)!/f(n-4)!, the last term for n >= 4
    only. In first-order mode the f-ratios are 1 and 1/f(n)! = 1 - tau n(3+n)/8;
    in exact mode both come from the exact f^2(n)!.

    alpha may be a scalar or an array; the result has shape
    alpha.shape + (cutoff,). Every entry is an elementwise function of
    alpha and n, or a prefix product of an n-only table, so the first k
    columns of a table built at a larger cutoff equal the table built at k.
    The n-only rows come from the shared tables (see the module docstring).
    """
    size = _table_size(cutoff)
    below = max(cutoff - 4, 0)
    ratio_up, ratio_dn, inv_f = _mode_rows(float(tau), bool(exact), size)
    if exact:
        ratio_up, ratio_dn = ratio_up[:cutoff], ratio_dn[:below]
    power = np.power(np.asarray(alpha, dtype=np.complex128)[..., None], np.arange(cutoff + 4))
    c = power[..., :cutoff] - (tau / 16.0) * power[..., 4:] * ratio_up
    pochhammer = _factorial_rows(size)[2][:below]  # n!/(n-4)!
    c[..., 4:] += (tau / 16.0) * power[..., :below] * pochhammer * ratio_dn
    return c * inv_f[:cutoff]


def raw_coherent_coeffs(alpha, tau: float, cutoff: int, exact: bool = False) -> np.ndarray:
    """Unnormalized coefficients C(alpha, n) / (sqrt(n!) f(n)!), n < cutoff.

    Broadcasts over an array of alpha like coefficient_table.
    """
    inv_sqrt_factorial = _factorial_rows(_table_size(cutoff))[1][:cutoff]
    return coefficient_table(alpha, tau, cutoff, exact) * inv_sqrt_factorial


def tail_converged(raw: np.ndarray) -> np.ndarray:
    """Per row of (..., K): the top four levels hold at most TAIL_PROBABILITY of the weight.

    A row whose total weight is not finite (its coefficients overflowed)
    or is zero fails.
    """
    weight = np.abs(raw) ** 2
    total = weight.sum(axis=-1)
    tail = weight[..., -4:].sum(axis=-1)
    return np.isfinite(total) & (total != 0.0) & (tail <= TAIL_PROBABILITY * total)


def sized_cutoffs(raw: np.ndarray, bounds) -> list[int]:
    """The automatic cutoff of each coherent row raw(alpha) of (cells, W), from its own tail.

    bounds holds each row's B = default_cutoff(alpha), at most W. A row
    that passes the tail test at B is cut at the smallest multiple K of
    CUTOFF_STEP, at least 2 CUTOFF_STEP and below B, at which both
    (a) the row cut at K passes the tail test, and
    (b) its levels K ... B-1 hold at most TAIL_PROBABILITY of the weight
        below B, so a first-order factor that dips through zero inside
        the top four levels cannot pass (a) by chance.
    Every other row keeps B: one without such a K, one that fails the
    tail test at B (today's NaN cells stay NaN) and one whose weight below
    B is not finite and positive.

    The tests read one cumulative sum of |raw|^2, so at rounding level
    they can disagree with tail_converged; callers then fall back to B.
    """
    weights = (np.abs(raw) ** 2).cumsum(axis=-1).tolist()
    cutoffs = []
    for weight, bound in zip(weights, bounds):
        full = weight[bound - 1]
        cutoff = bound
        if 0.0 < full < math.inf and full - weight[bound - 5] <= TAIL_PROBABILITY * full:
            for k in range(2 * CUTOFF_STEP, bound, CUTOFF_STEP):
                total = weight[k - 1]
                if full - total <= TAIL_PROBABILITY * full and (
                    total - weight[k - 5] <= TAIL_PROBABILITY * total
                ):
                    cutoff = k
                    break
        cutoffs.append(cutoff)
    return cutoffs


def cat_combination(raw: np.ndarray, parity: int) -> np.ndarray:
    """raw(alpha) + parity raw(-alpha), from the coherent rows raw(alpha) alone.

    C(-alpha, n) = (-1)^n C(alpha, n), so the sum is 2 raw(alpha) on the
    levels of the cat's parity and zero on the others. Zeroing those levels
    outright keeps the support parity-pure, and scaling by 2 is exact.
    """
    out = 2.0 * raw
    out[..., (1 if parity == +1 else 0) :: 2] = 0.0
    return out


def normalized_rows(raw: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """raw / ||raw|| along the last axis, and ||raw||^2 before renormalization."""
    numeric = (np.abs(raw) ** 2).sum(axis=-1)
    return raw / np.sqrt(numeric)[..., None], numeric


def require_normalized(rows: np.ndarray) -> None:
    """Raise ValueError unless every state row of (..., K) has unit norm within 1e-10."""
    if not np.all(np.abs(np.sum(np.abs(rows) ** 2, axis=-1) - 1.0) <= 1e-10):
        raise ValueError("expected normalized state rows (unit norm within 1e-10)")


def state_rows(raw: np.ndarray, parity: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Normalized states from coherent rows raw(alpha) of shape (cells, K).

    parity is StateFamily.parity. Returns the per-row tail mask (False where
    the cutoff K is too small), then the normalized vectors and their norms
    squared before renormalization, for the rows that pass it, in row order.
    """
    ok = tail_converged(raw)
    passed = raw[ok]
    if parity:
        passed = cat_combination(passed, parity)
    return (ok, *normalized_rows(passed))


def cutoff_error(alpha: complex, raw: np.ndarray) -> NcqoError:
    """The error for a coefficient row raw(alpha) that fails tail_converged.

    Where the coefficients overflowed no cutoff helps, and the error says
    so; otherwise it is a CutoffError with a suggested cutoff.
    """
    cutoff = raw.shape[-1]
    if not np.all(np.isfinite(raw)):
        return NcqoError(
            f"coherent coefficients overflowed at alpha = {alpha}, cutoff {cutoff}: "
            "|alpha| is too large for the coefficient table"
        )
    return CutoffError(
        f"cutoff {cutoff} too small for alpha = {alpha}; "
        f"suggested cutoff {max(default_cutoff(alpha), math.ceil(1.5 * cutoff))}"
    )


@dataclass(frozen=True)
class DeformedState:
    """A normalized state vector with construction metadata."""

    vector: FockVector
    kind: StateKind
    numeric_norm_sq: float  # before renormalization
    closed_norm_sq: float  # first-order closed form (metadata only)
    perturbative_warning: bool

    @property
    def cutoff(self) -> int:
        return self.vector.cutoff


def build_state(kind: StateKind, cutoff: int | None = None, exact: bool = False) -> DeformedState:
    """Normalized state of a template: state_rows on its one coherent row.

    cutoff None builds the row at B = default_cutoff(alpha) and cuts it at
    sized_cutoffs(row, B), as scans do, or at B where that cutoff fails
    tail_converged. A cutoff that fails the tail check raises CutoffError
    with a suggested cutoff, and coefficients that overflow raise NcqoError
    (see cutoff_error).
    """
    alpha, tau, parity = kind.alpha, kind.tau, kind.family.parity
    bound = default_cutoff(alpha) if cutoff is None else cutoff
    raw = raw_coherent_coeffs(alpha, tau, bound, exact)
    sized = bound if cutoff is not None else sized_cutoffs(raw[None], (bound,))[0]
    ok, vectors, numeric = state_rows(raw[None, :sized], parity)
    if not ok[0] and sized < bound:
        ok, vectors, numeric = state_rows(raw[None], parity)
    if not ok[0]:
        raise cutoff_error(alpha, raw)
    closed = cat_norm_sq(alpha, tau, parity) if parity else coherent_norm_sq(alpha, tau)
    return DeformedState(
        vector=FockVector(vectors[0]),
        kind=kind,
        numeric_norm_sq=float(numeric[0]),
        closed_norm_sq=closed,
        perturbative_warning=perturbative_warning_indicator(alpha, tau),
    )


def build_coherent(
    alpha: complex, tau: float, cutoff: int | None = None, exact: bool = False
) -> DeformedState:
    """Normalized noncommutative coherent state.

    Note the formula is taken literally at alpha = 0: C(0, 4) carries a
    constant 24 tau/16, so the tau-corrected vacuum-limit state has a small
    |4> component of relative size 3 tau / (2 sqrt(24)).
    """
    return build_state(StateKind(StateFamily.COHERENT, complex(alpha), tau), cutoff, exact)


def build_cat(
    alpha: complex, tau: float, parity: int, cutoff: int | None = None, exact: bool = False
) -> DeformedState:
    """Normalized even (parity = +1) or odd (parity = -1) cat state.

    Support is parity-pure for every tau because C(-alpha, n) = (-1)^n C(alpha, n).
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    family = StateFamily.CAT_EVEN if parity == +1 else StateFamily.CAT_ODD
    return build_state(StateKind(family, complex(alpha), tau), cutoff, exact)
