"""Noncommutative coherent and Schroedinger-cat states as Fock vectors.

States are always renormalized numerically after truncation; the closed
first-order normalization constants are kept as metadata for cross-checks
and are never used to scale the vector. Two coefficient modes exist:

* first-order (default): 1/f(n)! = 1 - tau n(3+n)/8 and f-ratios inside
  C(alpha, n) set to 1, consistent with the first-order closed formulas;
* exact: Pochhammer factorials and exact f-ratios, used for qualitative
  large-tau figure reproduction where the first-order coefficients blow up.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import CutoffError, DegenerateStateError, PerturbativeBreakdownError
from .fock import FockVector

MIN_CAT_ODD_ALPHA = 1e-3
TAIL_PROBABILITY = 1e-12


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


def coherent_norm_sq(alpha: complex, tau: float, strict: bool = True) -> float:
    """Closed first-order N^2(alpha, f) = e^{|a|^2} (1 - tau|a|^2 - tau|a|^4/4).

    With strict=True a non-positive value raises PerturbativeBreakdownError;
    strict=False returns the (possibly non-positive) value so callers that
    keep it as metadata only can still proceed.
    """
    r = abs(alpha) ** 2
    val = math.exp(r) * (1.0 - tau * r - tau * r**2 / 4.0)
    if strict and val <= 0.0:
        raise PerturbativeBreakdownError(
            f"closed coherent norm non-positive at |alpha| = {abs(alpha):.4g}, tau = {tau:.4g}"
        )
    return val


def cat_norm_sq(alpha: complex, tau: float, parity: int, strict: bool = True) -> float:
    """Closed first-order N^2(alpha, f)_± of the even/odd cat states."""
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    if parity == -1 and abs(alpha) < MIN_CAT_ODD_ALPHA:
        raise DegenerateStateError(
            f"odd cat norm degenerates at |alpha| = {abs(alpha):.2e} < {MIN_CAT_ODD_ALPHA}"
        )
    r = abs(alpha) ** 2
    n2 = coherent_norm_sq(alpha, tau, strict=strict)
    val = 2.0 + parity * (math.exp(-r) / (2.0 * n2)) * (4.0 + 4.0 * tau * r - tau * r**2)
    if strict and val <= 0.0:
        raise PerturbativeBreakdownError(
            f"closed cat norm non-positive at |alpha| = {abs(alpha):.4g}, tau = {tau:.4g}"
        )
    return val


def default_cutoff(alpha: complex) -> int:
    """Poisson tail plus the +4 sideband of the perturbed eigenvectors."""
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


def log_factorials(k: int) -> np.ndarray:
    """log(n!) for n < k, as a cumulative sum of logs."""
    out = np.zeros(k)
    out[1:] = np.cumsum(np.log(np.arange(1, k)))
    return out


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
    """
    n = np.arange(cutoff)
    power = np.power(np.asarray(alpha, dtype=np.complex128)[..., None], np.arange(cutoff + 4))
    if exact:
        f2 = 1.0 + tau * (1 + np.arange(cutoff + 4)) / 2.0
        quad = f2[1:-3] * f2[2:-2] * f2[3:-1] * f2[4:]  # f^2(n+1) ... f^2(n+4)
        ratio_up = quad**-0.5
        ratio_dn = quad[: max(cutoff - 4, 0)] ** 0.5  # f^2(n-3) ... f^2(n), n >= 4
        # 1/sqrt(f^2(n)!) as a running product of f^2(k)^(-1/2): the factorial itself overflows
        inv_f = np.cumprod(np.concatenate(([1.0], f2[1:cutoff] ** -0.5)))
    else:
        ratio_up = ratio_dn = 1.0
        inv_f = 1.0 - tau * n * (3 + n) / 8.0
    c = power[..., :cutoff] - (tau / 16.0) * power[..., 4:] * ratio_up
    m = n[4:]
    pochhammer = (m - 3) * (m - 2) * (m - 1) * m  # n!/(n-4)!
    c[..., 4:] += (tau / 16.0) * power[..., : max(cutoff - 4, 0)] * pochhammer * ratio_dn
    return c * inv_f


def raw_coherent_coeffs(alpha, tau: float, cutoff: int, exact: bool = False) -> np.ndarray:
    """Unnormalized coefficients C(alpha, n) / (sqrt(n!) f(n)!), n < cutoff.

    Broadcasts over an array of alpha like coefficient_table.
    """
    return coefficient_table(alpha, tau, cutoff, exact) * np.exp(-0.5 * log_factorials(cutoff))


def tail_converged(raw: np.ndarray) -> np.ndarray:
    """Per row of (..., K): the top four levels hold at most TAIL_PROBABILITY of the weight."""
    total = np.sum(np.abs(raw) ** 2, axis=-1)
    tail = np.sum(np.abs(raw[..., -4:]) ** 2, axis=-1)
    return (total != 0.0) & ~(tail > TAIL_PROBABILITY * total)


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
    numeric = np.sum(np.abs(raw) ** 2, axis=-1)
    return raw / np.sqrt(numeric)[..., None], numeric


def state_rows(raw: np.ndarray, parity: int) -> tuple[np.ndarray, np.ndarray]:
    """Batched build_state on coherent rows raw(alpha) of shape (cells, K).

    parity is StateFamily.parity. Returns the per-row tail mask (False
    where build_coherent and build_cat raise CutoffError) and the
    normalized vectors of the rows that pass it, in row order.
    """
    ok = tail_converged(raw)
    passed = raw[ok]
    if parity:
        passed = cat_combination(passed, parity)
    return ok, normalized_rows(passed)[0]


@dataclass(frozen=True)
class DeformedState:
    """A normalized state vector with construction metadata."""

    vector: FockVector
    kind: StateKind
    numeric_norm_sq: float  # before renormalization
    closed_norm_sq: float  # first-order closed form (metadata only)
    perturbative_warning: bool
    validity: bool  # generalized-uncertainty validity flag (cats)
    in_example_region: bool  # Im[alpha] - Re[alpha] >= 0.1
    exact_mode: bool

    @property
    def cutoff(self) -> int:
        return self.vector.cutoff

    @property
    def alpha(self) -> complex:
        return self.kind.alpha

    @property
    def tau(self) -> float:
        return self.kind.tau


def _check_tail(raw: np.ndarray, alpha: complex, cutoff: int) -> None:
    if not tail_converged(raw):
        raise CutoffError(
            f"cutoff {cutoff} too small for alpha = {alpha}; "
            f"suggested cutoff {max(default_cutoff(alpha), math.ceil(1.5 * cutoff))}"
        )


def _validity_flags(kind: StateKind) -> tuple[bool, bool]:
    region = (kind.alpha.imag - kind.alpha.real) >= 0.1
    if kind.family is StateFamily.COHERENT:
        return True, region
    from .observables import cat_validity_value  # deferred: observables imports states

    return cat_validity_value(kind.alpha, kind.tau, kind.family.parity) >= 0.0, region


def _finalize(raw: np.ndarray, kind: StateKind, closed: float, exact: bool) -> DeformedState:
    vector, numeric = normalized_rows(raw)
    valid, region = _validity_flags(kind)
    return DeformedState(
        vector=FockVector(vector),
        kind=kind,
        numeric_norm_sq=float(numeric),
        closed_norm_sq=closed,
        perturbative_warning=perturbative_warning_indicator(kind.alpha, kind.tau),
        validity=valid,
        in_example_region=region,
        exact_mode=exact,
    )


def build_coherent(
    alpha: complex, tau: float, cutoff: int | None = None, exact: bool = False
) -> DeformedState:
    """Normalized noncommutative coherent state.

    Note the formula is taken literally at alpha = 0: C(0, 4) carries a
    constant 24 tau/16, so the tau-corrected vacuum-limit state has a small
    |4> component of relative size 3 tau / (2 sqrt(24)).
    """
    cutoff = default_cutoff(alpha) if cutoff is None else cutoff
    raw = raw_coherent_coeffs(alpha, tau, cutoff, exact=exact)
    _check_tail(raw, alpha, cutoff)
    kind = StateKind(StateFamily.COHERENT, complex(alpha), tau)
    return _finalize(raw, kind, coherent_norm_sq(alpha, tau, strict=False), exact)


def build_cat(
    alpha: complex, tau: float, parity: int, cutoff: int | None = None, exact: bool = False
) -> DeformedState:
    """Normalized even (parity = +1) or odd (parity = -1) cat state.

    Support is parity-pure for every tau because C(-alpha, n) = (-1)^n C(alpha, n).
    """
    if parity not in (+1, -1):
        raise ValueError("parity must be +1 or -1")
    if parity == -1 and abs(alpha) < MIN_CAT_ODD_ALPHA:
        raise DegenerateStateError(
            f"odd cat state degenerates at |alpha| = {abs(alpha):.2e} < {MIN_CAT_ODD_ALPHA}"
        )
    cutoff = default_cutoff(alpha) if cutoff is None else cutoff
    raw = raw_coherent_coeffs(alpha, tau, cutoff, exact=exact)
    _check_tail(raw, alpha, cutoff)
    family = StateFamily.CAT_EVEN if parity == +1 else StateFamily.CAT_ODD
    kind = StateKind(family, complex(alpha), tau)
    closed = cat_norm_sq(alpha, tau, parity, strict=False)
    return _finalize(cat_combination(raw, parity), kind, closed, exact)


def build_state(kind: StateKind, cutoff: int | None = None, exact: bool = False) -> DeformedState:
    """Dispatch on the state family."""
    if kind.family is StateFamily.COHERENT:
        return build_coherent(kind.alpha, kind.tau, cutoff, exact)
    return build_cat(kind.alpha, kind.tau, kind.family.parity, cutoff, exact)
