"""Nonclassicality diagnostics: quadrature moments, Mandel parameters, photon
distributions.

Every diagnostic exists twice: a closed first-order-in-tau formula and a
truncated-matrix oracle. The oracle convention: states are expansions over
the Hermitian-side eigenvectors, so expectation values of the
noncommutative operators use the similarity-transformed operators
y~ = y + tau (z^2 y + y z^2)/2 and z~ = z with plain inner products; no
metric matrix is applied to the states.

The oracles act on the state vector with the banded operators themselves:
quad_moments_oracle chains the ladder actions of y and z, truncated as
fock.ladder_lowering is (a^dagger |K-1> is dropped), and mandel_oracle
projects onto the perturbed eigenvectors as one band c_m + the |m +- 4>
sidebands. Neither reads a closed form. metric_quadratures and
deformation.perturbed_eigenvector are the dense forms of the same
operators and vectors; the tests compare the oracles against them.

For every kind we report U = varY - R and U~ = R - varZ, so the
generalized-uncertainty validity value R(U - U~) - U U~ coincides with
varY * varZ - R^2 (the saturation defect).

Every closed quadrature form goes through one kernel, closed_terms(alpha,
tau, parity), which returns (R, U, U~) for the coherent state (parity 0,
where U~ = U) and for the even (+1) and odd (-1) cats; quad_moments_closed,
cat_validity_value and grid scans all read from it. closed_quadrature_values
turns (R, U, U~) into varY, varZ and the saturation defect, for the moment
records and for grid scans alike. Mandel Q has its one kernel too,
closed_mandel_q(alpha, tau, parity), behind mandel_closed.

The closed cat forms are total in |alpha|. A term divided by a growing
hyperbolic or exponential factor (cosh^2 r, sinh^2 r, e^(2r), ...) takes
its large-r limit 0 only where that factor passes the float range, so
every value the plain formula can represent keeps its bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .fock import FockVector, OperatorMatrix, quadratures
from .states import DeformedState, StateKind, cat_norm_sq, coherent_norm_sq, require_normalized


@dataclass(frozen=True)
class QuadratureMoments:
    mean_Y: float
    mean_Z: float
    mean_Y2: float
    mean_Z2: float
    var_Y: float
    var_Z: float
    R: float  # right-hand side of the generalized uncertainty relation
    U: float  # var_Y - R
    U_tilde: float  # R - var_Z
    saturation_defect: float  # var_Y * var_Z - R^2 = R(U - U~) - U U~

    @property
    def validity(self) -> bool:
        """Generalized uncertainty relation holds (up to the working order)."""
        return self.saturation_defect >= 0.0


@dataclass(frozen=True)
class NumberMoments:
    mean_N: float
    mean_N2: float
    var_N: float  # always mean_N2 - mean_N^2
    mandel_Q: float
    flagged: bool = False  # Q undefined at alpha = 0, returned as 0 with flag


def metric_quadratures(tau: float, cutoff: int) -> tuple[OperatorMatrix, OperatorMatrix]:
    """Similarity-transformed quadratures (y~, z~) on the truncated basis.

    The dense form of the operators quad_moments_oracle applies as banded
    ladder actions; the tests use it as that oracle's reference.
    """
    if cutoff < 6:
        raise DimensionError("metric quadratures need cutoff >= 6")
    y, z = quadratures(cutoff)
    z2 = z.mat @ z.mat
    ytil = y.mat + tau * (z2 @ y.mat + y.mat @ z2) / 2.0
    return OperatorMatrix(ytil), z


def _vector_of(state: DeformedState | FockVector) -> FockVector:
    return state.vector if isinstance(state, DeformedState) else state


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def closed_terms(alpha: complex, tau: float, parity: int) -> tuple[float, float, float]:
    """(R, U, U~) of the coherent state (parity = 0), the even (+1) or the odd (-1) cat.

    The one kernel behind every closed quadrature value: |alpha|^2,
    w = 2 Re(alpha^2), v = (alpha^2 - alpha*^2)^2 and the hyperbolic
    functions are computed once for all three terms. For the coherent
    state U~ = U.
    """
    a = complex(alpha)
    ac = a.conjugate()
    r = abs(a) ** 2
    if parity == 0:
        d = ((a - ac) ** 2).real  # (alpha - alpha*)^2, real and <= 0
        u = tau * (0.25 + r / 2.0)
        return (2.0 + tau - tau * d) / 4.0, u, u
    a2 = a**2
    ac2 = ac**2
    w = (a2 + ac2).real
    v = ((a2 - ac2) ** 2).real
    quarter = tau / 4.0
    if parity == +1:
        th = math.tanh(r)
        try:
            cosh2 = math.cosh(r) ** 2
        except OverflowError:  # from r ~ 355.6
            cosh2 = math.inf
        big_r = 0.5 + quarter * (1.0 - w + 2.0 * r * th)
        u = w / 2.0 + r * th + quarter * (1.0 - v + 2.0 * r * th - 4.0 * r**2 / cosh2)
        d = ((a - ac) ** 2).real
        try:
            e2 = 1.0 + math.exp(2.0 * r)
        except OverflowError:  # from r ~ 354.9
            e2 = math.inf
        try:
            e2_sq = e2**2
        except OverflowError:  # from r ~ 177.4
            e2_sq = math.inf
        u_tilde = (
            d * (1.0 - tau) / 2.0
            + quarter * (1.0 + 2.0 * r - v)
            + r * (2.0 - 3.0 * tau + 4.0 * tau * r) / e2
            - 4.0 * tau * r**2 / e2_sq
        )
        return big_r, u, u_tilde
    coth = 1.0 / math.tanh(r)
    try:
        sinh2 = math.sinh(r) ** 2
    except OverflowError:  # from r ~ 355.6
        sinh2 = math.inf
    big_r = 0.5 + quarter * (1.0 - w + 2.0 * r * coth)
    u = w / 2.0 + r * coth + quarter * (1.0 - v + 2.0 * r * coth + 4.0 * r**2 / sinh2)
    u_tilde = (
        w / 2.0
        - r * coth
        + quarter * (1.0 - w - v + 6.0 * r * coth - 4.0 * r**2 / sinh2)
    )
    return big_r, u, u_tilde


# What closed_quadrature_values returns, by scan quantity name.
CLOSED_QUADRATURE_NAMES = ("R", "U", "U_tilde", "varY", "varZ", "saturation_defect")


def closed_quadrature_values(
    big_r: float, u: float, u_tilde: float
) -> tuple[float, float, float, float, float, float]:
    """(R, U, U~, varY, varZ, saturation defect) from the closed terms (R, U, U~).

    varY = R + U, varZ = R - U~ and the defect is varY varZ - R^2.
    """
    var_y = big_r + u
    var_z = big_r - u_tilde
    return big_r, u, u_tilde, var_y, var_z, var_y * var_z - big_r**2


def validity_value(big_r: float, u: float, u_tilde: float) -> float:
    """R(U - U~) - U U~; the uncertainty relation is valid if >= 0."""
    return big_r * (u - u_tilde) - u * u_tilde


def cat_validity_value(alpha: complex, tau: float, parity: int) -> float:
    """R_±(U_± - U~_±) - U_± U~_±; the uncertainty relation is valid if >= 0."""
    return validity_value(*closed_terms(alpha, tau, parity))


def cat_second_moments_raw(alpha: complex, tau: float, parity: int) -> tuple[float, float]:
    """<Y^2>_± and <Z^2>_± from the unexpanded (M1, M2) form.

    Agrees with (R_± + U_±, R_± - U~_±) exactly at tau = 0 and to O(tau^2)
    otherwise (the normalization denominator is expanded in the R/U forms).
    """
    a = complex(alpha)
    ac = a.conjugate()
    r = abs(a) ** 2
    w = (a**2 + ac**2).real
    v = ((a**2 - ac**2) ** 2).real
    mu_p = 2.0 + 2.0 * ((a + ac) ** 2).real
    mu_m = 2.0 + 2.0 * ((a - ac) ** 2).real
    lam_p = 4.0 * r * w + r**2 * (1.0 + w) + 2.0 * r**3
    lam_m = -4.0 * r * w + r**2 * (1.0 + w) - 2.0 * r**3
    m1p = math.exp(r) / 4.0 * (2.0 * mu_p + tau * (6.0 - mu_m - 2.0 * w**2 - lam_p))
    m1m = math.exp(-r) / 4.0 * (2.0 * mu_m + tau * (6.0 - mu_p - 2.0 * w**2 - lam_m))
    m2p = math.exp(r) / 4.0 * (
        8.0 - 2.0 * mu_m + tau * (mu_m - 2.0 + 2.0 * v + lam_p - 8.0 * r - 10.0 * r**2 - 4.0 * r**3)
    )
    m2m = math.exp(-r) / 4.0 * (
        8.0 - 2.0 * mu_p + tau * (mu_p - 2.0 + 2.0 * v + lam_m + 8.0 * r - 10.0 * r**2 + 4.0 * r**3)
    )
    nhat = coherent_norm_sq(alpha, tau) * cat_norm_sq(alpha, tau, parity)
    return (m1p + parity * m1m) / nhat, (m2p + parity * m2m) / nhat


def quad_moments_closed(kind: StateKind) -> QuadratureMoments:
    """Closed first-order quadrature moments for a state template.

    The cat means vanish, so their second moments are the variances; only
    the coherent means have a closed form of their own.
    """
    alpha, tau, parity = kind.alpha, kind.tau, kind.family.parity
    big_r, u, ut, var_y, var_z, defect = closed_quadrature_values(
        *closed_terms(alpha, tau, parity)
    )
    mean_y, mean_z, mean_y2, mean_z2 = 0.0, 0.0, var_y, var_z
    if parity == 0:
        a = complex(alpha)
        ac = a.conjugate()
        r = abs(a) ** 2
        d = ((a - ac) ** 2).real
        s = ((a + ac) ** 2).real
        w = (a**2 + ac**2).real
        w4 = (a**4 + ac**4).real
        mean_y = ((a + ac) * (4.0 - tau * d)).real / (4.0 * math.sqrt(2.0))
        mean_z = (1j * (a - ac) * (2.0 * tau + tau * s - 4.0)).real / (4.0 * math.sqrt(2.0))
        mean_y2 = (2.0 + 2.0 * s - tau * (w + w4 - 4.0 * r - 2.0 * r**2 - 2.0)) / 4.0
        mean_z2 = (2.0 - 2.0 * d + tau * (w + w4 - 4.0 * r - 2.0 * r**2)) / 4.0
    return QuadratureMoments(
        mean_Y=mean_y,
        mean_Z=mean_z,
        mean_Y2=mean_y2,
        mean_Z2=mean_z2,
        var_Y=var_y,
        var_Z=var_z,
        R=big_r,
        U=u,
        U_tilde=ut,
        saturation_defect=defect,
    )


def _y_and_z(c: np.ndarray, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(y c, z c) for y = (a^dagger + a)/sqrt 2 and z = i(a^dagger - a)/sqrt 2.

    s holds sqrt(n / 2) for n = 1..K-1. The ladder actions truncate as
    fock.ladder_lowering does: a^dagger |K-1> is dropped, so chained
    actions equal the products of the truncated matrices.
    """
    low = np.zeros_like(c)
    low[:-1] = s * c[1:]
    up = np.zeros_like(c)
    up[1:] = s * c[:-1]
    return up + low, 1j * (up - low)


def quad_moments_oracle(state: DeformedState | FockVector, tau: float) -> QuadratureMoments:
    """Quadrature moments from banded ladder actions on the truncated basis.

    y~ c = y c + tau (z z y c + y z z c)/2 is built from chained actions of
    y and z, the same truncated operators as metric_quadratures; since the
    truncated y~ and z are Hermitian, <y~^2> = ||y~ c||^2 and <z^2> = ||z c||^2.
    """
    c = _vector_of(state).coeffs
    k = c.size
    if k < 6:
        raise DimensionError("quadrature oracle needs cutoff >= 6")
    s = np.sqrt(np.arange(1.0, k)) / math.sqrt(2.0)
    yc, zc = _y_and_z(c, s)
    zyc = _y_and_z(yc, s)[1]
    zzc = _y_and_z(zc, s)[1]
    ytil_c = yc + (tau / 2.0) * (_y_and_z(zyc, s)[1] + _y_and_z(zzc, s)[0])
    mean_y = float(np.vdot(c, ytil_c).real)
    mean_z = float(np.vdot(c, zc).real)
    mean_y2 = float(np.vdot(ytil_c, ytil_c).real)
    mean_z2 = float(np.vdot(zc, zc).real)
    var_y = mean_y2 - mean_y**2
    var_z = mean_z2 - mean_z**2
    big_r = 0.5 * (1.0 + tau * mean_z2)
    u = var_y - big_r
    ut = big_r - var_z
    return QuadratureMoments(
        mean_Y=mean_y,
        mean_Z=mean_z,
        mean_Y2=mean_y2,
        mean_Z2=mean_z2,
        var_Y=var_y,
        var_Z=var_z,
        R=big_r,
        U=u,
        U_tilde=ut,
        saturation_defect=var_y * var_z - big_r**2,
    )


# ---------------------------------------------------------------------------
# number statistics
# ---------------------------------------------------------------------------


def closed_mandel_q(alpha: complex, tau: float, parity: int) -> float:
    """First-order closed Mandel Q for parity 0 (coherent), +1 (even cat) or -1 (odd cat).

    Q is undefined at alpha = 0, where 0 is returned (mandel_closed flags it).
    """
    r = abs(alpha) ** 2
    if r == 0.0:
        return 0.0
    if parity == 0:
        return -tau * r / 2.0
    if parity == +1:
        try:
            sh = math.sinh(2.0 * r)
            ch = math.cosh(2.0 * r)
            return r / (2.0 * sh) * (4.0 - 5.0 * tau - tau * ch) + (tau * r**2 / sh**2) * (
                1.0 + 5.0 * ch
            )
        except OverflowError:
            # sh^2 overflows from r ~ 177.8, where 1 / (2 sh) = e^(-2r), ch / sh = 1
            # and r^2 ch / sh^2 = 0 to double precision
            return r * math.exp(-2.0 * r) * (4.0 - 5.0 * tau) - tau * r / 2.0
    th = math.tanh(r)
    try:
        return -(r / 2.0) * (
            tau * th
            + 4.0 * (1.0 - tau) / math.sinh(2.0 * r)
            + tau * r / math.sinh(r) ** 2 * (2.0 + 3.0 * th**2)
        )
    except OverflowError:
        # sinh(2r) overflows from r ~ 355.2, where 1 / sinh(2r) and r / sinh^2 r
        # are 0 to double precision
        return -(r / 2.0) * (tau * th)


def mandel_closed(kind: StateKind) -> NumberMoments:
    """Closed first-order photon-number moments and Mandel Q.

    mandel_Q carries the first-order closed form (exactly -tau |alpha|^2 / 2 for
    coherent states); var_N is always the moment-consistent
    mean_N2 - mean_N^2, which differs from Q's numerator at O(tau^2). Only
    Q_- has a closed form for the odd cat; its moments are available
    through the oracle alone and are reported as NaN.
    """
    alpha, tau, parity = kind.alpha, kind.tau, kind.family.parity
    r = abs(alpha) ** 2
    if r == 0.0:
        return NumberMoments(0.0, 0.0, 0.0, 0.0, flagged=True)
    if parity == 0:
        mean_n = r - tau * r / 2.0 * (2.0 + r)
        mean_n2 = r + r**2 - tau * r * (1.0 + 3.0 * r + r**2)
    elif parity == +1:
        th = math.tanh(r)
        mean_n = (1.0 - tau) * r * th + tau * r**2 * (th**2 - 1.5)
        mean_n2 = r**2 + (1.0 - tau - tau * r**2) * r * th + tau * r**2 * (th**2 - 4.0)
    else:
        mean_n = mean_n2 = math.nan
    return NumberMoments(
        mean_N=mean_n,
        mean_N2=mean_n2,
        var_N=mean_n2 - mean_n**2,
        mandel_Q=closed_mandel_q(alpha, tau, parity),
    )


def mandel_oracle(state: DeformedState | FockVector, tau: float) -> NumberMoments:
    """Number moments of the excitation index over the perturbed-eigenvector
    expansion.

    The photon number counted here is the ladder index n of the expansion
    |psi> = sum_n c_n |phi_n>, recovered by projecting onto the perturbed
    eigenvectors; the deformation factor f(n) rescales energies, not counts.
    A deformed-ladder expectation <A+A> would return |alpha|^2 exactly for
    coherent inputs (they are A eigenstates) and carries no number
    squeezing. Operator ordering is moot for the diagonal index weights.

    For tau > 0 the projections <phi_m|psi> (deformation.perturbed_eigenvector)
    are one band over the vector,
    p_m = c_m + (tau/16) sqrt((m+1)_4) c_(m+4) - (tau/16) sqrt((m-3)_4) c_(m-4)
    for m < K - 4, the last term only from m = 4; this needs cutoff >= 5.
    """
    c = _vector_of(state).coeffs
    k = c.size
    if tau == 0.0:
        weights = np.abs(c) ** 2
        n = np.arange(k, dtype=np.float64)
    else:
        n_max = k - 4  # perturbed eigenvectors need the +4 sideband in range
        if n_max < 1:
            raise DimensionError(f"Mandel oracle needs cutoff >= 5 at tau > 0, got {k}")
        n = np.arange(n_max, dtype=np.float64)
        # (tau/16) sqrt((m+1)_4): the |m+4> entry of |phi_m>, minus the |m> entry of |phi_(m+4)>
        side = (tau / 16.0) * np.sqrt((n + 1.0) * (n + 2.0) * (n + 3.0) * (n + 4.0))
        proj = c[:n_max] + side * c[4:]
        below = proj[4:]
        below -= side[: below.size] * c[: below.size]
        weights = np.abs(proj) ** 2
    total = float(np.sum(weights))
    mean_n = float(np.sum(weights * n)) / total
    mean_n2 = float(np.sum(weights * n**2)) / total
    var_n = mean_n2 - mean_n**2
    if mean_n == 0.0:
        return NumberMoments(mean_n, mean_n2, var_n, 0.0, flagged=True)
    return NumberMoments(mean_n, mean_n2, var_n, var_n / mean_n - 1.0)


def photon_distribution_rows(coeffs: np.ndarray) -> np.ndarray:
    """P(n) = |c_n|^2 for each normalized state row of (..., K) (states.require_normalized)."""
    require_normalized(coeffs)
    return np.abs(coeffs) ** 2


def photon_distribution(state: DeformedState | FockVector) -> np.ndarray:
    """P(n) = |c_n|^2 of a normalized state; sums to 1 within 1e-10."""
    return photon_distribution_rows(_vector_of(state).coeffs)
