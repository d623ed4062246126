"""Nonclassicality diagnostics: quadrature moments, Mandel parameters, photon
distributions.

Every diagnostic exists twice: a closed first-order-in-tau formula and a
truncated-matrix oracle. The oracle convention: states are expansions over
the Hermitian-side eigenvectors, so expectation values of the
noncommutative operators use the similarity-transformed matrices
y~ = y + tau (z^2 y + y z^2)/2 and z~ = z with plain inner products; no
metric matrix is applied to the states.

For every kind we report U = varY - R and U~ = R - varZ, so the
generalized-uncertainty validity value R(U - U~) - U U~ coincides with
varY * varZ - R^2 (the saturation defect).

The closed quadrature forms go through one kernel per family, returning
(R, U, U~): cat_closed_terms computes |alpha|^2, Re(alpha^2) and the
hyperbolic functions once for all three, and cat_R, cat_U, cat_U_tilde,
cat_validity_value and the closed cat moments all read from it.
closed_quadrature_values turns (R, U, U~) into varY, varZ and the
saturation defect, for the moment records and for grid scans alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .deformation import perturbed_eigenvector
from .errors import DimensionError
from .fock import FockVector, OperatorMatrix, expectation, quadratures
from .states import DeformedState, StateFamily, StateKind


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
    """Similarity-transformed quadratures (y~, z~) on the truncated basis."""
    if cutoff < 6:
        raise DimensionError("metric quadratures need cutoff >= 6")
    y, z = quadratures(cutoff)
    z2 = z.mat @ z.mat
    ytil = y.mat + tau * (z2 @ y.mat + y.mat @ z2) / 2.0
    return OperatorMatrix(ytil), z


def _vector_of(state: DeformedState | FockVector) -> FockVector:
    return state.vector if isinstance(state, DeformedState) else state


# ---------------------------------------------------------------------------
# closed forms: coherent states
# ---------------------------------------------------------------------------


def coherent_closed_terms(alpha: complex, tau: float) -> tuple[float, float, float]:
    """(R, U, U~) of a coherent state, where U~ = U."""
    a = complex(alpha)
    r = abs(a) ** 2
    d = ((a - a.conjugate()) ** 2).real  # (alpha - alpha*)^2, real and <= 0
    u = tau * (0.25 + r / 2.0)
    return (2.0 + tau - tau * d) / 4.0, u, u


def _coherent_closed(alpha: complex, tau: float) -> QuadratureMoments:
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
    big_r, u, ut, var_y, var_z, defect = closed_quadrature_values(*coherent_closed_terms(a, tau))
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


# ---------------------------------------------------------------------------
# closed forms: cat states
# ---------------------------------------------------------------------------


def cat_closed_terms(alpha: complex, tau: float, parity: int) -> tuple[float, float, float]:
    """(R_±, U_±, U~_±) of the even (parity = +1) or odd (parity = -1) cat.

    The one kernel behind cat_R, cat_U, cat_U_tilde, cat_validity_value and
    the closed cat moments: |alpha|^2, w = 2 Re(alpha^2),
    v = (alpha^2 - alpha*^2)^2 and the hyperbolic functions are computed once.
    """
    a = complex(alpha)
    ac = a.conjugate()
    r = abs(a) ** 2
    a2 = a**2
    ac2 = ac**2
    w = (a2 + ac2).real
    v = ((a2 - ac2) ** 2).real
    quarter = tau / 4.0
    if parity == +1:
        th = math.tanh(r)
        big_r = 0.5 + quarter * (1.0 - w + 2.0 * r * th)
        u = (
            w / 2.0
            + r * th
            + quarter * (1.0 - v + 2.0 * r * th - 4.0 * r**2 / math.cosh(r) ** 2)
        )
        d = ((a - ac) ** 2).real
        e2 = 1.0 + math.exp(2.0 * r)
        u_tilde = (
            d * (1.0 - tau) / 2.0
            + quarter * (1.0 + 2.0 * r - v)
            + r * (2.0 - 3.0 * tau + 4.0 * tau * r) / e2
            - 4.0 * tau * r**2 / e2**2
        )
        return big_r, u, u_tilde
    coth = 1.0 / math.tanh(r)
    sinh2 = math.sinh(r) ** 2
    big_r = 0.5 + quarter * (1.0 - w + 2.0 * r * coth)
    u = w / 2.0 + r * coth + quarter * (1.0 - v + 2.0 * r * coth + 4.0 * r**2 / sinh2)
    u_tilde = (
        w / 2.0
        - r * coth
        + quarter * (1.0 - w - v + 6.0 * r * coth - 4.0 * r**2 / sinh2)
    )
    return big_r, u, u_tilde


def cat_R(alpha: complex, tau: float, parity: int) -> float:
    """Right-hand side R_± of the generalized uncertainty relation."""
    return cat_closed_terms(alpha, tau, parity)[0]


def cat_U(alpha: complex, tau: float, parity: int) -> float:
    """Quadrature-Y expansion term U_±: varY_± = R_± + U_±."""
    return cat_closed_terms(alpha, tau, parity)[1]


def cat_U_tilde(alpha: complex, tau: float, parity: int) -> float:
    """Quadrature-Z squeezing term U~_±: varZ_± = R_± - U~_±."""
    return cat_closed_terms(alpha, tau, parity)[2]


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
    return validity_value(*cat_closed_terms(alpha, tau, parity))


def cat_second_moments_raw(alpha: complex, tau: float, parity: int) -> tuple[float, float]:
    """<Y^2>_± and <Z^2>_± from the unexpanded (M1, M2) form.

    Agrees with (R_± + U_±, R_± - U~_±) exactly at tau = 0 and to O(tau^2)
    otherwise (the normalization denominator is expanded in the R/U forms).
    """
    from .states import cat_norm_sq, coherent_norm_sq

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
    nhat = coherent_norm_sq(alpha, tau, strict=False) * cat_norm_sq(
        alpha, tau, parity, strict=False
    )
    return (m1p + parity * m1m) / nhat, (m2p + parity * m2m) / nhat


def _cat_closed(alpha: complex, tau: float, parity: int) -> QuadratureMoments:
    big_r, u, ut, var_y, var_z, defect = closed_quadrature_values(
        *cat_closed_terms(alpha, tau, parity)
    )
    return QuadratureMoments(
        mean_Y=0.0,
        mean_Z=0.0,
        mean_Y2=var_y,
        mean_Z2=var_z,
        var_Y=var_y,
        var_Z=var_z,
        R=big_r,
        U=u,
        U_tilde=ut,
        saturation_defect=defect,
    )


def quad_moments_closed(kind: StateKind) -> QuadratureMoments:
    """Closed first-order quadrature moments for a state template."""
    if kind.family is StateFamily.COHERENT:
        return _coherent_closed(kind.alpha, kind.tau)
    return _cat_closed(kind.alpha, kind.tau, kind.family.parity)


def quad_moments_oracle(state: DeformedState | FockVector, tau: float) -> QuadratureMoments:
    """Quadrature moments from dense matrix products on the truncated basis."""
    vec = _vector_of(state)
    ytil, ztil = metric_quadratures(tau, vec.cutoff)
    mean_y = expectation(ytil, vec).real
    mean_z = expectation(ztil, vec).real
    mean_y2 = expectation(ytil @ ytil, vec).real
    mean_z2 = expectation(ztil @ ztil, vec).real
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
        sh = math.sinh(2.0 * r)
        ch = math.cosh(2.0 * r)
        return r / (2.0 * sh) * (4.0 - 5.0 * tau - tau * ch) + (tau * r**2 / sh**2) * (
            1.0 + 5.0 * ch
        )
    th = math.tanh(r)
    return -(r / 2.0) * (
        tau * th
        + 4.0 * (1.0 - tau) / math.sinh(2.0 * r)
        + tau * r / math.sinh(r) ** 2 * (2.0 + 3.0 * th**2)
    )


def _coherent_mandel(alpha: complex, tau: float) -> NumberMoments:
    r = abs(alpha) ** 2
    mean_n = r - tau * r / 2.0 * (2.0 + r)
    mean_n2 = r + r**2 - tau * r * (1.0 + 3.0 * r + r**2)
    return NumberMoments(
        mean_N=mean_n,
        mean_N2=mean_n2,
        var_N=mean_n2 - mean_n**2,
        mandel_Q=closed_mandel_q(alpha, tau, 0),
    )


def _cat_even_mandel(alpha: complex, tau: float) -> NumberMoments:
    r = abs(alpha) ** 2
    th = math.tanh(r)
    mean_n = (1.0 - tau) * r * th + tau * r**2 * (th**2 - 1.5)
    mean_n2 = r**2 + (1.0 - tau - tau * r**2) * r * th + tau * r**2 * (th**2 - 4.0)
    return NumberMoments(
        mean_N=mean_n,
        mean_N2=mean_n2,
        var_N=mean_n2 - mean_n**2,
        mandel_Q=closed_mandel_q(alpha, tau, +1),
    )


def _cat_odd_mandel(alpha: complex, tau: float) -> NumberMoments:
    # Only Q_- has a closed form; the intermediate moments are only
    # available through the oracle, so they are reported as NaN here.
    nan = float("nan")
    return NumberMoments(
        mean_N=nan, mean_N2=nan, var_N=nan, mandel_Q=closed_mandel_q(alpha, tau, -1)
    )


def mandel_closed(kind: StateKind) -> NumberMoments:
    """Closed first-order photon-number moments and Mandel Q.

    mandel_Q carries the first-order closed form (exactly -tau |alpha|^2 / 2 for
    coherent states); var_N is always the moment-consistent
    mean_N2 - mean_N^2, which differs from Q's numerator at O(tau^2).
    """
    if abs(kind.alpha) ** 2 == 0.0:
        return NumberMoments(0.0, 0.0, 0.0, 0.0, flagged=True)
    if kind.family is StateFamily.COHERENT:
        return _coherent_mandel(kind.alpha, kind.tau)
    if kind.family is StateFamily.CAT_EVEN:
        return _cat_even_mandel(kind.alpha, kind.tau)
    return _cat_odd_mandel(kind.alpha, kind.tau)


def mandel_oracle(state: DeformedState | FockVector, tau: float) -> NumberMoments:
    """Number moments of the excitation index over the perturbed-eigenvector
    expansion.

    The photon number counted here is the ladder index n of the expansion
    |psi> = sum_n c_n |phi_n>, recovered by projecting onto the perturbed
    eigenvectors; the deformation factor f(n) rescales energies, not counts.
    A deformed-ladder expectation <A+A> would return |alpha|^2 exactly for
    coherent inputs (they are A eigenstates) and carries no number
    squeezing. Operator ordering is moot for the diagonal index weights.
    """
    vec = _vector_of(state)
    k = vec.cutoff
    if tau == 0.0:
        weights = np.abs(vec.coeffs) ** 2
        n = np.arange(k, dtype=np.float64)
    else:
        n_max = k - 4  # perturbed eigenvectors need the +4 sideband in range
        weights = np.empty(n_max)
        for m in range(n_max):
            phi = perturbed_eigenvector(m, tau, k)
            weights[m] = abs(np.vdot(phi.coeffs, vec.coeffs)) ** 2
        n = np.arange(n_max, dtype=np.float64)
    total = float(np.sum(weights))
    mean_n = float(np.sum(weights * n)) / total
    mean_n2 = float(np.sum(weights * n**2)) / total
    var_n = mean_n2 - mean_n**2
    if mean_n == 0.0:
        return NumberMoments(mean_n, mean_n2, var_n, 0.0, flagged=True)
    return NumberMoments(mean_n, mean_n2, var_n, var_n / mean_n - 1.0)


def photon_distribution(state: DeformedState | FockVector) -> np.ndarray:
    """P(n) = |c_n|^2 of a normalized state; sums to 1 within 1e-10."""
    vec = _vector_of(state)
    if not vec.is_normalized(1e-10):
        raise ValueError("photon_distribution expects a normalized state")
    return np.abs(vec.coeffs) ** 2
