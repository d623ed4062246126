"""Noncommutative deformation data for the minimal-length oscillator.

Everything here is parametrised by the dimensionless noncommutativity tau
(units hbar = m = omega = 1). The deformation function is

    f^2(n) = 1 + tau (1 + n) / 2,

its factorial f^2(n)! = prod_{k=1..n} f^2(k) (so f^2(0)! = 1, which
reproduces the Pochhammer closed form (tau/2)^n (2 + 2/tau)^(n) exactly),
and the first-order inverse 1/f^2(n)! = 1 - tau n(3+n)/4 + O(tau^2).

Also provides the perturbed oscillator eigenvectors |phi_n> (which couple
|n> only to |n +- 4> at first order), the rewritten coherent-state
coefficients C(alpha, n), the energies E_n = n f^2(n), and the
non-Hermitian Hamiltonian plus Dyson metric used by the spectrum
spot-check. Both operators are plain (cutoff, cutoff) complex arrays, as
every operator in fock is. observables.mandel_oracle projects onto the
|phi_n> as one band over the state vector; perturbed_eigenvector is the
dense vector behind that band, the reference the tests compare it with,
and a name the benchmark's tracer wraps.
"""

from __future__ import annotations

import math

import numpy as np

from . import fock
from .errors import DimensionError
from .fock import FockVector


def pochhammer(q: float, n: int) -> float:
    """Rising factorial q^(n) = q (q+1) ... (q+n-1); empty product for n = 0."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    out = 1.0
    for k in range(n):
        out *= q + k
    return out


def f_squared(n: int, tau: float) -> float:
    """f^2(n) = 1 + tau (1 + n) / 2."""
    if n < 0:
        raise ValueError("n >= 0 required")
    return 1.0 + tau * (1 + n) / 2.0


def f_factorial_squared(n: int, tau: float) -> float:
    """Exact f^2(n)! = prod_{k=1..n} f^2(k); equals (tau/2)^n (2+2/tau)^(n)."""
    if n < 0:
        raise ValueError("n >= 0 required")
    out = 1.0
    for k in range(1, n + 1):
        out *= f_squared(k, tau)
    return out


def amplitude_inv_f_factorial(n: int, tau: float, exact: bool = False) -> float:
    """1/f(n)! as used in state amplitudes.

    First-order by default: 1 - tau n(3+n)/8, whose square is the
    first-order 1/f^2(n)!. With exact=True the always-positive
    1/sqrt(f^2(n)!) is used instead (sensitivity mode for large tau).
    """
    if exact:
        return f_factorial_squared(n, tau) ** -0.5
    return 1.0 - tau * n * (3 + n) / 8.0


def energy(n: int, tau: float) -> float:
    """E_n = n f^2(n) = n [1 + tau (1 + n)/2] with hbar*omega = 1."""
    return n * f_squared(n, tau)


def perturbed_eigenvector(n: int, tau: float, cutoff: int) -> FockVector:
    """Unnormalized first-order eigenvector |n> -+ (tau/16) sqrt(...) |n -+ 4>.

    Normalization differs from 1 only at O(tau^2); callers may renormalize.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    if n + 4 >= cutoff:
        raise DimensionError(f"cutoff {cutoff} too small for level {n} (need > {n + 4})")
    c = np.zeros(cutoff, dtype=np.complex128)
    c[n] = 1.0
    c[n + 4] = (tau / 16.0) * math.sqrt(pochhammer(n + 1, 4))
    if n >= 4:
        c[n - 4] = -(tau / 16.0) * math.sqrt(pochhammer(n - 3, 4))
    return FockVector(c)


def coefficient_C(alpha: complex, n: int, tau: float, exact_ratios: bool = False) -> complex:
    """Coherent-state coefficient C(alpha, n).

    C = alpha^n - (tau/16) alpha^(n+4) * f(n)!/f(n+4)!
        [+ (tau/16) alpha^(n-4) * n!/(n-4)! * f(n)!/f(n-4)!   for n >= 4]

    Both correction terms already carry a tau prefactor, so at first order
    the f-ratios reduce to 1 (the default). exact_ratios=True keeps the
    exact ratios, taming the corrections at large tau.
    """
    if n < 0:
        raise ValueError("n >= 0 required")
    alpha = complex(alpha)
    if exact_ratios:
        ratio_up = 1.0
        for k in range(n + 1, n + 5):
            ratio_up *= f_squared(k, tau)
        ratio_up **= -0.5
    else:
        ratio_up = 1.0
    c = alpha**n - (tau / 16.0) * alpha ** (n + 4) * ratio_up
    if n >= 4:
        if exact_ratios:
            ratio_dn = 1.0
            for k in range(n - 3, n + 1):
                ratio_dn *= f_squared(k, tau)
            ratio_dn **= 0.5
        else:
            ratio_dn = 1.0
        c += (tau / 16.0) * alpha ** (n - 4) * pochhammer(n - 3, 4) * ratio_dn
    return c


def hamiltonian(tau: float, cutoff: int) -> np.ndarray:
    """Noncommutative oscillator H = P^2/2 + X^2/2 - (2+tau)/4 with X = (1+tau p^2) x.

    Non-Hermitian with respect to the standard inner product; isospectral to
    its Hermitian counterpart via the Dyson map (see dyson_metric). The
    constant shift makes E_0 = 0.
    """
    x, p = fock.quadratures(cutoff)
    p2 = p @ p
    big_x = (np.eye(cutoff) + tau * p2) @ x
    return p2 / 2.0 + (big_x @ big_x) / 2.0 - (2.0 + tau) / 4.0 * np.eye(cutoff)


def dyson_metric(tau: float, cutoff: int) -> np.ndarray:
    """Dyson map eta = (1 + tau p^2)^(-1/2) on the truncated basis."""
    _, z = fock.quadratures(cutoff)
    return fock.inverse_sqrt(np.eye(cutoff) + tau * (z @ z))
