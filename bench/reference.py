"""Reference computations made apart from ncqo, used to check its outputs.

Nothing here calls into ncqo: the ordinary-oscillator cat moments follow
from a^2 |cat> = alpha^2 |cat>, the coherent first-order values from the
definitions U = varY - R and R = (1 + tau <Z^2>)/2, and the splitter
entropy from a dense amplitude matrix built directly from Fock
coefficients.
"""

from __future__ import annotations

import math

import numpy as np

CSV_HEADER = "re_alpha,im_alpha,tau,value,valid,warn"


class CheckFailed(Exception):
    """A program output disagreed with its reference."""


def ordinary_cat(alpha: complex, parity: int) -> dict:
    """tau = 0 diagnostics of the even (+1) or odd (-1) cat state.

    <n> = r tanh r (even) or r coth r (odd), <a^+2 a^2> = r^2, <a^2> = alpha^2
    and <y> = <z> = 0, so varY = 1/2 + Re(alpha^2) + <n> and
    varZ = 1/2 - Re(alpha^2) + <n>, with R = 1/2.
    """
    r = abs(alpha) ** 2
    re_a2 = (alpha * alpha).real
    n_mean = r * math.tanh(r) if parity == +1 else r / math.tanh(r)
    var_y = 0.5 + re_a2 + n_mean
    var_z = 0.5 - re_a2 + n_mean
    return {
        "U": var_y - 0.5,
        "U_tilde": 0.5 - var_z,
        "varZ": var_z,
        "saturation_defect": var_y * var_z - 0.25,
        "mandel": (r * r - n_mean * n_mean) / n_mean,
    }


def coherent_first_order(alpha: complex, tau: float) -> dict:
    """First-order coherent-state diagnostics.

    U = U~ = tau (1/4 + |alpha|^2/2), Q = -tau |alpha|^2/2, and
    R = 1/2 + tau/4 + tau Im(alpha)^2 from <Z^2> = 1/2 + 2 Im(alpha)^2.
    """
    r = abs(alpha) ** 2
    u = tau * (0.25 + r / 2.0)
    big_r = 0.5 + tau / 4.0 + tau * alpha.imag**2
    return {
        "U": u,
        "U_tilde": u,
        "varZ": big_r - u,
        "saturation_defect": -(u * u),
        "mandel": -tau * r / 2.0,
    }


def first_order_band(alpha: complex, tau: float) -> float:
    """Allowed closed-vs-oracle defect: 10 tau^2 (1 + |alpha|^2)^3 + 1e-9.

    The constant leaves a factor of about 2.5 over the largest defect seen
    for |alpha| <= 2 at tau <= 1e-2 outside the cases named in README.md.
    """
    return 10.0 * tau**2 * (1.0 + abs(alpha) ** 2) ** 3 + 1e-9


def _log_factorials(n: int) -> np.ndarray:
    out = np.zeros(n)
    if n > 1:
        out[1:] = np.cumsum(np.log(np.arange(1, n)))
    return out


def splitter_amplitudes(coeffs, theta: float, phi: float = 0.0) -> np.ndarray:
    """A[q, m] = c_{q+m} sqrt(binom(q+m, q)) t^q r^m for q + m < K, else 0.

    The splitter output of sum_n c_n |n> (x) |0>, with t = cos(theta/2)
    and r = -e^{i phi} sin(theta/2).
    """
    c = np.asarray(coeffs, dtype=np.complex128)
    k = c.size
    t = math.cos(theta / 2.0)
    r = -complex(math.cos(phi), math.sin(phi)) * math.sin(theta / 2.0)
    q = np.arange(k)[:, None]
    m = np.arange(k)[None, :]
    n = q + m
    inside = n < k
    n_in = np.where(inside, n, 0)
    lf = _log_factorials(k)
    sqrt_binom = np.exp(0.5 * (lf[n_in] - lf[q] - lf[m]))
    amp = c[n_in] * sqrt_binom * np.power(t, q) * np.power(r, m)
    return np.where(inside, amp, 0.0)


def splitter_entropy(coeffs, theta: float, phi: float = 0.0) -> float:
    """Linear entropy S = 1 - ||A A^+||_F^2 of the splitter output."""
    a = splitter_amplitudes(coeffs, theta, phi)
    rho = a @ a.conj().T
    return 1.0 - float(np.sum(np.abs(rho) ** 2))


def read_scan_csv(path: str) -> list[tuple]:
    """Rows of an ncqo scan CSV as (re, im, tau, value, valid, warn) tuples."""
    with open(path) as fh:
        lines = fh.read().split("\n")
    if lines[0] != CSV_HEADER or lines[-1] != "":
        raise CheckFailed(f"{path}: unexpected header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        fields = line.split(",")
        if len(fields) != 6 or fields[4] not in ("true", "false") or fields[5] not in ("true", "false"):
            raise CheckFailed(f"{path}: malformed row {line!r}")
        rows.append(tuple(float(x) for x in fields[:4]) + (fields[4] == "true", fields[5] == "true"))
    return rows


def same_float(a: float, b: float) -> bool:
    return a == b or (math.isnan(a) and math.isnan(b))
