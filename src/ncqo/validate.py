"""Cross-check suites: closed-vs-oracle defects, limits, saturation.

`fast` runs the tau = 0 limit suite and the arithmetic identities in a few
seconds; `full` adds the spectrum spot-check and the quadratic-order
(two-point Richardson) bands. Each check records the measured defect and
its bound; the CLI exits nonzero if any check fails.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import deformation, fock
from .beamsplitter import (
    SplitterParams,
    linear_entropy_closed,
    linear_entropy_oracle,
    linear_entropy_quadruple,
    reduced_density,
    split_fock,
    split_state,
)
from .observables import (
    closed_terms,
    mandel_closed,
    mandel_oracle,
    quad_moments_closed,
    quad_moments_oracle,
)
from .states import StateFamily, StateKind, build_cat, build_coherent


@dataclass(frozen=True)
class CheckResult:
    name: str
    measured: float
    bound: str
    passed: bool

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: measured {self.measured:.3e}, bound {self.bound}"


@dataclass(frozen=True)
class Report:
    level: str
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self) -> list[str]:
        out = [c.line() for c in self.checks]
        n_fail = sum(not c.passed for c in self.checks)
        out.append(
            f"{self.level}: {len(self.checks) - n_fail}/{len(self.checks)} checks passed"
        )
        return out


def _leq(name: str, measured: float, bound: float) -> CheckResult:
    return CheckResult(name, measured, f"<= {bound:.1e}", measured <= bound)


def _band(name: str, measured: float, lo: float, hi: float) -> CheckResult:
    return CheckResult(name, measured, f"in [{lo:g}, {hi:g}]", lo <= measured <= hi)


def _fast_checks() -> list[CheckResult]:
    checks = []
    # ladder and quadrature commutators on the interior block
    k = 40
    margin = fock.interior_margin(k)
    a = fock.ladder_lowering(k)
    comm = a @ a.conj().T - a.conj().T @ a
    defect = float(np.max(np.abs((comm - np.eye(k))[: k - 1, : k - 1])))
    checks.append(_leq("ladder commutator [a, a+] = 1 (interior)", defect, 1e-13))
    y, z = fock.quadratures(k)
    comm_yz = y @ z - z @ y
    defect = float(np.max(np.abs((comm_yz - 1j * np.eye(k))[: k - 1, : k - 1])))
    checks.append(_leq("quadrature commutator [y, z] = i (interior)", defect, 1e-12))
    # metric identity
    m = np.eye(30) + 0.1 * (z[:30, :30] @ z[:30, :30])
    inv = fock.inverse_sqrt(m)
    ident = inv @ m @ inv
    interior = 30 - fock.interior_margin(30)
    defect = float(np.max(np.abs((ident - np.eye(30))[:interior, :interior])))
    checks.append(_leq("inverse_sqrt metric identity (interior)", defect, 1e-8))
    # Glauber limit: oracle equals closed form at tau = 0
    st = build_coherent(1.0, 0.0, cutoff=40)
    qc = quad_moments_closed(st.kind)
    qo = quad_moments_oracle(st, 0.0)
    defect = max(
        abs(qc.mean_Y - qo.mean_Y),
        abs(qc.mean_Z - qo.mean_Z),
        abs(qc.var_Y - qo.var_Y),
        abs(qc.var_Z - qo.var_Z),
        abs(qc.R - qo.R),
    )
    checks.append(_leq("Glauber limit: quadrature oracle vs closed", defect, 1e-10))
    checks.append(
        _leq(
            "Glauber limit: Mandel oracle", abs(mandel_oracle(st, 0.0).mandel_Q), 1e-10
        )
    )
    # GUR saturation defect of the coherent closed forms
    for alpha in (1.0, 1.0 + 1.0j):
        for tau in (1e-3, 1e-2):
            q = quad_moments_closed(StateKind(StateFamily.COHERENT, alpha, tau))
            target = -(tau * (0.25 + abs(alpha) ** 2 / 2.0)) ** 2
            checks.append(
                _leq(
                    f"GUR saturation defect identity (alpha={alpha}, tau={tau})",
                    abs(q.saturation_defect - target),
                    1e-12,
                )
            )
    # ordinary-oscillator cat limits
    alpha = 1.3 + 0.4j
    r = abs(alpha) ** 2
    w = (alpha**2 + alpha.conjugate() ** 2).real
    u_ho = 0.5 * (w + 2.0 * r * math.tanh(r))
    ut_ho = 0.5 * (w - 2.0 * r * math.tanh(r))
    _, u, ut = closed_terms(alpha, 0.0, +1)
    checks.append(_leq("even-cat tau->0 limit U+", abs(u - u_ho), 1e-12))
    checks.append(_leq("even-cat tau->0 limit U~+", abs(ut - ut_ho), 1e-12))
    q_ho = 2.0 * r / math.sinh(2.0 * r)
    checks.append(
        _leq(
            "cat tau->0 Mandel limits Q+/Q-",
            max(
                abs(mandel_closed(StateKind(StateFamily.CAT_EVEN, alpha, 0.0)).mandel_Q - q_ho),
                abs(mandel_closed(StateKind(StateFamily.CAT_ODD, alpha, 0.0)).mandel_Q + q_ho),
            ),
            1e-12,
        )
    )
    # parity purity
    even = build_cat(1.0 + 0.5j, 0.3, +1)
    odd = build_cat(1.0 + 0.5j, 0.3, -1)
    purity = max(
        float(np.max(np.abs(even.vector.coeffs[1::2]))),
        float(np.max(np.abs(odd.vector.coeffs[0::2]))),
    )
    checks.append(_leq("cat parity purity", purity, 1e-14))
    # beam splitter basics
    params = SplitterParams()
    s1 = linear_entropy_oracle(reduced_density(split_fock(1, params)))
    checks.append(_leq("single-photon 50:50 entropy = 1/2", abs(s1 - 0.5), 1e-12))
    st = build_coherent(1.0, 0.0, cutoff=40)
    s_oracle = linear_entropy_oracle(reduced_density(split_state(st, params)))
    s_closed = linear_entropy_closed(1.0, 0.0, params, 40)
    checks.append(
        _leq("Glauber null entropy (both paths)", max(abs(s_oracle), abs(s_closed)), 1e-8)
    )
    checks.append(
        _leq(
            "entropy closed kernel vs quadruple loop (K=12)",
            abs(
                linear_entropy_closed(0.8 + 0.3j, 0.05, params, 12, check_tail=False)
                - linear_entropy_quadruple(0.8 + 0.3j, 0.05, params, 12)
            ),
            1e-12,
        )
    )
    return checks


def _full_checks() -> list[CheckResult]:
    checks = []
    params = SplitterParams()
    # spectrum spot-check via the Dyson map
    tau, k = 1e-3, 60
    h = deformation.hamiltonian(tau, k)
    eta = deformation.dyson_metric(tau, k)
    htil = eta @ h @ np.linalg.inv(eta)
    evals = np.linalg.eigvalsh((htil + htil.conj().T) / 2.0)
    defect = max(abs(evals[n] - deformation.energy(n, tau)) for n in range(6))
    checks.append(_leq("spectrum spot-check (lowest 6 levels)", defect, 5 * tau**2 + 1e-8))
    # quadratic-order bands (two-point Richardson at tau = 1e-2 vs 1e-3)
    alpha = 1.0
    defects = []
    for tau in (1e-3, 1e-2):
        st = build_coherent(alpha, tau, cutoff=40)
        defects.append(
            abs(mandel_oracle(st, tau).mandel_Q - mandel_closed(st.kind).mandel_Q)
        )
    checks.append(_band("Mandel oracle-vs-closed quadratic band", defects[1] / defects[0], 50, 200))
    alpha = 1.0 + 1.0j
    defects = []
    for tau in (1e-3, 1e-2):
        st = build_coherent(alpha, tau)
        qc, qo = quad_moments_closed(st.kind), quad_moments_oracle(st, tau)
        defects.append(max(abs(qc.var_Y - qo.var_Y), abs(qc.var_Z - qo.var_Z), abs(qc.R - qo.R)))
    checks.append(
        _band("quadrature oracle-vs-closed quadratic band", defects[1] / defects[0], 50, 200)
    )
    defects = []
    for tau in (1e-3, 1e-2):
        st = build_coherent(alpha, tau, cutoff=40)
        s_oracle = linear_entropy_oracle(reduced_density(split_state(st, params)))
        defects.append(abs(linear_entropy_closed(alpha, tau, params, 40) - s_oracle))
    checks.append(
        _band("entropy closed-vs-oracle quadratic band", defects[1] / defects[0], 50, 200)
    )
    checks.append(
        _leq(
            "entropy closed kernel vs quadruple loop (K=20)",
            abs(
                linear_entropy_closed(1.0 + 1.0j, 0.1, params, 20, check_tail=False)
                - linear_entropy_quadruple(1.0 + 1.0j, 0.1, params, 20)
            ),
            1e-12,
        )
    )
    return checks


def run_validation(level: str = "fast") -> Report:
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    checks = _fast_checks()
    if level == "full":
        checks += _full_checks()
    return Report(level=level, checks=tuple(checks))
