"""Acceptance gate: end-to-end checks with pinned tolerances.

Each test prints one [PASS]/[FAIL] line per criterion (run pytest -s to see
them on success) and then asserts, so a red line always comes with a red
test.
"""

import math
import time

import numpy as np
import pytest

from ncqo import deformation, fock
from ncqo.beamsplitter import (
    SplitterParams,
    entropy_for_kind,
    linear_entropy_closed,
    linear_entropy_oracle,
    linear_entropy_quadruple,
    reduced_density,
    split_fock,
    split_state,
)
from ncqo.observables import (
    closed_terms,
    mandel_closed,
    mandel_oracle,
    quad_moments_closed,
)
from ncqo.states import StateFamily, StateKind, build_cat, build_coherent

BALANCED = SplitterParams()


def _report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {criterion}: {detail}"
    print(line)
    assert ok, line


def test_criterion_1_gur_saturation():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (1.0, 1.0 + 1.0j, 0.5 + 1.5j):
        for tau in (1e-3, 1e-2, 0.1):
            q = quad_moments_closed(StateKind(StateFamily.COHERENT, alpha, tau))
            target = -((tau * (0.25 + abs(alpha) ** 2 / 2.0)) ** 2)
            worst = max(worst, abs(q.saturation_defect - target))
    elapsed = time.perf_counter() - start
    _report(
        1,
        worst <= 1e-12 and elapsed < 1.0,
        f"generalized-uncertainty saturation identity, max defect {worst:.2e} "
        f"(<= 1e-12), {elapsed:.2f}s (< 1s)",
    )


def test_criterion_2_coherent_mandel():
    start = time.perf_counter()
    closed = mandel_closed(StateKind(StateFamily.COHERENT, 1.0, 0.1)).mandel_Q
    exact_ok = closed == -0.05
    defects = []
    for tau in (1e-3, 1e-2):
        st = build_coherent(1.0, tau, cutoff=40)
        defects.append(
            abs(mandel_oracle(st, tau).mandel_Q - mandel_closed(st.kind).mandel_Q)
        )
    ratio = defects[1] / defects[0]
    elapsed = time.perf_counter() - start
    _report(
        2,
        exact_ok and 50 <= ratio <= 200 and elapsed < 5.0,
        f"coherent Mandel Q closed = {closed} (= -0.05), oracle quadratic-band "
        f"ratio {ratio:.1f} (in [50, 200]), {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_glauber_entropy_null():
    start = time.perf_counter()
    worst = 0.0
    for alpha in (0.5, 1.0, 1.0 + 1.0j, 2.0j):
        st = build_coherent(alpha, 0.0, cutoff=40)
        s_oracle = linear_entropy_oracle(reduced_density(split_state(st, BALANCED)))
        s_closed = linear_entropy_closed(alpha, 0.0, BALANCED, 40)
        worst = max(worst, abs(s_oracle), abs(s_closed))
    elapsed = time.perf_counter() - start
    _report(
        3,
        worst <= 1e-8 and elapsed < 10.0,
        f"undeformed coherent input stays unentangled, max |S| {worst:.2e} "
        f"(<= 1e-8), {elapsed:.2f}s (< 10s)",
    )


def test_criterion_4_single_photon_splitter():
    s = linear_entropy_oracle(reduced_density(split_fock(1, BALANCED)))
    _report(4, abs(s - 0.5) <= 1e-12, f"S(|1>, theta=pi/2) = {s} (0.5 +- 1e-12)")


def test_criterion_5_ordinary_cat_limits():
    rng = np.random.default_rng(7)
    alphas = rng.uniform(0.3, 2.2, 20) + 1j * rng.uniform(-1.5, 1.5, 20)
    worst = 0.0
    signs_ok = True
    for alpha in alphas:
        r = abs(alpha) ** 2
        w = (alpha**2 + np.conj(alpha) ** 2).real
        _, u_even, ut_even = closed_terms(alpha, 0.0, +1)
        _, u_odd, ut_odd = closed_terms(alpha, 0.0, -1)
        worst = max(
            worst,
            abs(u_even - (w / 2 + r * math.tanh(r))),
            abs(u_odd - (w / 2 + r / math.tanh(r))),
            abs(ut_even - (w / 2 - r * math.tanh(r))),
            abs(ut_odd - (w / 2 - r / math.tanh(r))),
        )
        q_ho = 2.0 * r / math.sinh(2.0 * r)
        q_even = mandel_closed(StateKind(StateFamily.CAT_EVEN, alpha, 0.0)).mandel_Q
        q_odd = mandel_closed(StateKind(StateFamily.CAT_ODD, alpha, 0.0)).mandel_Q
        worst = max(worst, abs(q_even - q_ho), abs(q_odd + q_ho))
        signs_ok = signs_ok and q_even > 0 and q_odd < 0
    _report(
        5,
        worst <= 1e-12 and signs_ok,
        f"tau->0 cat closed forms vs textbook at 20 alphas, max defect {worst:.2e} "
        f"(<= 1e-12), Q+ > 0 and Q- < 0 everywhere: {signs_ok}",
    )


def test_criterion_6_figure_level_claims():
    grid = np.linspace(0.9, 3.0, 30)
    taus = (0.0, 0.5, 1.0, 1.5, 2.0)

    start = time.perf_counter()
    min_ut = min(
        closed_terms(complex(g, d), 5.0, +1)[2] for g in grid for d in grid
    )
    ok_a = min_ut > 0
    _report(
        "6a",
        ok_a and time.perf_counter() - start < 60,
        f"even-cat U~ at tau=5 positive on [0.9,3]^2, min {min_ut:.3f} (> 0)",
    )

    min_ho = min(closed_terms(complex(g, d), 0.0, +1)[2] for g in grid for d in grid)
    _report(
        "6b",
        min_ho < 0,
        f"ordinary even-cat U~ has a negative sample, min {min_ho:.3f} (< 0)",
    )

    start = time.perf_counter()
    grid_q = np.linspace(0.1, 3.0, 30)
    max_q = max(
        mandel_closed(StateKind(StateFamily.CAT_ODD, complex(g, d), 1.0)).mandel_Q
        for g in grid_q
        for d in grid_q
    )
    _report(
        "6c",
        max_q < 0 and time.perf_counter() - start < 60,
        f"odd-cat Mandel Q at tau=1 negative on [0.1,3]^2, max {max_q:.3f} (< 0)",
    )

    start = time.perf_counter()
    monotone = True
    for a in (0.5, 1.0, 1.5, 2.0, 2.5):
        entropies = [
            entropy_for_kind(
                StateKind(StateFamily.COHERENT, a, t), BALANCED, cutoff=40, exact=True
            )
            for t in taus
        ]
        monotone = monotone and all(
            entropies[i + 1] >= entropies[i] - 1e-12 for i in range(len(taus) - 1)
        )
    elapsed = time.perf_counter() - start
    _report(
        "6d",
        monotone and elapsed < 60,
        f"coherent entanglement entropy nondecreasing in tau over {taus}, "
        f"{elapsed:.2f}s (< 60s)",
    )

    start = time.perf_counter()
    s = {
        fam: entropy_for_kind(
            StateKind(fam, 1.0 + 1.0j, 2.0), BALANCED, cutoff=40, exact=True
        )
        for fam in StateFamily
    }
    ordered = s[StateFamily.CAT_ODD] >= s[StateFamily.CAT_EVEN] >= s[StateFamily.COHERENT]
    _report(
        "6e",
        ordered and time.perf_counter() - start < 60,
        f"S_odd {s[StateFamily.CAT_ODD]:.3f} >= S_even {s[StateFamily.CAT_EVEN]:.3f} "
        f">= S_coh {s[StateFamily.COHERENT]:.3f} at alpha=1+i, tau=2",
    )


def test_criterion_7_entropy_closed_vs_oracle():
    alpha = 1.0 + 1.0j
    micro = abs(
        linear_entropy_closed(alpha, 0.1, BALANCED, 20, check_tail=False)
        - linear_entropy_quadruple(alpha, 0.1, BALANCED, 20)
    )
    st0 = build_coherent(alpha, 0.0, cutoff=40)
    tau0 = abs(
        linear_entropy_closed(alpha, 0.0, BALANCED, 40)
        - linear_entropy_oracle(reduced_density(split_state(st0, BALANCED)))
    )
    defects = []
    for tau in (1e-3, 1e-2):
        st = build_coherent(alpha, tau, cutoff=40)
        s_oracle = linear_entropy_oracle(reduced_density(split_state(st, BALANCED)))
        defects.append(abs(linear_entropy_closed(alpha, tau, BALANCED, 40) - s_oracle))
    ratio = defects[1] / defects[0]
    _report(
        7,
        micro <= 1e-12 and tau0 <= 1e-8 and 50 <= ratio <= 200,
        f"closed kernel vs quadruple loop at K=20: {micro:.2e} (<= 1e-12); "
        f"vs density-matrix oracle at tau=0: {tau0:.2e} (<= 1e-8); "
        f"quadratic-band ratio {ratio:.1f} (in [50, 200])",
    )


def test_criterion_8_spectrum_spot_check():
    start = time.perf_counter()
    tau, k = 1e-3, 60
    h = deformation.hamiltonian(tau, k)
    eta = deformation.dyson_metric(tau, k)
    htil = eta @ h @ np.linalg.inv(eta)
    evals = np.linalg.eigvalsh((htil + htil.conj().T) / 2.0)
    worst = max(abs(evals[n] - deformation.energy(n, tau)) for n in range(6))
    elapsed = time.perf_counter() - start
    bound = 5 * tau**2 + 1e-8
    _report(
        8,
        worst <= bound and elapsed < 30.0,
        f"lowest 6 levels of the mapped Hamiltonian, max defect {worst:.2e} "
        f"(<= {bound:.1e}), {elapsed:.2f}s (< 30s)",
    )


def test_criterion_9_cat_eigenstate_and_parity():
    alpha = 1.0 + 0.5j
    k = 40
    interior = k - fock.interior_margin(k)
    a = fock.ladder_lowering(k)  # the deformed A = a f(n) at tau = 0, where f = 1
    a2 = a @ a
    worst_resid = 0.0
    worst_parity = 0.0
    for parity in (+1, -1):
        cat = build_cat(alpha, 0.0, parity, cutoff=k)
        v = cat.vector.coeffs
        resid = a2 @ v - alpha**2 * v
        worst_resid = max(worst_resid, float(np.max(np.abs(resid[:interior]))))
        off = v[1::2] if parity == +1 else v[0::2]
        worst_parity = max(worst_parity, float(np.max(np.abs(off))))
    _report(
        9,
        worst_resid <= 1e-10 and worst_parity <= 1e-14,
        f"A^2|cat> = alpha^2|cat> interior residual {worst_resid:.2e} (<= 1e-10), "
        f"off-parity support {worst_parity:.2e} (<= 1e-14)",
    )
