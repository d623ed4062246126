"""Tests for the deformation factorials, perturbed eigenvectors and coefficients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqo import deformation as d
from ncqo.errors import DimensionError
from ncqo.fock import basis_state, hermiticity_defect, ladder_lowering


def deformed_lowering(tau: float, cutoff: int) -> np.ndarray:
    """Generalised annihilation operator A = a f(n), with f evaluated exactly."""
    fdiag = np.sqrt(1.0 + tau * (1 + np.arange(cutoff)) / 2.0)
    return ladder_lowering(cutoff) * fdiag[np.newaxis, :]


def f_factorial_squared_pochhammer(n: int, tau: float) -> float:
    """Closed Pochhammer form of f^2(n)!; tau = 0 returns 1 by continuity.

    Local reference for d.f_factorial_squared (the product form).
    """
    if tau == 0.0 or n == 0:
        return 1.0
    # interleave the scale factors to avoid under/overflow at tiny tau
    out = 1.0
    q = 2.0 + 2.0 / tau
    for k in range(n):
        out *= (tau / 2.0) * (q + k)
    return out


def inv_f_factorial_first_order(n: int, tau: float) -> float:
    """First-order 1/f^2(n)! = 1 - tau n(3+n)/4 (may go negative for large n*tau)."""
    return 1.0 - tau * n * (3 + n) / 4.0


class TestFFactorial:
    @given(st.floats(min_value=0.5, max_value=20.0), st.integers(min_value=0, max_value=12))
    def test_pochhammer_recurrence(self, q, n):
        assert d.pochhammer(q, n + 1) == pytest.approx(d.pochhammer(q, n) * (q + n))

    def test_pochhammer_rejects_negative(self):
        with pytest.raises(ValueError):
            d.pochhammer(1.0, -1)

    @given(
        st.integers(min_value=0, max_value=40),
        # 2/tau inside the Pochhammer form overflows for subnormal tau
        st.one_of(st.just(0.0), st.floats(min_value=1e-12, max_value=2.0)),
    )
    def test_product_matches_pochhammer_closed_form(self, n, tau):
        prod = d.f_factorial_squared(n, tau)
        closed = f_factorial_squared_pochhammer(n, tau)
        assert closed == pytest.approx(prod, rel=1e-12)

    def test_base_cases(self):
        assert d.f_squared(0, 0.3) == pytest.approx(1.15)
        assert d.f_factorial_squared(0, 0.7) == 1.0
        assert f_factorial_squared_pochhammer(5, 0.0) == 1.0
        assert d.f_factorial_squared(1, 0.2) == pytest.approx(1.2)

    def test_first_order_inverse_is_quadratically_close(self):
        n = 6
        defects = []
        for tau in (1e-3, 1e-2):
            defects.append(abs(1.0 / d.f_factorial_squared(n, tau) - inv_f_factorial_first_order(n, tau)))
        assert 50 <= defects[1] / defects[0] <= 200

    def test_amplitude_square_consistent_at_first_order(self):
        # (1 - tau n(3+n)/8)^2 = 1 - tau n(3+n)/4 + O(tau^2)
        n, tau = 9, 1e-4
        amp = d.amplitude_inv_f_factorial(n, tau)
        # the two agree up to the square of the correction term
        gap = (tau * n * (3 + n) / 8.0) ** 2
        assert amp**2 == pytest.approx(inv_f_factorial_first_order(n, tau), abs=2 * gap)

    def test_amplitude_exact_mode_positive(self):
        # first-order amplitude goes negative at large n*tau, exact never does
        assert d.amplitude_inv_f_factorial(30, 1.0) < 0
        assert d.amplitude_inv_f_factorial(30, 1.0, exact=True) > 0


def test_energy():
    assert d.energy(0, 0.5) == 0.0
    assert d.energy(3, 0.0) == 3.0
    assert d.energy(2, 0.1) == pytest.approx(2.0 * (1.0 + 0.1 * 3 / 2))


class TestPerturbedEigenvector:
    def test_sideband_structure(self):
        tau = 0.01
        v = d.perturbed_eigenvector(5, tau, 20)
        c = v.coeffs
        assert c[5] == 1.0
        assert c[9] == pytest.approx((tau / 16) * math.sqrt(6 * 7 * 8 * 9))
        assert c[1] == pytest.approx(-(tau / 16) * math.sqrt(2 * 3 * 4 * 5))
        support = np.flatnonzero(c)
        assert list(support) == [1, 5, 9]

    def test_ground_state_has_no_down_coupling(self):
        v = d.perturbed_eigenvector(0, 0.05, 10)
        assert list(np.flatnonzero(v.coeffs)) == [0, 4]

    def test_needs_room_for_upper_sideband(self):
        with pytest.raises(DimensionError):
            d.perturbed_eigenvector(6, 0.01, 10)

    def test_near_orthonormal(self):
        # residual overlaps come from sideband products: O(tau^2 n^4)
        tau, k = 1e-3, 30
        vs = [d.perturbed_eigenvector(n, tau, k) for n in range(10)]
        bound = 2 * (tau / 16.0) ** 2 * d.pochhammer(10, 4)
        for i in range(10):
            for j in range(10):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(vs[i].coeffs, vs[j].coeffs) - want) <= bound


class TestCoefficientC:
    def test_reduces_to_power_at_tau_zero(self):
        for n in range(8):
            assert d.coefficient_C(1.3 + 0.2j, n, 0.0) == pytest.approx((1.3 + 0.2j) ** n)

    @settings(max_examples=60, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=15),
        st.floats(min_value=0.0, max_value=0.5),
    )
    def test_parity(self, alpha, n, tau):
        # C(-alpha, n) = (-1)^n C(alpha, n) keeps cat states parity-pure
        left = d.coefficient_C(-alpha, n, tau)
        right = (-1) ** n * d.coefficient_C(alpha, n, tau)
        assert left == pytest.approx(right, abs=1e-12 * max(1.0, abs(right)))

    def test_low_levels_have_no_down_term(self):
        alpha, tau = 1.1, 0.2
        for n in range(4):
            want = alpha**n - (tau / 16) * alpha ** (n + 4)
            assert d.coefficient_C(alpha, n, tau) == pytest.approx(want)

    def test_down_term_from_level_four(self):
        alpha, tau = 0.9, 0.1
        want = alpha**4 - (tau / 16) * alpha**8 + (tau / 16) * 24.0
        assert d.coefficient_C(alpha, 4, tau) == pytest.approx(want)

    def test_exact_ratios_match_factorial_quotients(self):
        # up ratio f(n)!/f(n+4)! < 1, down ratio f(n)!/f(n-4)! > 1
        alpha, n, tau = 1.5, 6, 0.4
        up = math.sqrt(d.f_factorial_squared(n, tau) / d.f_factorial_squared(n + 4, tau))
        down = math.sqrt(d.f_factorial_squared(n, tau) / d.f_factorial_squared(n - 4, tau))
        assert up < 1 < down
        want = (
            alpha**n
            - (tau / 16) * alpha ** (n + 4) * up
            + (tau / 16) * alpha ** (n - 4) * d.pochhammer(n - 3, 4) * down
        )
        assert d.coefficient_C(alpha, n, tau, exact_ratios=True) == pytest.approx(want)


class TestOperators:
    def test_deformed_lowering_reduces_to_ladder(self):
        a0 = deformed_lowering(0.0, 12)
        assert np.allclose(a0, ladder_lowering(12))

    def test_deformed_lowering_action(self):
        tau, k = 0.3, 10
        a_def = deformed_lowering(tau, k)
        v = a_def @ basis_state(4, k).coeffs
        assert v[3] == pytest.approx(math.sqrt(4 * d.f_squared(4, tau)))

    def test_hamiltonian_hermiticity(self):
        assert hermiticity_defect(d.hamiltonian(0.0, 20)) <= 1e-12
        assert hermiticity_defect(d.hamiltonian(0.1, 20)) > 1e-3

    def test_dyson_metric_squares_to_inverse(self):
        from ncqo import fock

        tau, k = 0.2, 30
        eta = d.dyson_metric(tau, k)
        _, z = fock.quadratures(k)
        m = np.eye(k) + tau * (z @ z)
        ident = eta @ m @ eta
        interior = k - fock.interior_margin(k)
        assert np.max(np.abs((ident - np.eye(k))[:interior, :interior])) <= 1e-8

    def test_similarity_transform_is_isospectral(self):
        # lowest levels of eta H eta^-1 match n f^2(n) through first order
        tau, k = 1e-3, 60
        h = d.hamiltonian(tau, k)
        eta = d.dyson_metric(tau, k)
        htil = eta @ h @ np.linalg.inv(eta)
        assert np.max(np.abs(htil - htil.conj().T)) <= 1e-10
        evals = np.linalg.eigvalsh((htil + htil.conj().T) / 2.0)
        for n in range(6):
            assert abs(evals[n] - d.energy(n, tau)) <= 5 * tau**2 + 1e-8
