"""Tests for the truncated Fock-space primitives."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqo import fock
from ncqo.errors import DimensionError, HermiticityError, SingularMetricError


def test_interior_margin():
    assert fock.interior_margin(10) == 2
    assert fock.interior_margin(40) == 8
    assert fock.interior_margin(512) == 103


class TestFockVector:
    def test_coeffs_are_immutable(self):
        v = fock.FockVector(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            v.coeffs[0] = 2.0

    def test_rejects_bad_shapes(self):
        with pytest.raises(DimensionError):
            fock.FockVector(np.zeros((2, 2)))
        with pytest.raises(DimensionError):
            fock.FockVector(np.zeros(0))

    def test_basis_state(self):
        v = fock.basis_state(2, 5)
        assert v.coeffs[2] == 1.0
        assert np.vdot(v.coeffs, v.coeffs) == 1.0
        with pytest.raises(DimensionError):
            fock.basis_state(5, 5)
        with pytest.raises(DimensionError):
            fock.basis_state(-1, 5)


class TestOperators:
    def test_ladder_matrix_elements(self):
        a = fock.ladder_lowering(6)
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 5

    def test_ladder_commutator_interior(self):
        k = 40
        a = fock.ladder_lowering(k)
        comm = a @ a.conj().T - a.conj().T @ a
        # truncation corrupts only the very top diagonal entry
        defect = np.max(np.abs((comm - np.eye(k))[: k - 1, : k - 1]))
        assert defect <= 1e-13
        assert comm[k - 1, k - 1] == pytest.approx(1.0 - k)

    def test_quadrature_commutator_interior(self):
        k = 30
        y, z = fock.quadratures(k)
        comm = y @ z - z @ y
        defect = np.max(np.abs((comm - 1j * np.eye(k))[: k - 1, : k - 1]))
        assert defect <= 1e-12

    def test_number_operator_equals_adag_a(self):
        k = 12
        a = fock.ladder_lowering(k)
        n_op = np.diag(np.arange(k, dtype=np.complex128))
        assert np.allclose(a.conj().T @ a, n_op, atol=1e-14)

    def test_quadratures_are_hermitian(self):
        y, z = fock.quadratures(10)
        assert fock.hermiticity_defect(y) <= 1e-12
        assert fock.hermiticity_defect(z) <= 1e-12


class TestExpectation:
    def test_matches_manual_inner_product(self):
        rng = np.random.default_rng(3)
        k = 8
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        v = fock.FockVector(rng.normal(size=k) + 1j * rng.normal(size=k))
        want = np.vdot(v.coeffs, m @ v.coeffs)
        assert fock.expectation(m, v) == pytest.approx(want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=200000))
    def test_hermitian_expectation_is_real(self, seed):
        rng = np.random.default_rng(seed)
        k = 6
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h = m + m.conj().T
        v = fock.FockVector(rng.normal(size=k) + 1j * rng.normal(size=k))
        val = fock.expectation(h, v)
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real))

    def test_cutoff_mismatch(self):
        with pytest.raises(DimensionError):
            fock.expectation(np.eye(4), fock.basis_state(0, 5))
        with pytest.raises(DimensionError):
            fock.expectation(np.eye(5)[:, :4], fock.basis_state(0, 5))


class TestEigendecomposition:
    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        k = 20
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h = m + m.conj().T
        evals, v = fock.hermitian_eigendecomposition(h)
        rebuilt = (v * evals) @ v.conj().T
        assert np.max(np.abs(rebuilt - h)) <= 1e-12 * np.max(np.abs(evals))
        assert np.all(np.diff(evals) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            fock.hermitian_eigendecomposition(fock.ladder_lowering(5))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionError):
            fock.hermitian_eigendecomposition(np.eye(fock.MAX_CUTOFF + 1))

    def test_inverse_sqrt_identity(self):
        k = 30
        _, z = fock.quadratures(k)
        m = np.eye(k) + 0.2 * (z @ z)
        inv = fock.inverse_sqrt(m)
        ident = inv @ m @ inv
        interior = k - fock.interior_margin(k)
        assert np.max(np.abs((ident - np.eye(k))[:interior, :interior])) <= 1e-8

    def test_inverse_sqrt_rejects_indefinite(self):
        with pytest.raises(SingularMetricError):
            fock.inverse_sqrt(np.diag([1.0, -1.0]))
