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

    def test_norm_and_renormalize(self):
        v = fock.FockVector(np.array([3.0, 4.0j]))
        assert v.norm_sq == 25.0
        assert not v.is_normalized()
        w = v.renormalized()
        assert w.is_normalized(1e-14)
        with pytest.raises(DimensionError):
            fock.FockVector(np.zeros(3)).renormalized()

    def test_dot_conjugates_left_argument(self):
        v = fock.FockVector(np.array([1.0j, 0.0]))
        w = fock.FockVector(np.array([1.0, 0.0]))
        assert v.dot(w) == -1.0j
        assert w.dot(v) == 1.0j
        with pytest.raises(DimensionError):
            v.dot(fock.FockVector(np.zeros(3)))

    def test_basis_state(self):
        v = fock.basis_state(2, 5)
        assert v.coeffs[2] == 1.0
        assert v.norm_sq == 1.0
        with pytest.raises(DimensionError):
            fock.basis_state(5, 5)
        with pytest.raises(DimensionError):
            fock.basis_state(-1, 5)


class TestOperators:
    def test_ladder_matrix_elements(self):
        a = fock.ladder_lowering(6).mat
        for n in range(1, 6):
            assert a[n - 1, n] == pytest.approx(math.sqrt(n))
        assert np.count_nonzero(a) == 5

    def test_ladder_commutator_interior(self):
        k = 40
        a = fock.ladder_lowering(k)
        comm = (a @ a.dagger()).mat - (a.dagger() @ a).mat
        # truncation corrupts only the very top diagonal entry
        defect = np.max(np.abs((comm - np.eye(k))[: k - 1, : k - 1]))
        assert defect <= 1e-13
        assert comm[k - 1, k - 1] == pytest.approx(1.0 - k)

    def test_quadrature_commutator_interior(self):
        k = 30
        y, z = fock.quadratures(k)
        comm = (y @ z).mat - (z @ y).mat
        defect = np.max(np.abs((comm - 1j * np.eye(k))[: k - 1, : k - 1]))
        assert defect <= 1e-12

    def test_number_operator_equals_adag_a(self):
        k = 12
        a = fock.ladder_lowering(k)
        n_op = fock.OperatorMatrix(np.diag(np.arange(k, dtype=np.complex128)))
        assert np.allclose((a.dagger() @ a).mat, n_op.mat, atol=1e-14)

    def test_quadratures_are_hermitian(self):
        y, z = fock.quadratures(10)
        assert y.is_hermitian()
        assert z.is_hermitian()

    def test_matmul_cutoff_mismatch(self):
        with pytest.raises(DimensionError):
            fock.identity(4) @ fock.identity(5)

    def test_apply(self):
        a = fock.ladder_lowering(5)
        v = a.apply(fock.basis_state(3, 5))
        assert v.coeffs[2] == pytest.approx(math.sqrt(3))


class TestExpectation:
    def test_matches_manual_inner_product(self):
        rng = np.random.default_rng(3)
        k = 8
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        op = fock.OperatorMatrix(m)
        v = fock.FockVector(rng.normal(size=k) + 1j * rng.normal(size=k))
        want = np.vdot(v.coeffs, m @ v.coeffs)
        assert fock.expectation(op, v) == pytest.approx(want)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=200000))
    def test_hermitian_expectation_is_real(self, seed):
        rng = np.random.default_rng(seed)
        k = 6
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h = fock.OperatorMatrix(m + m.conj().T)
        v = fock.FockVector(rng.normal(size=k) + 1j * rng.normal(size=k))
        val = fock.expectation(h, v)
        assert abs(val.imag) <= 1e-12 * max(1.0, abs(val.real))

    def test_cutoff_mismatch(self):
        with pytest.raises(DimensionError):
            fock.expectation(fock.identity(4), fock.basis_state(0, 5))


class TestEigendecomposition:
    def test_reconstruction(self):
        rng = np.random.default_rng(11)
        k = 20
        m = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
        h = fock.OperatorMatrix(m + m.conj().T)
        evals, v = fock.hermitian_eigendecomposition(h)
        rebuilt = (v.mat * evals) @ v.mat.conj().T
        assert np.max(np.abs(rebuilt - h.mat)) <= 1e-12 * np.max(np.abs(evals))
        assert np.all(np.diff(evals) >= 0)

    def test_rejects_non_hermitian(self):
        with pytest.raises(HermiticityError):
            fock.hermitian_eigendecomposition(fock.ladder_lowering(5))

    def test_rejects_oversized(self):
        with pytest.raises(DimensionError):
            fock.hermitian_eigendecomposition(fock.identity(fock.MAX_CUTOFF + 1))

    def test_inverse_sqrt_identity(self):
        k = 30
        _, z = fock.quadratures(k)
        m = fock.OperatorMatrix(np.eye(k) + 0.2 * (z.mat @ z.mat))
        inv = fock.inverse_sqrt(m)
        ident = (inv @ m @ inv).mat
        interior = k - fock.interior_margin(k)
        assert np.max(np.abs((ident - np.eye(k))[:interior, :interior])) <= 1e-8

    def test_inverse_sqrt_rejects_indefinite(self):
        with pytest.raises(SingularMetricError):
            fock.inverse_sqrt(fock.OperatorMatrix(np.diag([1.0, -1.0])))
