"""Tests for beam-splitter action, reduced densities and linear entropy."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqo import beamsplitter as bs
from ncqo.errors import CutoffError, DimensionError
from ncqo.fock import MAX_CUTOFF, FockVector, basis_state
from ncqo.states import StateFamily, StateKind, build_coherent


class TestSplitterParams:
    @given(
        st.floats(min_value=0.0, max_value=math.pi),
        st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
    )
    def test_unitarity(self, theta, phi):
        p = bs.SplitterParams(theta, phi)
        assert abs(p.t) ** 2 + abs(p.r) ** 2 == pytest.approx(1.0, abs=1e-14)

    def test_default_is_balanced(self):
        p = bs.SplitterParams()
        assert abs(p.t) == pytest.approx(1.0 / math.sqrt(2.0))
        assert abs(p.r) == pytest.approx(1.0 / math.sqrt(2.0))

    def test_range_validation(self):
        with pytest.raises(ValueError):
            bs.SplitterParams(-0.1, 0.0)
        with pytest.raises(ValueError):
            bs.SplitterParams(1.0, 7.0)


class TestSplitFock:
    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(min_value=0, max_value=20),
        st.floats(min_value=0.0, max_value=math.pi),
    )
    def test_norm_preserved(self, n, theta):
        out = bs.split_fock(n, bs.SplitterParams(theta, 0.3))
        assert out.shape == (n + 1, n + 1)
        q, m = np.indices(out.shape)
        assert np.all(out[q + m != n] == 0.0)
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_passes_through(self):
        out = bs.split_fock(0, bs.SplitterParams())
        assert out.shape == (1, 1)
        assert out[0, 0] == 1.0

    def test_single_photon_amplitudes(self):
        p = bs.SplitterParams()
        out = bs.split_fock(1, p)
        assert out[1, 0] == pytest.approx(p.t)
        assert out[0, 1] == pytest.approx(p.r)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            bs.split_fock(-1, bs.SplitterParams())

    def test_rejects_cutoff_past_max(self):
        # the shared binomial table stops at the MAX_CUTOFF bucket: a larger
        # cutoff raises before any table is built or kept
        p = bs.SplitterParams()
        kept = bs._binomial_table.cache_info().currsize
        with pytest.raises(DimensionError, match="exceeds supported maximum"):
            bs.split_fock(600, p)
        with pytest.raises(DimensionError):
            bs.splitter_tables(MAX_CUTOFF + 1, p)
        with pytest.raises(DimensionError):
            bs.linear_entropy_closed(1.0, 0.0, p, 600)
        assert bs._binomial_table.cache_info().currsize == kept
        assert bs.split_fock(MAX_CUTOFF - 1, p).shape == (MAX_CUTOFF, MAX_CUTOFF)


class TestSplitState:
    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            bs.split_state(FockVector(np.array([2.0, 0.0])), bs.SplitterParams())

    def test_norm_preserved_for_states(self):
        st_ = build_coherent(1.0 + 0.5j, 1e-3, cutoff=40)
        out = bs.split_state(st_, bs.SplitterParams())
        assert np.sum(np.abs(out) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_matches_split_fock_on_basis_states(self):
        p = bs.SplitterParams(1.1, 0.7)
        out = bs.split_state(basis_state(3, 8), p)
        want = bs.split_fock(3, p)
        for q in range(4):
            assert out[q, 3 - q] == pytest.approx(want[q, 3 - q])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)), min_size=1, max_size=25
    ).filter(lambda xs: sum(x * x + y * y for x, y in xs) > 1e-6),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_kernel_invariants(pairs, theta, phi):
    c = np.array([complex(x, y) for x, y in pairs])
    vec = FockVector(c / np.linalg.norm(c))
    for angle, one_port in ((theta, False), (0.0, True), (math.pi, True)):
        amp = bs.split_state(vec, bs.SplitterParams(angle, phi))
        assert amp.shape == (vec.cutoff, vec.cutoff)
        assert np.sum(np.abs(amp) ** 2) == pytest.approx(1.0, abs=1e-12)
        rho = bs.reduced_density(amp)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
        s = bs.linear_entropy_oracle(rho)
        assert -1e-12 <= s <= 1.0
        if one_port:  # all light leaves through one port: a product state
            assert abs(s) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=6, max_value=64),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=200),
    st.integers(min_value=0, max_value=2**32 - 1),
    st.floats(min_value=0.0, max_value=math.pi),
    st.floats(min_value=0.0, max_value=2.0 * math.pi, exclude_max=True),
)
def test_stacked_kernel_equals_one_row_path(k, cells, extra, seed, theta, phi):
    # tables from a larger cutoff, K + extra, serve every stacked row of cutoff K
    rng = np.random.default_rng(seed)
    rows = rng.normal(size=(cells, k)) + 1j * rng.normal(size=(cells, k))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    params = bs.SplitterParams(theta, phi)
    got = bs.linear_entropy_rows(rows, bs.splitter_tables(k + extra, params))
    assert got.shape == (cells,)
    assert np.all((-1e-12 <= got) & (got <= 1.0))
    for row, s in zip(rows, got):
        one = bs.linear_entropy_oracle(bs.reduced_density(bs.split_state(FockVector(row), params)))
        assert np.float64(one).tobytes() == s.tobytes()


def _masked_amplitude_matrix(coeffs, tables):
    """The amplitude matrix in its where-and-mask form, the reference of the padded gather."""
    k = coeffs.shape[-1]
    total, sqrt_binom, t_pow, r_pow = tables
    total = total[:k, :k]
    inside = total < k
    amp = np.take(coeffs, np.where(inside, total, 0), axis=-1)
    amp *= sqrt_binom[:k, :k]
    amp *= t_pow[:k, None]
    amp *= r_pow[:k]
    amp[..., ~inside] = 0.0
    return amp


@pytest.mark.parametrize("phi", [0.0, 1.3])
@pytest.mark.parametrize("theta", [0.0, 0.7, 1.1, math.pi / 2, math.pi])
def test_amplitude_matrix_equals_masked_form(theta, phi):
    # the same values (zeros may carry either sign) and the same entropy bits
    rng = np.random.default_rng(11)
    params = bs.SplitterParams(theta, phi)
    for k in (30, 31, 46, 61):
        rows = rng.normal(size=(3, k)) + 1j * rng.normal(size=(3, k))
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        for tables in (bs.splitter_tables(k, params), bs.splitter_tables(64, params)):
            got = bs._amplitude_matrix(rows, tables)
            want = _masked_amplitude_matrix(rows, tables)
            assert np.array_equal(got, want)
            s_got = bs.linear_entropy_oracle(bs.reduced_density(got))
            s_want = bs.linear_entropy_oracle(bs.reduced_density(want))
            assert s_got.tobytes() == s_want.tobytes()


class TestReducedDensity:
    def test_trace_one_and_hermitian(self):
        st_ = build_coherent(0.8 - 0.3j, 1e-3, cutoff=40)
        rho = bs.reduced_density(bs.split_state(st_, bs.SplitterParams()))
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-10)
        assert np.max(np.abs(rho - rho.conj().T)) <= 1e-14
        assert np.sum(np.abs(rho) ** 2) <= 1.0 + 1e-12

    def test_fock_input_is_diagonal(self):
        rho = bs.reduced_density(bs.split_fock(2, bs.SplitterParams()))
        off = rho - np.diag(np.diag(rho))
        assert np.max(np.abs(off)) <= 1e-14


class TestLinearEntropy:
    def test_vacuum_is_product(self):
        rho = bs.reduced_density(bs.split_fock(0, bs.SplitterParams()))
        assert bs.linear_entropy_oracle(rho) == pytest.approx(0.0, abs=1e-14)

    def test_single_photon_balanced(self):
        rho = bs.reduced_density(bs.split_fock(1, bs.SplitterParams()))
        assert bs.linear_entropy_oracle(rho) == pytest.approx(0.5, abs=1e-12)

    def test_glauber_input_stays_product(self):
        # coherent in, coherent out on both ports: zero entropy at any angle
        for theta in (math.pi / 2, math.pi / 3):
            params = bs.SplitterParams(theta, 0.0)
            st_ = build_coherent(1.0, 0.0, cutoff=40)
            s_oracle = bs.linear_entropy_oracle(bs.reduced_density(bs.split_state(st_, params)))
            s_closed = bs.linear_entropy_closed(1.0, 0.0, params, 40)
            assert abs(s_oracle) <= 1e-8
            assert abs(s_closed) <= 1e-8

    def test_factored_sum_equals_quadruple_loop(self):
        params = bs.SplitterParams()
        for alpha, tau in ((0.8 + 0.3j, 0.05), (1.2, 0.0)):
            a = bs.linear_entropy_closed(alpha, tau, params, 12, check_tail=False)
            b = bs.linear_entropy_quadruple(alpha, tau, params, 12)
            assert abs(a - b) <= 1e-12

    def test_closed_vs_oracle_quadratic_band(self):
        params = bs.SplitterParams()
        alpha = 1.0 + 1.0j
        defects = []
        for tau in (1e-3, 1e-2):
            st_ = build_coherent(alpha, tau, cutoff=40)
            s_oracle = bs.linear_entropy_oracle(bs.reduced_density(bs.split_state(st_, params)))
            defects.append(abs(bs.linear_entropy_closed(alpha, tau, params, 40) - s_oracle))
        assert 50 <= defects[1] / defects[0] <= 200

    def test_tail_guard(self):
        with pytest.raises(CutoffError):
            bs.linear_entropy_closed(2.0, 0.0, bs.SplitterParams(), 12)


class TestEntropyForKind:
    def test_paths_agree_for_coherent(self):
        kind = StateKind(StateFamily.COHERENT, 1.0 + 0.5j, 0.0)
        s1 = bs.entropy_for_kind(kind, bs.SplitterParams(), cutoff=40)
        s2 = bs.linear_entropy_closed(kind.alpha, kind.tau, bs.SplitterParams(), 40)
        assert s1 == pytest.approx(s2, abs=1e-8)

    def test_cats_entangle_even_at_tau_zero(self):
        kind = StateKind(StateFamily.CAT_EVEN, 1.0 + 1.0j, 0.0)
        s = bs.entropy_for_kind(kind, bs.SplitterParams(), cutoff=40)
        assert s > 0.1
