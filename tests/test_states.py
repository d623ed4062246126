"""Tests for coherent and cat state construction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqo import states
from ncqo.deformation import amplitude_inv_f_factorial, coefficient_C, f_squared
from ncqo.errors import CutoffError, DegenerateStateError, NcqoError
from ncqo.states import StateFamily, StateKind


def _norm_defect(state) -> float:
    """| ||state||^2 - 1 | of a built state's vector."""
    return abs(np.sum(np.abs(state.vector.coeffs) ** 2) - 1.0)


class TestStateKind:
    def test_parity_property(self):
        assert StateFamily.COHERENT.parity == 0
        assert StateFamily.CAT_EVEN.parity == 1
        assert StateFamily.CAT_ODD.parity == -1

    def test_odd_cat_degenerates_near_zero(self):
        with pytest.raises(DegenerateStateError):
            StateKind(StateFamily.CAT_ODD, 1e-4, 0.1)
        StateKind(StateFamily.CAT_EVEN, 0.0, 0.1)  # even cat is fine at alpha = 0

    def test_rejects_negative_tau(self):
        with pytest.raises(ValueError):
            StateKind(StateFamily.COHERENT, 1.0, -0.1)


class TestClosedNorms:
    def test_coherent_norm_glauber_limit(self):
        assert states.coherent_norm_sq(1.0, 0.0) == pytest.approx(math.e)

    def test_coherent_norm_value(self):
        r = 2.0
        want = math.exp(r) * (1.0 - 0.1 * r - 0.1 * r**2 / 4.0)
        assert states.coherent_norm_sq(math.sqrt(2.0), 0.1) == pytest.approx(want)

    def test_norm_negative_past_breakdown(self):
        # returned as it is, never clamped: callers keep it as metadata
        assert states.coherent_norm_sq(3.0, 1.0) < 0

    def test_cat_norm_glauber_limit(self):
        r = 1.44
        alpha = 1.2
        want_even = 2.0 + 2.0 * math.exp(-2.0 * r)
        want_odd = 2.0 - 2.0 * math.exp(-2.0 * r)
        assert states.cat_norm_sq(alpha, 0.0, +1) == pytest.approx(want_even)
        assert states.cat_norm_sq(alpha, 0.0, -1) == pytest.approx(want_odd)

    def test_cat_norm_rejects_bad_parity(self):
        with pytest.raises(ValueError):
            states.cat_norm_sq(1.0, 0.1, 0)
        with pytest.raises(DegenerateStateError):
            states.cat_norm_sq(1e-5, 0.1, -1)


def test_default_cutoff():
    assert states.default_cutoff(0.0) == 30
    assert states.default_cutoff(1.0) == 30
    k = states.default_cutoff(3.0)
    assert k == math.ceil(9.0 + 8.0 * math.sqrt(10.0) + 8.0)


def test_perturbative_warning_indicator():
    assert not states.perturbative_warning_indicator(1.0, 1e-3)
    assert states.perturbative_warning_indicator(1.0, 1.0)
    assert states.perturbative_warning_indicator(2.0, 0.5)


def test_log_factorials():
    got = states.log_factorials(40)
    want = np.array([math.lgamma(k + 1.0) for k in range(40)])
    assert got[0] == 0.0
    assert np.max(np.abs(got - want)) <= 1e-12


@pytest.mark.parametrize("exact", [False, True])
def test_coefficient_table_matches_scalar_loop(exact):
    # K <= 4 leaves no room for the -4 sideband
    for alpha in (0.3, 1.0 + 1.0j, 2.5 - 0.7j, -1.1j):
        for tau in (0.0, 1e-3, 0.5, 2.0):
            for k in (1, 4, 5, 30, 60):
                got = states.coefficient_table(alpha, tau, k, exact)
                want = np.array(
                    [
                        coefficient_C(alpha, n, tau, exact_ratios=exact)
                        * amplitude_inv_f_factorial(n, tau, exact=exact)
                        for n in range(k)
                    ]
                )
                assert got.shape == (k,)
                np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)


def test_exact_table_keeps_every_level_at_large_n_tau():
    # fig8_b's point: f^2(n)! itself passes the largest double at n = 129
    alpha, tau, k = 1.2 + 10.5j, 10.0, 205
    with np.errstate(over="raise"):
        table = states.coefficient_table(alpha, tau, k, exact=True)
    assert np.count_nonzero(table == 0.0) == 0
    # log-space reference for 1/sqrt(f^2(n)!), whose rounding grows with log f^2(n)!
    log_f2_factorial = np.cumsum([0.0] + [math.log(f_squared(j, tau)) for j in range(1, k)])
    want = np.array(
        [
            coefficient_C(alpha, n, tau, exact_ratios=True) * math.exp(-0.5 * log_f2_factorial[n])
            for n in range(k)
        ]
    )
    np.testing.assert_allclose(table, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("exact", [False, True])
def test_coefficient_rows_broadcast_and_slice_exactly(exact):
    # the batched scan builds one (cells, K_max) table and slices [:, :K]
    alphas = np.array([0.3, 1.0 + 1.0j, 2.5 - 0.7j, -1.1j, 0.0])
    for tau in (0.0, 0.05, 2.0):
        rows = states.raw_coherent_coeffs(alphas, tau, 61, exact)
        assert rows.shape == (5, 61)
        for i, alpha in enumerate(alphas):
            for k in (6, 30, 43, 61):
                want = states.raw_coherent_coeffs(complex(alpha), tau, k, exact)
                assert np.array_equal(rows[i, :k], want)


@pytest.mark.parametrize("exact", [False, True])
def test_cat_from_one_table_matches_two_tables(exact):
    # raw(alpha) + parity raw(-alpha), bit for bit below n = 100
    for alpha in (0.4, 1.2 + 1.5j, -2.0 + 0.3j):
        for tau in (0.0, 0.05, 2.0):
            raw_p = states.raw_coherent_coeffs(alpha, tau, 60, exact)
            raw_m = states.raw_coherent_coeffs(-alpha, tau, 60, exact)
            for parity in (+1, -1):
                want = raw_p + parity * raw_m
                want[(1 if parity == +1 else 0) :: 2] = 0.0
                assert np.array_equal(states.cat_combination(raw_p, parity), want)


def test_state_rows_match_build_state():
    alphas = [0.5, 1.0 + 1.0j, 2.0, 3.0 + 3.0j]
    raw = states.raw_coherent_coeffs(np.array(alphas), 0.05, 30, True)
    for family in StateFamily:
        ok, vectors, numeric = states.state_rows(raw, family.parity)
        assert ok.tolist() == [True, True, False, False]  # K = 30 is too small from |alpha| = 2
        for alpha, vec, norm_sq in zip(alphas, vectors, numeric):
            want = states.build_state(StateKind(family, alpha, 0.05), 30, True)
            assert np.array_equal(vec, want.vector.coeffs)
            assert norm_sq == want.numeric_norm_sq
        for alpha in alphas[2:]:
            with pytest.raises(CutoffError):
                states.build_state(StateKind(family, alpha, 0.05), 30, True)


def test_tail_check_rejects_overflowed_rows():
    # an inf or NaN total compares false with every tail, so it must fail outright
    rows = np.array(
        [
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, np.inf, 0.0, 0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0, 0.0, 0.0, np.inf],
            [np.nan, 1.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    assert states.tail_converged(rows).tolist() == [True, False, False, False]


def test_sized_cutoffs_keep_the_bound_of_failing_rows():
    # K = 30 fails the tail test for this exact-mode row, and overflowed rows have no finite weight
    bound = states.default_cutoff(2.0)
    failing = states.raw_coherent_coeffs(2.0, 0.05, bound, True)
    assert not states.tail_converged(failing)
    assert states.sized_cutoffs(failing[None], [bound]) == [bound]
    rows = np.ones((3, 40), complex)
    rows[1, 5] = np.inf
    rows[2] = 0.0
    assert states.sized_cutoffs(rows, [40, 40, 40]) == [40, 40, 40]
    # each row of a stack is sized against its own bound, not the stack's width
    stack = states.raw_coherent_coeffs(np.array([0.5, 2.0]), 0.0, 43, False)
    assert states.default_cutoff(2.0) == 30
    assert states.sized_cutoffs(stack, [30, 30]) == [16, 30]
    assert states.sized_cutoffs(stack, [30, 43]) == [16, 32]


@pytest.mark.parametrize("family", list(StateFamily))
def test_overflowed_coefficients_raise(family):
    # alpha^n passes the float range inside the automatic cutoff from about |alpha| = 13
    with pytest.warns(RuntimeWarning), pytest.raises(NcqoError, match="overflowed") as err:
        states.build_state(StateKind(family, 13.0, 0.0))
    assert not isinstance(err.value, CutoffError)


class TestBuildCoherent:
    def test_glauber_limit_is_poisson(self):
        alpha = 1.0 + 0.5j
        st_ = states.build_coherent(alpha, 0.0)
        n = np.arange(st_.cutoff)
        want = np.exp(
            n * math.log(abs(alpha))
            - 0.5 * np.array([math.lgamma(k + 1.0) for k in n])
            - abs(alpha) ** 2 / 2.0
        )
        assert np.max(np.abs(np.abs(st_.vector.coeffs) - want)) <= 1e-12

    def test_always_renormalized(self):
        for tau in (0.0, 1e-3, 1e-2):
            st_ = states.build_coherent(1.5 - 0.4j, tau)
            assert _norm_defect(st_) <= 1e-12

    def test_closed_norm_defect_is_quadratic(self):
        # calibrated envelope: measured constant ~22 over |alpha| <= 2
        for alpha in (0.5, 1.0, 1.0 + 1.0j, 2.0, 2.0j):
            for tau in (1e-4, 1e-3, 1e-2):
                st_ = states.build_coherent(alpha, tau, cutoff=80)
                defect = abs(st_.numeric_norm_sq - st_.closed_norm_sq) / st_.closed_norm_sq
                assert defect <= 40.0 * tau**2

    def test_vacuum_limit_keeps_formula_literal(self):
        # C(0, 4) = 24 tau/16, so the alpha = 0 state has a small |4> piece
        tau = 1e-3
        st_ = states.build_coherent(0.0, tau)
        c = st_.vector.coeffs
        want = (3.0 * tau / (2.0 * math.sqrt(24.0))) * (1.0 - tau * 4 * 7 / 8.0)
        assert abs(c[4] / c[0]) == pytest.approx(want, rel=1e-10)
        assert np.max(np.abs(c[[1, 2, 3, 5, 6, 7]])) == 0.0

    def test_cutoff_too_small_raises_with_suggestion(self):
        with pytest.raises(CutoffError) as err:
            states.build_coherent(3.0, 0.0, cutoff=12)
        assert "suggested cutoff" in str(err.value)

    def test_metadata_flags(self):
        st_ = states.build_coherent(0.5 + 1.0j, 1e-3)
        assert not st_.perturbative_warning
        assert states.build_coherent(1.0, 1.0).perturbative_warning
        assert st_.kind == StateKind(StateFamily.COHERENT, 0.5 + 1.0j, 1e-3)
        # the automatic cutoff is default_cutoff, or a multiple of 8 from 16 below it
        bound = states.default_cutoff(0.5 + 1.0j)
        assert st_.cutoff == bound or (st_.cutoff % 8 == 0 and 16 <= st_.cutoff < bound)


class TestBuildCat:
    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            states.build_cat(1.0, 0.1, 0)
        with pytest.raises(DegenerateStateError):
            states.build_cat(1e-5, 0.1, -1)

    @settings(max_examples=30, deadline=None)
    @given(
        # tau capped: first-order tails trip the cutoff guard at large tau
        st.complex_numbers(min_magnitude=0.1, max_magnitude=1.5, allow_nan=False),
        st.floats(min_value=0.0, max_value=0.05),
        st.sampled_from([+1, -1]),
    )
    def test_parity_purity(self, alpha, tau, parity):
        st_ = states.build_cat(alpha, tau, parity)
        off = st_.vector.coeffs[1::2] if parity == +1 else st_.vector.coeffs[0::2]
        assert np.max(np.abs(off)) == 0.0
        assert _norm_defect(st_) <= 1e-12

    def test_glauber_even_cat_amplitudes(self):
        alpha = 1.1
        st_ = states.build_cat(alpha, 0.0, +1)
        r = alpha**2
        norm = math.sqrt(2.0 * math.exp(r) + 2.0 * math.exp(-r))
        for n in (0, 2, 4, 6):
            want = 2.0 * alpha**n / math.sqrt(math.factorial(n)) / norm
            assert abs(st_.vector.coeffs[n]) == pytest.approx(want, rel=1e-12)

    def test_cat_norm_ratio_defect_is_quadratic(self):
        # closed cat norm is relative to the coherent norm; constant ~0.2
        for alpha in (1.0, 1.0 + 1.0j, 2.0):
            for tau in (1e-3, 1e-2):
                coh = states.build_coherent(alpha, tau, cutoff=80)
                for parity in (+1, -1):
                    cat = states.build_cat(alpha, tau, parity, cutoff=80)
                    ratio = cat.numeric_norm_sq / coh.numeric_norm_sq
                    defect = abs(ratio - cat.closed_norm_sq) / cat.closed_norm_sq
                    assert defect <= 2.0 * tau**2


def test_build_state_dispatch():
    for family in StateFamily:
        kind = StateKind(family, 1.0 + 0.3j, 1e-3)
        st_ = states.build_state(kind)
        assert st_.kind == kind
        assert _norm_defect(st_) <= 1e-12
