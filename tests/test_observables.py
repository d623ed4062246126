"""Tests for quadrature moments, Mandel statistics and photon distributions."""

import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqo import observables as obs
from ncqo.deformation import perturbed_eigenvector
from ncqo.errors import CutoffError, DimensionError
from ncqo.fock import FockVector, basis_state, expectation
from ncqo.states import StateFamily, StateKind, build_cat, build_coherent, build_state

FAMILIES = (StateFamily.COHERENT, StateFamily.CAT_EVEN, StateFamily.CAT_ODD)
FIGURE_TAUS = (0.0, 0.5, 1.0, 1.5, 2.0)  # the tau values of fig5-fig7


def _kind(family, alpha, tau):
    return StateKind(family, alpha, tau)


def _dense_mandel(vec, tau):
    """mandel_oracle as one vdot per level against the dense perturbed eigenvectors."""
    k = vec.cutoff
    if tau == 0.0:
        weights = np.abs(vec.coeffs) ** 2
        n = np.arange(k, dtype=np.float64)
    else:
        weights = np.empty(k - 4)
        for m in range(k - 4):
            phi = perturbed_eigenvector(m, tau, k)
            weights[m] = abs(np.vdot(phi.coeffs, vec.coeffs)) ** 2
        n = np.arange(k - 4, dtype=np.float64)
    total = float(np.sum(weights))
    mean_n = float(np.sum(weights * n)) / total
    mean_n2 = float(np.sum(weights * n**2)) / total
    var_n = mean_n2 - mean_n**2
    if mean_n == 0.0:
        return obs.NumberMoments(mean_n, mean_n2, var_n, 0.0, flagged=True)
    return obs.NumberMoments(mean_n, mean_n2, var_n, var_n / mean_n - 1.0)


def _dense_quad(vec, tau):
    """quad_moments_oracle as expectations of the dense metric_quadratures products."""
    ytil, ztil = obs.metric_quadratures(tau, vec.cutoff)
    mean_y = expectation(ytil, vec).real
    mean_z = expectation(ztil, vec).real
    mean_y2 = expectation(ytil @ ytil, vec).real
    mean_z2 = expectation(ztil @ ztil, vec).real
    var_y = mean_y2 - mean_y**2
    var_z = mean_z2 - mean_z**2
    big_r = 0.5 * (1.0 + tau * mean_z2)
    return obs.QuadratureMoments(
        mean_y, mean_z, mean_y2, mean_z2, var_y, var_z, big_r,
        var_y - big_r, big_r - var_z, var_y * var_z - big_r**2,
    )


# Fields an oracle forms as a difference of larger moments inherit their
# rounding: var_N = <N^2> - <N>^2 is exact to about one ulp of <N^2>, not of
# var_N. Each maps to the size of the terms it is formed from.
def _operand_scales(ref):
    if isinstance(ref, obs.NumberMoments):
        return {
            "var_N": ref.mean_N2,
            "mandel_Q": ref.mean_N2 / ref.mean_N if ref.mean_N else 0.0,
        }
    return {
        "var_Y": ref.mean_Y2,
        "var_Z": ref.mean_Z2,
        "U": ref.mean_Y2 + ref.R,
        "U_tilde": ref.R + ref.mean_Z2,
        "saturation_defect": ref.var_Y * ref.mean_Z2 + ref.mean_Y2 * ref.var_Z + ref.R**2,
    }


def _assert_matches(got, ref):
    """Every field within 1e-14 (1 + |ref| + the size of its operands)."""
    scales = _operand_scales(ref)
    for field in fields(ref):
        g, r = getattr(got, field.name), getattr(ref, field.name)
        tol = 1e-14 * (1.0 + abs(r) + scales.get(field.name, 0.0))
        assert abs(g - r) <= tol, (field.name, g, r)


class TestCoherentClosed:
    def test_glauber_limit(self):
        q = obs.quad_moments_closed(_kind(StateFamily.COHERENT, 1.0 + 2.0j, 0.0))
        assert q.var_Y == pytest.approx(0.5)
        assert q.var_Z == pytest.approx(0.5)
        assert q.R == pytest.approx(0.5)
        assert q.mean_Y == pytest.approx(2.0 * 1.0 / math.sqrt(2.0))
        assert q.mean_Z == pytest.approx(2.0 * 2.0 / math.sqrt(2.0))

    @settings(max_examples=60, deadline=None)
    @given(
        st.complex_numbers(max_magnitude=2.5, allow_nan=False, allow_infinity=False),
        st.floats(min_value=0.0, max_value=0.2),
    )
    def test_saturation_defect_identity(self, alpha, tau):
        # varY varZ - R^2 = -(tau (1/4 + |alpha|^2/2))^2 for the closed forms
        q = obs.quad_moments_closed(_kind(StateFamily.COHERENT, alpha, tau))
        target = -((tau * (0.25 + abs(alpha) ** 2 / 2.0)) ** 2)
        assert abs(q.saturation_defect - target) <= 1e-12
        assert q.U == pytest.approx(q.U_tilde)
        assert q.U == pytest.approx(tau * (0.25 + abs(alpha) ** 2 / 2.0))

    def test_validity_flag(self):
        q = obs.quad_moments_closed(_kind(StateFamily.COHERENT, 1.0, 0.0))
        assert q.validity  # saturation defect exactly 0 at tau = 0
        q = obs.quad_moments_closed(_kind(StateFamily.COHERENT, 1.0, 0.1))
        assert not q.validity  # saturated from below at first order

    def test_second_moments_match_variances(self):
        alpha, tau = 0.8 - 0.6j, 1e-3
        q = obs.quad_moments_closed(_kind(StateFamily.COHERENT, alpha, tau))
        assert q.var_Y == pytest.approx(q.mean_Y2 - q.mean_Y**2, abs=5e-6)
        assert q.var_Z == pytest.approx(q.mean_Z2 - q.mean_Z**2, abs=5e-6)


class TestCatClosed:
    def test_means_vanish(self):
        for family in (StateFamily.CAT_EVEN, StateFamily.CAT_ODD):
            q = obs.quad_moments_closed(_kind(family, 1.3 + 0.7j, 0.2))
            assert q.mean_Y == 0.0
            assert q.mean_Z == 0.0

    def test_ordinary_oscillator_limits(self):
        alpha = 1.3 + 0.4j
        r = abs(alpha) ** 2
        w = (alpha**2 + alpha.conjugate() ** 2).real
        r_even, u_even, ut_even = obs.closed_terms(alpha, 0.0, +1)
        r_odd, u_odd, ut_odd = obs.closed_terms(alpha, 0.0, -1)
        assert r_even == pytest.approx(0.5)
        assert r_odd == pytest.approx(0.5)
        assert u_even == pytest.approx(w / 2 + r * math.tanh(r))
        assert u_odd == pytest.approx(w / 2 + r / math.tanh(r))
        assert ut_even == pytest.approx(w / 2 - r * math.tanh(r))
        assert ut_odd == pytest.approx(w / 2 - r / math.tanh(r))

    def test_validity_value_matches_flag_combination(self):
        alpha, tau = 0.9 + 1.2j, 0.05
        for parity in (+1, -1):
            r, u, ut = obs.closed_terms(alpha, tau, parity)
            val = obs.cat_validity_value(alpha, tau, parity)
            assert val == pytest.approx(r * (u - ut) - u * ut)
            # same number as varY varZ - R^2 of the assembled moments
            q = obs.quad_moments_closed(_kind(StateFamily.CAT_EVEN if parity == 1 else StateFamily.CAT_ODD, alpha, tau))
            assert q.saturation_defect == pytest.approx(val)

    def test_raw_second_moments_agree_at_tau_zero(self):
        alpha = 1.1 - 0.6j
        for parity in (+1, -1):
            m1, m2 = obs.cat_second_moments_raw(alpha, 0.0, parity)
            r, u, ut = obs.closed_terms(alpha, 0.0, parity)
            assert m1 == pytest.approx(r + u, abs=1e-12)
            assert m2 == pytest.approx(r - ut, abs=1e-12)

    def test_raw_second_moments_quadratically_close(self):
        # the raw (M1, M2) form keeps the norm in the denominator, the R/U
        # forms expand it; they may only differ at O(tau^2)
        alpha = 1.0 + 0.5j
        for parity in (+1, -1):
            defects = []
            for tau in (1e-3, 1e-2):
                m1, _ = obs.cat_second_moments_raw(alpha, tau, parity)
                r, u, _ = obs.closed_terms(alpha, tau, parity)
                expanded = r + u
                defects.append(abs(m1 - expanded))
            assert 50 <= defects[1] / defects[0] <= 200


class TestQuadOracle:
    def test_metric_quadratures_need_room(self):
        with pytest.raises(DimensionError):
            obs.metric_quadratures(0.1, 4)

    def test_glauber_oracle_matches_closed(self):
        st_ = build_coherent(1.0 - 0.7j, 0.0, cutoff=40)
        qc = obs.quad_moments_closed(st_.kind)
        qo = obs.quad_moments_oracle(st_, 0.0)
        for name in ("mean_Y", "mean_Z", "var_Y", "var_Z", "R"):
            assert getattr(qo, name) == pytest.approx(getattr(qc, name), abs=1e-10)

    @pytest.mark.parametrize(
        "family, alpha",
        [
            pytest.param(family, 1.0 + 1.0j, id=str(family))
            for family in (StateFamily.COHERENT, StateFamily.CAT_EVEN, StateFamily.CAT_ODD)
        ]
        # alpha = 1 lies off the Re(alpha^2) = 0 diagonal of 1 + 1j
        + [
            pytest.param(StateFamily.COHERENT, 1.0, id="StateFamily.COHERENT-alpha=1"),
            pytest.param(StateFamily.CAT_EVEN, 1.0, id="StateFamily.CAT_EVEN-alpha=1"),
            pytest.param(
                StateFamily.CAT_ODD,
                1.0,
                id="StateFamily.CAT_ODD-alpha=1",
                marks=pytest.mark.xfail(
                    strict=True,
                    reason="closed_terms odd-cat U~ branch is off by about tau Re(alpha^2)/2 "
                    "at first order (defect ratio about 11, not 100)",
                ),
            ),
        ],
    )
    def test_oracle_vs_closed_quadratic_band(self, family, alpha):
        defects = []
        for tau in (1e-3, 1e-2):
            st_ = build_state(_kind(family, alpha, tau), cutoff=50)
            qc = obs.quad_moments_closed(st_.kind)
            qo = obs.quad_moments_oracle(st_, tau)
            defects.append(
                max(
                    abs(qc.var_Y - qo.var_Y),
                    abs(qc.var_Z - qo.var_Z),
                    abs(qc.R - qo.R),
                )
            )
        assert 50 <= defects[1] / defects[0] <= 200


class TestMandel:
    def test_coherent_closed_values(self):
        m = obs.mandel_closed(_kind(StateFamily.COHERENT, 1.0, 0.1))
        assert m.mandel_Q == -0.05
        assert m.mean_N == pytest.approx(1.0 - 0.1 / 2.0 * 3.0)
        assert m.mean_N2 == pytest.approx(2.0 - 0.1 * 5.0)
        assert m.var_N == pytest.approx(m.mean_N2 - m.mean_N**2)
        assert not m.flagged

    def test_coherent_poissonian_at_tau_zero(self):
        m = obs.mandel_closed(_kind(StateFamily.COHERENT, 1.3 + 0.2j, 0.0))
        assert m.mandel_Q == 0.0

    def test_flagged_at_vacuum(self):
        m = obs.mandel_closed(_kind(StateFamily.COHERENT, 0.0, 0.1))
        assert m.flagged
        assert m.mandel_Q == 0.0

    def test_cat_limits(self):
        alpha = 0.9 + 0.4j
        r = abs(alpha) ** 2
        q_ho = 2.0 * r / math.sinh(2.0 * r)
        assert obs.mandel_closed(_kind(StateFamily.CAT_EVEN, alpha, 0.0)).mandel_Q == pytest.approx(q_ho, abs=1e-12)
        assert obs.mandel_closed(_kind(StateFamily.CAT_ODD, alpha, 0.0)).mandel_Q == pytest.approx(-q_ho, abs=1e-12)

    def test_odd_cat_moments_are_nan(self):
        # only Q_- has a printed closed form; intermediates come from the oracle
        m = obs.mandel_closed(_kind(StateFamily.CAT_ODD, 1.0, 0.1))
        assert math.isnan(m.mean_N)
        assert math.isnan(m.mean_N2)
        assert math.isnan(m.var_N)
        assert not math.isnan(m.mandel_Q)

    def test_oracle_fock_state(self):
        m = obs.mandel_oracle(basis_state(3, 20), 0.0)
        assert m.mean_N == pytest.approx(3.0)
        assert m.var_N == pytest.approx(0.0, abs=1e-12)
        assert m.mandel_Q == pytest.approx(-1.0)

    def test_oracle_vacuum_flagged(self):
        m = obs.mandel_oracle(basis_state(0, 10), 0.0)
        assert m.flagged
        assert m.mandel_Q == 0.0

    @pytest.mark.parametrize(
        "family", [StateFamily.COHERENT, StateFamily.CAT_EVEN, StateFamily.CAT_ODD]
    )
    def test_oracle_vs_closed_quadratic_band(self, family):
        alpha = 1.0 + 0.5j
        defects = []
        for tau in (1e-3, 1e-2):
            st_ = build_state(_kind(family, alpha, tau), cutoff=50)
            defects.append(
                abs(obs.mandel_oracle(st_, tau).mandel_Q - obs.mandel_closed(st_.kind).mandel_Q)
            )
        assert 50 <= defects[1] / defects[0] <= 200


class TestPhotonDistribution:
    def test_sums_to_one(self):
        st_ = build_cat(1.2 + 1.5j, 0.01, +1)
        p = obs.photon_distribution(st_)
        assert abs(float(np.sum(p)) - 1.0) <= 1e-10

    def test_glauber_is_poisson(self):
        st_ = build_coherent(1.0, 0.0)
        p = obs.photon_distribution(st_)
        for n in range(6):
            assert p[n] == pytest.approx(math.exp(-1.0) / math.factorial(n), rel=1e-10)

    def test_rejects_unnormalized(self):
        from ncqo.fock import FockVector

        with pytest.raises(ValueError):
            obs.photon_distribution(FockVector(np.array([2.0, 0.0])))


ORACLE_TAUS = (0.0, 1e-3, 1e-2, 0.5, 2.0)
# 0.5 <= |alpha| <= 3 at spread phases
ORACLE_ALPHAS = tuple(
    complex(radius * np.exp(1j * (0.3 + 1.1 * i)))
    for i, radius in enumerate((0.5, 1.0, 1.5, 2.0, 2.5, 3.0))
)


class TestBandedOracles:
    """The banded oracles against their dense references."""

    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    @pytest.mark.parametrize("exact", (False, True), ids=("first-order", "exact"))
    @pytest.mark.parametrize("family", FAMILIES, ids=str)
    def test_equal_dense_at_automatic_cutoff(self, family, exact, tau):
        built = 0
        for alpha in ORACLE_ALPHAS:
            try:
                vec = build_state(_kind(family, alpha, tau), None, exact).vector
            except CutoffError:  # the automatic cutoff does not grow with tau
                continue
            built += 1
            mandel = obs.mandel_oracle(vec, tau)
            _assert_matches(mandel, _dense_mandel(vec, tau))
            if tau == 0.0:
                assert mandel == _dense_mandel(vec, tau)
            _assert_matches(obs.quad_moments_oracle(vec, tau), _dense_quad(vec, tau))
        assert built

    @pytest.mark.parametrize("tau", ORACLE_TAUS)
    def test_equal_dense_at_smallest_cutoffs(self, tau):
        rng = np.random.default_rng(8)
        for cutoff, oracle, dense in (
            (5, obs.mandel_oracle, _dense_mandel),
            (6, obs.quad_moments_oracle, _dense_quad),
        ):
            for _ in range(20):
                c = rng.normal(size=cutoff) + 1j * rng.normal(size=cutoff)
                vec = FockVector(c / np.linalg.norm(c))
                _assert_matches(oracle(vec, tau), dense(vec, tau))

    @pytest.mark.parametrize("cutoff", (1, 4))
    def test_mandel_oracle_needs_cutoff_5(self, cutoff):
        with pytest.raises(DimensionError):
            obs.mandel_oracle(basis_state(0, cutoff), 0.1)
        assert obs.mandel_oracle(basis_state(0, 5), 0.1).flagged

    def test_quad_oracle_needs_cutoff_6(self):
        with pytest.raises(DimensionError):
            obs.quad_moments_oracle(basis_state(0, 5), 0.1)


# the inputs of the benchmark's point checks: first-order mode near the
# origin at small tau, exact mode out to |alpha| = 3 at the figure taus
_FIRST_ORDER_POINTS = st.tuples(
    st.floats(0.5, 1.5), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 1e-2), st.just(False)
)
_EXACT_POINTS = st.tuples(
    st.floats(0.5, 3.0), st.floats(0.0, 2.0 * math.pi), st.sampled_from(FIGURE_TAUS), st.just(True)
)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(FAMILIES), st.one_of(_FIRST_ORDER_POINTS, _EXACT_POINTS))
def test_oracle_invariants(family, point):
    radius, phase, tau, exact = point
    alpha = radius * complex(math.cos(phase), math.sin(phase))
    state = build_state(_kind(family, alpha, tau), None, exact)
    p = obs.photon_distribution(state)
    assert abs(float(np.sum(p)) - 1.0) <= 1e-12
    assert float(np.min(p)) >= 0.0
    if family.parity:
        assert not np.any(p[(np.arange(p.size) % 2) == (1 if family.parity == +1 else 0)])
    q = obs.quad_moments_oracle(state, tau)
    assert q.var_Y > 0.0 and q.var_Z > 0.0
    assert obs.mandel_oracle(state, tau).mean_N >= 0.0
