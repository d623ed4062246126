"""The shared alpha-independent tables: read-only, order-independent, bounded.

states and beamsplitter build their n-only rows and the splitter's
binomial table once per states._table_size and serve prefix slices of
them. These tests hold every served slice to a table built at exactly the
cutoff asked for, in either order of arrival.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ncqo import beamsplitter, scan, states
from ncqo.beamsplitter import SplitterParams
from ncqo.states import StateFamily, StateKind

ALPHAS = np.array([0.3, 1.0 + 1.0j, 2.5 - 0.7j, -1.1j, 0.0, 1e-3])


def _clear_tables():
    for cached in (
        states._factorial_rows,
        states._mode_rows,
        beamsplitter._binomial_table,
    ):
        cached.cache_clear()


def _raw_at(alpha, tau, k, exact):
    """raw_coherent_coeffs built at exactly cutoff k, with the same operations, no shared rows."""
    n = np.arange(k)
    power = np.power(np.asarray(alpha, dtype=np.complex128)[..., None], np.arange(k + 4))
    if exact:
        f2 = 1.0 + tau * (1 + np.arange(k + 4)) / 2.0
        quad = f2[1:-3] * f2[2:-2] * f2[3:-1] * f2[4:]
        ratio_up, ratio_dn = quad**-0.5, quad[: max(k - 4, 0)] ** 0.5
        inv_f = np.cumprod(np.concatenate(([1.0], f2[1:k] ** -0.5)))
    else:
        ratio_up = ratio_dn = 1.0
        inv_f = 1.0 - tau * n * (3 + n) / 8.0
    c = power[..., :k] - (tau / 16.0) * power[..., 4:] * ratio_up
    m = n[4:]
    pochhammer = (m - 3) * (m - 2) * (m - 1) * m
    c[..., 4:] += (tau / 16.0) * power[..., : max(k - 4, 0)] * pochhammer * ratio_dn
    log_fact = np.zeros(k)
    log_fact[1:] = np.cumsum(np.log(np.arange(1, k)))
    return c * inv_f * np.exp(-0.5 * log_fact)


def test_table_size_buckets():
    assert [states._table_size(k) for k in (0, 1, 30, 32, 33, 61, 64, 65, 512)] == [
        32, 32, 32, 32, 64, 64, 64, 128, 512,
    ]
    with pytest.raises(ValueError):
        states._table_size(-1)


def test_shared_arrays_are_read_only():
    params = SplitterParams(1.1, 0.7)
    total, sqrt_binom, t_pow, r_pow = beamsplitter.splitter_tables(40, params)
    shared = [states.log_factorials(40), total, sqrt_binom]
    shared += [a for a in states._mode_rows(0.5, True, 64) if isinstance(a, np.ndarray)]
    shared += list(states._mode_rows(0.5, False, 64)[2:])
    shared += list(states._factorial_rows(64))
    for a in shared:
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[..., 0] = 1.0
    # the per-call splitter powers stay the caller's own
    assert t_pow.flags.writeable and r_pow.flags.writeable


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("order", [(61, 30, 33), (30, 33, 61)], ids=["large-first", "small-first"])
def test_served_rows_equal_rows_built_at_the_cutoff(order, exact):
    _clear_tables()
    for k in order:
        for tau in (0.0, 0.05, 2.0):
            got = states.raw_coherent_coeffs(ALPHAS, tau, k, exact)
            assert got.tobytes() == _raw_at(ALPHAS, tau, k, exact).tobytes()
        log_fact = np.zeros(k)
        log_fact[1:] = np.cumsum(np.log(np.arange(1, k)))
        assert states.log_factorials(k).tobytes() == log_fact.tobytes()
        # sqrt(binom(q+m, q)) wherever q + m < k, the entries A reads
        total, sqrt_binom, _, _ = beamsplitter.splitter_tables(k, SplitterParams())
        inside = total < k
        want = np.exp(0.5 * (log_fact[np.where(inside, total, 0)] - log_fact[:, None] - log_fact))
        assert sqrt_binom[inside].tobytes() == want[inside].tobytes()


def _outputs(cutoffs):
    """build_state vectors and entropy scan values at each explicit cutoff, as bytes."""
    out = {}
    for k in cutoffs:
        for family in StateFamily:
            kind = StateKind(family, 1.3 + 0.4j, 0.5)
            out["state", k, family] = states.build_state(kind, k, exact=True).vector.coeffs.tobytes()
        spec = scan.ScanSpec(
            scan.Quantity.ENTROPY,
            StateFamily.CAT_EVEN,
            scan.GridSpec(0.2, 1.6, 4, 0.1, 1.0, 3),
            (0.0, 0.5),
            splitter=SplitterParams(1.1, 0.7),
            cutoff=k,
            exact=True,
        )
        out["scan", k] = np.array([r.value for r in scan.run_scan(spec).rows]).tobytes()
    return out


def test_scans_and_states_do_not_depend_on_cutoff_order():
    _clear_tables()
    large_first = _outputs((61, 30, 33))
    _clear_tables()
    small_first = _outputs((30, 33, 61))
    assert large_first == small_first


@pytest.mark.parametrize("exact", [False, True])
def test_negative_zero_tau_shares_the_entry(exact):
    _clear_tables()
    plus = states.raw_coherent_coeffs(ALPHAS, 0.0, 40, exact)
    minus = states.raw_coherent_coeffs(ALPHAS, -0.0, 40, exact)
    assert states._mode_rows.cache_info().currsize == 1
    assert minus.tobytes() == plus.tobytes()
    assert minus.tobytes() == _raw_at(ALPHAS, -0.0, 40, exact).tobytes()


def test_retained_memory_is_bounded():
    # K runs over 30 ... 61, so the tables of two sizes (32 and 64) are kept:
    # about 80 KiB of binomial tables plus a few KiB of rows. A cache keyed on
    # the splitter angle would keep one 64 x 64 table per angle, about 0.8 MiB.
    bound = 256 * 1024
    grid = scan.GridSpec(0.1, 3.0, 5, 0.1, 3.0, 4)
    cutoffs = {states.default_cutoff(complex(x, y)) for y in grid.im_values for x in grid.re_values}
    assert min(cutoffs) == 30 and max(cutoffs) == 61
    _clear_tables()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for theta in np.linspace(0.1, math.pi - 0.1, 12):
            spec = scan.ScanSpec(
                scan.Quantity.ENTROPY,
                StateFamily.CAT_ODD,
                grid,
                (0.5,),
                splitter=SplitterParams(float(theta)),
                exact=True,
            )
            assert any(math.isfinite(r.value) for r in scan.run_scan(spec).rows)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert retained < bound, retained
