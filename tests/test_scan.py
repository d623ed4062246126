"""Tests for grid scans, CSV/JSON emission, determinism and the CLI."""

import json
import math
import os
import stat
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ncqo import scan, states
from ncqo.beamsplitter import SplitterParams, entropy_for_kind
from ncqo.cli import main
from ncqo.errors import ConfigError, CutoffError
from ncqo.fock import MAX_CUTOFF
from ncqo.figrun import FIGURE_NAMES, load_manifest, panel_to_spec, run_figure
from ncqo.observables import (
    cat_validity_value,
    mandel_closed,
    photon_distribution,
    quad_moments_closed,
)
from ncqo.states import (
    MIN_CAT_ODD_ALPHA,
    TAIL_PROBABILITY,
    StateFamily,
    StateKind,
    build_cat,
    build_state,
    default_cutoff,
    perturbative_warning_indicator,
    raw_coherent_coeffs,
    sized_cutoffs,
    tail_converged,
)
from scan_io import parse_csv, parse_json, rows_equal, tables_equal

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN = os.path.join(GOLDEN_DIR, "cat_even_utilde.csv")
CLOSED_QUANTITIES = ("varY", "varZ", "R", "U", "U_tilde", "saturation_defect", "mandel")
# QuadratureMoments field of each closed quadrature quantity
MOMENT_FIELD = {
    "varY": "var_Y",
    "varZ": "var_Z",
    "R": "R",
    "U": "U",
    "U_tilde": "U_tilde",
    "saturation_defect": "saturation_defect",
}


def _spec(quantity, family, re, im, taus, **kw):
    re_min, re_max, re_steps = re
    im_min, im_max, im_steps = im
    return scan.ScanSpec(
        quantity=scan.Quantity(quantity),
        family=StateFamily(family),
        grid=scan.GridSpec(re_min, re_max, re_steps, im_min, im_max, im_steps),
        tau_list=tuple(taus),
        **kw,
    )


class TestRunScan:
    def test_single_cell_mandel(self):
        table = scan.run_scan(_spec("mandel", "coherent", (1, 1, 1), (0, 0, 1), (0.1,)))
        assert len(table.rows) == 1
        row = table.rows[0]
        assert row.value == -0.05
        assert row.valid
        assert row.warn  # first-order corrections already large at tau = 0.1

    def test_row_order_is_tau_major_im_re(self):
        table = scan.run_scan(_spec("R", "coherent", (0, 1, 2), (0, 1, 2), (0.0, 0.1)))
        keys = [(r.tau, r.im_alpha, r.re_alpha) for r in table.rows]
        assert keys == sorted(keys)
        assert len(table.rows) == 8

    def test_rerun_gives_equal_tables(self):
        spec = _spec("U_tilde", "cat-even", (0.5, 1.5, 3), (0.5, 1.5, 3), (0.0, 0.5))
        assert tables_equal(scan.run_scan(spec), scan.run_scan(spec))

    def test_nan_sentinel_for_odd_cat_near_origin(self):
        table = scan.run_scan(_spec("mandel", "cat-odd", (0, 1, 2), (0, 0, 1), (0.1,)))
        degenerate = [r for r in table.rows if r.re_alpha == 0.0]
        assert len(degenerate) == 1
        assert math.isnan(degenerate[0].value)
        assert not degenerate[0].valid
        good = [r for r in table.rows if r.re_alpha == 1.0]
        assert not math.isnan(good[0].value)

    def test_metadata(self):
        table = scan.run_scan(
            _spec("entropy", "coherent", (1, 1, 1), (0, 0, 1), (0.0,), cutoff=40)
        )
        md = table.metadata
        assert md["quantity"] == "entropy"
        assert md["cutoff"] == 40
        assert md["cutoffs"] == {"40": 1}
        assert md["tool_version"]
        assert md["grid"]["re_steps"] == 1

    def test_validation_errors(self):
        with pytest.raises(ConfigError):
            scan.run_scan(_spec("R", "coherent", (0, 1, 0), (0, 0, 1), (0.1,)))
        with pytest.raises(ConfigError):
            scan.run_scan(_spec("R", "coherent", (0, 1, 2), (0, 0, 1), ()))
        with pytest.raises(ConfigError):
            scan.run_scan(_spec("R", "coherent", (0, 1, 2), (0, 0, 1), (-0.1,)))
        with pytest.raises(ConfigError):
            scan.run_scan(_spec("R", "coherent", (0, 1, 2), (0, 0, 1), (0.1,), cutoff=3))
        with pytest.raises(ConfigError):
            scan.run_scan(
                _spec("R", "coherent", (0, 1, 2), (0, 0, 1), (0.1,), cutoff=MAX_CUTOFF + 1)
            )
        scan.run_scan(_spec("R", "coherent", (0, 1, 2), (0, 0, 1), (0.1,), cutoff=MAX_CUTOFF))


def _one_cell_row(spec, alpha, tau):
    """What the scan must give for one entropy cell, from entropy_for_kind."""
    nan_row = scan.ScanRow(alpha.real, alpha.imag, tau, math.nan, False, False)
    if spec.family is StateFamily.CAT_ODD and abs(alpha) < MIN_CAT_ODD_ALPHA:
        return nan_row
    kind = StateKind(spec.family, alpha, tau)
    try:
        value = entropy_for_kind(kind, spec.splitter, spec.cutoff, spec.exact)
    except CutoffError:
        return nan_row
    warn = perturbative_warning_indicator(alpha, tau)
    valid = spec.family is StateFamily.COHERENT or (
        cat_validity_value(alpha, tau, spec.family.parity) >= 0.0
    )
    return scan.ScanRow(alpha.real, alpha.imag, tau, value, valid, warn)


def _closed_reference_row(spec, alpha, tau):
    """What the scan must give for one closed-form cell, from the public closed forms."""
    if spec.family is StateFamily.CAT_ODD and abs(alpha) < MIN_CAT_ODD_ALPHA:
        return scan.ScanRow(alpha.real, alpha.imag, tau, math.nan, False, False)
    kind = StateKind(spec.family, alpha, tau)
    if spec.quantity is scan.Quantity.MANDEL:
        value = mandel_closed(kind).mandel_Q
    else:
        value = getattr(quad_moments_closed(kind), MOMENT_FIELD[spec.quantity.value])
    valid = spec.family is StateFamily.COHERENT or (
        cat_validity_value(alpha, tau, spec.family.parity) >= 0.0
    )
    warn = perturbative_warning_indicator(alpha, tau)
    return scan.ScanRow(alpha.real, alpha.imag, tau, value, valid, warn)


@pytest.mark.parametrize("family", list(StateFamily))
@pytest.mark.parametrize("quantity", CLOSED_QUANTITIES)
def test_closed_scan_equals_one_cell_reference(quantity, family):
    # alpha = 0 is the odd cat's NaN row; the grid reaches |alpha| = 2.97
    spec = _spec(quantity, family.value, (-2.0, 2.0, 5), (0.0, 2.2, 3), (0.0, 0.01, 0.5, 5.0))
    rows = scan.run_scan(spec).rows
    assert len(rows) == 5 * 3 * 4
    for row in rows:
        want = _closed_reference_row(spec, complex(row.re_alpha, row.im_alpha), row.tau)
        assert rows_equal(row, want), (row, want)
    nan_rows = [r for r in rows if math.isnan(r.value)]
    assert len(nan_rows) == (4 if family is StateFamily.CAT_ODD else 0)


def _ordinary_closed_value(quantity, alpha, parity):
    """The tau = 0 value of a closed quantity: the ordinary-oscillator coherent and cat moments.

    Written so that nothing overflows at large |alpha|: 2r / sinh(2r) as
    4r e^(-2r) / (1 - e^(-4r)).
    """
    r = abs(alpha) ** 2
    w = 2.0 * (alpha**2).real
    spread = {0: 0.0, +1: r * math.tanh(r), -1: r / math.tanh(r)}[parity]
    big_r = 0.5
    u = w / 2.0 + spread if parity else 0.0
    u_tilde = w / 2.0 - spread if parity else 0.0
    var_y, var_z = big_r + u, big_r - u_tilde
    return {
        "R": big_r,
        "U": u,
        "U_tilde": u_tilde,
        "varY": var_y,
        "varZ": var_z,
        "saturation_defect": var_y * var_z - big_r**2,
        "mandel": parity * 4.0 * r * math.exp(-2.0 * r) / (1.0 - math.exp(-4.0 * r)),
    }[quantity]


@pytest.mark.parametrize("family", list(StateFamily))
@pytest.mark.parametrize("quantity", CLOSED_QUANTITIES)
def test_closed_scan_is_total_at_large_alpha(quantity, family):
    # |alpha|^2 reaches 877, past every float overflow of cosh, sinh and exp
    # in the cat forms (|alpha|^2 ~ 177, 355 and 710)
    spec = _spec(quantity, family.value, (1.0, 29.0, 15), (0.0, 6.0, 3), (0.0, 0.01, 1.0))
    rows = scan.run_scan(spec).rows
    assert len(rows) == 15 * 3 * 3
    assert all(math.isfinite(r.value) for r in rows)
    for row in rows:
        if row.tau == 0.0:
            alpha = complex(row.re_alpha, row.im_alpha)
            want = _ordinary_closed_value(quantity, alpha, family.parity)
            assert abs(row.value - want) <= 1e-10 * (1.0 + abs(want)), (row, want)


@pytest.mark.parametrize("family", list(StateFamily))
@pytest.mark.parametrize("quantity", CLOSED_QUANTITIES)
def test_closed_golden_byte_exact(quantity, family, tmp_path):
    """Each closed quantity and family against its pinned CSV, byte for byte."""
    spec = _spec(quantity, family.value, (-1.0, 2.0, 4), (0.0, 1.3, 2), (0.0, 0.01, 0.5, 5.0))
    path = str(tmp_path / "closed.csv")
    scan.emit(scan.run_scan(spec), "csv", path)
    with open(path, "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN_DIR, "closed", f"{quantity}_{family.value}.csv"), "rb") as fh:
        want = fh.read()
    assert got == want


class TestBatchedEntropy:
    # The real axis holds alpha = 0 and alpha = 2; the patch reaches
    # |alpha| = 4.2, so the automatic cutoff mixes K = 30 ... 61 in one slice.
    GRIDS = (
        ((0.0, 4.0, 5), (0.0, 0.0, 1)),
        ((0.1, 3.0, 5), (0.1, 3.0, 4)),
    )
    TAUS = (0.0, 0.05, 2.0)

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("family", list(StateFamily))
    @pytest.mark.parametrize(
        "cutoff, splitter",
        [
            pytest.param(None, SplitterParams(), id="auto"),
            pytest.param(40, SplitterParams(), id="K40"),
            pytest.param(None, SplitterParams(1.1, 0.7), id="theta1.1-phi0.7"),
        ],
    )
    def test_scan_equals_one_cell_kernel(self, family, exact, cutoff, splitter):
        for re, im in self.GRIDS:
            spec = _spec(
                "entropy", family.value, re, im, self.TAUS,
                cutoff=cutoff, splitter=splitter, exact=exact,
            )
            rows = scan.run_scan(spec).rows
            assert len(rows) == re[2] * im[2] * len(self.TAUS)
            for row in rows:
                want = _one_cell_row(spec, complex(row.re_alpha, row.im_alpha), row.tau)
                assert rows_equal(row, want), (row, want)

    def test_grids_mix_cutoffs(self):
        cutoffs = set()
        for re, im in self.GRIDS:
            grid = scan.GridSpec(*re, *im)
            cutoffs |= {
                default_cutoff(complex(x, y)) for y in grid.im_values for x in grid.re_values
            }
        assert min(cutoffs) == 30 and max(cutoffs) == 61 and len(cutoffs) > 10
        # the cutoffs the scans use, one per cell as build_state takes it, mix
        # sized multiples of 8 below default_cutoff with kept default cutoffs
        sized = kept = 0
        for family in StateFamily:
            for exact in (False, True):
                for re, im in self.GRIDS:
                    spec = _spec("entropy", family.value, re, im, self.TAUS, exact=exact)
                    table = scan.run_scan(spec)
                    used = Counter()
                    for row in table.rows:
                        alpha = complex(row.re_alpha, row.im_alpha)
                        if family is StateFamily.CAT_ODD and abs(alpha) < MIN_CAT_ODD_ALPHA:
                            continue
                        bound = default_cutoff(alpha)
                        try:
                            k = build_state(StateKind(family, alpha, row.tau), None, exact).cutoff
                        except CutoffError:
                            k = bound
                        used[k] += 1
                        sized += k < bound
                        kept += k == bound
                    assert table.metadata["cutoffs"] == {str(k): n for k, n in sorted(used.items())}
        assert sized and kept

    def test_nan_rows(self):
        odd = scan.run_scan(_spec("entropy", "cat-odd", (0.0, 4.0, 5), (0.0, 0.0, 1), (0.0,)))
        assert (odd.rows[0].re_alpha, odd.rows[0].im_alpha) == (0.0, 0.0)
        assert math.isnan(odd.rows[0].value)
        assert not odd.rows[0].valid and not odd.rows[0].warn
        assert all(math.isfinite(r.value) for r in odd.rows[1:])
        # the automatic cutoff K = 30 is too small for this exact-mode even cat
        with pytest.raises(CutoffError):
            build_cat(2.0, 0.05, +1, exact=True)
        even = scan.run_scan(
            _spec("entropy", "cat-even", (0.0, 4.0, 5), (0.0, 0.0, 1), (0.05,), exact=True)
        )
        row = even.rows[2]
        assert (row.re_alpha, row.tau) == (2.0, 0.05)
        assert math.isnan(row.value)
        assert not row.valid and not row.warn


class TestAutomaticCutoff:
    """Automatic cutoffs sized from each row's own tail, in scans and in build_state."""

    # the tau-aware cutoff grid: 20 x 20 over [0.1, 4]^2
    GRID = scan.GridSpec(0.1, 4.0, 20, 0.1, 4.0, 20)
    GRID_TAUS = (0.0, 1e-3, 1e-2, 0.5)

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        st.complex_numbers(
            min_magnitude=0.01, max_magnitude=4.0, allow_nan=False, allow_infinity=False
        ),
        st.sampled_from((0.0, 1e-3, 1e-2, 0.5, 2.0)),
        st.booleans(),
        st.sampled_from(list(StateFamily)),
    )
    def test_sized_cutoff_rules(self, alpha, tau, exact, family):
        bound = default_cutoff(alpha)
        raw = raw_coherent_coeffs(alpha, tau, bound, exact)
        (k,) = sized_cutoffs(raw[None], [bound])
        assert k == bound or (k % 8 == 0 and 16 <= k < bound)
        weight = np.abs(raw) ** 2

        def fits(j):
            # (a) the row cut at j passes the tail test, (b) levels j ... B-1
            # hold at most TAIL_PROBABILITY of the weight below B
            return bool(tail_converged(raw[:j])) and (
                np.sum(weight[j:]) <= TAIL_PROBABILITY * np.sum(weight)
            )

        if k < bound:
            assert fits(k) and tail_converged(raw)
        assert not any(fits(j) for j in range(16, k, 8))
        # build_state cuts the row where a one-cell scan does
        grid = scan.GridSpec(alpha.real, alpha.real, 1, alpha.imag, alpha.imag, 1)
        table = scan.run_scan(
            scan.ScanSpec(scan.Quantity.PHOTON_DIST, family, grid, (tau,), exact=exact)
        )
        try:
            state = build_state(StateKind(family, alpha, tau), None, exact)
        except CutoffError:
            assert k == bound and math.isnan(table.rows[0].value)
            assert table.metadata["cutoffs"] == {str(bound): 1}
        else:
            assert state.cutoff == k
            assert table.metadata["cutoffs"] == {str(k): 1}

    @pytest.mark.parametrize("exact", [False, True])
    @pytest.mark.parametrize("family", list(StateFamily))
    def test_nan_cells_fail_the_tail_test_at_default_cutoff(self, family, exact):
        grid = self.GRID
        alphas = np.array([complex(x, y) for y in grid.im_values for x in grid.re_values])
        bounds = [default_cutoff(a) for a in alphas]
        table = scan.run_scan(
            scan.ScanSpec(scan.Quantity.PHOTON_DIST, family, grid, self.GRID_TAUS, exact=exact)
        )
        failing = []
        for tau in self.GRID_TAUS:
            raw = raw_coherent_coeffs(alphas, tau, max(bounds), exact)
            failing.extend(not tail_converged(row[:b]) for row, b in zip(raw, bounds))
            assert all(k <= b for k, b in zip(sized_cutoffs(raw, bounds), bounds))
        assert [math.isnan(r.value) for r in table.rows] == failing
        # the NaN counts of this grid at default_cutoff, unchanged by the sizing
        assert sum(failing) == (176 if exact else 686)
        used = table.metadata["cutoffs"]
        assert sum(used.values()) == len(table.rows)
        assert max(map(int, used)) <= max(bounds)

    def test_failed_sized_cutoff_falls_back_to_default_cutoff(self, monkeypatch):
        # cut every row at 16: where the tail test fails there, the scan and
        # build_state alike evaluate the cell at default_cutoff
        def at_16(raw, bounds):
            return [16] * len(bounds)

        monkeypatch.setattr(states, "sized_cutoffs", at_16)
        monkeypatch.setattr(scan, "sized_cutoffs", at_16)
        spec = _spec("entropy", "cat-even", (0.1, 3.0, 6), (0.0, 1.0, 2), (0.0, 0.5), exact=True)
        table = scan.run_scan(spec)
        used = Counter()
        for row in table.rows:
            alpha = complex(row.re_alpha, row.im_alpha)
            assert rows_equal(row, _one_cell_row(spec, alpha, row.tau))
            used[build_state(StateKind(spec.family, alpha, row.tau), None, True).cutoff] += 1
        assert used[16] and len(used) > 1
        assert table.metadata["cutoffs"] == {str(k): n for k, n in sorted(used.items())}


@pytest.mark.parametrize(
    "quantity, kind, re",
    [("photon_dist", "coherent", (12.0, 13.0, 2)), ("entropy", "cat-even", (12.0, 20.0, 3))],
)
def test_overflowed_cells_are_nan_rows(quantity, kind, re):
    # |alpha| = 12 still fits the coefficient table; 13 and 16 overflow alpha^n,
    # and 20 (automatic cutoff 569) passes MAX_CUTOFF, so no table is built for it
    with pytest.warns(RuntimeWarning):
        rows = scan.run_scan(_spec(quantity, kind, re, (0.0, 0.0, 1), (0.0,))).rows
    assert math.isfinite(rows[0].value)
    for row in rows[1:]:
        assert math.isnan(row.value)
        assert not row.valid and not row.warn


@pytest.mark.parametrize("quantity", ["entropy", "photon_dist"])
def test_cells_past_max_cutoff_build_no_table(monkeypatch, quantity):
    # |alpha| = 100 has automatic cutoff 10,809: its tables would hold 1.2e8 entries each
    assert default_cutoff(100.0) > MAX_CUTOFF >= default_cutoff(1.0)

    def refuse_past_max(fn, cutoff_arg):
        # raises before fn allocates anything
        def wrapper(*args):
            if args[cutoff_arg] > MAX_CUTOFF:
                raise AssertionError(f"{fn.__name__} asked for cutoff {args[cutoff_arg]}")
            return fn(*args)

        return wrapper

    monkeypatch.setattr(scan, "splitter_tables", refuse_past_max(scan.splitter_tables, 0))
    monkeypatch.setattr(scan, "raw_coherent_coeffs", refuse_past_max(scan.raw_coherent_coeffs, 2))
    rows = scan.run_scan(_spec(quantity, "coherent", (1.0, 100.0, 2), (0.0, 0.0, 1), (0.0,))).rows
    alone = scan.run_scan(_spec(quantity, "coherent", (1.0, 1.0, 1), (0.0, 0.0, 1), (0.0,))).rows
    assert rows_equal(rows[0], alone[0]) and math.isfinite(rows[0].value)
    assert (rows[1].re_alpha, rows[1].valid, rows[1].warn) == (100.0, False, False)
    assert math.isnan(rows[1].value)


def _photon_reference_row(spec, alpha, tau):
    """What the scan must give for one photon_dist cell, from the one-cell state path."""
    nan_row = scan.ScanRow(alpha.real, alpha.imag, tau, math.nan, False, False)
    if spec.family is StateFamily.CAT_ODD and abs(alpha) < MIN_CAT_ODD_ALPHA:
        return nan_row
    try:
        state = build_state(StateKind(spec.family, alpha, tau), spec.cutoff, spec.exact)
    except CutoffError:
        return nan_row
    dist = photon_distribution(state)
    value = float(dist[spec.fock_n]) if spec.fock_n < dist.size else 0.0
    warn = perturbative_warning_indicator(alpha, tau)
    valid = spec.family is StateFamily.COHERENT or (
        cat_validity_value(alpha, tau, spec.family.parity) >= 0.0
    )
    return scan.ScanRow(alpha.real, alpha.imag, tau, value, valid, warn)


@pytest.mark.parametrize("cutoff", [None, 40], ids=["auto", "K40"])
@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("family", list(StateFamily))
def test_photon_scan_equals_one_cell_reference(family, exact, cutoff):
    # alpha = 0 is the odd cat's NaN row; |alpha| >= 2 fails the cutoff tail
    # check at tau = 0.01 and 0.05; fock_n = 40 lies past every cutoff used
    nan_cells = 0
    for fock_n in (0, 3, 7, 40):
        spec = _spec(
            "photon_dist", family.value, (0.0, 4.0, 9), (0.0, 2.0, 5), (0.0, 0.01, 0.05, 2.0),
            cutoff=cutoff, exact=exact, fock_n=fock_n,
        )
        rows = scan.run_scan(spec).rows
        assert len(rows) == 9 * 5 * 4
        for row in rows:
            want = _photon_reference_row(spec, complex(row.re_alpha, row.im_alpha), row.tau)
            assert rows_equal(row, want), (row, want)
        nan_cells += sum(math.isnan(r.value) for r in rows)
        if fock_n == 40 and cutoff == 40:
            assert all(r.value == 0.0 for r in rows if not math.isnan(r.value))
    assert nan_cells > (4 * 4 if family is StateFamily.CAT_ODD else 0)


PHOTON_GOLDEN_BLOCKS = ((False, 0), (False, 3), (True, 0), (True, 3))  # (exact, fock_n)


def _photon_golden_table(family):
    """The photon_dist golden's rows: one scan per (exact, fock_n) block, in block order."""
    rows = []
    for exact, fock_n in PHOTON_GOLDEN_BLOCKS:
        spec = _spec(
            "photon_dist", family.value, (0.0, 4.0, 5), (0.0, 2.0, 3), (0.0, 0.01, 0.5),
            exact=exact, fock_n=fock_n,
        )
        rows.extend(scan.run_scan(spec).rows)
    return scan.ScanTable(rows=tuple(rows))


@pytest.mark.parametrize("family", list(StateFamily))
def test_photon_golden_byte_exact(family, tmp_path):
    """photon_dist in both coefficient modes, with cutoff NaN cells, against its pinned CSV."""
    path = str(tmp_path / "photon.csv")
    scan.emit(_photon_golden_table(family), "csv", path)
    with open(path, "rb") as fh:
        got = fh.read()
    with open(os.path.join(GOLDEN_DIR, "photon_dist", f"{family.value}.csv"), "rb") as fh:
        want = fh.read()
    assert got == want


@pytest.mark.parametrize("figure", ["fig5", "fig6", "fig7"])
def test_entropy_figure_golden(figure):
    """Panel (a) of each entropy figure against its pinned CSV: same cells and flags, values to 1e-12."""
    panel = next(p for p in load_manifest(figure)["panels"] if p["name"] == "a")
    got = scan.run_scan(panel_to_spec(panel)).rows
    want = parse_csv(os.path.join(GOLDEN_DIR, f"{figure}_a.csv")).rows
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g.re_alpha, g.im_alpha, g.tau, g.valid, g.warn) == (
            w.re_alpha, w.im_alpha, w.tau, w.valid, w.warn,
        )
        assert abs(g.value - w.value) <= 1e-12


class TestEmitParse:
    def test_csv_round_trip(self, tmp_path):
        spec = _spec("mandel", "cat-odd", (0, 1, 2), (0, 1, 2), (0.0, 1.0))
        table = scan.run_scan(spec)
        path = str(tmp_path / "t.csv")
        scan.emit(table, "csv", path)
        back = parse_csv(path)
        assert tables_equal(table, back)

    def test_json_round_trip(self, tmp_path):
        spec = _spec("varY", "coherent", (0.5, 1.5, 2), (0, 0, 1), (0.01,))
        table = scan.run_scan(spec)
        path = str(tmp_path / "t.json")
        scan.emit(table, "json", path)
        back = parse_json(path)
        assert tables_equal(table, back)
        assert back.metadata == table.metadata

    def test_json_round_trip_keeps_cutoff_counts(self, tmp_path):
        spec = _spec("entropy", "cat-odd", (0.0, 3.0, 4), (0.0, 0.0, 1), (0.0, 2.0), exact=True)
        table = scan.run_scan(spec)
        # the degenerate odd cat at alpha = 0 gets no coefficient row, so no cutoff
        assert sum(table.metadata["cutoffs"].values()) == 6
        path = str(tmp_path / "t.json")
        scan.emit(table, "json", path)
        back = parse_json(path)
        assert tables_equal(table, back)
        assert back.metadata == table.metadata
        closed = scan.run_scan(_spec("R", "cat-odd", (0.0, 3.0, 4), (0.0, 0.0, 1), (0.0,)))
        assert "cutoffs" not in closed.metadata

    def test_csv_header_and_format(self, tmp_path):
        table = scan.run_scan(_spec("mandel", "coherent", (1, 1, 1), (0, 0, 1), (0.1,)))
        path = str(tmp_path / "t.csv")
        scan.emit(table, "csv", path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "re_alpha,im_alpha,tau,value,valid,warn"
        assert lines[1] == "1,0,0.10000000000000001,-0.050000000000000003,true,true"

    def test_csv_edge_values(self, tmp_path):
        rows = (
            scan.ScanRow(0.0, 0.0, 0.5, math.nan, False, False),
            scan.ScanRow(-0.0, 1.0, 0.0, -0.0, True, False),
            scan.ScanRow(1.0, 0.0, 5.0, math.inf, False, True),
            scan.ScanRow(0.1, -2.5, 0.01, 0.10000000000000001, True, True),
        )
        table = scan.ScanTable(rows=rows)
        path = str(tmp_path / "edges.csv")
        scan.emit(table, "csv", path)
        with open(path) as fh:
            lines = fh.read().splitlines()
        assert lines[1:] == [
            "0,0,0.5,nan,false,false",
            "-0,1,0,-0,true,false",
            "1,0,5,inf,false,true",
            "0.10000000000000001,-2.5,0.01,0.10000000000000001,true,true",
        ]
        back = parse_csv(path)
        assert tables_equal(table, back)
        assert math.copysign(1.0, back.rows[1].value) == -1.0
        assert back.rows[3].value == 0.1

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_overwrite_equals_fresh_write(self, tmp_path, fmt):
        # a shorter table over a longer file leaves no stale bytes, and the reverse
        short = scan.run_scan(_spec("R", "coherent", (1, 1, 1), (0, 0, 1), (0.0,)))
        long = scan.run_scan(_spec("R", "cat-even", (0, 2, 9), (0, 1, 3), (0.0, 0.1)))
        for name, first, second in (("shrink", long, short), ("grow", short, long)):
            fresh, over = str(tmp_path / f"{name}_fresh.{fmt}"), str(tmp_path / f"{name}.{fmt}")
            scan.emit(second, fmt, fresh)
            scan.emit(first, fmt, over)
            scan.emit(second, fmt, over)
            with open(over, "rb") as a, open(fresh, "rb") as b:
                assert a.read() == b.read()
            back = parse_csv(over) if fmt == "csv" else parse_json(over)
            assert tables_equal(second, back)

    def test_json_bytes(self, tmp_path):
        table = scan.run_scan(_spec("mandel", "cat-odd", (0, 1, 2), (0, 1, 2), (0.0, 1.0)))
        path = str(tmp_path / "t.json")
        scan.emit(table, "json", path)
        with open(path) as fh:
            text = fh.read()
        assert json.loads(text)["metadata"] == table.metadata
        ref = str(tmp_path / "ref.json")
        with open(ref, "w") as fh:
            json.dump(json.loads(text), fh, indent=1)
            fh.write("\n")
        with open(ref) as fh:
            assert fh.read() == text

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_emit_to_devnull(self, fmt):
        table = scan.run_scan(_spec("R", "coherent", (1, 1, 1), (0, 0, 1), (0.0,)))
        scan.emit(table, fmt, os.devnull)
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_write_error_names_the_path(self, tmp_path):
        table = scan.run_scan(_spec("R", "coherent", (1, 1, 1), (0, 0, 1), (0.0,)))
        with pytest.raises(OSError, match="failed writing scan output to"):
            scan.emit(table, "csv", str(tmp_path / "missing" / "t.csv"))

    def test_parse_rejects_foreign_csv(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            parse_csv(path)

    def test_unknown_format(self, tmp_path):
        table = scan.run_scan(_spec("R", "coherent", (1, 1, 1), (0, 0, 1), (0.0,)))
        with pytest.raises(ConfigError):
            scan.emit(table, "xml", str(tmp_path / "t.xml"))

    def test_golden_file_byte_exact(self, tmp_path):
        spec = _spec("U_tilde", "cat-even", (0.9, 2.1, 3), (0.9, 2.1, 3), (0.5, 1.0))
        path = str(tmp_path / "golden_rerun.csv")
        scan.emit(scan.run_scan(spec), "csv", path)
        with open(path, "rb") as fh:
            got = fh.read()
        with open(GOLDEN, "rb") as fh:
            want = fh.read()
        assert got == want


class TestFigures:
    def test_manifests_load(self):
        for name in FIGURE_NAMES:
            manifest = load_manifest(name)
            assert manifest["figure"] == name
            assert manifest["panels"]

    def test_unknown_figure(self):
        with pytest.raises(ConfigError):
            load_manifest("fig99")

    def test_figure_rerun_is_byte_identical(self, tmp_path):
        first = run_figure("fig3", str(tmp_path / "a"))
        second = run_figure("fig3", str(tmp_path / "b"))
        assert [os.path.basename(p) for p in first] == [
            os.path.basename(p) for p in second
        ]
        for pa, pb in zip(first, second):
            with open(pa, "rb") as fh:
                da = fh.read()
            with open(pb, "rb") as fh:
                db = fh.read()
            assert da == db
            assert da.startswith(b"re_alpha,im_alpha,tau,value,valid,warn\n")


class TestCli:
    def test_scan_smoke(self, tmp_path):
        out = str(tmp_path / "cli.csv")
        code = main(
            [
                "scan",
                "--quantity", "mandel",
                "--kind", "coherent",
                "--re", "1:1:1",
                "--im", "0:0:1",
                "--tau", "0.1",
                "--out", out,
            ]
        )
        assert code == 0
        table = parse_csv(out)
        assert table.rows[0].value == -0.05

    @pytest.mark.parametrize("level", ["fast", "full"])
    def test_validate(self, capsys, level):
        assert main(["validate", "--level", level]) == 0
        out = capsys.readouterr().out
        assert "[PASS]" in out
        assert "[FAIL]" not in out

    def test_config_error_exit_code(self, tmp_path):
        code = main(
            [
                "scan",
                "--quantity", "R",
                "--kind", "coherent",
                "--re", "1:1:1",
                "--im", "0:0:1",
                "--tau", "0.1",
                "--cutoff", "3",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "option, value",
        [
            ("--cutoff", "abc"),
            ("--tau", "x"),
            ("--theta", "4"),
            ("--theta", "abc"),
            ("--phi", "x"),
            ("--fock-n", "x"),
        ],
    )
    def test_bad_input_exit_code(self, tmp_path, capsys, option, value):
        out = str(tmp_path / "x.csv")
        argv = [
            "scan",
            "--quantity", "entropy",
            "--kind", "coherent",
            "--re", "1:1:1",
            "--im", "0:0:1",
            "--tau", "0.1",
            "--out", out,
            option, value,  # the last occurrence of an option wins
        ]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not os.path.exists(out)

    def test_splitter_passthrough(self, tmp_path):
        # theta = 0 transmits everything: entropy 0 for any input
        out = str(tmp_path / "theta0.csv")
        code = main(
            [
                "scan",
                "--quantity", "entropy",
                "--kind", "cat-even",
                "--re", "1:1:1",
                "--im", "1:1:1",
                "--tau", "0",
                "--theta", "0",
                "--out", out,
            ]
        )
        assert code == 0
        assert abs(parse_csv(out).rows[0].value) <= 1e-10


def test_splitter_default_in_spec():
    spec = _spec("entropy", "coherent", (1, 1, 1), (0, 0, 1), (0.0,))
    assert spec.splitter == SplitterParams()
