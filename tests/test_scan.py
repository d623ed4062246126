"""Tests for grid scans, CSV/JSON emission, determinism and the CLI."""

import math
import os

import pytest

from ncqo import scan
from ncqo.beamsplitter import SplitterParams, entropy_for_kind
from ncqo.cli import main
from ncqo.errors import ConfigError, CutoffError
from ncqo.figrun import FIGURE_NAMES, load_manifest, panel_to_spec, run_figure
from ncqo.observables import cat_validity_value, mandel_closed, quad_moments_closed
from ncqo.states import (
    MIN_CAT_ODD_ALPHA,
    StateFamily,
    StateKind,
    build_cat,
    default_cutoff,
    perturbative_warning_indicator,
)

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
        assert scan.tables_equal(scan.run_scan(spec), scan.run_scan(spec))

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
        assert scan.rows_equal(row, want), (row, want)
    nan_rows = [r for r in rows if math.isnan(r.value)]
    assert len(nan_rows) == (4 if family is StateFamily.CAT_ODD else 0)


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
                assert scan.rows_equal(row, want), (row, want)

    def test_grids_mix_cutoffs(self):
        cutoffs = set()
        for re, im in self.GRIDS:
            grid = scan.GridSpec(*re, *im)
            cutoffs |= {
                default_cutoff(complex(x, y)) for y in grid.im_values for x in grid.re_values
            }
        assert min(cutoffs) == 30 and max(cutoffs) == 61 and len(cutoffs) > 10

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


@pytest.mark.parametrize("figure", ["fig5", "fig6", "fig7"])
def test_entropy_figure_golden(figure):
    """Panel (a) of each entropy figure against its pinned CSV: same cells and flags, values to 1e-12."""
    panel = next(p for p in load_manifest(figure)["panels"] if p["name"] == "a")
    got = scan.run_scan(panel_to_spec(panel)).rows
    want = scan.parse_csv(os.path.join(GOLDEN_DIR, f"{figure}_a.csv")).rows
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
        back = scan.parse_csv(path)
        assert scan.tables_equal(table, back)

    def test_json_round_trip(self, tmp_path):
        spec = _spec("varY", "coherent", (0.5, 1.5, 2), (0, 0, 1), (0.01,))
        table = scan.run_scan(spec)
        path = str(tmp_path / "t.json")
        scan.emit(table, "json", path)
        back = scan.parse_json(path)
        assert scan.tables_equal(table, back)
        assert back.metadata == table.metadata

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
        back = scan.parse_csv(path)
        assert scan.tables_equal(table, back)
        assert math.copysign(1.0, back.rows[1].value) == -1.0
        assert back.rows[3].value == 0.1

    def test_parse_rejects_foreign_csv(self, tmp_path):
        path = str(tmp_path / "bad.csv")
        with open(path, "w") as fh:
            fh.write("a,b,c\n1,2,3\n")
        with pytest.raises(ConfigError):
            scan.parse_csv(path)

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
        table = scan.parse_csv(out)
        assert table.rows[0].value == -0.05

    def test_validate_fast(self, capsys):
        assert main(["validate", "--level", "fast"]) == 0
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
        assert abs(scan.parse_csv(out).rows[0].value) <= 1e-10


def test_splitter_default_in_spec():
    spec = _spec("entropy", "coherent", (1, 1, 1), (0, 0, 1), (0.0,))
    assert spec.splitter == SplitterParams()
