"""Tests for grid scans, CSV/JSON emission, determinism and the CLI."""

import math
import os

import pytest

from ncqo import scan
from ncqo.beamsplitter import SplitterParams
from ncqo.cli import main
from ncqo.errors import ConfigError
from ncqo.figrun import FIGURE_NAMES, load_manifest, run_figure
from ncqo.states import StateFamily

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "cat_even_utilde.csv")


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
