"""Tests of the benchmark's own checkers and of its failure accounting.

    python3 -m pytest bench/test_bench.py -q
"""

import math
import os
import sys
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(BENCH), "src"), BENCH]

import run  # noqa: E402
import workloads  # noqa: E402
from ncqo.errors import CutoffError  # noqa: E402
from ncqo import scan  # noqa: E402
from ncqo.scan import GridSpec, Quantity, ScanSpec, ScanTable  # noqa: E402
from ncqo.states import StateFamily  # noqa: E402
from reference import CheckFailed, ordinary_cat, splitter_entropy  # noqa: E402


def test_single_photon_at_50_50_has_entropy_one_half():
    assert splitter_entropy([0.0, 1.0], math.pi / 2) == pytest.approx(0.5, abs=1e-15)


def test_undeformed_coherent_state_stays_unentangled():
    alpha = 1.3 - 0.4j
    n = np.arange(40)
    log_fact = np.array([math.lgamma(k + 1.0) for k in n])
    coeffs = np.exp(-abs(alpha) ** 2 / 2 - 0.5 * log_fact) * alpha**n
    for theta in (math.pi / 2, 1.0):
        assert abs(splitter_entropy(coeffs, theta, 0.3)) <= 1e-12


def test_ordinary_cat_moments_at_small_alpha():
    # |alpha| -> 0: the even cat tends to |0> (Q -> 1), the odd cat to |1> (Q -> -1)
    assert ordinary_cat(1e-3, +1)["mandel"] == pytest.approx(1.0, abs=1e-5)
    assert ordinary_cat(1e-3, -1)["mandel"] == pytest.approx(-1.0, abs=1e-5)
    assert ordinary_cat(1e-3, -1)["varZ"] == pytest.approx(1.5, abs=1e-5)


def _panel(tmp_path, quantity=Quantity.U_TILDE, family=StateFamily.CAT_EVEN, tau=0.0, exact=False):
    grid = GridSpec(0.9, 1.8, 4, 0.9, 1.8, 3)
    spec = ScanSpec(quantity, family, grid, (tau,), exact=exact)
    return workloads.PanelCall(spec, str(tmp_path / "panel.csv"), 7)


@pytest.mark.parametrize(
    "quantity, family, tau",
    [
        (Quantity.U_TILDE, StateFamily.CAT_EVEN, 0.0),
        (Quantity.MANDEL, StateFamily.CAT_ODD, 0.0),
        (Quantity.SATURATION_DEFECT, StateFamily.COHERENT, 5.0),
        (Quantity.U, StateFamily.CAT_EVEN, 0.01),
        (Quantity.ENTROPY, StateFamily.CAT_ODD, 1.5),
    ],
)
def test_unperturbed_panels_pass(tmp_path, quantity, family, tau):
    call = _panel(tmp_path, quantity, family, tau, exact=quantity is Quantity.ENTROPY)
    table = call.run()
    assert call.check(table) == 12


def _perturbed(table, path, delta):
    """The table with `delta` added to every value, emitted to `path` as well."""
    rows = tuple(replace(r, value=r.value + delta) for r in table.rows)
    out = ScanTable(rows=rows)
    scan.emit(out, "csv", path)
    return out


@pytest.mark.parametrize(
    "quantity, family, tau, delta",
    [
        (Quantity.U_TILDE, StateFamily.CAT_EVEN, 0.0, 1e-6),
        (Quantity.SATURATION_DEFECT, StateFamily.COHERENT, 1.0, 1e-6),
        (Quantity.U, StateFamily.CAT_EVEN, 0.01, 0.5),
        (Quantity.MANDEL, StateFamily.CAT_ODD, 0.01, 0.5),
        (Quantity.ENTROPY, StateFamily.CAT_ODD, 1.5, 1e-9),
    ],
)
def test_perturbed_cell_fails_the_check(tmp_path, quantity, family, tau, delta):
    call = _panel(tmp_path, quantity, family, tau, exact=quantity is Quantity.ENTROPY)
    table = _perturbed(call.run(), call.path, delta)
    with pytest.raises(CheckFailed):
        call.check(table)


def test_csv_that_differs_from_the_table_fails(tmp_path):
    call = _panel(tmp_path)
    table = call.run()
    text = open(call.path).read().replace("true", "false", 1)
    with open(call.path, "w") as fh:
        fh.write(text)
    with pytest.raises(CheckFailed):
        call.check(table)


class _Perturbed:
    """A real panel whose output is corrupted after the timed call."""

    def __init__(self, call):
        self.call, self.path = call, call.path

    def run(self):
        return _perturbed(self.call.run(), self.path, 1e-6)

    def check(self, table):
        return self.call.check(table)


class _Raises:
    def run(self):
        raise CutoffError("cutoff 30 too small")

    def check(self, out):
        raise AssertionError("a call that raised must not be checked")


def test_run_counts_failures_and_continues(tmp_path, monkeypatch):
    good = _panel(tmp_path)
    bad = _Perturbed(_panel(tmp_path))
    monkeypatch.setattr(workloads, "make_round", lambda *a: [_Raises(), bad, good])
    monkeypatch.setattr(run, "MIN_CALLS", 6)
    args = SimpleNamespace(workload="closed_panels", seed=0, seconds=1e-9)
    stats = run._run(args, str(tmp_path), None)
    assert stats.rounds == 2
    assert len(stats.durations) == 6
    assert stats.failed == 4
    assert stats.wrong == 2
    assert stats.good_cells == 24


def test_perturbed_point_fails_the_check():
    call = workloads.PointCall(0.8 + 0.6j, 1e-2, False)
    points = call.run()
    assert call.check(points) == 1
    points[1] = replace(points[1], entropy=points[1].entropy + 1e-9)
    with pytest.raises(CheckFailed):
        call.check(points)
