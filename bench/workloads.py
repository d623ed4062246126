"""The benchmark's workloads: seeded user calls into ncqo and their checks.

A call is what a user does in one step: one `run_scan` plus `emit` for a
panel, or one cross-check of a single point over the three state
families. Each call has a `run` method, which holds only program calls
and is the part that is timed, and a `check` method, which verifies the
output against `reference` and returns the number of checked cells.

Calls come in rounds. Every round of a workload holds the same number of
calls of the same make-up; round `i` of seed `s` draws its inputs from
`numpy.random.default_rng((s, i))`, so a seed fixes every input.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from ncqo import beamsplitter, observables, scan, states
from ncqo.beamsplitter import SplitterParams
from ncqo.scan import GridSpec, Quantity, ScanSpec
from ncqo.states import StateFamily, StateKind

from reference import (
    CheckFailed,
    coherent_first_order,
    first_order_band,
    ordinary_cat,
    read_scan_csv,
    same_float,
    splitter_entropy,
)

FAMILIES = (StateFamily.COHERENT, StateFamily.CAT_EVEN, StateFamily.CAT_ODD)
CLOSED_QUANTITIES = (
    Quantity.U_TILDE,
    Quantity.U,
    Quantity.VAR_Z,
    Quantity.SATURATION_DEFECT,
    Quantity.MANDEL,
)
CLOSED_TAUS = (0.0, 0.01, 1.0, 5.0)
FIGURE_TAUS = (0.0, 0.5, 1.0, 1.5, 2.0)  # the tau values of fig5-fig7
HALF_PI = math.pi / 2.0
# Beyond |alpha| = 2 the automatic cutoff fails in first-order mode at
# tau = 1e-3 and 1e-2 (states.default_cutoff ignores tau), so the oracle
# sample of closed panels stays inside it.
ORACLE_MAX_ALPHA = 2.0
ORACLE_SAMPLE = 3


def _in_band(name: str, closed: float, oracle: float, alpha: complex, tau: float) -> None:
    band = first_order_band(alpha, tau)
    if not abs(closed - oracle) <= band:
        raise CheckFailed(
            f"{name} at alpha={alpha}, tau={tau}: closed {closed!r} vs oracle {oracle!r} "
            f"outside the band {band:.3g}"
        )


def _close(name: str, got: float, want: float, tol: float) -> None:
    if not abs(got - want) <= tol:
        raise CheckFailed(f"{name}: got {got!r}, want {want!r} (tolerance {tol:.3g})")


def _odd_cat_z(family: StateFamily, name: str) -> bool:
    """Odd-cat Z-quadrature quantities, kept out of the first-order band.

    Their closed forms differ from the oracle at first order in tau, by
    about tau Re(alpha^2)/2 (see README.md), so no O(tau^2) band holds.
    """
    return family is StateFamily.CAT_ODD and name in ("U_tilde", "varZ", "saturation_defect")


def _oracle_value(quantity: Quantity, state, tau: float) -> float:
    if quantity is Quantity.MANDEL:
        return observables.mandel_oracle(state, tau).mandel_Q
    moments = observables.quad_moments_oracle(state, tau)
    return {
        Quantity.U: moments.U,
        Quantity.U_TILDE: moments.U_tilde,
        Quantity.VAR_Z: moments.var_Z,
        Quantity.SATURATION_DEFECT: moments.saturation_defect,
    }[quantity]


def _check_csv(path: str, table) -> None:
    back = read_scan_csv(path)
    if len(back) != len(table.rows):
        raise CheckFailed(f"{path}: {len(back)} rows read back, {len(table.rows)} emitted")
    for got, row in zip(back, table.rows):
        want = (row.re_alpha, row.im_alpha, row.tau, row.value, row.valid, row.warn)
        if not all(same_float(a, b) for a, b in zip(got[:4], want[:4])) or got[4:] != want[4:]:
            raise CheckFailed(f"{path}: row {got} read back, {want} emitted")


def _check_table_shape(spec: ScanSpec, table) -> None:
    want = spec.grid.re_steps * spec.grid.im_steps * len(spec.tau_list)
    if len(table.rows) != want:
        raise CheckFailed(f"{len(table.rows)} rows for a grid of {want} cells")


@dataclass
class PanelCall:
    """One scan panel: `run_scan` and then `emit` to a CSV."""

    spec: ScanSpec
    path: str
    sample_seed: int

    def run(self):
        table = scan.run_scan(self.spec)
        scan.emit(table, "csv", self.path)
        return table

    def check(self, table) -> int:
        _check_table_shape(self.spec, table)
        _check_csv(self.path, table)
        if self.spec.quantity is Quantity.ENTROPY:
            self._check_entropy(table)
        else:
            self._check_closed(table)
        return len(table.rows)

    def _check_closed(self, table) -> None:
        family, quantity = self.spec.family, self.spec.quantity
        name = quantity.value
        sample = []
        for row in table.rows:
            if not math.isfinite(row.value):
                raise CheckFailed(f"{name} is {row.value} at ({row.re_alpha}, {row.im_alpha})")
            alpha = complex(row.re_alpha, row.im_alpha)
            scale = 1.0 + abs(row.value)
            if family is StateFamily.COHERENT:
                want = coherent_first_order(alpha, row.tau)[name]
                _close(f"coherent {name} at alpha={alpha}, tau={row.tau}", row.value, want, 1e-11 * scale)
            elif row.tau == 0.0:
                want = ordinary_cat(alpha, family.parity)[name]
                _close(f"{family.value} {name} at alpha={alpha}, tau=0", row.value, want, 1e-10 * scale)
            elif row.tau == 0.01 and not row.warn and abs(alpha) <= ORACLE_MAX_ALPHA:
                sample.append(row)
        if family is StateFamily.COHERENT or _odd_cat_z(family, name) or not sample:
            return
        rng = np.random.default_rng(self.sample_seed)
        for i in rng.choice(len(sample), size=min(ORACLE_SAMPLE, len(sample)), replace=False):
            row = sample[int(i)]
            alpha = complex(row.re_alpha, row.im_alpha)
            state = states.build_state(StateKind(family, alpha, row.tau))
            oracle = _oracle_value(quantity, state, row.tau)
            _in_band(f"{family.value} {name}", row.value, oracle, alpha, row.tau)

    def _check_entropy(self, table) -> None:
        spec = self.spec
        for row in table.rows:
            s = row.value
            where = f"{spec.family.value} entropy at ({row.re_alpha}, {row.im_alpha}), tau={row.tau}"
            if not (-1e-12 <= s <= 1.0):
                raise CheckFailed(f"{where} is {s!r}, outside [0, 1]")
            alpha = complex(row.re_alpha, row.im_alpha)
            state = states.build_state(StateKind(spec.family, alpha, row.tau), spec.cutoff, spec.exact)
            ref = splitter_entropy(state.vector.coeffs, spec.splitter.theta, spec.splitter.phi)
            _close(where, s, ref, 1e-12)
            if spec.family is StateFamily.COHERENT and row.tau == 0.0 and s > 1e-8:
                raise CheckFailed(f"{where}: an undeformed coherent state gives S = {s!r} > 1e-8")


@dataclass(frozen=True)
class FamilyPoint:
    kind: StateKind
    state: states.DeformedState
    quad_oracle: observables.QuadratureMoments
    quad_closed: observables.QuadratureMoments
    mandel_oracle: observables.NumberMoments
    mandel_closed: observables.NumberMoments
    photons: np.ndarray
    entropy: float
    entropy_closed: float | None


POINT_SPLITTER = SplitterParams()


@dataclass
class PointCall:
    """One point (alpha, tau, mode) cross-checked for all three families."""

    alpha: complex
    tau: float
    exact: bool

    def run(self) -> list[FamilyPoint]:
        out = []
        for family in FAMILIES:
            kind = StateKind(family, self.alpha, self.tau)
            state = states.build_state(kind, None, self.exact)
            closed_s = None
            if family is StateFamily.COHERENT:
                closed_s = beamsplitter.linear_entropy_closed(
                    self.alpha, self.tau, POINT_SPLITTER, state.cutoff, self.exact
                )
            out.append(
                FamilyPoint(
                    kind=kind,
                    state=state,
                    quad_oracle=observables.quad_moments_oracle(state, self.tau),
                    quad_closed=observables.quad_moments_closed(kind),
                    mandel_oracle=observables.mandel_oracle(state, self.tau),
                    mandel_closed=observables.mandel_closed(kind),
                    photons=observables.photon_distribution(state),
                    entropy=beamsplitter.entropy_for_kind(kind, POINT_SPLITTER, None, self.exact),
                    entropy_closed=closed_s,
                )
            )
        return out

    def check(self, points: list[FamilyPoint]) -> int:
        for p in points:
            self._check_family(p)
        return 1

    def _check_family(self, p: FamilyPoint) -> None:
        family = p.kind.family
        where = f"{family.value} at alpha={self.alpha}, tau={self.tau}, exact={self.exact}"
        probs = p.photons
        if not abs(float(np.sum(probs)) - 1.0) <= 1e-10 or float(np.min(probs)) < 0.0:
            raise CheckFailed(f"{where}: photon distribution is not a distribution")
        if family is not StateFamily.COHERENT:
            wrong = probs[(np.arange(probs.size) % 2) == (0 if family.parity == -1 else 1)]
            if float(np.sum(wrong)) > 1e-14:
                raise CheckFailed(f"{where}: weight {float(np.sum(wrong))!r} on the wrong parity")
        qo = p.quad_oracle
        if not (qo.var_Y > 0.0 and qo.var_Z > 0.0):
            raise CheckFailed(f"{where}: oracle variances {qo.var_Y!r}, {qo.var_Z!r}")
        if not -1e-12 <= p.entropy <= 1.0:
            raise CheckFailed(f"{where}: entropy {p.entropy!r} outside [0, 1]")
        ref = splitter_entropy(p.state.vector.coeffs, POINT_SPLITTER.theta, POINT_SPLITTER.phi)
        _close(f"{where}: entropy", p.entropy, ref, 1e-12)
        if p.entropy_closed is not None and not math.isfinite(p.entropy_closed):
            raise CheckFailed(f"{where}: closed entropy {p.entropy_closed!r}")
        if p.state.perturbative_warning:
            return
        qc = p.quad_closed
        pairs = [
            ("varY", qc.var_Y, qo.var_Y),
            ("R", qc.R, qo.R),
            ("U", qc.U, qo.U),
            ("varZ", qc.var_Z, qo.var_Z),
            ("U_tilde", qc.U_tilde, qo.U_tilde),
            ("saturation_defect", qc.saturation_defect, qo.saturation_defect),
            ("mandel", p.mandel_closed.mandel_Q, p.mandel_oracle.mandel_Q),
        ]
        if p.entropy_closed is not None:
            pairs.append(("entropy", p.entropy_closed, p.entropy))
        for name, closed, oracle in pairs:
            if not _odd_cat_z(family, name):
                _in_band(f"{where}: {name}", closed, oracle, self.alpha, self.tau)


def _span(rng, lo: float, hi: float, min_width: float) -> tuple[float, float]:
    a = rng.uniform(lo, hi - min_width)
    return a, rng.uniform(a + min_width, hi)


def _polar(rng, lo: float, hi: float) -> complex:
    return complex(rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))


def closed_panels_round(rng, index: int, outdir: str) -> list:
    """15 panels: every closed quantity for every family, tau rotating over rounds."""
    calls = []
    for qi, quantity in enumerate(CLOSED_QUANTITIES):
        lo = 0.1 if quantity is Quantity.MANDEL else 0.9  # fig3/fig4, else fig1/fig2
        for fi, family in enumerate(FAMILIES):
            tau = CLOSED_TAUS[(qi + fi + index) % len(CLOSED_TAUS)]
            re_min, re_max = _span(rng, lo, 3.0, 0.5)
            im_min, im_max = _span(rng, lo, 3.0, 0.5)
            grid = GridSpec(
                re_min, re_max, int(rng.integers(8, 25)), im_min, im_max, int(rng.integers(8, 25))
            )
            spec = ScanSpec(quantity, family, grid, (tau,))
            path = os.path.join(outdir, "panel.csv")
            calls.append(PanelCall(spec, path, int(rng.integers(2**31))))
    return calls


def entropy_panels_round(rng, index: int, outdir: str) -> list:
    """6 exact-mode entropy panels of 12 cells: a real-axis row and a 4x3 patch per family."""
    calls = []
    for fi, family in enumerate(FAMILIES):
        for si, shape in enumerate(("row", "patch")):
            tau = FIGURE_TAUS[(2 * fi + si + index) % len(FIGURE_TAUS)]
            theta = HALF_PI if (fi + si + index) % 2 == 0 else rng.uniform(math.pi / 6, 5 * math.pi / 6)
            if shape == "row":
                re_min, re_max = _span(rng, 0.1, 3.0, 0.6)
                grid = GridSpec(re_min, re_max, 12, 0.0, 0.0, 1)
            else:
                re_min, re_max = _span(rng, 0.1, 3.0, 0.2)
                im_min, im_max = _span(rng, 0.1, 3.0, 0.2)
                grid = GridSpec(re_min, re_max, 4, im_min, im_max, 3)
            spec = ScanSpec(
                Quantity.ENTROPY, family, grid, (tau,), splitter=SplitterParams(theta), exact=True
            )
            calls.append(PanelCall(spec, os.path.join(outdir, "panel.csv"), 0))
    return calls


def point_checks_round(rng, index: int, outdir: str) -> list:
    """4 points: first-order mode at tau = 1e-3 and 1e-2, exact mode at two figure taus."""
    calls = [PointCall(_polar(rng, 0.5, 1.5), tau, False) for tau in (1e-3, 1e-2)]
    for j in range(2):
        tau = FIGURE_TAUS[(2 * index + j) % len(FIGURE_TAUS)]
        calls.append(PointCall(_polar(rng, 0.5, 3.0), tau, True))
    return calls


WORKLOADS = {
    "closed_panels": closed_panels_round,
    "entropy_panels": entropy_panels_round,
    "point_checks": point_checks_round,
}


def make_round(workload: str, seed: int, index: int, outdir: str) -> list:
    return WORKLOADS[workload](np.random.default_rng((seed, index)), index, outdir)
