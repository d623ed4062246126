"""Grid scans over the complex-alpha plane and tau sweeps, with CSV/JSON emission.

Cells are independent pure computations; rows come out tau-major, then im,
then re, so the row order is deterministic. Closed-form quantities are
evaluated one tau slice at a time: the family's parity and the quantity's
place among (R, U, U~, varY, varZ, saturation defect) are fixed once per
slice, and each cell makes one call into the closed forms
(observables.cat_closed_terms for cats, coherent_closed_terms for coherent
states, closed_mandel_q for Mandel Q). A cat cell takes its value and its
valid flag from the same (R, U, U~), so every bit equals the one-cell
quad_moments_closed / mandel_closed and cat_validity_value. Photon
distributions are evaluated one cell at a time. Entropy is evaluated one
tau slice at a time as well: the slice's coherent coefficient rows and
splitter tables are built once at its largest cutoff, and each group of
cells that share a cutoff K runs as one stacked (cells, K, K) splitter
kernel, in chunks of at most ENTROPY_CHUNK_ENTRIES matrix entries per
temporary. Every cell gets the same bits as beamsplitter.entropy_for_kind.
Cells that violate a state precondition (the odd cat at alpha ~ 0) or fail
the cutoff tail check carry a NaN sentinel and valid = warn = False instead
of aborting the scan. CSV rows are written with one printf-style format,
floats at 17 significant digits.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import __version__
from .beamsplitter import SplitterParams, linear_entropy_rows, splitter_tables
from .errors import ConfigError, NcqoError
from .observables import (
    CLOSED_QUADRATURE_NAMES,
    cat_closed_terms,
    cat_validity_value,
    closed_mandel_q,
    closed_quadrature_values,
    coherent_closed_terms,
    photon_distribution,
    validity_value,
)
from .states import (
    MIN_CAT_ODD_ALPHA,
    StateFamily,
    StateKind,
    build_state,
    default_cutoff,
    perturbative_warning_indicator,
    raw_coherent_coeffs,
    state_rows,
)

CSV_HEADER = "re_alpha,im_alpha,tau,value,valid,warn"
# Complex entries per (cells, K, K) temporary of a stacked entropy chunk
# (1 MiB each): about 70 cells at K = 30 and 17 at K = 61.
ENTROPY_CHUNK_ENTRIES = 1 << 16


class Quantity(Enum):
    VAR_Y = "varY"
    VAR_Z = "varZ"
    R = "R"
    SATURATION_DEFECT = "saturation_defect"
    U = "U"
    U_TILDE = "U_tilde"
    MANDEL = "mandel"
    PHOTON_DIST = "photon_dist"
    ENTROPY = "entropy"


@dataclass(frozen=True)
class GridSpec:
    re_min: float
    re_max: float
    re_steps: int
    im_min: float
    im_max: float
    im_steps: int

    def validate(self) -> None:
        if self.re_steps < 1 or self.im_steps < 1:
            raise ConfigError("grid steps must be >= 1")
        for v in (self.re_min, self.re_max, self.im_min, self.im_max):
            if not math.isfinite(v):
                raise ConfigError("grid ranges must be finite")

    @property
    def re_values(self) -> np.ndarray:
        return np.linspace(self.re_min, self.re_max, self.re_steps)

    @property
    def im_values(self) -> np.ndarray:
        return np.linspace(self.im_min, self.im_max, self.im_steps)


@dataclass(frozen=True)
class ScanSpec:
    quantity: Quantity
    family: StateFamily
    grid: GridSpec
    tau_list: tuple
    splitter: SplitterParams = SplitterParams()
    cutoff: int | None = None  # None = automatic per alpha
    fock_n: int = 0  # photon index for quantity=photon_dist
    exact: bool = False  # exact-factorial coefficient mode

    def validate(self) -> None:
        self.grid.validate()
        if len(self.tau_list) == 0:
            raise ConfigError("tau_list must be nonempty")
        if any(t < 0 or not math.isfinite(t) for t in self.tau_list):
            raise ConfigError("tau values must be finite and >= 0")
        if self.cutoff is not None and self.cutoff < 6:
            raise ConfigError("explicit cutoff must be >= 6")
        if self.fock_n < 0:
            raise ConfigError("fock_n must be >= 0")


@dataclass(frozen=True)
class ScanRow:
    re_alpha: float
    im_alpha: float
    tau: float
    value: float
    valid: bool
    warn: bool


@dataclass(frozen=True)
class ScanTable:
    rows: tuple
    metadata: dict = field(default_factory=dict)


def _cell_flags(spec: ScanSpec, alpha: complex, tau: float) -> tuple[bool, bool]:
    warn = perturbative_warning_indicator(alpha, tau)
    if spec.family is StateFamily.COHERENT:
        return True, warn
    valid = cat_validity_value(alpha, tau, spec.family.parity) >= 0.0
    return valid, warn


def _nan_row(alpha: complex, tau: float) -> ScanRow:
    return ScanRow(alpha.real, alpha.imag, tau, float("nan"), False, False)


def _degenerate(spec: ScanSpec, alpha: complex) -> bool:
    return spec.family is StateFamily.CAT_ODD and abs(alpha) < MIN_CAT_ODD_ALPHA


def _evaluate_cell(spec: ScanSpec, alpha: complex, tau: float) -> ScanRow:
    """One photon_dist cell: build the state and read P(fock_n)."""
    if _degenerate(spec, alpha):
        return _nan_row(alpha, tau)
    valid, warn = _cell_flags(spec, alpha, tau)
    try:
        state = build_state(StateKind(spec.family, alpha, tau), spec.cutoff, spec.exact)
    except NcqoError:
        return _nan_row(alpha, tau)
    dist = photon_distribution(state)
    value = float(dist[spec.fock_n]) if spec.fock_n < dist.size else 0.0
    return ScanRow(alpha.real, alpha.imag, tau, value, valid, warn)


def _closed_slice(spec: ScanSpec, alphas: list, tau: float) -> list:
    """The closed-form rows of one tau slice, one call into the closed forms per cell.

    A cat cell takes its value and its valid flag from the same (R, U, U~)
    of observables.cat_closed_terms; a coherent cell is always valid.
    """
    parity = spec.family.parity
    mandel = spec.quantity is Quantity.MANDEL
    index = None if mandel else CLOSED_QUADRATURE_NAMES.index(spec.quantity.value)
    rows = []
    for alpha in alphas:
        if _degenerate(spec, alpha):
            rows.append(_nan_row(alpha, tau))
            continue
        valid = True
        if parity:
            terms = cat_closed_terms(alpha, tau, parity)
            valid = validity_value(*terms) >= 0.0
        elif not mandel:
            terms = coherent_closed_terms(alpha, tau)
        if mandel:
            value = closed_mandel_q(alpha, tau, parity)
        else:
            value = closed_quadrature_values(*terms)[index]
        warn = perturbative_warning_indicator(alpha, tau)
        rows.append(ScanRow(alpha.real, alpha.imag, tau, value, valid, warn))
    return rows


def _entropy_slice(spec: ScanSpec, alphas: list, tau: float) -> list:
    """The entropy rows of one tau slice, one stacked kernel per cutoff group and chunk."""
    live = [i for i, alpha in enumerate(alphas) if not _degenerate(spec, alpha)]
    flags = {i: _cell_flags(spec, alphas[i], tau) for i in live}
    values = {}
    if live:
        cutoffs = np.array(
            [default_cutoff(alphas[i]) if spec.cutoff is None else spec.cutoff for i in live]
        )
        k_max = int(cutoffs.max())
        raw = raw_coherent_coeffs(np.array([alphas[i] for i in live]), tau, k_max, spec.exact)
        tables = splitter_tables(k_max, spec.splitter)
        for k in sorted(set(cutoffs.tolist())):
            group = np.flatnonzero(cutoffs == k)
            step = max(1, ENTROPY_CHUNK_ENTRIES // (k * k))
            for start in range(0, group.size, step):
                chunk = group[start : start + step]
                ok, vectors = state_rows(raw[chunk, :k], spec.family.parity)
                entropies = linear_entropy_rows(vectors, tables)
                values.update(zip((live[j] for j in chunk[ok]), entropies.tolist()))
    rows = []
    for i, alpha in enumerate(alphas):
        if i in values:
            rows.append(ScanRow(alpha.real, alpha.imag, tau, values[i], *flags[i]))
        else:
            rows.append(_nan_row(alpha, tau))
    return rows


def run_scan(spec: ScanSpec) -> ScanTable:
    """Evaluate every grid cell; row order is tau-major, then im, then re."""
    spec.validate()
    re_values, im_values = spec.grid.re_values, spec.grid.im_values
    alphas = [complex(re, im) for im in im_values for re in re_values]
    rows = []
    for tau in spec.tau_list:
        if spec.quantity is Quantity.ENTROPY:
            rows.extend(_entropy_slice(spec, alphas, tau))
        elif spec.quantity is Quantity.PHOTON_DIST:
            rows.extend(_evaluate_cell(spec, alpha, tau) for alpha in alphas)
        else:
            rows.extend(_closed_slice(spec, alphas, tau))
    metadata = {
        "quantity": spec.quantity.value,
        "kind": spec.family.value,
        "cutoff": spec.cutoff if spec.cutoff is not None else "auto",
        "tool_version": __version__,
        "tau_list": list(spec.tau_list),
        "theta": spec.splitter.theta,
        "phi": spec.splitter.phi,
        "exact": spec.exact,
        "fock_n": spec.fock_n,
        "grid": {
            "re_min": spec.grid.re_min,
            "re_max": spec.grid.re_max,
            "re_steps": spec.grid.re_steps,
            "im_min": spec.grid.im_min,
            "im_max": spec.grid.im_max,
            "im_steps": spec.grid.im_steps,
        },
    }
    return ScanTable(rows=tuple(rows), metadata=metadata)


# One CSV row: floats at 17 significant digits, then the two flags.
_CSV_ROW = "%.17g,%.17g,%.17g,%.17g,%s,%s"


def emit(table: ScanTable, format: str, path: str) -> None:
    """Write a scan table as CSV or JSON (floats at 17 significant digits)."""
    if format not in ("csv", "json"):
        raise ConfigError(f"unknown format {format!r}")
    try:
        if format == "csv":
            lines = [CSV_HEADER]
            lines.extend(
                _CSV_ROW
                % (
                    r.re_alpha,
                    r.im_alpha,
                    r.tau,
                    r.value,
                    "true" if r.valid else "false",
                    "true" if r.warn else "false",
                )
                for r in table.rows
            )
            with open(path, "w", newline="") as fh:
                fh.write("\n".join(lines) + "\n")
        else:
            payload = {
                "metadata": table.metadata,
                "rows": [
                    {
                        "re_alpha": r.re_alpha,
                        "im_alpha": r.im_alpha,
                        "tau": r.tau,
                        "value": r.value,
                        "valid": r.valid,
                        "warn": r.warn,
                    }
                    for r in table.rows
                ],
            }
            with open(path, "w") as fh:
                json.dump(payload, fh, indent=1)
                fh.write("\n")
    except OSError as exc:
        raise OSError(f"failed writing scan output to {path}: {exc}") from exc


def parse_csv(path: str) -> ScanTable:
    """Read back a CSV emitted by emit(); metadata is not stored in CSV."""
    with open(path) as fh:
        lines = [ln for ln in fh.read().splitlines() if ln]
    if not lines or lines[0] != CSV_HEADER:
        raise ConfigError(f"{path} is not an ncqo scan CSV")
    rows = []
    for ln in lines[1:]:
        re_a, im_a, tau, value, valid, warn = ln.split(",")
        rows.append(
            ScanRow(
                float(re_a), float(im_a), float(tau), float(value),
                valid == "true", warn == "true",
            )
        )
    return ScanTable(rows=tuple(rows))


def parse_json(path: str) -> ScanTable:
    with open(path) as fh:
        payload = json.load(fh)
    rows = tuple(
        ScanRow(r["re_alpha"], r["im_alpha"], r["tau"], r["value"], r["valid"], r["warn"])
        for r in payload["rows"]
    )
    return ScanTable(rows=rows, metadata=payload.get("metadata", {}))


def rows_equal(a: ScanRow, b: ScanRow) -> bool:
    """Field-for-field equality treating NaN == NaN."""
    def feq(x, y):
        return (math.isnan(x) and math.isnan(y)) or x == y

    return (
        feq(a.re_alpha, b.re_alpha)
        and feq(a.im_alpha, b.im_alpha)
        and feq(a.tau, b.tau)
        and feq(a.value, b.value)
        and a.valid == b.valid
        and a.warn == b.warn
    )


def tables_equal(a: ScanTable, b: ScanTable) -> bool:
    return len(a.rows) == len(b.rows) and all(
        rows_equal(x, y) for x, y in zip(a.rows, b.rows)
    )
