"""Grid scans over the complex-alpha plane and tau sweeps, with CSV/JSON emission.

Cells are independent pure computations; rows come out tau-major, then im,
then re, so the row order is deterministic. Every quantity is evaluated
one tau slice at a time, on one of two paths:

* Closed-form quantities: the family's parity and the quantity's place
  among (R, U, U~, varY, varZ, saturation defect) are fixed once per
  slice, and each cell makes one call to observables.closed_terms with
  that parity (plus closed_mandel_q for Mandel Q). A cell takes its value
  and its valid flag from the same (R, U, U~), so every bit equals the
  one-cell quad_moments_closed / mandel_closed and cat_validity_value.
* State quantities (entropy, photon_dist): the slice's coherent
  coefficient rows are built once at its largest bound B = default_cutoff
  (or the explicit cutoff). An automatic cutoff K is then sized per row
  by states.sized_cutoffs, a multiple of 8 below B wherever the row's
  tail allows, so neighbouring cells share K. The cells that share a
  cutoff K are turned into normalized states by states.state_rows, in
  chunks of at most STATE_CHUNK_ENTRIES // K^2 cells, and each chunk is
  reduced to one value per cell: the stacked (cells, K, K) splitter
  kernel for entropy, P(fock_n) for photon_dist (0.0 where fock_n >= K).
  A sized K that fails the tail check is tried again at B. Every cell
  gets the same bits as the one-cell build_state followed by
  beamsplitter.entropy_for_kind or observables.photon_distribution. The
  metadata of these scans counts the cells evaluated at each cutoff, as
  "cutoffs": {"K": cells}.

Every cell's valid flag follows one rule, written in _closed_slice: a
coherent cell is always valid, a cat cell is valid where
R(U - U~) - U U~ >= 0; a state cell takes the flags of its closed cell.
Cells that violate a state precondition (the odd cat at alpha ~ 0), fail
the cutoff tail check, whose coefficients overflow or whose automatic
cutoff passes fock.MAX_CUTOFF carry a NaN sentinel and valid = warn =
False instead of aborting the scan; an explicit cutoff above MAX_CUTOFF
is a ConfigError. CSV rows are written with one printf-style format,
floats at 17 significant digits.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import __version__
from .beamsplitter import SplitterParams, linear_entropy_rows, splitter_tables
from .errors import ConfigError
from .fock import MAX_CUTOFF
from .observables import (
    CLOSED_QUADRATURE_NAMES,
    closed_mandel_q,
    closed_quadrature_values,
    closed_terms,
    photon_distribution_rows,
    validity_value,
)
from .states import (
    MIN_CAT_ODD_ALPHA,
    StateFamily,
    default_cutoff,
    perturbative_warning_indicator,
    raw_coherent_coeffs,
    sized_cutoffs,
    state_rows,
)

CSV_HEADER = "re_alpha,im_alpha,tau,value,valid,warn"
# Complex entries per (cells, K, K) temporary of a stacked entropy chunk
# (1 MiB each): about 70 cells at K = 30 and 17 at K = 61. photon_dist
# chunks hold as many cells.
STATE_CHUNK_ENTRIES = 1 << 16


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
        if self.cutoff is not None and not 6 <= self.cutoff <= MAX_CUTOFF:
            raise ConfigError(f"explicit cutoff must lie in [6, {MAX_CUTOFF}]")
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


def _nan_row(alpha: complex, tau: float) -> ScanRow:
    return ScanRow(alpha.real, alpha.imag, tau, float("nan"), False, False)


def _degenerate(spec: ScanSpec, alpha: complex) -> bool:
    return spec.family is StateFamily.CAT_ODD and abs(alpha) < MIN_CAT_ODD_ALPHA


def _closed_slice(spec: ScanSpec, alphas: list, tau: float, index: int | None) -> list:
    """The closed-form rows of one tau slice, at most one closed_terms call per cell.

    The value is closed_quadrature_values(R, U, U~)[index], or Mandel Q
    where index is None. The valid flag follows one rule for every
    quantity: a coherent cell is always valid, a cat cell is valid where
    R(U - U~) - U U~ >= 0, from the same (R, U, U~) as its value.
    """
    parity = spec.family.parity
    rows = []
    for alpha in alphas:
        if _degenerate(spec, alpha):
            rows.append(_nan_row(alpha, tau))
            continue
        # a coherent Mandel cell needs neither a quadrature value nor a validity value
        terms = closed_terms(alpha, tau, parity) if parity or index is not None else None
        if index is None:
            value = closed_mandel_q(alpha, tau, parity)
        else:
            value = closed_quadrature_values(*terms)[index]
        valid = parity == 0 or validity_value(*terms) >= 0.0
        warn = perturbative_warning_indicator(alpha, tau)
        rows.append(ScanRow(alpha.real, alpha.imag, tau, value, valid, warn))
    return rows


def _state_slice(spec: ScanSpec, alphas: list, tau: float) -> tuple[list, list]:
    """The entropy or photon_dist rows of one tau slice, by cutoff group and chunk.

    Each cell's valid and warn flags are those of its closed R cell. Also
    returns the cutoff each cell was evaluated at, for the cells that got
    a coefficient row.
    """
    parity = spec.family.parity
    closed = _closed_slice(spec, alphas, tau, CLOSED_QUADRATURE_NAMES.index("R"))
    bounds = [default_cutoff(alpha) if spec.cutoff is None else spec.cutoff for alpha in alphas]
    # a cell whose automatic cutoff passes MAX_CUTOFF is a NaN row: no table is built for it
    live = [
        i
        for i, alpha in enumerate(alphas)
        if not _degenerate(spec, alpha) and bounds[i] <= MAX_CUTOFF
    ]
    values, cutoffs = {}, np.zeros(0, dtype=int)
    if live:
        bound = np.array([bounds[i] for i in live])
        k_max = int(bound.max())
        raw = raw_coherent_coeffs(np.array([alphas[i] for i in live]), tau, k_max, spec.exact)
        cutoffs = np.array(sized_cutoffs(raw, bound.tolist())) if spec.cutoff is None else bound
        entropy = spec.quantity is Quantity.ENTROPY
        tables = splitter_tables(k_max, spec.splitter) if entropy else None
        pending = np.arange(len(live))
        while pending.size:
            failed = []
            for k in sorted(set(cutoffs[pending].tolist())):
                group = pending[cutoffs[pending] == k]
                step = max(1, STATE_CHUNK_ENTRIES // (k * k))
                for start in range(0, group.size, step):
                    chunk = group[start : start + step]
                    ok, vectors, _ = state_rows(raw[chunk, :k], parity)
                    if entropy:
                        out = linear_entropy_rows(vectors, tables)
                    else:
                        probs = photon_distribution_rows(vectors)
                        out = probs[:, spec.fock_n] if spec.fock_n < k else np.zeros(len(probs))
                    values.update(zip((live[j] for j in chunk[ok]), out.tolist()))
                    failed.append(chunk[~ok])
            # a sized cutoff that fails tail_converged (a rounding-level
            # disagreement with sized_cutoffs) falls back to the cell's bound
            failed = np.concatenate(failed)
            pending = failed[cutoffs[failed] < bound[failed]]
            cutoffs[pending] = bound[pending]
    rows = []
    for i, (alpha, cell) in enumerate(zip(alphas, closed)):
        if i in values:
            rows.append(ScanRow(alpha.real, alpha.imag, tau, values[i], cell.valid, cell.warn))
        else:
            rows.append(_nan_row(alpha, tau))
    return rows, cutoffs.tolist()


def run_scan(spec: ScanSpec) -> ScanTable:
    """Evaluate every grid cell; row order is tau-major, then im, then re."""
    spec.validate()
    re_values, im_values = spec.grid.re_values, spec.grid.im_values
    alphas = [complex(re, im) for im in im_values for re in re_values]
    rows = []
    used = Counter()
    state = spec.quantity in (Quantity.ENTROPY, Quantity.PHOTON_DIST)
    for tau in spec.tau_list:
        if state:
            slice_rows, cutoffs = _state_slice(spec, alphas, tau)
            rows.extend(slice_rows)
            used.update(cutoffs)
        elif spec.quantity is Quantity.MANDEL:
            rows.extend(_closed_slice(spec, alphas, tau, None))
        else:
            index = CLOSED_QUADRATURE_NAMES.index(spec.quantity.value)
            rows.extend(_closed_slice(spec, alphas, tau, index))
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
    if state:
        # cells evaluated at each cutoff; string keys survive a JSON round trip
        metadata["cutoffs"] = {str(k): n for k, n in sorted(used.items())}
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

