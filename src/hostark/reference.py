"""Bundled reference energy tables and comparison reports.

Three datasets ship with the package (relativistic units, hbar = c = q = 1):

  table2        pseudospin levels at M = 1.5, w0 = 1/2.4 for
                C_ps in {-10.3, -11.5} and eps in {0, 0.1, 0.5, 1.0, 1.5};
                a regression target at 5e-3 absolute.  Blank cells mark
                field strengths with no bound level and must coincide with
                non-bound solver statuses.  One cell (C_ps = -11.5,
                eps = 1.0, n = 2) breaks its column's monotone trend and is
                flagged SuspectedTypo (the cubic gives ~ -4.167 there); it
                is reported but never gated.
  gev_sequence  the field-free relativistic oscillator levels at
                M = 1, w = 1 for n = 0..3; a regression target at 1e-6.
  table1        spin-symmetry levels quoted for the same oscillator
                parameters as table2.  They do NOT satisfy this package's
                quantization condition at the stated parameters (at
                C_s = 0, eps = 0, n = 0 the condition's physical root is
                ~ 1.7017, not the quoted 0.271140) and their generating
                convention is unknown.  The table is bundled for
                side-by-side inspection only: comparisons against it are
                always Unreconciled and never gate anything.

The CSV files are hash-pinned; any edit fails the integrity check.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import asdict, dataclass
from enum import Enum
from importlib import resources

from .model import ModelParams, SymmetryKind
from .spectra import Status, solve_level

GEV_PARAMS = ModelParams(M=1.0, omega0=1.0)
TABLE_PARAMS_M = 1.5
TABLE_PARAMS_OMEGA0 = 1.0 / 2.4


class UnknownTable(ValueError):
    """Requested reference table does not exist."""


class IntegrityError(Exception):
    """A bundled CSV does not match its pinned hash."""


class TableId(Enum):
    TABLE1 = "table1"
    TABLE2 = "table2"
    GEV_SEQUENCE = "gev_sequence"


class ReconciliationStatus(Enum):
    RECONCILED = "Reconciled"
    FAILED = "Failed"
    UNRECONCILED = "Unreconciled"


@dataclass(frozen=True)
class _Table:  # a bundled table's facts, one row of _TABLES
    sha256: str               # the pin of its CSV
    tolerance: float          # compare's default
    sym: SymmetryKind | None  # the channel of its cells; None: each cell is GEV_PARAMS
    C_col: str | None         # the column of C in its cells' col


_TABLES = {
    TableId.TABLE1: _Table("129a20749b95b62f32254bfad21b4a1041002762dbf9d2cbcb0b871be8616a49",
                           5e-3, SymmetryKind.SPIN, "Cs"),
    TableId.TABLE2: _Table("a69fd647bda0ed7bde343604bcad84940d039d7221a417e31dda0ea78906095d",
                           5e-3, SymmetryKind.PSEUDOSPIN, "Cps"),
    TableId.GEV_SEQUENCE: _Table(
        "a04bbca56a1320e2e9fbbb8a07492fff0b6d58955186c3af93c4dfc0005c5a7b", 1e-6, None, None),
}


@dataclass(frozen=True)
class RefCell:
    row: int
    col: str
    value: float | None
    flag: str


@dataclass(frozen=True)
class ReferenceTable:
    id: TableId
    cells: tuple[RefCell, ...]


def load_reference(table_id: TableId) -> ReferenceTable:
    """Load a bundled table, verifying its pinned hash."""
    # imported here: every CLI command imports this module, only verify loads a table
    import hashlib

    if not isinstance(table_id, TableId):
        raise UnknownTable(f"unknown reference table: {table_id!r}")
    name, pin = f"{table_id.value}.csv", _TABLES[table_id].sha256
    text = resources.files("hostark.data").joinpath(name).read_text(encoding="ascii")
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    if digest != pin:
        raise IntegrityError(f"{name}: sha256 {digest} != pinned {pin}")
    cells = []
    lines = text.splitlines()
    assert lines[0] == "row,col,value,flag"
    for line in lines[1:]:
        row, col, value, flag = line.split(",")
        cells.append(RefCell(int(row), col, float(value) if value else None, flag))
    return ReferenceTable(table_id, tuple(cells))


def _col_params(table_id: TableId, col: str) -> ModelParams:
    table = _TABLES[table_id]
    if table.sym is None:
        return GEV_PARAMS
    pairs = dict(kv.split("=") for kv in col.split(";"))
    return ModelParams(M=TABLE_PARAMS_M, omega0=TABLE_PARAMS_OMEGA0, eps=float(pairs["eps"]),
                       sym=table.sym, C=float(pairs[table.C_col]))


@dataclass(frozen=True)
class CellComparison:
    row: int
    col: str
    reference: float | None
    computed: float | None
    status: str
    delta: float | None
    passed: bool | None  # None = informational, excluded from the gate
    detail: str = ""


@dataclass(frozen=True)
class ComparisonReport:
    """Deterministic per-cell comparison of solver output against a table."""

    table: TableId
    tolerance: float
    gating: bool
    reconciliation_status: ReconciliationStatus
    cells: tuple[CellComparison, ...]
    n_pass: int
    n_fail: int
    n_informational: int
    max_abs_delta: float | None

    @property
    def passed(self) -> bool | None:
        if not self.gating:
            return None
        return self.n_fail == 0

    def to_json_dict(self) -> dict:
        return {
            "table": self.table.value,
            "tolerance": self.tolerance,
            "gating": self.gating,
            "reconciliation_status": self.reconciliation_status.value,
            "n_pass": self.n_pass,
            "n_fail": self.n_fail,
            "n_informational": self.n_informational,
            "max_abs_delta": self.max_abs_delta,
            "passed": self.passed,
            "cells": [asdict(c) for c in self.cells],
        }

    def to_text(self) -> str:
        lines = [
            f"table {self.table.value}: {self.reconciliation_status.value}"
            f" (tolerance {self.tolerance:g},"
            f" {'gating' if self.gating else 'informational'})",
            f"  pass {self.n_pass} / fail {self.n_fail} /"
            f" informational {self.n_informational}"
            + (f", max |delta| {self.max_abs_delta:.3e}"
               if self.max_abs_delta is not None else ""),
        ]
        for c in self.cells:
            if c.passed is False or c.detail:
                ref = "blank" if c.reference is None else f"{c.reference:g}"
                comp = "-" if c.computed is None else f"{c.computed:.6f}"
                lines.append(
                    f"  [{c.col} n={c.row}] ref={ref} computed={comp}"
                    f" ({c.status}) {c.detail}".rstrip()
                )
        return "\n".join(lines)


def _compare_cell(table_id: TableId, cell: RefCell, tolerance: float) -> CellComparison:
    level = solve_level(_col_params(table_id, cell.col), cell.row)
    computed = level.E
    delta = None if None in (computed, cell.value) else abs(computed - cell.value)
    if cell.flag == "Blank":
        passed = level.status is not Status.BOUND
        detail = "" if passed else "reference blank but solver found a bound level"
    elif cell.flag == "SuspectedTypo":
        passed, detail = None, "SuspectedTypo: breaks the column's monotone trend"
        if computed is not None:
            detail += f"; solver gives {computed:.4f}"
    elif cell.flag == "Unreconciled":
        passed, detail = None, ""
    else:
        passed = computed is not None and delta <= tolerance
        detail = "" if passed else "outside tolerance"
    return CellComparison(cell.row, cell.col, cell.value, computed, level.status.value,
                          delta, passed, detail)


def compare(table_id: TableId, tolerance: float | None = None) -> ComparisonReport:
    """Compare solver output against a bundled table, cell by cell.

    table2 and gev_sequence gate pass/fail; table1, every cell of which is
    flagged Unreconciled, is always Unreconciled and informational.
    """
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    table = load_reference(table_id)
    tol = _TABLES[table_id].tolerance if tolerance is None else tolerance
    cells = tuple(_compare_cell(table_id, c, tol) for c in table.cells)

    gating = not all(c.flag == "Unreconciled" for c in table.cells)
    counts = Counter(c.passed for c in cells)  # True, False or None per cell
    deltas = [c.delta for c in cells if c.delta is not None and c.passed is not None]
    status = (ReconciliationStatus.UNRECONCILED if not gating
              else ReconciliationStatus.RECONCILED if counts[False] == 0
              else ReconciliationStatus.FAILED)
    return ComparisonReport(
        table=table_id,
        tolerance=tol,
        gating=gating,
        reconciliation_status=status,
        cells=cells,
        n_pass=counts[True],
        n_fail=counts[False],
        n_informational=counts[None],
        max_abs_delta=max(deltas) if deltas else None,
    )
