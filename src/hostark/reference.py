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

import json
import math
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


_SHA256 = {
    "table1.csv": "129a20749b95b62f32254bfad21b4a1041002762dbf9d2cbcb0b871be8616a49",
    "table2.csv": "a69fd647bda0ed7bde343604bcad84940d039d7221a417e31dda0ea78906095d",
    "gev_sequence.csv": "a04bbca56a1320e2e9fbbb8a07492fff0b6d58955186c3af93c4dfc0005c5a7b",
}

DEFAULT_TOLERANCES = {
    TableId.TABLE1: 5e-3,
    TableId.TABLE2: 5e-3,
    TableId.GEV_SEQUENCE: 1e-6,
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


def _read_csv_text(name: str) -> str:
    # imported here: every CLI command imports this module, only verify loads a table
    import hashlib

    text = resources.files("hostark.data").joinpath(name).read_text(encoding="ascii")
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    if digest != _SHA256[name]:
        raise IntegrityError(f"{name}: sha256 {digest} != pinned {_SHA256[name]}")
    return text


def load_reference(table_id: TableId) -> ReferenceTable:
    """Load a bundled table, verifying its pinned hash."""
    if not isinstance(table_id, TableId):
        raise UnknownTable(f"unknown reference table: {table_id!r}")
    text = _read_csv_text(f"{table_id.value}.csv")
    cells = []
    lines = text.splitlines()
    assert lines[0] == "row,col,value,flag"
    for line in lines[1:]:
        row, col, value, flag = line.split(",")
        cells.append(RefCell(int(row), col, float(value) if value else None, flag))
    return ReferenceTable(table_id, tuple(cells))


def _col_params(table_id: TableId, col: str) -> ModelParams:
    if table_id is TableId.GEV_SEQUENCE:
        return GEV_PARAMS
    pairs = dict(kv.split("=") for kv in col.split(";"))
    sym, key = ((SymmetryKind.PSEUDOSPIN, "Cps") if table_id is TableId.TABLE2
                else (SymmetryKind.SPIN, "Cs"))
    return ModelParams(M=TABLE_PARAMS_M, omega0=TABLE_PARAMS_OMEGA0,
                       eps=float(pairs["eps"]), sym=sym, C=float(pairs[key]))


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

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
    params = _col_params(table_id, cell.col)
    level = solve_level(params, cell.row)
    computed = level.E
    status = level.status.value
    if cell.flag == "Blank":
        ok = level.status is not Status.BOUND
        return CellComparison(
            cell.row, cell.col, None, computed, status, None, ok,
            detail="" if ok else "reference blank but solver found a bound level",
        )
    delta = None if computed is None else abs(computed - cell.value)
    if cell.flag == "SuspectedTypo":
        detail = "SuspectedTypo: breaks the column's monotone trend"
        if computed is not None:
            detail += f"; solver gives {computed:.4f}"
        return CellComparison(
            cell.row, cell.col, cell.value, computed, status, delta, None,
            detail=detail,
        )
    if table_id is TableId.TABLE1:
        return CellComparison(
            cell.row, cell.col, cell.value, computed, status, delta, None,
        )
    ok = computed is not None and delta <= tolerance
    return CellComparison(
        cell.row, cell.col, cell.value, computed, status, delta, ok,
        detail="" if ok else "outside tolerance",
    )


def compare(table_id: TableId, tolerance: float | None = None) -> ComparisonReport:
    """Compare solver output against a bundled table, cell by cell.

    table2 and gev_sequence gate pass/fail; table1 is always Unreconciled
    and informational.
    """
    if tolerance is not None and not 0.0 <= tolerance < math.inf:
        raise ValueError(f"tolerance must be finite and >= 0, got {tolerance}")
    table = load_reference(table_id)
    tol = DEFAULT_TOLERANCES[table_id] if tolerance is None else tolerance
    cells = tuple(_compare_cell(table_id, c, tol) for c in table.cells)

    gating = table_id is not TableId.TABLE1
    n_pass = sum(1 for c in cells if c.passed is True)
    n_fail = sum(1 for c in cells if c.passed is False)
    n_info = sum(1 for c in cells if c.passed is None)
    deltas = [c.delta for c in cells if c.delta is not None and c.passed is not None]
    if table_id is TableId.TABLE1:
        status = ReconciliationStatus.UNRECONCILED
    else:
        status = (ReconciliationStatus.RECONCILED if n_fail == 0
                  else ReconciliationStatus.FAILED)
    return ComparisonReport(
        table=table_id,
        tolerance=tol,
        gating=gating,
        reconciliation_status=status,
        cells=cells,
        n_pass=n_pass,
        n_fail=n_fail,
        n_informational=n_info,
        max_abs_delta=max(deltas) if deltas else None,
    )
