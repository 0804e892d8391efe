import dataclasses
import json

import pytest

from hostark import reference
from hostark.reference import (
    IntegrityError,
    ReconciliationStatus,
    TableId,
    UnknownTable,
    compare,
    load_reference,
)


class TestLoadReference:
    def test_gev_sequence(self):
        table = load_reference(TableId.GEV_SEQUENCE)
        values = [c.value for c in table.cells]
        assert values == [1.4516059, 2.1880707, 2.8110575, 3.3682575]
        assert all(c.flag == "" for c in table.cells)

    def test_table2_first_cell(self):
        table = load_reference(TableId.TABLE2)
        cell = next(c for c in table.cells
                    if c.row == 0 and c.col == "Cps=-10.3;eps=0.0")
        assert cell.value == -1.635
        assert cell.flag == ""

    def test_table2_suspected_typo_cell(self):
        table = load_reference(TableId.TABLE2)
        cell = next(c for c in table.cells
                    if c.row == 2 and c.col == "Cps=-11.5;eps=1.0")
        assert cell.value == -1.494
        assert cell.flag == "SuspectedTypo"

    def test_table2_blank_cells_flagged(self):
        table = load_reference(TableId.TABLE2)
        blanks = [c for c in table.cells if c.flag == "Blank"]
        assert len(blanks) == 23
        assert all(c.value is None for c in blanks)

    def test_table1_is_informational(self):
        table = load_reference(TableId.TABLE1)
        assert len(table.cells) == 3 * 11 * 6
        assert all(c.flag == "Unreconciled" for c in table.cells)

    def test_unknown_table(self):
        with pytest.raises(UnknownTable):
            load_reference("table9")

    def test_integrity_check(self, monkeypatch):
        row = reference._TABLES[TableId.GEV_SEQUENCE]
        monkeypatch.setitem(reference._TABLES, TableId.GEV_SEQUENCE,
                            dataclasses.replace(row, sha256="0" * 64))
        with pytest.raises(IntegrityError):
            load_reference(TableId.GEV_SEQUENCE)


class TestCompare:
    def test_gev_all_pass(self):
        report = compare(TableId.GEV_SEQUENCE, 1e-6)
        assert report.passed is True
        assert report.n_pass == 4 and report.n_fail == 0
        assert report.reconciliation_status is ReconciliationStatus.RECONCILED

    def test_gev_fails_at_impossible_tolerance(self):
        report = compare(TableId.GEV_SEQUENCE, 1e-12)
        assert report.passed is False
        assert report.reconciliation_status is ReconciliationStatus.FAILED

    @pytest.mark.parametrize("tolerance", [float("nan"), -1e-6, float("inf")])
    def test_rejects_bad_tolerance(self, tolerance):
        with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
            compare(TableId.GEV_SEQUENCE, tolerance)

    def test_table2_reproduces(self):
        report = compare(TableId.TABLE2)
        assert report.tolerance == 5e-3
        assert report.passed is True
        assert report.n_fail == 0
        assert report.max_abs_delta < 5e-3
        # 110 positions = 86 gated values + 23 blanks + 1 typo cell
        assert report.n_pass == 86 + 23
        assert report.n_informational == 1

    def test_table2_typo_cell_reported(self):
        report = compare(TableId.TABLE2)
        cell = next(c for c in report.cells
                    if c.row == 2 and c.col == "Cps=-11.5;eps=1.0")
        assert cell.passed is None
        assert cell.computed == pytest.approx(-4.167, abs=5e-3)
        assert "SuspectedTypo" in cell.detail

    def test_table1_never_gates(self):
        report = compare(TableId.TABLE1)
        assert report.gating is False
        assert report.passed is None
        assert report.reconciliation_status is ReconciliationStatus.UNRECONCILED
        assert report.n_fail == 0 and report.n_pass == 0
        cell = next(c for c in report.cells
                    if c.row == 0 and c.col == "Cs=0.0;eps=0.0")
        assert cell.reference == 0.271140
        assert cell.computed == pytest.approx(1.70166541194331, abs=1e-9)

    def test_report_is_deterministic(self):
        a = json.dumps(compare(TableId.TABLE2).to_json_dict(), indent=2)
        b = json.dumps(compare(TableId.TABLE2).to_json_dict(), indent=2)
        assert a == b

    def test_text_rendering(self):
        text = compare(TableId.TABLE2).to_text()
        assert "table table2" in text
        assert "SuspectedTypo" in text
