import contextlib
import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hostark.cli import _SPECTRUM_COLUMNS, _json_rows, _spectrum_row, build_parser, main
from hostark.model import ModelParams, SymmetryKind, eval_potential, potential_curve
from hostark.reference import TableId, load_reference
from hostark.spectra import nr_spin_level, solve_level, spectrum_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


class TestVerify:
    def test_gev_gate_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--table", "gev",
                               "--tolerance", "1e-6")
        assert code == 0
        assert "pass 4 / fail 0" in out
        assert "verification passed" in out

    def test_gate_failure_sets_exit_one(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--table", "gev",
                               "--tolerance", "1e-12")
        assert code == 1
        assert "verification FAILED" in out

    def test_table1_never_gates(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--table", "table1")
        assert code == 0
        assert "Unreconciled" in out

    def test_all_report_includes_breakdown(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        bd = payload["pseudospin_breakdown"]
        assert 1.5 < bd["eps_discriminant_flip"] < 2.5
        assert bd["reference_breakdown_window"] == [1.81, 1.90]
        assert payload["field_free_closed_form"]["depressed_cubic_root"] == \
            pytest.approx(1.4516059, abs=1e-6)


class TestSpectrum:
    def test_pseudospin_column_matches_reference(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--symmetry", "pseudospin", "--M", "1.5",
            "--omega0", "0.4166667", "--C", "-10.3", "--eps", "0",
            "--n-max", "10", "--format", "csv",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 11
        ref = {c.row: c.value for c in load_reference(TableId.TABLE2).cells
               if c.col == "Cps=-10.3;eps=0.0"}
        for row in rows:
            expect = ref[int(row["n"])]
            assert float(row["E"]) == pytest.approx(expect, abs=5e-3)
            assert row["status"] == "Bound"
            assert row["kappa"] == "1"
            assert row["discriminant_flag"] == "CardanoComplexRegime"

    def test_unbound_cells_have_empty_energy(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--symmetry", "pseudospin", "--M", "1.5",
            "--omega0-inv", "2.4", "--C", "-10.3", "--eps", "2.0",
            "--n-max", "2",
        )
        assert code == 0
        rows = parse_csv(out)
        assert all(r["status"] == "NoPhysicalRoot" and r["E"] == "" for r in rows)

    def test_json_mirrors_csv_fields(self, capsys):
        code, out, _ = run_cli(
            capsys, "spectrum", "--symmetry", "spin", "--M", "1.0",
            "--omega0", "1.0", "--eps", "0", "--n-max", "1",
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        assert rows[0]["E"] == pytest.approx(1.4516059, abs=1e-6)
        assert set(rows[0]) == {
            "symmetry", "n", "kappa", "M", "omega0", "q", "eps", "C", "E",
            "residual", "status", "root_alt1", "root_alt2", "discriminant_flag",
        }

    def test_omega0_inv_is_exact(self, capsys):
        _, out_inv, _ = run_cli(capsys, "spectrum", "--symmetry", "spin",
                                "--M", "1.5", "--omega0-inv", "2.4",
                                "--eps", "0", "--n-max", "0")
        _, out_direct, _ = run_cli(capsys, "spectrum", "--symmetry", "spin",
                                   "--M", "1.5", "--omega0", repr(1 / 2.4),
                                   "--eps", "0", "--n-max", "0")
        assert out_inv == out_direct


class TestPotential:
    def test_minimum_matches_shift(self, capsys):
        code, out, _ = run_cli(
            capsys, "potential", "--M", "1.5", "--omega0", "0.4166667",
            "--eps", "2", "--r-max", "15", "--samples", "600",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 600
        vmin = min(float(r["V"]) for r in rows)
        assert vmin == pytest.approx(-7.68, abs=1e-3)

    def test_byte_identical_reruns(self, capsys):
        argv = ("potential", "--M", "1.0", "--omega0", "1.0", "--eps", "0.5")
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


class TestFigure2:
    def test_matches_nr_ladder(self, capsys):
        code, out, _ = run_cli(
            capsys, "figure2", "--M", "1.5", "--omega0-inv", "2.4",
            "--eps", "0,0.5,1.0,2.0", "--n-max", "10",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 44
        for row in rows:
            p = ModelParams(M=1.5, omega0=1 / 2.4, eps=float(row["eps"]))
            assert float(row["E"]) == nr_spin_level(p, int(row["n"]))

    def test_prints_rows_where_only_r0_overflows(self, capsys):
        # the ladder needs g_shift = 5.0e299 alone, not r0 = 1e310
        code, out, _ = run_cli(capsys, "figure2", "--M", "1e-300", "--omega0", "1e-10",
                               "--eps", "0,1e-10", "--n-max", "1")
        assert code == 0
        assert [row["E"] for row in parse_csv(out)] == [
            "5.0000000000000002e-11", "-5.0000556647062903e+299",
            "1.5e-10", "-5.0000556647062903e+299"]


class TestWavefunction:
    def test_spin_upper_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--kind", "F", "--M", "1.5",
            "--omega0-inv", "2.4", "--eps", "0.5", "--n", "0",
            "--r-max", "40", "--samples", "201",
        )
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 201
        assert rows[0]["kind"] == "UpperF"
        assert all(r["normalized"] == "1" for r in rows)
        assert all(float(r["value_imag"]) == 0.0 for r in rows)

    def test_pseudospin_lower_is_real_after_phase(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--kind", "Gps", "--M", "1.5",
            "--omega0-inv", "2.4", "--C", "-10.3", "--eps", "0",
            "--n", "1", "--samples", "101",
        )
        assert code == 0
        rows = parse_csv(out)
        assert rows[0]["kind"] == "PseudoLowerG"
        assert all(r["value_imag"] == "0" for r in rows)

    def test_raw_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "wavefunction", "--kind", "R", "--M", "1.5",
            "--omega0-inv", "2.4", "--n", "2", "--no-normalize",
            "--samples", "51",
        )
        assert code == 0
        assert all(r["normalized"] == "0" for r in parse_csv(out))


class TestNuCheck:
    def test_reduction_dump(self, capsys):
        code, out, _ = run_cli(capsys, "nu-check")
        assert code == 0
        payload = json.loads(out)
        spin_first = payload["spin"]["branches"][0]
        assert spin_first["admissible"] is True
        assert spin_first["k"] == pytest.approx([0.0, 0.0], abs=1e-12)
        assert spin_first["tau_slope"] == pytest.approx([-4.0, 0.0])
        pseudo_first = payload["pseudospin"]["branches"][0]
        assert pseudo_first["k"] == pytest.approx([-1.5, 0.0], abs=1e-12)
        assert pseudo_first["tau_slope"] == pytest.approx([0.0, -2.0])


class TestErrors:
    def test_unknown_flag_exits_two(self, capsys):
        code, _, _ = run_cli(capsys, "spectrum", "--symmetry", "spin",
                             "--M", "1", "--omega0", "1", "--bogus", "1")
        assert code == 2

    def test_missing_subcommand_exits_two(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_invalid_params_single_line_diagnostic(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "--symmetry", "spin",
                                 "--M", "-1", "--omega0", "1", "--eps", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("flags", [
        ("--symmetry", "spin", "--eps", "nan"),
        ("--symmetry", "spin", "--eps", "0,inf"),
        ("--symmetry", "pseudospin", "--C=-inf"),
        ("--symmetry", "pseudospin", "--q", "nan", "--eps", "0.5"),
    ])
    def test_non_finite_params_exit_two(self, capsys, flags):
        code, out, err = run_cli(capsys, "spectrum", "--M", "1", "--omega0", "1",
                                 "--n-max", "0", *flags)
        assert code == 2
        assert out == ""
        assert "must be finite" in err

    @pytest.mark.parametrize("sym", ["spin", "pseudospin"])
    @pytest.mark.parametrize("eps", ["1e75", "1e80", "1e160"])
    def test_overflowing_cubic_exits_two(self, capsys, sym, eps):
        code, out, err = run_cli(capsys, "spectrum", "--symmetry", sym, "--M", "1.5",
                                 "--omega0", "0.4", "--C=-10.3", "--eps", f"0.5,{eps}")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "not finite in float64" in err

    @pytest.mark.parametrize("r_max", ["nan", "inf", "-5", "0"])
    @pytest.mark.parametrize("command", [
        ("potential", "--M", "1", "--omega0", "1"),
        ("wavefunction", "--kind", "F", "--M", "1", "--omega0", "1", "--n", "0"),
    ], ids=["potential", "wavefunction"])
    def test_bad_r_max_exits_two(self, capsys, command, r_max):
        code, out, err = run_cli(capsys, *command, f"--r-max={r_max}")
        assert code == 2
        assert out == ""
        assert "r_max must be finite and > 0" in err

    @pytest.mark.parametrize("flags", [("--kind", "G"), ("--kind", "F"),
                                       ("--kind", "F", "--no-normalize")])
    def test_non_positive_default_r_max_exits_two(self, capsys, flags):
        # q eps < 0 moves the well to r0 = -41.7, so r0 + 20/lambda = -15.8
        code, out, err = run_cli(capsys, "wavefunction", *flags, "--M", "1.5",
                                 "--omega0", "0.4", "--q", "-2", "--eps", "5", "--n", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: r_max must be finite and > 0")
        assert err.count("\n") == 1
        assert "--r-max" in err

    @pytest.mark.parametrize("flags, message", [
        (("--kind", "F", "--n", "400"), "UpperF at n=400 has non-finite samples"),
        (("--kind", "G", "--n", "400"), "LowerG at n=400 has non-finite samples"),
        (("--kind", "F", "--n", "400", "--no-normalize"),
         "UpperF at n=400 has non-finite samples"),
        (("--kind", "R", "--n", "160"), "n = 160 is past 150"),
        (("--kind", "R", "--n", "200"), "n = 200 is past 150"),
        (("--kind", "R", "--n", "1100"), "n = 1100 is past 150"),
        (("--kind", "F", "--n", str(10 ** 400)), "n must be within float64 range"),
        (("--kind", "G", "--n", "0", "--r-max", "1e-9"), "lower component needs r >= 1e-8"),
    ])
    def test_wavefunction_past_float64_exits_two(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "wavefunction", *flags, "--M", "1.5",
                                 "--omega0", "0.4")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("command", [
        ("spectrum", "--symmetry", "spin"), ("potential",), ("figure2",),
        ("wavefunction", "--kind", "F", "--n", "0"),
    ], ids=lambda command: command[0])
    def test_zero_omega0_inv_exits_two(self, capsys, command):
        code, out, err = run_cli(capsys, *command, "--M", "1.5", "--omega0-inv", "0")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert "--omega0-inv must be nonzero" in err

    @pytest.mark.parametrize("argv, message", [
        (("wavefunction", "--kind", "F", "--M", "1.5", "--omega0", "0.4", "--n", "0",
          "--samples", "2"), "samples must be >= 3, got 2"),
        (("spectrum", "--symmetry", "spin", "--M", "1.5"),
         "one of --omega0 / --omega0-inv is required"),
        # (q eps)^2 / (2 M w0^2) overflows in the division, which raises nothing
        (("figure2", "--M", "1e-300", "--omega0", "1e-3", "--eps", "1e10", "--n-max", "1"),
         "g_shift is not finite in float64 at M=1e-300, omega0=0.001, q=1.0, "
         "eps=10000000000.0"),
        # q eps / (M w0^2) overflows while g_shift stays finite
        (("wavefunction", "--kind", "R", "--M", "1e-300", "--omega0", "1e-10",
          "--eps", "1e-10", "--n", "0"),
         "r0 is not finite in float64 at M=1e-300, omega0=1e-10, q=1.0, eps=1e-10"),
    ], ids=["wavefunction-samples", "spectrum-no-omega0", "figure2-g-shift-overflow",
            "wavefunction-r0-overflow"])
    def test_rejected_input_exits_two(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_figure2_negative_n_max_exits_two(self, capsys):
        code, out, err = run_cli(capsys, "figure2", "--M", "1", "--omega0", "1",
                                 "--n-max", "-1")
        assert code == 2
        assert out == ""
        assert "n_max must be >= 0" in err

    @pytest.mark.parametrize("tolerance", ["nan", "-1e-6", "inf"])
    def test_bad_verify_tolerance_exits_two(self, capsys, tolerance):
        code, out, err = run_cli(capsys, "verify", "--table", "gev",
                                 f"--tolerance={tolerance}")
        assert code == 2
        assert out == ""
        assert "tolerance must be finite and >= 0" in err

    def test_omega0_and_inverse_conflict(self, capsys):
        code, _, err = run_cli(capsys, "spectrum", "--symmetry", "spin",
                               "--M", "1", "--omega0", "1",
                               "--omega0-inv", "2.4", "--eps", "0")
        assert code == 2
        assert "not both" in err

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "curve.csv"
        code, out, _ = run_cli(capsys, "potential", "--M", "1", "--omega0", "1",
                               "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text().startswith("r,V\n")

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--symmetry", "spin", "--M", "1", "--omega0", "1", "--n-max", "2"),
        ("figure2", "--M", "1", "--omega0", "1", "--n-max", "2"),
        ("wavefunction", "--kind", "R", "--M", "1", "--omega0", "1", "--n", "0",
         "--samples", "5"),
        ("nu-check",),
        ("verify", "--table", "gev"),
    ], ids=lambda argv: argv[0])
    def test_every_command_writes_its_output_file(self, capsys, tmp_path, argv):
        target = tmp_path / "out"
        _, printed, _ = run_cli(capsys, *argv)
        code, out, _ = run_cli(capsys, *argv, "--output", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text(encoding="ascii") == printed


# errors of spectrum and potential, each first in the order the commands
# check their inputs: M, omega0, q and C, the eps list, n_max, each eps, each
# g_shift, then the cells (spectrum); the parameters, r_max, samples, then V
# (potential).  Later cases are appended at the end.
BASE = ("--M", "1.5", "--omega0", "0.4")
INPUT_ERRORS = [
    (("spectrum", "--symmetry", "spin", "--eps", "abc", "--M", "-1", "--omega0", "1"),
     "M must be > 0, got -1.0"),
    (("spectrum", "--symmetry", "spin", "--eps", "0,abc", "--n-max", "-1", *BASE),
     "cannot parse field-strength list '0,abc'"),
    (("spectrum", "--symmetry", "spin", "--eps", "0.5,-1", "--n-max", "-1", *BASE),
     "n_max must be >= 0, got -1"),
    (("spectrum", "--symmetry", "spin", "--eps", "0.5,-1", *BASE),
     "eps must be >= 0, got -1.0"),
    (("spectrum", "--symmetry", "spin", "--eps", "1", "--q", "0", *BASE),
     "q must be nonzero when eps > 0"),
    (("spectrum", "--symmetry", "spin", "--C=-10.3", "--eps", "0.5,1e75", *BASE),
     "the level cubic is not finite in float64: B=4.166666666666665e+150, "
     "C=4.340277777777774e+300, D=5.121527777777773e+301"),
    # the g_shift of a later eps overflows before the cubic of an earlier one
    (("spectrum", "--symmetry", "pseudospin", "--C=-10.3", "--eps", "0.5,1e75,1e160",
      *BASE), "g_shift is not finite in float64 at M=1.5, omega0=0.4, q=1.0, eps=1e+160"),
    (("potential", "--r-max", "0", "--samples", "1", "--eps", "-1", *BASE),
     "eps must be >= 0, got -1.0"),
    (("potential", "--r-max", "0", "--samples", "1", *BASE),
     "r_max must be finite and > 0, got 0.0"),
    (("potential", "--samples", "1", *BASE), "samples must be >= 2, got 1"),
    (("potential", "--samples", "-3", *BASE), "samples must be >= 2, got -3"),
    (("potential", "--eps", "1", "--q", "0", *BASE), "q must be nonzero when eps > 0"),
    # r^2 overflows: V is inf - inf = nan, and inf at eps = 0
    (("potential", "--eps", "1e3", "--r-max", "1e308", "--samples", "50", *BASE),
     "V(r) is not finite in float64 at r=2.0408163265306124e+306"),
    (("potential", "--r-max", "1e308", "--samples", "50", *BASE),
     "V(r) is not finite in float64 at r=2.0408163265306124e+306"),
    # the Cardano z^3 underflows to 0
    (("spectrum", "--symmetry", "spin", "--M", "5e-324", "--omega0", "1", "--C", "2.6e-121",
      "--n-max", "0"), "the level cubic underflows in float64: B=-2.6e-121, C=0.0, D=-0.0"),
]


@pytest.mark.parametrize("argv, message", INPUT_ERRORS)
def test_spectrum_and_potential_input_errors(capsys, argv, message):
    assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")


# the spectrum cases that get past the CLI's own parsing (the eps-0
# ModelParams and the eps list), so that spectrum_grid sees their inputs
@pytest.mark.parametrize("argv, message", [INPUT_ERRORS[i] for i in (2, 3, 4, 5, 6, -1)])
def test_spectrum_grid_raises_the_cli_message(argv, message):
    args = build_parser().parse_args(argv)
    params = ModelParams(M=args.M, omega0=args.omega0, q=args.q,
                         sym=SymmetryKind(args.symmetry), C=args.C)
    with pytest.raises(ValueError) as info:
        spectrum_grid(params, args.n_max, [float(x) for x in args.eps.split(",")])
    assert str(info.value) == message


def cli_output(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@settings(max_examples=60, deadline=None)
@given(r_max=st.floats(min_value=5e-324, max_value=1e308),
       samples=st.integers(min_value=2, max_value=3000),
       M=st.floats(min_value=1e-3, max_value=1e3),
       omega0=st.floats(min_value=1e-3, max_value=1e3),
       q=st.sampled_from([1.0, -2.0, 0.5]),
       eps=st.floats(min_value=0.0, max_value=1e3))
@example(r_max=15.0, samples=2, M=1.5, omega0=0.4, q=1.0, eps=2.0)
@example(r_max=0.1, samples=200_001, M=1.5, omega0=0.4, q=1.0, eps=2.0)
@example(r_max=1 / 3, samples=600, M=1.0, omega0=1.0, q=-2.0, eps=0.5)
# r_max / (samples - 1) underflows to 0, where NumPy scales i / (samples - 1)
@example(r_max=1e-322, samples=7, M=1.0, omega0=1.0, q=1.0, eps=0.5)
# V overflows: inf - inf = nan from r = 2.04e306 on
@example(r_max=1e308, samples=50, M=1.5, omega0=0.4, q=1.0, eps=1e3)
def test_potential_rows_equal_potential_curve(r_max, samples, M, omega0, q, eps):
    """The rows of the potential command and of model.potential_curve are
    np.linspace and eval_potential bit for bit (%.17g round-trips every
    float, -0.0 included); where V is not finite, both reject the first
    such r."""
    params = ModelParams(M=M, omega0=omega0, q=q, eps=eps)
    r = np.linspace(0.0, r_max, samples)
    with np.errstate(all="ignore"):
        v = eval_potential(params, r)
    code, text, err = cli_output(
        "potential", "--M", repr(M), "--omega0", repr(omega0), "--q", repr(q),
        "--eps", repr(eps), "--r-max", repr(r_max), "--samples", str(samples))
    finite = np.isfinite(v)
    if not finite.all():
        message = f"V(r) is not finite in float64 at r={float(r[~finite][0])}"
        assert (code, text, err) == (2, "", f"error: {message}\n")
        with pytest.raises(ValueError) as info:
            potential_curve(params, r_max, samples)
        assert str(info.value) == message
        return
    expected = [(repr(float(x)), repr(float(y))) for x, y in zip(r, v)]
    rows = [tuple(map(float, line.split(","))) for line in text.splitlines()[1:]]
    assert code == 0
    assert [tuple(map(repr, row)) for row in rows] == expected
    curve = potential_curve(params, r_max, samples).tolist()
    assert [tuple(map(repr, row)) for row in curve] == expected


DATA = Path(__file__).parent / "data"
WIDE_EPS = "0,0.5,1,1.5,2,2.5,3,3.5,4,4.5,5"
GOLDEN_SPECTRA = {
    # the README example: table2 parameters
    "spectrum_table2": ("--symmetry", "pseudospin", "--M", "1.5", "--omega0-inv", "2.4",
                        "--C", "-10.3", "--eps", "0,0.5,1.5", "--n-max", "10"),
    # wide range, margin refinement fires on about half of the cells
    "spectrum_spin_wide": ("--symmetry", "spin", "--M", "7.6", "--omega0", "0.06",
                           "--C", "-13.3", "--eps", WIDE_EPS, "--n-max", "10"),
    # wide range, bound pairs with a lower-root alternate and unbound cells
    "spectrum_pseudospin_wide": ("--symmetry", "pseudospin", "--M", "0.92",
                                 "--omega0", "0.13", "--C", "-39.1",
                                 "--eps", WIDE_EPS, "--n-max", "10"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(GOLDEN_SPECTRA))
def test_spectrum_output_matches_golden_bytes(capsys, name, fmt):
    """tests/data holds the output captured before spectrum_grid was batched."""
    code, out, _ = run_cli(capsys, "spectrum", *GOLDEN_SPECTRA[name], "--format", fmt)
    assert code == 0
    assert out.encode("ascii") == (DATA / f"{name}.{fmt}").read_bytes()


def spectrum_rows(sym, n, **params):
    p = ModelParams(sym=sym, **params)
    return [dict(zip(_SPECTRUM_COLUMNS, _spectrum_row(p, solve_level(p, n))))]


SPECTRUM_CELL = st.one_of(st.none(), st.integers(), st.floats(), st.text())


@settings(max_examples=50, deadline=None)
@given(rows=st.lists(st.fixed_dictionaries(dict.fromkeys(_SPECTRUM_COLUMNS, SPECTRUM_CELL)),
                     max_size=4))
@example(rows=[])  # spectrum --eps ","
# null E and residual: an unbound pseudospin cell of spectrum_pseudospin_wide
@example(rows=spectrum_rows(SymmetryKind.PSEUDOSPIN, 10, M=0.92, omega0=0.13, eps=5.0, C=-39.1))
# a Bound spin level on the gamma = 0 edge has residual nan
@example(rows=spectrum_rows(SymmetryKind.SPIN, 27, M=2.1611926340449954,
                            omega0=0.005491207480256318, q=2.0, eps=45.04372438439045,
                            C=-281.6172466686213))
def test_spectrum_json_writer_matches_indented_dumps(rows):
    """spectrum --format json writes its rows through the C encoder; the bytes
    are those of the pure-Python indent=2 encoder."""
    assert _json_rows(rows) == json.dumps({"rows": rows}, indent=2)


GOLDEN_COMMANDS = {
    "verify.txt": ("verify",),
    "verify.json": ("verify", "--format", "json"),
    "figure2.csv": ("figure2", "--M", "1.5", "--omega0-inv", "2.4"),
    "nu_check.json": ("nu-check",),
    "potential.csv": ("potential", "--M", "1.5", "--omega0", "0.4", "--eps", "1"),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_COMMANDS))
def test_command_output_matches_golden_bytes(capsys, name):
    """tests/data holds the output captured while every command imported
    NumPy and all of hostark up front."""
    code, out, _ = run_cli(capsys, *GOLDEN_COMMANDS[name])
    assert code == 0
    assert out.encode("ascii") == (DATA / name).read_bytes()


@pytest.mark.parametrize("command", ["", "spectrum", "potential", "figure2",
                                     "wavefunction", "nu-check", "verify"])
def test_help_matches_golden_bytes(capsys, monkeypatch, command):
    """tests/data holds each --help text at 80 columns, captured while every
    subcommand declared its own --output."""
    monkeypatch.setenv("COLUMNS", "80")
    argv = [command, "--help"] if command else ["--help"]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode("ascii") == (DATA / f"help_{command or 'hostark'}.txt").read_bytes()


GOLDEN_WAVEFUNCTIONS = {
    # a well at r0 = 22.9, where the printed |F|^2 overflowed (the centred
    # envelope peaks at 1); 400 samples: the last interval takes the even-N
    # correction
    "F": ("--n", "3", "--M", "4.0638", "--omega0", "0.08247", "--eps", "1.2905",
          "--C", "-36.985", "--samples", "400"),
    # the LOWER_G grid starts at r = 1e-8
    "G": ("--M", "1.5", "--omega0-inv", "2.4", "--eps", "0.5", "--C", "2.0",
          "--n", "1", "--samples", "301"),
    "R": ("--M", "1.5", "--omega0-inv", "2.4", "--eps", "1.0", "--n", "3",
          "--samples", "250"),
    "Gps": ("--M", "1.5", "--omega0-inv", "2.4", "--C", "-10.3", "--eps", "0.5",
            "--n", "1", "--samples", "301"),
}


@pytest.mark.parametrize("kind", sorted(GOLDEN_WAVEFUNCTIONS))
def test_wavefunction_output_matches_golden_bytes(capsys, kind):
    """tests/data holds the output normalized by sample_radial's uniform
    Simpson weights (the Gps bytes are the same under SciPy's rule), G from
    the closed-form dF/dr."""
    code, out, _ = run_cli(capsys, "wavefunction", "--kind", kind,
                           *GOLDEN_WAVEFUNCTIONS[kind])
    assert code == 0
    assert out.encode("ascii") == (DATA / f"wavefunction_{kind}.csv").read_bytes()


# sha256 of the stdout of 20,001-sample runs, which sample_radial works through
# in several blocks (the golden files above are one block each)
MULTI_BLOCK_WAVEFUNCTIONS = {
    "F": "7884f89ff3b486c554ce831004be87b13de360fe9c58828e430f5659c39bd412",
    "G": "e41f7f9c45f378d64a8c7f98cc829e08b9a7e72c0632059e60cd966dd74f221f",
    "R": "56102b2311ae5462fc26ddbbb1029bf936f266cc459f9dce1a4fd13cf0cfab3f",
    "Gps": "b3eaeb0950bb5339f786c7cfd69980ebc462a465a749c24cd72a49f8f06b15fb",
}


@pytest.mark.parametrize("kind", sorted(MULTI_BLOCK_WAVEFUNCTIONS))
def test_multi_block_wavefunction_output_is_pinned(capsys, kind):
    code, out, _ = run_cli(capsys, "wavefunction", "--kind", kind, "--M", "1.5",
                           "--omega0", "0.4", "--eps", "0.5", "--C", "-10.3", "--n", "3",
                           "--samples", "20001")
    assert code == 0
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == MULTI_BLOCK_WAVEFUNCTIONS[kind]


NO_SCIPY_SCRIPT = """
import sys
import hostark, hostark.cli
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
assert not loaded, loaded
sys.modules["scipy"] = None  # any later `import scipy...` raises ImportError
for argv in (["verify"], ["wavefunction", "--kind", "G", "--M", "1.5",
                          "--omega0-inv", "2.4", "--eps", "0.5", "--n", "1"]):
    code = hostark.cli.main(argv)
    assert code == 0, (argv, code)
"""


def run_fresh(script):
    """Run script in a new interpreter that imports hostark from src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_runtime_needs_no_scipy():
    run_fresh(NO_SCIPY_SCRIPT)


BLAS_THREADS_SCRIPT = """
import os, sys
import hostark.cli
os.environ.pop("OPENBLAS_NUM_THREADS", None)
if PRESET is not None:
    os.environ["OPENBLAS_NUM_THREADS"] = PRESET
if NUMPY_FIRST:
    import numpy
assert "numpy" in sys.modules if NUMPY_FIRST else "numpy" not in sys.modules
code = hostark.cli.main(["wavefunction", "--kind", "F", "--M", "1.5", "--omega0", "0.4",
                         "--n", "0", "--samples", "5", "--output", os.devnull])
assert code == 0, code
assert os.environ.get("OPENBLAS_NUM_THREADS") == EXPECT, os.environ.get("OPENBLAS_NUM_THREADS")
"""


@pytest.mark.parametrize("preset, numpy_first, expect", [(None, False, "1"), ("3", False, "3"),
                                                         (None, True, None)],
                         ids=["unset", "preset", "numpy-first"])
def test_wavefunction_caps_an_unset_blas_pool(preset, numpy_first, expect):
    """wavefunction sets OPENBLAS_NUM_THREADS=1 before it first imports NumPy
    (no kernel calls BLAS); a value already set wins, and a process that has
    NumPy loaded keeps its environment."""
    run_fresh(f"PRESET, NUMPY_FIRST, EXPECT = {preset!r}, {numpy_first!r}, {expect!r}\n"
              + BLAS_THREADS_SCRIPT)


# the names `hostark` exported when its __init__ imported every submodule,
# less the removed combined_potential, assoc_laguerre and hermite
EXPORTS = {
    "model": "DerivedConstants ModelParams SymmetryKind derived_constants "
             "eval_potential potential_curve",
    "nu": "NoAdmissibleBranch NonPolynomialRoot NuError NuReduction Poly2 "
          "inverted_oscillator_instance oscillator_instance quantize reduce",
    "reference": "ComparisonReport ReferenceTable TableId UnknownTable compare "
                 "load_reference",
    "spectra": "BreakdownScan ChannelScalars CubicCoefficients CubicMethod CubicSolution "
               "DegenerateCubic EnergyLevel Equation NoSignChange Status bisection_oracle "
               "cubic_coefficients nr_pseudospin_level nr_spin_level "
               "pseudospin_breakdown_threshold relativistic_ho_level "
               "select_physical_root solve_cubic_cardano solve_level spectrum_grid",
    "wavefunctions": "ConstantsUndefined RadialFunction RadialKind ShapeConstants "
                     "SingularAtOrigin count_nodes g_deviation_report "
                     "lower_spinor_G lower_spinor_G_closed_form mean_radius "
                     "nr_radial_R pseudo_lower_G sample_radial "
                     "shape_constants upper_spinor_F",
}

IMPORT_FOOTPRINT_SCRIPT = """
import sys
import hostark, hostark.cli
loaded = [m for m in ("numpy", "hostark._grid", "hostark.wavefunctions", "hashlib")
          if m in sys.modules]
assert not loaded, loaded
sys.modules["numpy"] = None  # any `import numpy` raises ImportError
spectrum = ["spectrum", "--symmetry", "pseudospin", "--M", "1.5", "--omega0", "0.4",
            "--C=-10.3", "--eps", "0,0.5,2", "--n-max", "3"]
for argv in (["verify"], ["figure2", "--M", "1.5", "--omega0", "0.4"], ["nu-check"],
             spectrum, spectrum + ["--format", "json"],
             ["spectrum", "--symmetry", "spin", "--M", "1.5", "--omega0", "0.4",
              "--eps", "0,0.5,2", "--format", "json"],
             ["potential", "--M", "1.5", "--omega0", "0.4", "--eps", "2"]):
    code = hostark.cli.main(argv)
    assert code == 0, (argv, code)
assert "hostark._grid" not in sys.modules
del sys.modules["numpy"]
for module, names in EXPORTS.items():
    assert module in dir(hostark), module
    for name in names.split():
        assert name in dir(hostark), name
        assert getattr(hostark, name) is getattr(getattr(hostark, module), name), name
"""


def test_input_errors_are_value_errors():
    """cli.main maps ValueError, and only it, to exit code 2: every input
    error of the library is one, a corrupted install is not."""
    import hostark
    from hostark import model
    from hostark.reference import IntegrityError

    for name in ("NoSignChange", "DegenerateCubic", "UnknownTable", "NuError",
                 "SingularAtOrigin", "ConstantsUndefined"):
        assert issubclass(getattr(hostark, name), ValueError), name
    assert not issubclass(IntegrityError, ValueError)
    assert not [v for v in vars(model).values()
                if isinstance(v, type) and issubclass(v, BaseException)]


def test_dir_lists_the_exports_not_yet_loaded(monkeypatch):
    import hostark

    for name in hostark.__all__:  # as before any export is first read
        monkeypatch.delitem(vars(hostark), name, raising=False)
    listed = dir(hostark)
    assert listed == sorted(listed)
    assert set(hostark.__all__) | {"__version__"} <= set(listed)


def test_cli_imports_numpy_only_where_used():
    """import hostark, hostark.cli loads no NumPy and no hashlib, every
    command but wavefunction runs without NumPy (spectrum without the batch
    route hostark._grid), and every exported name resolves lazily to its
    submodule's."""
    run_fresh(f"EXPORTS = {EXPORTS!r}\n" + IMPORT_FOOTPRINT_SCRIPT)
