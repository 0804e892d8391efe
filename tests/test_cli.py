import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hostark.cli import main
from hostark.model import ModelParams
from hostark.reference import TableId, load_reference
from hostark.spectra import nr_spin_level


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
        peak = max(abs(float(r["value_real"])) for r in rows)
        assert all(abs(float(r["value_imag"])) <= 1e-12 * peak for r in rows)

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


GOLDEN_WAVEFUNCTIONS = {
    # |F|^2 overflows, so sample_radial normalizes the peak-scaled samples;
    # 400 samples: the last interval takes the even-N correction
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
    """tests/data holds the output captured while SciPy's simpson normalized."""
    code, out, _ = run_cli(capsys, "wavefunction", "--kind", kind,
                           *GOLDEN_WAVEFUNCTIONS[kind])
    assert code == 0
    assert out.encode("ascii") == (DATA / f"wavefunction_{kind}.csv").read_bytes()


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


# the names `hostark` exported when its __init__ imported every submodule
EXPORTS = {
    "model": "DerivedConstants ModelParams SymmetryKind combined_potential "
             "derived_constants eval_potential potential_curve",
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
                     "SingularAtOrigin assoc_laguerre count_nodes g_deviation_report "
                     "hermite lower_spinor_G lower_spinor_G_closed_form mean_radius "
                     "nr_radial_R pseudo_lower_G realness_defect sample_radial "
                     "shape_constants upper_spinor_F",
}

IMPORT_FOOTPRINT_SCRIPT = """
import sys
import hostark, hostark.cli
loaded = [m for m in ("numpy", "hostark._grid", "hostark.wavefunctions", "hashlib")
          if m in sys.modules]
assert not loaded, loaded
sys.modules["numpy"] = None  # any `import numpy` raises ImportError
for argv in (["verify"], ["figure2", "--M", "1.5", "--omega0", "0.4"], ["nu-check"]):
    code = hostark.cli.main(argv)
    assert code == 0, (argv, code)
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


def test_cli_imports_numpy_only_where_used():
    """import hostark, hostark.cli loads no NumPy and no hashlib, the
    array-free commands run without NumPy, and every exported name resolves
    lazily to its submodule's."""
    run_fresh(f"EXPORTS = {EXPORTS!r}\n" + IMPORT_FOOTPRINT_SCRIPT)
