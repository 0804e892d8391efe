"""Command-line surface: spectra, curves, wavefunctions, and verification.

Subcommands
-----------
spectrum      energy-level grid over n and field strengths (CSV or JSON)
potential     sampled V(r) curve, two-column gnuplot-ready CSV
figure2       nonrelativistic spin-branch ladder over n and field strengths
wavefunction  sampled radial component (CSV)
nu-check      reduction table of the built-in oscillator instances (JSON)
verify        compare solver output against the bundled reference tables

Exit codes: 0 success, 1 gating verification failure, 2 flag/parameter
errors.  Identical argv produces byte-identical output (fixed 17
significant-digit formatting, deterministic ordering).

Only wavefunction loads NumPy, when it runs.  spectrum checks its grid
with spectrum_grid's input rules and solves it cell by cell with the scalar
solve_level, equal to spectrum_grid's NumPy batch bit for bit; potential
prints the float rows that potential_curve is built from.  The pure-math
modules spectra and reference load with this one (perfbench's traced run
binds their functions after importing it); nu loads in nu-check.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import reference, spectra
from .model import ModelParams, SymmetryKind, _check_n, _potential_rows


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _cell(value) -> str:
    """One CSV cell: None is empty, str is as is, int is str, float is _fmt."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    return str(value) if isinstance(value, int) else _fmt(value)


def _fmt_root(z: complex) -> str:
    if z.imag == 0.0:
        return _fmt(z.real)
    return f"{z.real:.17g}{z.imag:+.17g}j"


def _emit(text: str, path: str | None) -> None:
    """text and a closing newline to stdout, or to the file at path."""
    if path in (None, "-"):
        sys.stdout.write(text + "\n")
    else:
        Path(path).write_text(text + "\n", encoding="ascii")


def _add_param_flags(p: argparse.ArgumentParser, with_C: bool = True) -> None:
    p.add_argument("--M", type=float, required=True, help="mass (pure number)")
    p.add_argument("--omega0", type=float, default=None,
                   help="oscillator frequency")
    p.add_argument("--omega0-inv", type=float, default=None,
                   help="set omega0 = 1/VALUE exactly (e.g. --omega0-inv 2.4)")
    p.add_argument("--q", type=float, default=1.0, help="charge (default 1)")
    if with_C:
        p.add_argument("--C", type=float, default=0.0,
                       help="symmetry constant (C_s or C_ps)")


def _resolve_omega0(args) -> float:
    if args.omega0 is not None and args.omega0_inv is not None:
        raise ValueError("give either --omega0 or --omega0-inv, not both")
    if args.omega0 is not None:
        return args.omega0
    if args.omega0_inv == 0.0:
        raise ValueError(f"--omega0-inv must be nonzero, got {args.omega0_inv}")
    if args.omega0_inv is not None:
        return 1.0 / args.omega0_inv
    raise ValueError("one of --omega0 / --omega0-inv is required")


def _eps_list(text: str) -> list[float]:
    try:
        return [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"cannot parse field-strength list {text!r}")


def _params(args, sym: SymmetryKind, eps: float) -> ModelParams:
    return ModelParams(M=args.M, omega0=_resolve_omega0(args), q=args.q,
                       eps=eps, sym=sym, C=getattr(args, "C", 0.0))


# the CSV header and the JSON keys of spectrum, in the order of _spectrum_row
_SPECTRUM_COLUMNS = ("symmetry", "n", "kappa", "M", "omega0", "q", "eps", "C", "E",
                     "residual", "status", "root_alt1", "root_alt2", "discriminant_flag")


def _spectrum_row(params: ModelParams, level: spectra.EnergyLevel) -> tuple:
    alts = [_fmt_root(a.value) for a in level.alternates[:2]]
    alts += [""] * (2 - len(alts))
    return (params.sym.value, level.n, level.kappa, params.M, params.omega0, params.q,
            params.eps, params.C, level.E, level.residual, level.status.value, *alts,
            "CardanoComplexRegime" if level.cardano_complex_regime else "")


# a row's compact form with newline and indent in its item separator is its
# json.dumps(..., indent=2) form, and the C encoder writes it
_json_row = json.JSONEncoder(separators=(",\n      ", ": ")).encode


def _json_rows(rows: list[dict]) -> str:
    """json.dumps({"rows": rows}, indent=2) for rows of flat dicts."""
    if not rows:
        return '{\n  "rows": []\n}'
    body = ",\n    ".join("{\n      " + _json_row(row)[1:-1] + "\n    }" for row in rows)
    return '{\n  "rows": [\n    ' + body + "\n  ]\n}"


def _cmd_spectrum(args) -> int:
    # the rows and errors of spectra.spectrum_grid, one cell at a time: the
    # batch saves less than its NumPy import costs below 5,500-8,800 cells
    params = _params(args, SymmetryKind(args.symmetry), 0.0)
    n_max, grid, _ = spectra._grid_inputs(params, args.n_max, _eps_list(args.eps))
    rows = [_spectrum_row(p, spectra.solve_level(p, n))
            for n in range(n_max + 1) for p in grid]
    if args.format == "json":
        _emit(_json_rows([dict(zip(_SPECTRUM_COLUMNS, row)) for row in rows]), args.output)
    else:
        _emit("\n".join(",".join(map(_cell, row)) for row in [_SPECTRUM_COLUMNS, *rows]),
              args.output)
    return 0


def _cmd_potential(args) -> int:
    params = _params(args, SymmetryKind.SPIN, args.eps)
    rows = _potential_rows(params, args.r_max, args.samples)
    lines = ["r,V"] + [f"{_fmt(r)},{_fmt(v)}" for r, v in rows]
    _emit("\n".join(lines), args.output)
    return 0


def _cmd_figure2(args) -> int:
    _check_n(args.n_max, "n_max")
    lines = ["n,eps,E"]
    for n in range(args.n_max + 1):
        for eps in _eps_list(args.eps):
            params = _params(args, SymmetryKind.SPIN, eps)
            lines.append(f"{n},{_fmt(eps)},{_fmt(spectra.nr_spin_level(params, n))}")
    _emit("\n".join(lines), args.output)
    return 0


# each --kind and its RadialKind member name (the member gives the channel)
_KINDS = {"F": "UPPER_F", "G": "LOWER_G", "R": "NONREL_R", "Gps": "PSEUDO_LOWER_G"}


def _cmd_wavefunction(args) -> int:
    if "numpy" not in sys.modules:
        # no hostark kernel calls BLAS, and an idle OpenBLAS worker spins for
        # ~0.1 s of CPU after import; a value the caller set wins
        os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    from . import wavefunctions

    kind = wavefunctions.RadialKind[_KINDS[args.kind]]
    params = _params(args, kind.sym, args.eps)
    rf = wavefunctions.sample_radial(
        kind, params, args.n, r_max=args.r_max, samples=args.samples,
        normalize=args.normalize,
    )
    lines = ["kind,n,r,value_real,value_imag,normalized"]
    flag = "1" if rf.normalized else "0"
    for r, v in zip(rf.r.tolist(), rf.values.tolist()):
        lines.append(f"{rf.kind.value},{rf.n},{_fmt(r)},{_fmt(v)},0,{flag}")
    _emit("\n".join(lines), args.output)
    return 0


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _reduction_dump(sigma, sigma_tilde, tau_tilde) -> dict:
    from . import nu

    branches = []
    for b in nu.reduce(sigma, sigma_tilde, tau_tilde):
        branches.append({
            "branch": b.branch,
            "admissible": b.admissible,
            "pi": [_complex_pair(c) for c in b.pi.coeffs[:2]],
            "k": _complex_pair(b.k),
            "tau": [_complex_pair(c) for c in b.tau.coeffs[:2]],
            "tau_slope": _complex_pair(b.tau.c1),
            "lambda": _complex_pair(b.lambda_),
            "lambda_n": [_complex_pair(b.lambda_n(n)) for n in range(6)],
        })
    return {
        "sigma": [_complex_pair(c) for c in sigma.coeffs],
        "sigma_tilde": [_complex_pair(c) for c in sigma_tilde.coeffs],
        "tau_tilde": [_complex_pair(c) for c in tau_tilde.coeffs],
        "branches": branches,
    }


def _cmd_nu_check(args) -> int:
    from . import nu

    payload = {
        "spin": _reduction_dump(*nu.oscillator_instance(2.0, 4.0, 1.0)),
        "pseudospin": _reduction_dump(*nu.inverted_oscillator_instance(1.0, 2.0, 0.5)),
    }
    _emit(json.dumps(payload, indent=2), args.output)
    return 0


# each --table choice but all, and its table, in the order all reports them
_VERIFY_TABLES = {
    "gev": reference.TableId.GEV_SEQUENCE,
    "table2": reference.TableId.TABLE2,
    "table1": reference.TableId.TABLE1,
}


def _breakdown_section() -> dict:
    n = 0
    params = ModelParams(M=reference.TABLE_PARAMS_M, omega0=reference.TABLE_PARAMS_OMEGA0,
                         sym=SymmetryKind.PSEUDOSPIN, C=-10.3)
    scan = spectra.pseudospin_breakdown_threshold(params, n, eps_lo=1.5, eps_hi=2.5)
    return {
        "params": {"M": params.M, "omega0": params.omega0, "C_ps": params.C, "n": n},
        "scan_window": [scan.eps_lo, scan.eps_hi],
        "eps_discriminant_flip": scan.eps_discriminant,
        "eps_physical_root_loss": scan.eps_physical,
        "reference_breakdown_window": [1.81, 1.90],
    }


def _closed_form_variant_section() -> dict:
    params, n = reference.GEV_PARAMS, 0
    variant = spectra.field_free_closed_form_variant(params.M, params.C, params.omega0, n)
    return {
        "params": {"M": params.M, "C_s": params.C, "omega0": params.omega0, "n": n},
        "variant_value": _complex_pair(variant),
        "depressed_cubic_root": spectra.solve_level(params, n).E,
        "note": ("the field-free closed-form variant is inconsistent with the "
                 "depressed-cubic route and is reported here only"),
    }


def _cmd_verify(args) -> int:
    everything = args.table == "all"
    ids = _VERIFY_TABLES.values() if everything else [_VERIFY_TABLES[args.table]]
    reports = [reference.compare(tid, args.tolerance) for tid in ids]
    failed = any(r.passed is False for r in reports)
    if everything:
        bd, cf = _breakdown_section(), _closed_form_variant_section()

    if args.format == "json":
        payload = {"reports": [r.to_json_dict() for r in reports]}
        if everything:
            payload.update(pseudospin_breakdown=bd, field_free_closed_form=cf)
        payload["passed"] = not failed
        _emit(json.dumps(payload, indent=2), args.output)
    else:
        chunks = [r.to_text() for r in reports]
        if everything:
            chunks.append(
                "pseudospin breakdown scan (M=1.5, omega0=1/2.4, C_ps=-10.3, n=0):\n"
                f"  discriminant flip at eps = {bd['eps_discriminant_flip']:.9f}\n"
                f"  physical-root loss at eps = {bd['eps_physical_root_loss']:.9f}\n"
                f"  scanned window {bd['scan_window']},"
                f" reference breakdown window {bd['reference_breakdown_window']}"
            )
            chunks.append(
                "field-free closed-form variant at (M=1, omega0=1, n=0):\n"
                f"  variant value {cf['variant_value'][0]:.7f}"
                f"{cf['variant_value'][1]:+.1e}j"
                f" vs depressed-cubic root {cf['depressed_cubic_root']:.7f}"
                " (inconsistent; reported only)"
            )
        chunks.append("verification " + ("FAILED" if failed else "passed"))
        _emit("\n".join(chunks), args.output)
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hostark",
        description=("s-wave Dirac bound states of a charged harmonic "
                     "oscillator in a uniform electric field"),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", help="energy-level grid")
    _add_param_flags(p)
    p.add_argument("--symmetry", choices=["spin", "pseudospin"], required=True)
    p.add_argument("--eps", type=str, default="0",
                   help="field strength or comma-separated list")
    p.add_argument("--n-max", type=int, default=10)
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("potential", help="sampled V(r) curve")
    _add_param_flags(p, with_C=False)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=15.0)
    p.add_argument("--samples", type=int, default=600)
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("figure2", help="nonrelativistic spin-branch ladder")
    _add_param_flags(p, with_C=False)
    p.add_argument("--eps", type=str, default="0,0.5,1.0,2.0",
                   help="comma-separated field strengths")
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("wavefunction", help="sampled radial component")
    _add_param_flags(p)
    p.add_argument("--kind", choices=sorted(_KINDS), required=True,
                   help="F/G: spin upper/lower, R: nonrelativistic, "
                        "Gps: pseudospin lower")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-max", type=float, default=None)
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                   default=True)
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("nu-check", help="reduction table of built-in instances")
    p.set_defaults(func=_cmd_nu_check)

    p = sub.add_parser("verify", help="compare against bundled reference tables")
    p.add_argument("--table", choices=[*_VERIFY_TABLES, "all"], default="all")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.set_defaults(func=_cmd_verify)

    for p in sub.choices.values():  # after the other flags, where each --help lists it
        p.add_argument("--output", default="-")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:  # every input error of the library is one
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
