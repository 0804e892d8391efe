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

Only spectrum, potential and wavefunction load NumPy, when they run.  The
pure-math modules spectra and reference load with this one (perfbench's
traced run binds their functions after importing it); nu loads in nu-check.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import reference, spectra
from .model import ModelParams, SymmetryKind, _check_n, potential_curve


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
    if path in (None, "-"):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="ascii")


def _add_param_flags(p: argparse.ArgumentParser, with_C: bool = True) -> None:
    p.add_argument("--M", type=float, required=True, help="mass (pure number)")
    p.add_argument("--omega0", type=float, default=None,
                   help="oscillator frequency")
    p.add_argument("--omega0-inv", type=float, default=None, dest="omega0_inv",
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


_SPECTRUM_HEADER = ("symmetry,n,kappa,M,omega0,q,eps,C,E,residual,status,"
                    "root_alt1,root_alt2,discriminant_flag")


def _spectrum_row(params: ModelParams, level: spectra.EnergyLevel) -> dict:
    alts = [_fmt_root(a.value) for a in level.alternates[:2]]
    alts += [""] * (2 - len(alts))
    return {
        "symmetry": params.sym.value,
        "n": level.n,
        "kappa": level.kappa,
        "M": params.M,
        "omega0": params.omega0,
        "q": params.q,
        "eps": params.eps,
        "C": params.C,
        "E": level.E,
        "residual": level.residual,
        "status": level.status.value,
        "root_alt1": alts[0],
        "root_alt2": alts[1],
        "discriminant_flag": "CardanoComplexRegime" if level.cardano_complex_regime else "",
    }


def _cmd_spectrum(args) -> int:
    sym = SymmetryKind(args.symmetry)
    params = _params(args, sym, 0.0)
    rows = [
        _spectrum_row(p, level)
        for p, level in spectra.spectrum_grid(params, args.n_max, _eps_list(args.eps))
    ]
    if args.format == "json":
        _emit(json.dumps({"rows": rows}, indent=2) + "\n", args.output)
        return 0
    lines = [_SPECTRUM_HEADER] + [",".join(map(_cell, row.values())) for row in rows]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_potential(args) -> int:
    params = _params(args, SymmetryKind.SPIN, args.eps)
    curve = potential_curve(params, args.r_max, args.samples)
    lines = ["r,V"] + [f"{_fmt(r)},{_fmt(v)}" for r, v in curve]
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _cmd_figure2(args) -> int:
    _check_n(args.n_max, "n_max")
    lines = ["n,eps,E"]
    for n in range(args.n_max + 1):
        for eps in _eps_list(args.eps):
            params = _params(args, SymmetryKind.SPIN, eps)
            lines.append(f"{n},{_fmt(eps)},{_fmt(spectra.nr_spin_level(params, n))}")
    _emit("\n".join(lines) + "\n", args.output)
    return 0


# each --kind and its RadialKind member name (the member gives the channel)
_KINDS = {"F": "UPPER_F", "G": "LOWER_G", "R": "NONREL_R", "Gps": "PSEUDO_LOWER_G"}


def _cmd_wavefunction(args) -> int:
    from . import wavefunctions

    kind = wavefunctions.RadialKind[_KINDS[args.kind]]
    params = _params(args, kind.sym, args.eps)
    rf = wavefunctions.sample_radial(
        kind, params, args.n, r_max=args.r_max, samples=args.samples,
        normalize=args.normalize,
    )
    lines = ["kind,n,r,value_real,value_imag,normalized"]
    flag = "1" if rf.normalized else "0"
    for r, v in zip(rf.r, rf.values):
        z = complex(v)
        lines.append(
            f"{rf.kind.value},{rf.n},{_fmt(r)},{_fmt(z.real)},{_fmt(z.imag)},{flag}"
        )
    _emit("\n".join(lines) + "\n", args.output)
    return 0


def _complex_pair(z: complex) -> list[float]:
    z = complex(z)
    return [z.real, z.imag]


def _reduction_dump(sigma, sigma_tilde, tau_tilde, n_levels: int = 6) -> dict:
    from . import nu

    branches = []
    for b in nu.reduce(sigma, sigma_tilde, tau_tilde):
        branches.append({
            "branch": b.branch,
            "admissible": b.admissible,
            "pi": [_complex_pair(c) for c in b.pi.coeffs[:2]],
            "k": _complex_pair(b.k),
            "tau": [_complex_pair(c) for c in b.tau.coeffs[:2]],
            "tau_slope": _complex_pair(b.tau_slope),
            "lambda": _complex_pair(b.lambda_),
            "lambda_n": [_complex_pair(b.lambda_n(n)) for n in range(n_levels)],
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
    _emit(json.dumps(payload, indent=2) + "\n", args.output)
    return 0


# each --table choice but all, and its table, in the order all reports them
_VERIFY_TABLES = {
    "gev": reference.TableId.GEV_SEQUENCE,
    "table2": reference.TableId.TABLE2,
    "table1": reference.TableId.TABLE1,
}


def _breakdown_section() -> dict:
    params = ModelParams(M=1.5, omega0=1.0 / 2.4, sym=SymmetryKind.PSEUDOSPIN, C=-10.3)
    scan = spectra.pseudospin_breakdown_threshold(params, 0, eps_lo=1.5, eps_hi=2.5)
    return {
        "params": {"M": 1.5, "omega0": 1.0 / 2.4, "C_ps": -10.3, "n": 0},
        "scan_window": [scan.eps_lo, scan.eps_hi],
        "eps_discriminant_flip": scan.eps_discriminant,
        "eps_physical_root_loss": scan.eps_physical,
        "reference_breakdown_window": [1.81, 1.90],
    }


def _closed_form_variant_section() -> dict:
    level = spectra.relativistic_ho_level(1.0, 1.0, 0)
    variant = spectra.field_free_closed_form_variant(1.0, 0.0, 1.0, 0)
    return {
        "params": {"M": 1.0, "C_s": 0.0, "omega0": 1.0, "n": 0},
        "variant_value": _complex_pair(variant),
        "depressed_cubic_root": level,
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
        _emit(json.dumps(payload, indent=2) + "\n", args.output)
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
        _emit("\n".join(chunks) + "\n", args.output)
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
    p.add_argument("--n-max", type=int, default=10, dest="n_max")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("potential", help="sampled V(r) curve")
    _add_param_flags(p, with_C=False)
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--r-max", type=float, default=15.0, dest="r_max")
    p.add_argument("--samples", type=int, default=600)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_potential)

    p = sub.add_parser("figure2", help="nonrelativistic spin-branch ladder")
    _add_param_flags(p, with_C=False)
    p.add_argument("--eps", type=str, default="0,0.5,1.0,2.0",
                   help="comma-separated field strengths")
    p.add_argument("--n-max", type=int, default=10, dest="n_max")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_figure2)

    p = sub.add_parser("wavefunction", help="sampled radial component")
    _add_param_flags(p)
    p.add_argument("--kind", choices=sorted(_KINDS), required=True,
                   help="F/G: spin upper/lower, R: nonrelativistic, "
                        "Gps: pseudospin lower")
    p.add_argument("--eps", type=float, default=0.0)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r-max", type=float, default=None, dest="r_max")
    p.add_argument("--samples", type=int, default=1001)
    p.add_argument("--normalize", action=argparse.BooleanOptionalAction,
                   default=True)
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_wavefunction)

    p = sub.add_parser("nu-check", help="reduction table of built-in instances")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_nu_check)

    p = sub.add_parser("verify", help="compare against bundled reference tables")
    p.add_argument("--table", choices=[*_VERIFY_TABLES, "all"], default="all")
    p.add_argument("--tolerance", type=float, default=None)
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--output", default="-")
    p.set_defaults(func=_cmd_verify)

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
