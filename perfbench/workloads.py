"""Seeded inputs, operations and correctness checks of the four workloads.

Every workload is a closed loop: one client, one operation in flight.  A
run draws a fixed pool of inputs from its seed before timing starts and
cycles through it; an output is checked as soon as its operation ends,
outside the timed work.  A check returns an outcome tag:

    "ok"          the output passed its check
    "rejected"    the program refused the input and the refusal is correct
    "error:<why>" the operation raised or exited unexpectedly (a failure)
    "wrong:<why>" the output failed its check (a failure)

Parameters come from the wide ranges M in [0.1, 10], omega0 in [0.05, 5],
eps in [0, 5], C in [-40, 20] (q = 1), in both symmetry limits.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import hostark
import hostark.cli
from hostark import model, spectra, wavefunctions

SPIN = model.SymmetryKind.SPIN
PSEUDOSPIN = model.SymmetryKind.PSEUDOSPIN

# Tolerances of the benchmark's own checks.
BOUNDARY_TOL = 1e-12  # relative slack on a sign condition, as the solver allows
ROOT_TOL = 1e-9       # relative: residual share, or half-width of a sign-change bracket
ORACLE_TOL = 1e-9     # relative agreement of the oracle and the cubic route
NORM_TOL = 1e-6       # |norm - 1| under composite Simpson on the returned grid
FORMULA_TOL = 1e-12   # relative, closed forms printed by potential / figure2

CLI_TIMEOUT_S = 120.0

# Checks call the library through these names, bound before a traced run
# rebinds the module attributes, so checking adds no spans.
solve_level = spectra.solve_level
reduce = hostark.nu.reduce


def draw_params(rng, sym, eps: float | None = None) -> model.ModelParams:
    return model.ModelParams(
        M=rng.uniform(0.1, 10.0),
        omega0=rng.uniform(0.05, 5.0),
        eps=rng.uniform(0.0, 5.0) if eps is None else eps,
        sym=sym,
        C=rng.uniform(-40.0, 20.0),
    )


# ---------------------------------------------------------------- own physics

def _condition(params: model.ModelParams, n: int, E: float):
    """Own evaluation of the unsquared condition at E.

    Returns (f, scale, margins): f is the residual written so that a root
    is a zero, scale the magnitude of its two terms, margins the two sign
    conditions (both must be > 0).  Outside the square-root domain f takes
    its limit at the domain edge.
    """
    k = 2 * n + 1
    w2 = params.M * params.omega0 ** 2
    gp = (params.q * params.eps) ** 2 / (2.0 * w2)
    if params.sym is SPIN:
        m1, m2 = E + params.M - params.C, E - params.M + gp
        if m1 <= 0.0:
            return -math.inf, math.inf, (m1, m2)
        term = k * math.sqrt(w2 / (2.0 * m1))
        return m2 - term, abs(m2) + term, (m1, m2)
    m1, m2 = E - params.M - params.C, -(E + params.M + gp)
    if m1 <= 0.0:
        return float(k), float(k), (m1, m2)
    term = m2 * math.sqrt(2.0 * m1 / w2)
    return k - term, k + abs(term), (m1, m2)


def bound_level_ok(params: model.ModelParams, n: int, E) -> bool:
    """Is E a finite root of the unsquared condition obeying its sign conditions?

    The root is accepted when the residual is within ROOT_TOL of the size
    of its terms, or when the residual changes sign within ROOT_TOL * max(1, |E|)
    of E (the well-conditioned certificate near a sign boundary, where the
    residual evaluated through E loses its digits).
    """
    if E is None or not math.isfinite(E):
        return False
    f, scale, margins = _condition(params, n, E)
    if any(m < -BOUNDARY_TOL * max(1.0, abs(E)) for m in margins):
        return False
    if abs(f) <= ROOT_TOL * scale:
        return True
    delta = ROOT_TOL * max(1.0, abs(E))
    lo = _condition(params, n, E - delta)[0]
    hi = _condition(params, n, E + delta)[0]
    return (lo <= 0.0 <= hi) or (hi <= 0.0 <= lo)


def level_outcome(params: model.ModelParams, n: int, level) -> str:
    if level.n != n:
        return "wrong:level index"
    if level.status is spectra.Status.BOUND and not bound_level_ok(params, n, level.E):
        return "wrong:energy"
    return "ok"


def simpson_norm(r, values) -> float:
    """Composite Simpson integral of |values|^2 over the (nonuniform) grid r.

    An odd sample count uses the nonuniform Simpson rule on interval pairs;
    an even one adds the last interval by the three-point end correction.
    """
    y = np.abs(np.asarray(values)) ** 2
    h = np.diff(np.asarray(r, dtype=float))
    m = len(y) if len(y) % 2 else len(y) - 1
    h0, h1 = h[0:m - 1:2], h[1:m - 1:2]
    hs = h0 + h1
    total = np.sum(hs / 6.0 * (y[0:m - 2:2] * (2.0 - h1 / h0)
                               + y[1:m - 1:2] * hs * hs / (h0 * h1)
                               + y[2:m:2] * (2.0 - h0 / h1)))
    if m < len(y):
        a, b = h[-2], h[-1]
        total += (y[-1] * (2 * b * b + 3 * a * b) / (6 * (a + b))
                  + y[-2] * (b * b + 3 * a * b) / (6 * a)
                  - y[-3] * b ** 3 / (6 * a * (a + b)))
    return float(total)


def radial_values_outcome(r, values, samples: int) -> str:
    values = np.asarray(values)
    if len(values) != samples or len(r) != samples:
        return "wrong:sample count"
    if not np.all(np.isfinite(values)):
        return "wrong:non-finite values"
    if abs(simpson_norm(r, values) - 1.0) > NORM_TOL:
        return "wrong:norm"
    return "ok"


# ---------------------------------------------------------------- workloads

@dataclass(frozen=True)
class Workload:
    pool: Callable[[Any], list]        # rng -> the run's inputs, drawn before timing
    run: Callable[[Any], Any]          # input -> output; expected exceptions returned
    check: Callable[[Any, Any], str]   # (input, output) -> outcome tag


def _pool_of(draw, size):
    return lambda rng: [draw(rng, i) for i in range(size)]


def _strata(rng, size):
    """One uniform draw from each of `size` equal strata of [0, 1), shuffled."""
    u = [(j + rng.random()) / size for j in range(size)]
    rng.shuffle(u)
    return u


def _draw_sweep(rng, i):
    sym = SPIN if i % 2 == 0 else PSEUDOSPIN
    params = draw_params(rng, sym, eps=0.0)
    eps_list = sorted(rng.uniform(0.0, 5.0) for _ in range(100))
    return params, eps_list


def _run_sweep(x):
    params, eps_list = x
    return hostark.spectra.spectrum_grid(params, 10, eps_list)


def _check_sweep(x, rows):
    params, eps_list = x
    if isinstance(rows, Exception):
        return f"error:{type(rows).__name__}"
    if len(rows) != 11 * len(eps_list):
        return "wrong:grid size"
    for i, (p, level) in enumerate(rows):
        n, j = divmod(i, len(eps_list))
        if p.eps != eps_list[j] or p.sym is not params.sym:
            return "wrong:grid order"
        tag = level_outcome(p, n, level)
        if tag != "ok":
            return tag
    return "ok"


def _draw_certify(rng, i):
    # One spin draw in four.  Every spin level is Bound and goes on to the
    # oracle; ~10% of pseudospin levels do.  At 1:1 the median operation sat
    # on the edge between solve-only and oracle operations and between the
    # oracle's own cost modes, and moved by up to 35% from seed to seed
    # (certify_mix_1to1.json); at 1:3 it lies inside the solve-only
    # operations, while the oracle still takes over half of the time and
    # sets ops_per_s and op_tail_ms.
    sym = SPIN if i % 4 == 0 else PSEUDOSPIN
    return draw_params(rng, sym), rng.randrange(30)


def _run_certify(x):
    params, n = x
    level = hostark.spectra.solve_level(params, n)
    if level.status is not spectra.Status.BOUND:
        return level, None
    eq = spectra.Equation.SPIN_EQ if params.sym is SPIN else spectra.Equation.PSEUDOSPIN_EQ
    try:
        return level, hostark.spectra.bisection_oracle(eq, params, n)
    except spectra.NoSignChange as exc:
        return level, exc


def _check_certify(x, out):
    params, n = x
    if isinstance(out, Exception):
        return f"error:{type(out).__name__}"
    level, oracle = out
    tag = level_outcome(params, n, level)
    if tag != "ok" or oracle is None:
        return tag
    if isinstance(oracle, spectra.NoSignChange):
        return "error:NoSignChange"
    if not abs(oracle - level.E) <= ORACLE_TOL * max(1.0, abs(level.E)):
        return "wrong:oracle disagrees"
    return "ok"


_RADIAL_SYM = {
    wavefunctions.RadialKind.UPPER_F: SPIN,
    wavefunctions.RadialKind.LOWER_G: SPIN,
    wavefunctions.RadialKind.NONREL_R: SPIN,
    wavefunctions.RadialKind.PSEUDO_LOWER_G: PSEUDOSPIN,
}


def _pool_radial(rng, size=1024):
    """The four kinds in turn, each with sample counts stratified over the log
    range, so every pool has the same mix of kinds and working-set sizes."""
    def inputs(kind):
        for u in _strata(rng, size // len(kinds)):
            samples = int(round(math.exp(math.log(1001) + u * math.log(100001 / 1001))))
            yield kind, draw_params(rng, _RADIAL_SYM[kind]), rng.randrange(11), samples

    kinds = list(wavefunctions.RadialKind)
    per_kind = [list(inputs(kind)) for kind in kinds]
    return [x for group in zip(*per_kind) for x in group]


def _run_radial(x):
    kind, params, n, samples = x
    try:
        return hostark.wavefunctions.sample_radial(kind, params, n, samples=samples)
    except wavefunctions.ConstantsUndefined as exc:
        return exc


def _check_radial(x, out):
    kind, params, n, samples = x
    if isinstance(out, wavefunctions.ConstantsUndefined):
        level = solve_level(params, n)
        return "rejected" if level.status is not spectra.Status.BOUND else \
            "error:ConstantsUndefined on a Bound level"
    if isinstance(out, Exception):
        return f"error:{type(out).__name__}"
    return radial_values_outcome(out.r, out.values, samples)


# ---- cli

CLI_MIX = ("spectrum", "spectrum-json", "verify", "wavefunction", "nu-check",
           "potential", "figure2")


def _num(x: float) -> str:
    return repr(float(x))


def _pool_cli(rng):
    """Each command of the mix once, in a seeded order."""
    kinds = list(CLI_MIX)
    rng.shuffle(kinds)
    return [_draw_cli(rng, kind) for kind in kinds]


def _draw_cli(rng, kind):
    if kind in ("spectrum", "spectrum-json"):
        sym = rng.choice((SPIN, PSEUDOSPIN))
        p = draw_params(rng, sym, eps=0.0)
        eps_list = sorted(rng.uniform(0.0, 5.0) for _ in range(100))
        argv = ["spectrum", "--symmetry", sym.value, "--M", _num(p.M),
                "--omega0", _num(p.omega0), "--C", _num(p.C), "--n-max", "10",
                "--eps", ",".join(map(_num, eps_list))]
        if kind == "spectrum-json":
            argv += ["--format", "json"]
        return kind, argv, (p, eps_list)
    if kind == "verify":
        return kind, ["verify"], None
    if kind == "nu-check":
        return kind, ["nu-check"], None
    p = draw_params(rng, SPIN)
    base = ["--M", _num(p.M), "--omega0", _num(p.omega0)]
    if kind == "wavefunction":
        # spin kinds only: every spin level is Bound, so exit code 0 is expected
        argv = ["wavefunction", "--kind", rng.choice(("F", "G", "R")),
                "--n", str(rng.randrange(11)), "--C", _num(p.C),
                "--eps", _num(p.eps)] + base
        return kind, argv, None
    if kind == "potential":
        return kind, ["potential", "--eps", _num(p.eps)] + base, p
    return kind, ["figure2"] + base, p


def cli_subprocess(argv) -> tuple[int, str]:
    """One `python -m hostark.cli` run; the environment carries PYTHONPATH."""
    try:
        proc = subprocess.run([sys.executable, "-m", "hostark.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              timeout=CLI_TIMEOUT_S, env=os.environ.copy())
    except subprocess.TimeoutExpired:
        return -1, ""
    return proc.returncode, proc.stdout.decode("ascii", "replace")


def cli_in_process(argv) -> tuple[int, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = hostark.cli.main(list(argv))
    return code, out.getvalue()


def _spectrum_outcome(rows, ctx) -> str:
    params, eps_list = ctx
    if len(rows) != 11 * len(eps_list):
        return "wrong:row count"
    for i, row in enumerate(rows):
        n, j = divmod(i, len(eps_list))
        p = model.ModelParams(M=params.M, omega0=params.omega0, eps=eps_list[j],
                              sym=params.sym, C=params.C)
        level = solve_level(p, n)
        E = None if row["E"] in ("", None) else float(row["E"])
        if (int(row["n"]) != n or float(row["eps"]) != eps_list[j]
                or row["status"] != level.status.value or E != level.E):
            return "wrong:spectrum row differs from solve_level"
    return "ok"


def _nu_check_outcome(payload) -> str:
    """Every printed branch must equal the in-process reduction of its instance."""
    instances = {"spin": hostark.nu.oscillator_instance(2.0, 4.0, 1.0),
                 "pseudospin": hostark.nu.inverted_oscillator_instance(1.0, 2.0, 0.5)}
    for channel, instance in instances.items():
        branches = reduce(*instance)
        printed = payload[channel]["branches"]
        if len(printed) != len(branches) or any(
                p["admissible"] != b.admissible or p["lambda"] != [complex(b.lambda_).real, complex(b.lambda_).imag]
                for p, b in zip(printed, branches)):
            return "wrong:nu-check differs from nu.reduce"
    return "ok"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= FORMULA_TOL * max(1.0, abs(a), abs(b))


def cli_outcome(kind, ctx, code, text) -> str:
    if code != 0:
        return f"wrong:exit code {code}"
    try:
        if kind == "spectrum":
            return _spectrum_outcome(list(csv.DictReader(io.StringIO(text))), ctx)
        if kind == "spectrum-json":
            return _spectrum_outcome(json.loads(text)["rows"], ctx)
        if kind == "verify":
            return "ok" if text.rstrip().endswith("verification passed") else "wrong:verify"
        if kind == "nu-check":
            return _nu_check_outcome(json.loads(text))
        rows = list(csv.DictReader(io.StringIO(text)))
        if kind == "wavefunction":
            r = [float(row["r"]) for row in rows]
            values = [complex(float(row["value_real"]), float(row["value_imag"])) for row in rows]
            return radial_values_outcome(r, values, 1001)
        if kind == "potential":
            w2 = ctx.M * ctx.omega0 ** 2
            ok = len(rows) == 600 and all(
                _close(float(row["V"]), 0.5 * w2 * float(row["r"]) ** 2 - ctx.eps * float(row["r"]))
                for row in rows)
            return "ok" if ok else "wrong:potential"
        eps_list = (0.0, 0.5, 1.0, 2.0)
        w0 = ctx.omega0
        ok = len(rows) == 44 and all(
            int(row["n"]) == i // 4 and float(row["eps"]) == eps_list[i % 4]
            and _close(float(row["E"]),
                       w0 * (i // 4 + 0.5) - eps_list[i % 4] ** 2 / (2.0 * ctx.M * w0 * w0))
            for i, row in enumerate(rows))
        return "ok" if ok else "wrong:figure2"
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"wrong:unparsable output ({type(exc).__name__})"


def _check_cli(x, out):
    kind, argv, ctx = x
    if isinstance(out, Exception):
        return f"error:{type(out).__name__}"
    return cli_outcome(kind, ctx, *out)


def make_workloads(in_process_cli: bool) -> dict[str, Workload]:
    """The four workloads; the traced run drives the CLI in-process."""
    cli_call = cli_in_process if in_process_cli else cli_subprocess
    return {
        "sweep": Workload(_pool_of(_draw_sweep, 64), _run_sweep, _check_sweep),
        "certify": Workload(_pool_of(_draw_certify, 4096), _run_certify, _check_certify),
        "radial": Workload(_pool_radial, _run_radial, _check_radial),
        "cli": Workload(_pool_cli, lambda x: cli_call(x[1]), _check_cli),
    }


def self_test() -> list[str]:
    """Feed a perturbed energy and a non-zero exit code through the checks.

    Returns the list of problems; empty when both are caught as failures.
    """
    problems = []
    params = model.ModelParams(M=1.5, omega0=1.0 / 2.4, eps=0.5, sym=PSEUDOSPIN, C=-10.3)
    level = solve_level(params, 0)
    if level_outcome(params, 0, level) != "ok":
        problems.append("the unperturbed table2 level fails its check")
    bumped = dataclasses.replace(level, E=level.E * (1.0 + 1e-6))
    if not level_outcome(params, 0, bumped).startswith("wrong:"):
        problems.append("a perturbed energy passes the check")
    if not cli_outcome("verify", None, 1, "verification passed\n").startswith("wrong:"):
        problems.append("a non-zero exit code passes the check")
    return problems
