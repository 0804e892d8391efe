"""The defect ledger: each known defect, counted over a committed recipe.

Every entry draws its inputs from a seeded random.Random in the order its
docstring gives, or takes the one input its docstring names, so its counts
move only when the program does.  Run the whole ledger, which prints one
JSON object, with

    PYTHONPATH=src:tests python -m ledger

tests/test_ledger.py recomputes the whole ledger and holds each count to its
pin in PINS.  The pins only go down: a change that lowers a count lowers its
pin and says so in CHANGES.md, and no change raises one.
"""

import json
import math
import random

import mpmath

from hostark.model import ModelParams, SymmetryKind
from hostark.spectra import Equation, Status, bisection_oracle, solve_level
from hostark.wavefunctions import (ConstantsUndefined, RadialKind, default_r_max,
                                   sample_radial, shape_constants)

CHANNELS = {"spin": SymmetryKind.SPIN, "pseudospin": SymmetryKind.PSEUDOSPIN}
SAMPLED_KINDS = {"spin": (RadialKind.UPPER_F, RadialKind.LOWER_G),
                 "pseudospin": (RadialKind.PSEUDO_LOWER_G,)}

# (entry, channel, count) -> the largest value the ledger may show; a count
# not listed here is pinned at 0, and "bound", the denominator, is not pinned
PINS = {
    ("sampling_failures", "spin", "m1 <= 0"): 12,
    ("sampling_failures", "spin", "UpperF: ConstantsUndefined (m1 <= 0)"): 12,
    ("sampling_failures", "spin", "LowerG: ConstantsUndefined (m1 <= 0)"): 12,
    ("level_defects", "spin", "nan residual"): 1366,
    ("level_defects", "spin", "residual above 1e-9"): 278,
    ("level_defects", "spin", "m1 <= 0"): 1470,
    ("level_defects", "pseudospin", "residual above 1e-9"): 5,
    ("lower_g_norm", "spin", "norm / exact"): 4.66e5,  # 465,053 measured
}


def _m1(p: ModelParams, E: float) -> float:
    """The margin E - kappa M - C, where the shape constants need m1 > 0."""
    return E - p.kappa * p.M - p.C


def sampling_draws():
    """{channel: [(params, n)]}: one random.Random(11) draws 600 spin inputs,
    then 600 pseudospin ones, each in this order: M = 10^U(-1, 1),
    omega0 = 10^U(log10 0.05, log10 5), eps = U(0, 60), C = U(-1000, 1000),
    n = randint(0, 4); q = 1."""
    rng, draws = random.Random(11), {}
    for channel, sym in CHANNELS.items():
        draws[channel] = []
        for _ in range(600):
            M = 10 ** rng.uniform(-1, 1)
            omega0 = 10 ** rng.uniform(math.log10(0.05), math.log10(5))
            eps, C, n = rng.uniform(0, 60), rng.uniform(-1000, 1000), rng.randint(0, 4)
            draws[channel].append((ModelParams(M=M, omega0=omega0, eps=eps, C=C, sym=sym), n))
    return draws


def _cause(exc: ValueError, m1: float) -> str:
    if "non-finite samples" in str(exc):
        return "overflow"
    if isinstance(exc, ConstantsUndefined) and m1 <= 0.0:
        return "ConstantsUndefined (m1 <= 0)"
    return type(exc).__name__


def sampling_failures() -> dict:
    """sample_radial failures on Bound levels, per kind and cause.

    Each Bound level of sampling_draws is sampled at 501 samples: spin
    levels as UpperF and LowerG, pseudospin levels as PseudoLowerG.  A
    failure's cause is "overflow" (non-finite samples), "ConstantsUndefined
    (m1 <= 0)", or the type of any other ValueError.  Per channel, also the
    number of Bound levels and of those with m1 <= 0."""
    out = {}
    for channel, draws in sampling_draws().items():
        counts = {"bound": 0, "m1 <= 0": 0}
        for p, n in draws:
            level = solve_level(p, n)
            if level.status is not Status.BOUND:
                continue
            m1 = _m1(p, level.E)
            counts["bound"] += 1
            counts["m1 <= 0"] += m1 <= 0.0
            for kind in SAMPLED_KINDS[channel]:
                try:
                    sample_radial(kind, p, n, samples=501)
                except ValueError as exc:
                    key = f"{kind.value}: {_cause(exc, m1)}"
                    counts[key] = counts.get(key, 0) + 1
        out[channel] = counts
    return out


def level_draws(sym: SymmetryKind):
    """20,000 (params, n) of the extreme ranges, from random.Random(7) for
    each channel, in this order: M = 10^U(-1, 2),
    omega0 = 10^U(log10 0.005, log10 50), eps = U(0, 60), C = U(-1000, 1000),
    q = choice((1, -1, 0.5, 2)), n = randint(0, 30)."""
    rng = random.Random(7)
    for _ in range(20_000):
        M = 10 ** rng.uniform(-1, 2)
        omega0 = 10 ** rng.uniform(math.log10(0.005), math.log10(50))
        eps, C = rng.uniform(0, 60), rng.uniform(-1000, 1000)
        q, n = rng.choice((1, -1, 0.5, 2)), rng.randint(0, 30)
        yield ModelParams(M=M, omega0=omega0, eps=eps, C=C, q=q, sym=sym), n


def level_defects() -> dict:
    """Per channel, over the Bound levels of level_draws: wrong roots (the
    oracle finds no root, or one more than 1e-9 max(1, |E|) away), nan
    residuals, residuals above 1e-9, and levels with m1 <= 0, where the
    shape constants are undefined."""
    out = {}
    for channel, sym in CHANNELS.items():
        equation = Equation.SPIN_EQ if sym is SymmetryKind.SPIN else Equation.PSEUDOSPIN_EQ
        counts = dict.fromkeys(("bound", "wrong root", "nan residual",
                                "residual above 1e-9", "m1 <= 0"), 0)
        for p, n in level_draws(sym):
            level = solve_level(p, n)
            if level.status is not Status.BOUND:
                continue
            E = level.E
            counts["bound"] += 1
            counts["nan residual"] += math.isnan(level.residual)
            counts["residual above 1e-9"] += abs(level.residual) > 1e-9
            counts["m1 <= 0"] += _m1(p, E) <= 0.0
            try:
                oracle = bisection_oracle(equation, p, n)
            except ValueError:
                oracle = math.nan
            counts["wrong root"] += not abs(oracle - E) <= 1e-9 * max(1.0, abs(E))
        out[channel] = counts
    return out


def lower_g_norm() -> dict:
    """The spin LOWER_G norm that sample_radial computes, over the exact
    integral of G^2 on the same [1e-8, r_max]: M = 1.5, omega0 = 0.4,
    eps = 0.5, C = -10.3, n = 1, 2,001 samples, unnormalized.  The exact
    integral is mpmath.quad at 20 digits, split at the decades from 1e-8, of
    G = d0 (F' - F/r) with F' by mpmath.diff and F the centred form
    exp(-eps1 u^2/(2 lambda^2)) L_n(eps2 u^2), u = lambda^2 r - b, at the
    float shape constants."""
    p, n = ModelParams(M=1.5, omega0=0.4, eps=0.5, C=-10.3), 1
    norm = sample_radial(RadialKind.LOWER_G, p, n, samples=2001, normalize=False).norm
    sc = shape_constants(p, solve_level(p, n).E)
    with mpmath.workdps(20):
        lam2 = mpmath.mpf(sc.lambda_scale) ** 2
        b, eps1, eps2, d0 = (mpmath.mpf(c) for c in (sc.b, sc.eps1, sc.eps2, sc.d0))

        def F(r):
            u = lam2 * r - b
            return mpmath.exp(-eps1 * u * u / (2 * lam2)) * mpmath.laguerre(n, 0, eps2 * u * u)

        ends = [mpmath.mpf(10) ** k for k in range(-8, 2)] + [mpmath.mpf(default_r_max(p))]
        exact = mpmath.quad(lambda r: (d0 * (mpmath.diff(F, r) - F(r) / r)) ** 2, ends)
    return {"spin": {"norm / exact": norm / float(exact)}}


ENTRIES = {"sampling_failures": sampling_failures, "level_defects": level_defects,
           "lower_g_norm": lower_g_norm}


def ledger() -> dict:
    """{entry: {channel: counts}} of every entry."""
    return {name: entry() for name, entry in ENTRIES.items()}


if __name__ == "__main__":
    print(json.dumps(ledger(), indent=2))
