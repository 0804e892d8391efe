"""The defect ledger: each known defect, counted over a committed recipe.

Every entry draws its inputs from a seeded random.Random in the order its
docstring gives, so its counts move only when the program does.  Run the
whole ledger at full size, which prints one JSON object, with

    PYTHONPATH=src:tests python -m ledger

tests/test_ledger.py recomputes each entry on SUBSET, which still shows every
defect that exists today, and holds each count to its pin in PINS.  The pins
only go down: a change that lowers a count lowers its pin and says so in
CHANGES.md, and no change raises one.
"""

import json
import math
import random

from hostark.model import ModelParams, SymmetryKind
from hostark.spectra import Equation, Status, bisection_oracle, solve_level
from hostark.wavefunctions import ConstantsUndefined, RadialKind, sample_radial

CHANNELS = {"spin": SymmetryKind.SPIN, "pseudospin": SymmetryKind.PSEUDOSPIN}
SAMPLED_KINDS = {"spin": (RadialKind.UPPER_F, RadialKind.LOWER_G),
                 "pseudospin": (RadialKind.PSEUDO_LOWER_G,)}

# draws per channel of each entry: at full size, and on the tier-1 subset
FULL = {"sampling_failures": 600, "level_defects": 20_000}
SUBSET = {"sampling_failures": 600, "level_defects": 4_000}

# (entry, channel, count) -> the largest count the tier-1 subset may show; a
# count not listed here is pinned at 0, and "bound", the denominator, is not
# pinned.  At full size: the same sampling counts, and spin 1,366 nan residuals,
# 278 residuals above 1e-9 and 1,470 levels with m1 <= 0, pseudospin 5 residuals
# above 1e-9, of 20,000 and 4,334 Bound levels.
PINS = {
    ("sampling_failures", "spin", "m1 <= 0"): 12,
    ("sampling_failures", "spin", "UpperF: ConstantsUndefined (m1 <= 0)"): 12,
    ("sampling_failures", "spin", "LowerG: ConstantsUndefined (m1 <= 0)"): 12,
    ("level_defects", "spin", "nan residual"): 284,
    ("level_defects", "spin", "residual above 1e-9"): 59,
    ("level_defects", "spin", "m1 <= 0"): 309,
    ("level_defects", "pseudospin", "residual above 1e-9"): 1,
}


def _m1(p: ModelParams, E: float) -> float:
    """The margin E - kappa M - C, where the shape constants need m1 > 0."""
    return E - p.kappa * p.M - p.C


def sampling_draws(count: int):
    """{channel: [(params, n)]}: one random.Random(11) draws FULL's spin
    inputs, then as many pseudospin ones, each in this order:
    M = 10^U(-1, 1), omega0 = 10^U(log10 0.05, log10 5), eps = U(0, 60),
    C = U(-1000, 1000), n = randint(0, 4); q = 1.  The first count of each
    channel are kept, so a subset takes the same draws as the full run."""
    rng, draws = random.Random(11), {}
    for channel, sym in CHANNELS.items():
        draws[channel] = []
        for _ in range(FULL["sampling_failures"]):
            M = 10 ** rng.uniform(-1, 1)
            omega0 = 10 ** rng.uniform(math.log10(0.05), math.log10(5))
            eps, C, n = rng.uniform(0, 60), rng.uniform(-1000, 1000), rng.randint(0, 4)
            draws[channel].append((ModelParams(M=M, omega0=omega0, eps=eps, C=C, sym=sym), n))
        draws[channel] = draws[channel][:count]
    return draws


def _cause(exc: ValueError, m1: float) -> str:
    if "non-finite samples" in str(exc):
        return "overflow"
    if isinstance(exc, ConstantsUndefined) and m1 <= 0.0:
        return "ConstantsUndefined (m1 <= 0)"
    return type(exc).__name__


def sampling_failures(count: int) -> dict:
    """sample_radial failures on Bound levels, per kind and cause.

    Each Bound level of sampling_draws is sampled at 501 samples: spin
    levels as UpperF and LowerG, pseudospin levels as PseudoLowerG.  A
    failure's cause is "overflow" (non-finite samples), "ConstantsUndefined
    (m1 <= 0)", or the type of any other ValueError.  Per channel, also the
    number of Bound levels and of those with m1 <= 0."""
    out = {}
    for channel, draws in sampling_draws(count).items():
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


def level_draws(sym: SymmetryKind, count: int):
    """count (params, n) of the extreme ranges, from random.Random(7) for
    each channel, in this order: M = 10^U(-1, 2),
    omega0 = 10^U(log10 0.005, log10 50), eps = U(0, 60), C = U(-1000, 1000),
    q = choice((1, -1, 0.5, 2)), n = randint(0, 30)."""
    rng = random.Random(7)
    for _ in range(count):
        M = 10 ** rng.uniform(-1, 2)
        omega0 = 10 ** rng.uniform(math.log10(0.005), math.log10(50))
        eps, C = rng.uniform(0, 60), rng.uniform(-1000, 1000)
        q, n = rng.choice((1, -1, 0.5, 2)), rng.randint(0, 30)
        yield ModelParams(M=M, omega0=omega0, eps=eps, C=C, q=q, sym=sym), n


def level_defects(count: int) -> dict:
    """Per channel, over the Bound levels of level_draws: wrong roots (the
    oracle finds no root, or one more than 1e-9 max(1, |E|) away), nan
    residuals, residuals above 1e-9, and levels with m1 <= 0, where the
    shape constants are undefined."""
    out = {}
    for channel, sym in CHANNELS.items():
        equation = Equation.SPIN_EQ if sym is SymmetryKind.SPIN else Equation.PSEUDOSPIN_EQ
        counts = dict.fromkeys(("bound", "wrong root", "nan residual",
                                "residual above 1e-9", "m1 <= 0"), 0)
        for p, n in level_draws(sym, count):
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


ENTRIES = {"sampling_failures": sampling_failures, "level_defects": level_defects}


def ledger(sizes: dict) -> dict:
    """{entry: {channel: counts}} with sizes[entry] draws per channel."""
    return {name: entry(sizes[name]) for name, entry in ENTRIES.items()}


if __name__ == "__main__":
    print(json.dumps(ledger(FULL), indent=2))
