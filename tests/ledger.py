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

import itertools
import json
import math
import random

import mpmath
import numpy as np

import referee

from hostark.model import ModelParams, SymmetryKind, _potential, derived_constants
from hostark.spectra import Equation, Status, bisection_oracle, nr_spin_level, solve_level
from hostark.wavefunctions import (ConstantsUndefined, RadialKind, default_r_max,
                                   nr_radial_R, sample_radial, shape_constants,
                                   upper_spinor_F)

CHANNELS = {"spin": SymmetryKind.SPIN, "pseudospin": SymmetryKind.PSEUDOSPIN}
SAMPLED_KINDS = {"spin": (RadialKind.UPPER_F, RadialKind.LOWER_G),
                 "pseudospin": (RadialKind.PSEUDO_LOWER_G,)}

# (entry, channel or kind, count) -> the largest value the ledger may show; a count
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
    # ulps from the 50-digit root, measured, rounded up to 3 digits
    ("oracle_ulps", "spin", "max ulps"): 19.1,  # 19.06 measured
    ("oracle_ulps", "spin", "p99 ulps"): 2.60,  # 2.592
    ("oracle_ulps", "pseudospin", "max ulps"): 2.32,  # 2.312
    ("oracle_ulps", "pseudospin", "p99 ulps"): 1.96,  # 1.958
    # the worst residual at each n, measured, rounded up to 3 digits
    ("radial_residuals", "NonRelR", "n = 0"): 8.66e-10,  # 8.650e-10 measured
    ("radial_residuals", "NonRelR", "n = 1"): 5.85e-10,  # 5.842e-10
    ("radial_residuals", "NonRelR", "n = 2"): 4.43e-10,  # 4.425e-10
    ("radial_residuals", "NonRelR", "n = 3"): 4.67e-10,  # 4.662e-10
    ("radial_residuals", "NonRelR", "n = 4"): 5.26e-10,  # 5.259e-10
    ("radial_residuals", "UpperF", "n = 0"): 2.18e-9,  # 2.172e-9
    ("radial_residuals", "UpperF", "n = 1"): 0.484,  # 0.4839, the printed F's miss
    ("radial_residuals", "UpperF", "n = 2"): 0.486,  # 0.4852
    ("radial_residuals", "UpperF", "n = 3"): 0.484,  # 0.4832
    ("radial_residuals", "UpperF", "n = 4"): 0.415,  # 0.4144
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


def oracle_ulps() -> dict:
    """Per channel, the forward error of bisection_oracle in ulps of its E,
    |E - referee.level| / ulp(E), over the Bound levels of every 40th spin
    and every 10th pseudospin draw of level_draws: the number of levels, the
    max, and the p99 (the nearest-rank 99th percentile)."""
    out = {}
    for channel, step in (("spin", 40), ("pseudospin", 10)):
        sym = CHANNELS[channel]
        equation = Equation.SPIN_EQ if sym is SymmetryKind.SPIN else Equation.PSEUDOSPIN_EQ
        ulps = []
        for p, n in itertools.islice(level_draws(sym), 0, None, step):
            if solve_level(p, n).status is Status.BOUND:
                E = bisection_oracle(equation, p, n)
                ulps.append(float(abs(mpmath.mpf(E) - referee.level(p, n))) / math.ulp(E))
        ulps.sort()
        out[channel] = {"bound": len(ulps), "max ulps": ulps[-1],
                        "p99 ulps": ulps[math.ceil(0.99 * len(ulps)) - 1]}
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


def certify_draws(seed, count, n_max):
    """count (spin parameters, n) from the certify workload's wide ranges, n <= n_max:
    one random.Random(seed) draws, in this order, M = U(0.1, 10),
    omega0 = U(0.05, 5), eps = U(0, 5), C = U(-40, 20), n = randrange(n_max + 1)."""
    rng = random.Random(seed)
    for _ in range(count):
        yield (ModelParams(M=rng.uniform(0.1, 10.0), omega0=rng.uniform(0.05, 5.0),
                           eps=rng.uniform(0.0, 5.0), C=rng.uniform(-40.0, 20.0)),
               rng.randrange(n_max + 1))


def bound_levels(draws):
    """The Bound levels among (params, n) draws, as (params, n, E, shape constants)."""
    for p, n in draws:
        level = solve_level(p, n)
        if level.status is Status.BOUND:
            yield p, n, level.E, shape_constants(p, level.E)


def edge_free(draws):
    """Draws whose gamma = E + M - C_s the float level fixes to 12 digits: at
    the gamma = 0 edge an ulp of E is a large part of gamma (one of the 100
    draws of radial_residuals has gamma = 6.8e-12 at E = 15.7), and F is
    built from that gamma."""
    return [(p, n, E, sc) for p, n, E, sc in draws if math.ulp(E) <= 1e-12 * (E + p.M - p.C)]


def envelope_width(sc):
    """1 / (lambda sqrt(eps1)), the width of F's Gaussian envelope."""
    return 1.0 / (sc.lambda_scale * math.sqrt(sc.eps1))


def fourth_order_residual(f, coeff, r0, width, n):
    """max |f'' - coeff(V) f| / max |coeff(V) f| at 41 points across
    +-3 sqrt(2n+1) widths about r0, f'' the 4th-order central difference of
    step 1e-3 width."""
    h = 1e-3 * width
    r = r0 + np.linspace(-3.0, 3.0, 41) * math.sqrt(2 * n + 1) * width
    d2 = (16.0 * (f(r + h) + f(r - h)) - (f(r + 2 * h) + f(r - 2 * h)) - 30.0 * f(r)) / (12 * h * h)
    rhs = coeff(r) * f(r)
    return float(np.max(np.abs(d2 - rhs)) / np.max(np.abs(rhs)))


def schrodinger_residual(p, n):
    """-R''/(2M) + V R = (w0 (n + 1/2) - g_shift) R, the equation of nr_radial_R."""
    E = nr_spin_level(p, n)
    return fourth_order_residual(
        lambda r: nr_radial_R(p, n, r),
        lambda r: 2.0 * p.M * (_potential(p.M, p.omega0, p.q, p.eps, r) - E),
        derived_constants(p).r0, 1.0 / math.sqrt(p.M * p.omega0), n)


def spin_equation_residual(p, n, E, sc):
    """F'' = gamma (M - E + V) F, gamma = E + M - C_s, the s-wave spin-limit
    equation whose oscillator condition is the level cubic."""
    gamma = E + p.M - p.C
    return fourth_order_residual(
        lambda r: upper_spinor_F(p, n, r, E),
        lambda r: gamma * (p.M - E + _potential(p.M, p.omega0, p.q, p.eps, r)),
        sc.b / sc.lambda_scale ** 2, envelope_width(sc), n)


def spin_equation_levels(n):
    """The edge-free Bound levels at n of the parameters of certify_draws(2026, 100, 0)."""
    return edge_free(bound_levels((p, n) for p, _ in certify_draws(2026, 100, 0)))


def radial_residuals() -> dict:
    """The worst radial-equation residual per kind and n = 0..4, each a
    fourth_order_residual (41 points) over the parameters of
    certify_draws(2026, 100, 0): NonRelR against its Schrodinger equation
    at all 100 (schrodinger_residual), UpperF against the spin equation at
    spin_equation_levels(n) (spin_equation_residual)."""
    params = [p for p, _ in certify_draws(2026, 100, 0)]
    out = {"NonRelR": {}, "UpperF": {}}
    for n in range(5):
        out["NonRelR"][f"n = {n}"] = max(schrodinger_residual(p, n) for p in params)
        out["UpperF"][f"n = {n}"] = max(
            spin_equation_residual(*level) for level in spin_equation_levels(n))
    return out


ENTRIES = {"sampling_failures": sampling_failures, "level_defects": level_defects,
           "oracle_ulps": oracle_ulps, "lower_g_norm": lower_g_norm,
           "radial_residuals": radial_residuals}


def ledger() -> dict:
    """{entry: {channel: counts}} of every entry."""
    return {name: entry() for name, entry in ENTRIES.items()}


if __name__ == "__main__":
    print(json.dumps(ledger(), indent=2))
