"""Bound-state energy levels of the oscillator-plus-linear Dirac problem.

Both symmetry limits are one channel in kappa = params.kappa: spin
(kappa = -1, C = C_s) and pseudospin (kappa = +1, C = C_ps).  Squaring the
transcendental quantization condition turns it into the monic cubic

    (E - kappa M - C)(E + kappa M + g')^2 = R,
    g' = q^2 eps^2 / (2 M w0^2),     R = 2 M w0^2 (n + 1/2)^2,

so the pseudospin cubic is the image of the spin one under the mapping
E -> -E, C_s -> -C_ps, g' -> -g' with the squared right side sign-flipped.

The cubic is solved by reduction to a depressed cubic y^3 + d y = -e and the
substitution y = z - d/(3z), which turns it into a quadratic in z^3 with
constant p = -(d/3)^3.  When e^2 >= 4p the real cube-root formula applies
directly; when e^2 < 4p (three real roots, Cardano's intermediates turn
complex) a trigonometric fallback is used and the solution is flagged.  A
cubic that is not finite in float64 (B, C, D, d, e, p or a root) raises
ValueError.

Squaring introduces spurious roots, so a cubic root is physical only if the
sign-condition margins m1 = E - kappa M - C and m2 = -kappa (E + kappa M + g')
are positive and the unsquared condition holds:

    spin:        m2 = (2n+1) sqrt(M w0^2 / (2 m1)),
    pseudospin:  (2n+1) = m2 sqrt(2 m1 / (M w0^2)).

In the pseudospin case two cubic roots can satisfy all conditions (the
bound pair straddling the E = -(M + g') boundary and a near-boundary root
close to E = M + C_ps); the level tables this package reproduces follow the
upper root, so selection takes the largest surviving energy and reports the
rest as alternates.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass
from enum import Enum

from .model import ModelParams, SymmetryKind, _check_n, _stark_shift, derived_constants

_BOUNDARY_TOL = 1e-12


class DegenerateCubic(ValueError):
    """Leading cubic coefficient is zero."""


class NoSignChange(ValueError):
    """The residual does not change sign over the bracket."""


class Status(Enum):
    BOUND = "Bound"
    NO_PHYSICAL_ROOT = "NoPhysicalRoot"


class CubicMethod(Enum):
    CARDANO_REAL = "CardanoRealCubeRoot"
    TRIGONOMETRIC = "Trigonometric"


class Equation(Enum):
    """Unsquared transcendental conditions usable as bisection oracles."""

    SPIN_EQ = "spin"
    PSEUDOSPIN_EQ = "pseudospin"
    REL_HO = "relativistic-ho"


@dataclass(frozen=True)
class CubicCoefficients:
    """Cubic A E^3 + B E^2 + C E + D."""

    A: float
    B: float
    C: float
    D: float


@dataclass(frozen=True)
class CubicSolution:
    """Roots plus the depressed-cubic diagnostics (d, e, p)."""

    roots: tuple[complex, complex, complex]
    depressed: tuple[float, float]
    p: float
    cardano_real: bool
    method: CubicMethod


@dataclass(frozen=True)
class RejectedRoot:
    value: complex
    reason: str


@dataclass(frozen=True)
class ChannelScalars:
    """Derived channel scalars evaluated at the selected energy.

    gamma = -kappa (E - kappa M - C), alpha = gamma (M + kappa E),
    v = sqrt(M w0^2 gamma / 2) and beta = q eps gamma.  For the spin channel
    all four are real; for pseudospin, gamma < 0 for bound levels so v is
    imaginary and is kept complex.
    """

    gamma: complex
    alpha: complex
    v: complex
    beta: complex


@dataclass(frozen=True)
class EnergyLevel:
    n: int
    kappa: int
    status: Status
    E: float | None
    residual: float | None
    alternates: tuple[RejectedRoot, ...]
    cardano_complex_regime: bool
    boundary: bool = False
    diagnostics: ChannelScalars | None = None


def _power(x: float, k: int) -> float:
    """x ** k, with the infinity of its sign where Python raises OverflowError."""
    try:
        return x ** k
    except OverflowError:
        return math.copysign(math.inf, x) if k % 2 else math.inf


def _rhs_squared(M: float, omega0: float, n: int) -> float:
    return 2.0 * M * _power(omega0, 2) * _power(n + 0.5, 2)


def _level_bcd(kappa: int, M, C, gp, R):
    """B, C, D of (E + a)(E + g)^2 - R expanded, with a = -kappa M - C and
    g = g' + kappa M: the monic level cubic (floats or arrays)."""
    a, g = -kappa * M - C, gp + kappa * M
    return (a + 2.0 * g, g * (g + 2.0 * a), g * g * a - R)


def cubic_coefficients(params: ModelParams, n: int) -> CubicCoefficients:
    """Monic cubic whose roots contain the level-n energy."""
    n = _check_n(n)
    gp = _stark_shift(params.M, params.omega0, params.q, params.eps)
    B, C, D = _level_bcd(params.kappa, params.M, params.C, gp,
                         _rhs_squared(params.M, params.omega0, n))
    return CubicCoefficients(1.0, B, C, D)


def _depressed(B, C, D):
    """(d, e) of the depressed cubic y^3 + d y + e, E = y - B/3, of the monic
    cubic (floats or arrays)."""
    return C - B * B / 3.0, D + B * (2.0 * B * B - 9.0 * C) / 27.0


def _deflate(y1, B, C):
    """The root e1 = y1 - B/3 and the quadratic E^2 + b1 E + b2 it leaves of
    the monic cubic, as (e1, b1, b1^2 - 4 b2) (floats or arrays)."""
    e1 = y1 - B / 3.0
    b1 = B + e1
    b2 = C + b1 * e1
    return e1, b1, b1 * b1 - 4.0 * b2


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def _polish(root: complex, B: float, C: float, D: float) -> complex:
    """A few Newton steps on the monic cubic; keeps real roots real."""
    is_real = root.imag == 0.0
    z = root.real if is_real else root
    for _ in range(4):
        f = ((z + B) * z + C) * z + D
        fp = (3.0 * z + 2.0 * B) * z + C
        if abs(fp) < 1e-300:
            break
        step = f / fp
        if abs(step) < 1e-18 * max(1.0, abs(z)):
            break
        z = z - step
    return complex(z)


def _cubic_roots(B: float, C: float, D: float):
    """solve_cubic_cardano on plain floats: (sorted roots, d, e, p, cardano_real)."""
    d, e = _depressed(B, C, D)
    p = -_power(d / 3.0, 3)
    cardano_real = e * e >= 4.0 * p

    if cardano_real:
        if d == 0.0:
            y1 = _cbrt(-e)
        else:
            s = math.sqrt(max(e * e - 4.0 * p, 0.0))
            # larger-magnitude branch avoids cancellation (nonzero since d != 0)
            z3 = -e / 2.0 - s / 2.0 if e > 0.0 else -e / 2.0 + s / 2.0
            z = _cbrt(z3)
            y1 = z - d / (3.0 * z)
        e1, b1, disc = _deflate(y1, B, C)
        if disc >= 0.0:
            sq = math.sqrt(disc)
            pair = (complex((-b1 + sq) / 2.0), complex((-b1 - sq) / 2.0))
        else:
            sq = math.sqrt(-disc)
            pair = (complex(-b1 / 2.0, sq / 2.0), complex(-b1 / 2.0, -sq / 2.0))
        roots = (complex(e1),) + pair
    else:
        # e^2 < 4p forces p > 0, hence d < 0
        u = math.sqrt(-d / 3.0)
        arg = min(1.0, max(-1.0, -e / (2.0 * _power(u, 3))))
        theta = math.acos(arg) / 3.0
        roots = tuple(
            complex(2.0 * u * math.cos(theta - 2.0 * math.pi * k / 3.0) - B / 3.0)
            for k in range(3)
        )

    polished = tuple(sorted((_polish(r, B, C, D) for r in roots),
                            key=lambda z: (z.real, z.imag)))
    if not all(map(math.isfinite, (B, C, D, d, e, p))) or not all(
            map(cmath.isfinite, polished)):
        raise ValueError(
            f"the level cubic is not finite in float64: B={B!r}, C={C!r}, D={D!r}")
    return polished, d, e, p, cardano_real


def solve_cubic_cardano(c: CubicCoefficients) -> CubicSolution:
    """All three roots of the cubic with discriminant-regime bookkeeping.

    e^2 >= 4p: the real cube-root expression gives one root, the other two
    come from deflation.  e^2 < 4p: three real roots via the trigonometric
    form, flagged as the complex-intermediate regime.
    """
    if c.A == 0:
        raise DegenerateCubic("leading coefficient is zero")
    roots, d, e, p, cardano_real = _cubic_roots(c.B / c.A, c.C / c.A, c.D / c.A)
    method = CubicMethod.CARDANO_REAL if cardano_real else CubicMethod.TRIGONOMETRIC
    return CubicSolution(roots, (d, e), p, cardano_real, method)


def _margins(kappa: int, E, M, C, gp):
    """The two sign-condition margins, both > 0 for a physical root (floats or arrays)."""
    return E - kappa * M - C, -kappa * (E + kappa * M + gp)


def _edges(kappa: int, M: float, C: float, gp: float) -> tuple[float, float]:
    """The energies (kappa M + C, -kappa M - g') where the two margins vanish."""
    return kappa * M + C, -kappa * M - gp


def _condition(kappa: int, k, m1, m2, w2: float, sqrt=math.sqrt):
    """The unsquared condition of level (k - 1)/2 in the sign-condition
    margins m1, m2 (w2 = M w0^2), zero at a level: on floats by default, on
    arrays with NumPy's sqrt."""
    if kappa < 0:
        return m2 - k * sqrt(w2 / (2.0 * m1))
    return k - m2 * sqrt(2.0 * m1 / w2)


def _residual(kappa: int, k: int, M: float, C: float, gp: float, w2: float,
              below: float = math.nan, lo: float = -math.inf):
    """_condition as a function of E, nan outside its domain; the spin
    residual reads below on and under its gamma = 0 edge, and on and under
    lo, instead.  The oracle's bisection calls it once per evaluation, so it
    writes the margins out and precomputes kappa M."""
    kM = kappa * M
    if kappa < 0:
        def f(E):
            m1 = E - kM - C
            if E <= lo or m1 <= 0.0:
                return below
            return _condition(kappa, k, m1, E + kM + gp, w2)
    else:
        def f(E):
            m1 = E - kM - C
            if m1 < 0.0:
                return math.nan
            return _condition(kappa, k, m1, -(E + kM + gp), w2)
    return f


def _relho_residual(M: float, omega: float, n: int, E: float) -> float:
    return math.sqrt((E + M) / (2.0 * M)) * (E - M) - (n + 0.5) * omega


# Enough halvings to take any float64 bracket down to adjacent floats: one
# to zero, then 2098 from 2^1024 to the smallest subnormal 2^-1074.
_MAX_HALVINGS = 2100


def _bisect(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Root of f between a and b, where f must change sign, to within tol or
    until the midpoint equals an end of the bracket (at most _MAX_HALVINGS
    halvings, which any float64 bracket reaches)."""
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise NoSignChange(f"no sign change over [{a}, {b}]")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    for _ in range(_MAX_HALVINGS):
        if b - a <= tol:
            break
        m = 0.5 * (a + b)
        if m == a or m == b:
            break
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def _margin_forms(kappa: int, M: float, C: float, gp, clip=lambda x: max(x, 0.0)):
    """The margins (m1, m2) written in the margin t from each edge, as (edge,
    direction, margins) with E = edge + direction t: on floats by default, on
    arrays of cells with an array clip at 0."""
    e1, e2 = _edges(kappa, M, C, gp)
    if kappa < 0:
        return (
            # t = E + M - C (gamma margin)
            (e1, +1.0, lambda t: (t, t + C - 2.0 * M + gp)),
            # t = E - M + g' (shift margin)
            (e2, +1.0, lambda t: (t + 2.0 * M - gp - C, t)),
        )
    return (
        # t = E - M - C_ps (depth margin, growing upward from e1)
        (e1, +1.0, lambda t: (t, -(t + e1 + M + gp))),
        # t = -(E + M + g') (margin below e2)
        (e2, -1.0, lambda t: (clip(e2 - t - M - C), t)),
    )


def _refine_near_boundary(kappa: int, k: int, M: float, C: float, gp: float,
                          w2: float, E: float):
    """Re-solve the unsquared condition in the binding-margin variable.

    At strong fields or deep symmetry constants the bound energy sits a
    hair above a sign boundary; recomputing the margin from the stored E
    cancels catastrophically, so the residual evaluated through E loses
    all precision.  Bisecting the condition written directly in the margin
    t > 0 (_margin_forms), from the boundary the root is closest to, keeps
    it well conditioned.  Returns (refined E, margin-form residual
    magnitude), or None when no bracket is found.
    """
    boundary, direction, margins = min(_margin_forms(kappa, M, C, gp),
                                       key=lambda c: abs(E - c[0]))
    f = lambda t: _condition(kappa, k, *margins(t), w2)
    t0 = direction * (E - boundary)
    if not 0.0 < t0 < math.inf:
        return None
    try:
        t = _bisect(f, t0 / 16.0, t0 * 16.0, tol=0.0)
    except NoSignChange:
        return None
    return boundary + direction * t, abs(f(t))


# Each root gets a code: 0 survives the sign conditions, 1..3 fails the first
# and/or second one (bit 0 / bit 1), _COMPLEX is a complex pair member.  As an
# alternate, a surviving root other than the selected one takes _LOWER.
_COMPLEX, _LOWER = 4, 5


def _reason_table(first: str, second: str) -> tuple[str, ...]:
    return ("", f"fails {first}", f"fails {second}", f"fails {first} and {second}",
            "complex conjugate pair member",
            "sign conditions hold; lower root of the bound pair "
            "(tabulated branch takes the upper)")


_REASONS = {
    -1: _reason_table("E + M - C_s > 0", "E - M + g' > 0"),
    +1: _reason_table("E - M - C_ps > 0", "E + M + g' < 0"),
}


def _alternate_code(code, E, selected):
    """A root's reason code as an alternate, 0 for the selected root (floats
    or arrays; selected is None or nan without survivors)."""
    return code + _LOWER * ((code == 0) & (E != selected))


def _level_scalars(kappa: int, E, M: float, C: float, gp, w2: float, qeps):
    """The boundary flag and gamma, alpha, v^2 = w2 gamma / 2 and beta at the
    level energy E (floats or arrays).  The flag says a margin is within
    1e-12 max(1, |E|) of 0, written without max so that arrays take it."""
    m1, m2 = _margins(kappa, E, M, C, gp)
    tol, a1, a2 = _BOUNDARY_TOL * abs(E), abs(m1), abs(m2)
    boundary = ((a1 <= _BOUNDARY_TOL) | (a1 <= tol)
                | (a2 <= _BOUNDARY_TOL) | (a2 <= tol))
    gamma = -kappa * m1
    return boundary, gamma, gamma * (M + kappa * E), 0.5 * w2 * gamma, qeps * gamma


def _select(params: ModelParams, kappa: int, n: int, gp: float, roots,
            cardano_real: bool) -> EnergyLevel:
    """Classify the roots against the sign conditions and build the level.

    roots are sorted by (real, imag).  The largest surviving energy is
    selected, and a residual above 1e-9 there triggers the margin-form
    refinement.  The alternates are the coded roots, then the lower roots.
    """
    M, C = params.M, params.C
    codes = []
    selected = None
    for r in roots:
        if abs(r.imag) > 1e-9 * (1.0 + abs(r)):
            codes.append(_COMPLEX)
            continue
        E = r.real
        tol = _BOUNDARY_TOL * max(1.0, abs(E))
        m1, m2 = _margins(kappa, E, M, C, gp)
        code = (m1 < -tol) + 2 * (m2 < -tol)
        codes.append(code)
        if not code and (selected is None or E > selected):
            selected = E
    reasons = _REASONS[kappa]
    rejected = [RejectedRoot(r, reasons[c]) for r, c in zip(roots, codes) if c]
    if selected is None:
        return EnergyLevel(n, kappa, Status.NO_PHYSICAL_ROOT, None, None,
                           tuple(rejected), not cardano_real)
    rejected += [RejectedRoot(complex(r.real), reasons[_LOWER])
                 for r, c in zip(roots, codes)
                 if _alternate_code(c, r.real, selected) == _LOWER]
    w2 = M * _power(params.omega0, 2)
    residual = abs(_residual(kappa, 2 * n + 1, M, C, gp, w2)(selected))
    if residual > 1e-9:
        refined = _refine_near_boundary(kappa, 2 * n + 1, M, C, gp, w2, selected)
        if refined is not None and refined[1] < residual:
            selected, residual = refined
    boundary, gamma, alpha, v2, beta = _level_scalars(
        kappa, selected, M, C, gp, w2, params.q * params.eps)
    scalars = ChannelScalars(complex(gamma), complex(alpha),
                             cmath.sqrt(complex(v2)), complex(beta))
    return EnergyLevel(n, kappa, Status.BOUND, selected, residual, tuple(rejected),
                       not cardano_real, boundary, scalars)


def select_physical_root(sol: CubicSolution, params: ModelParams, n: int) -> EnergyLevel:
    """Apply the sign conditions of the unsquared condition to the cubic roots.

    Spin: keep real roots with E + M - C_s > 0 and E - M + g' > 0 (at most
    one exists).  Pseudospin: keep real roots with E - M - C_ps > 0 and
    E + M + g' < 0; when two survive, the largest is the tabulated branch.
    Roots sitting on a sign boundary within 1e-12 count as satisfying it and
    set the boundary flag.
    """
    gp = _stark_shift(params.M, params.omega0, params.q, params.eps)
    return _select(params, params.kappa, n, gp, sol.roots, sol.cardano_real)


def solve_level(params: ModelParams, n: int) -> EnergyLevel:
    """Level-n energy in the symmetry limit of the parameters."""
    n = _check_n(n)
    kappa = params.kappa
    M, C = params.M, params.C
    gp = _stark_shift(M, params.omega0, params.q, params.eps)
    roots, _, _, _, cardano_real = _cubic_roots(
        *_level_bcd(kappa, M, C, gp, _rhs_squared(M, params.omega0, n)))
    return _select(params, kappa, n, gp, roots, cardano_real)


def bisection_oracle(equation: Equation, params: ModelParams, n: int,
                     bracket: tuple[float, float] | None = None) -> float:
    """Root of the chosen unsquared condition, independent of the cubic path.

    With an explicit bracket the residual must change sign across it.
    Without one, the bracket is closed form in the sign-condition edges
    e1 = kappa M + C and e2 = -kappa M - g', where the margins vanish.  The
    spin residual rises on its domain, and with lo = max(e1, e2) both margins
    are at least E - lo, so it is positive above lo + (k^2 M w0^2 / 2)^(1/3),
    k = 2n+1; the bracket is (lo, lo + 2 (k^2 M w0^2 / 2)^(1/3)).  The spin
    residual reads -inf on and below the gamma = 0 edge e1, its limit there,
    and at lo itself, where margins recomputed from lo can round positive
    when the root is within an ulp of lo.  The pseudospin residual equals
    2n+1 at both ends of its window lo = e1, hi = e2 and is smallest at
    lo + (hi - lo)/3, so the bracket (lo + (hi - lo)/3, hi) holds the
    tabulated upper root.  Rel-HO without a bracket is relativistic_ho_level.
    Roots are located to 1e-12.  SPIN_EQ and PSEUDOSPIN_EQ must match
    params.sym.
    """
    n = _check_n(n)
    M, C, omega0 = params.M, params.C, params.omega0
    if equation is Equation.REL_HO:
        if bracket is None:
            return relativistic_ho_level(M, omega0, n)
        return _bisect(lambda E: _relho_residual(M, omega0, n, E), *bracket)

    kappa = params.kappa
    if equation is not (Equation.SPIN_EQ if kappa < 0 else Equation.PSEUDOSPIN_EQ):
        raise ValueError(f"equation {equation.value} needs {equation.value} "
                         f"parameters, got {params.sym.value}")
    gp = _stark_shift(M, omega0, params.q, params.eps)
    k, w2 = 2 * n + 1, M * _power(omega0, 2)
    try:
        rhs = k * k * w2 / 2.0  # R of the level cubic, k^2 M w0^2 / 2
    except OverflowError:  # k^2 is past float64
        rhs = math.inf
    if not math.isfinite(rhs):
        raise ValueError(f"(2n+1)^2 M omega0^2 / 2 is not finite in float64 at n={n}")
    if bracket is not None:
        return _bisect(_residual(kappa, k, M, C, gp, w2, -math.inf), *bracket)
    e1, e2 = _edges(kappa, M, C, gp)
    if kappa < 0:
        lo = max(e1, e2)
        return _bisect(_residual(kappa, k, M, C, gp, w2, -math.inf, lo),
                       lo, lo + 2.0 * rhs ** (1.0 / 3.0))
    if e1 >= e2:
        raise NoSignChange("pseudospin sign conditions define an empty window")
    return _bisect(_residual(kappa, k, M, C, gp, w2), e1 + (e2 - e1) / 3.0, e2)


def relativistic_ho_level(M: float, omega: float, n: int) -> float:
    """Oscillator level with relativistic mass correction (field-free limit).

    Root E > M of sqrt((E + M)/(2M)) (E - M) = (n + 1/2) omega, found by
    safeguarded bisection on [M, M + 10(n+1) omega + 10].
    """
    if M <= 0 or omega <= 0:
        raise ValueError("M and omega must be > 0")
    n = _check_n(n)
    return _bisect(
        lambda E: _relho_residual(M, omega, n, E),
        M,
        M + 10.0 * (n + 1) * omega + 10.0,
    )


def nr_spin_level(params: ModelParams, n: int) -> float:
    """Nonrelativistic limit of the spin branch: w0 (n + 1/2) - g_shift.

    The whole oscillator ladder is rigidly shifted down by g_shift.
    """
    n = _check_n(n)
    return params.omega0 * (n + 0.5) - derived_constants(params).g_shift


def nr_pseudospin_level(params: ModelParams, n: int) -> float:
    """Nonrelativistic limit of the pseudospin branch (always positive).

    Implemented literally as (w0^2 / 2M)(n + 1/2)^2 [1 + (q eps / 2 M w0)^2]^-2.
    Raises ValueError where float64 cannot hold it.
    """
    n = _check_n(n)
    base = _power(params.omega0, 2) / (2.0 * params.M) * _power(n + 0.5, 2)
    bracket = 1.0 + _power(params.q * params.eps / (2.0 * params.M * params.omega0), 2)
    E = base * bracket ** -2
    if not math.isfinite(E):
        raise ValueError(f"nr_pseudospin_level is not finite in float64 at n={n}")
    return E


def spectrum_grid(params: ModelParams, n_max: int,
                  eps_list) -> list[tuple[ModelParams, EnergyLevel]]:
    """Levels over an (n, eps) grid, n outer and eps inner, cells independent.

    The whole grid is solved as one NumPy batch (hostark._grid); every row
    equals (p, solve_level(p, n)) field for field.  Rows of one eps share one
    ModelParams.
    """
    from ._grid import _solve_grid

    n_max = _check_n(n_max, "n_max")
    grid = [dataclasses.replace(params, eps=float(eps)) for eps in eps_list]
    if not grid:
        return []
    return list(zip(grid * (n_max + 1), _solve_grid(grid, n_max)))


@dataclass(frozen=True)
class BreakdownScan:
    """Field-strength thresholds where pseudospin binding is lost."""

    eps_discriminant: float
    eps_physical: float
    eps_lo: float
    eps_hi: float


def pseudospin_breakdown_threshold(params: ModelParams, n: int,
                                   eps_lo: float = 0.0, eps_hi: float = 3.0) -> BreakdownScan:
    """Locate the field strength where the bound pseudospin pair disappears.

    Two indicators are scanned: the depressed-cubic discriminant sign
    (e^2 - 4p crossing zero ends the three-real-root regime) and the loss of
    a root satisfying the physical sign conditions.  For this problem the
    two coincide: the bound pair merges and turns complex at the same field.
    """
    if params.sym is not SymmetryKind.PSEUDOSPIN:
        raise ValueError("breakdown scan requires pseudospin parameters")

    def flip(indicator) -> float:
        # bisect -1 where the indicator holds and +1 where it does not; an end
        # with the wrong value reads nan, so only a True -> False window brackets
        def f(eps: float) -> float:
            holds = indicator(solve_level(dataclasses.replace(params, eps=eps), n))
            if (eps == eps_lo and not holds) or (eps == eps_hi and holds):
                return math.nan
            return -1.0 if holds else 1.0
        return _bisect(f, eps_lo, eps_hi, tol=1e-9)

    return BreakdownScan(
        eps_discriminant=flip(lambda level: level.cardano_complex_regime),
        eps_physical=flip(lambda level: level.status is Status.BOUND),
        eps_lo=eps_lo,
        eps_hi=eps_hi,
    )


def field_free_closed_form_variant(M: float, C_s: float, omega0: float, n: int) -> complex:
    """Field-free closed form built on u = 3 M_s^3/27 - 2 M w0^2 (n+1/2)^2.

    Reproduced verbatim for the verification report.  It is NOT consistent
    with the depressed-cubic route at eps = 0 (whose shift constant is
    2 (2M - C_s)^3/27 and whose linear offset is (2M - C_s)/3, not M_s/3);
    the depressed-cubic route is the authoritative one.
    """
    M_s = M - C_s
    u = 3.0 * M_s ** 3 / 27.0 - 2.0 * M * omega0 ** 2 * (n + 0.5) ** 2
    s = cmath.sqrt(complex(u * u - 4.0 * (M_s / 3.0) ** 6))
    z3 = -u / 2.0 + s / 2.0
    z = z3 ** (1.0 / 3.0)
    return z + (M_s ** 2 / 9.0) / z - M_s / 3.0
