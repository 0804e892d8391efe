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
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import repeat, starmap
from operator import attrgetter

from .model import ModelParams, _check_n, _check_params, _stark_shift

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
    method: CubicMethod


# The result records.  Neither solver route runs their generated __init__,
# which calls object.__setattr__ once per field in a frame entered from C:
# solve_level builds each record with a _slot_record function, spectrum_grid
# builds them column by column with _records, both through the slots' member
# descriptors (_slot_setters).  So no record may define __post_init__; only
# _grid_inputs builds ModelParams so, after running its check on each eps.

@dataclass(frozen=True, slots=True)
class RejectedRoot:
    value: complex
    reason: str


@dataclass(frozen=True, slots=True)
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


@dataclass(frozen=True, slots=True)
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


def _slot_setters(cls, checked=None) -> tuple:
    """The __set__ of each field's slot descriptor of the slotted dataclass
    cls, in field order.  Setting the slots skips __init__, so a class is
    refused if it has a __post_init__ other than checked, one whose checks
    the caller has run."""
    if getattr(cls, "__post_init__", checked) is not checked:
        raise TypeError(f"{cls.__name__} defines __post_init__, which setting slots skips")
    return tuple(getattr(cls, field.name).__set__ for field in dataclasses.fields(cls))


def _slot_record(cls):
    """A function of one value per field of cls, in field order (defaults
    included), that returns the record with each slot set (_slot_setters).
    Its body is generated, as dataclasses generates __init__, so that it
    calls each setter once with no loop; a call with another count of values
    raises TypeError."""
    setters = _slot_setters(cls)
    values = ", ".join(f"v{i}" for i in range(len(setters)))
    body = "".join(f"    s{i}(record, v{i})\n" for i in range(len(setters)))
    namespace = {f"s{i}": s for i, s in enumerate(setters)}
    namespace.update(new=object.__new__, cls=cls)
    exec(f"def build({values}):\n    record = new(cls)\n{body}    return record\n", namespace)
    return namespace["build"]


def _records(cls, count: int, *columns, checked=None) -> list:
    """count instances of the slotted dataclass cls, one column per field,
    each field's slot set over its column in one C-level pass (_slot_setters,
    given checked); a column of another length, or a count of columns other
    than the field count, is refused."""
    records = list(map(object.__new__, repeat(cls, count)))
    for set_slot, column in zip(_slot_setters(cls, checked), columns, strict=True):
        deque(starmap(set_slot, zip(records, column, strict=True)), 0)
    return records


_rejected_root, _channel_scalars, _energy_level = map(
    _slot_record, (RejectedRoot, ChannelScalars, EnergyLevel))


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


def _horner(z, B, C, D):
    """(f, f') of the monic cubic at z in Horner form (floats, complex or
    arrays): the batch route's real Newton steps (_grid._newton_real).
    _polish writes the same operations out inline."""
    return ((z + B) * z + C) * z + D, (3.0 * z + 2.0 * B) * z + C


# Rounding moves a computed |f| by a few 1e-16 of the size of the cubic's terms
# (_term_size); a real Newton step that raises |f| by more than _RISE of it
# has left the root for a point where the terms no longer cancel.
_RISE = 1e-8
# Newton also stops where |f'| < _FLAT or |step| < _STEP max(1, |z|); a root with
# |Im| > _PAIR (1 + |z|) is a complex pair member; a level whose residual is
# above _REFINE takes the margin-form refinement.
_FLAT, _STEP, _PAIR, _REFINE = 1e-300, 1e-18, 1e-9, 1e-9


def _term_size(z, B, C, D):
    """|z|^3 + |B| z^2 + |C| |z| + |D| in Horner form, the scale of the
    rounding error of _horner's f (floats or arrays)."""
    a = abs(z)
    return ((a + abs(B)) * a + abs(C)) * a + abs(D)


def _polish(root: complex, B: float, C: float, D: float) -> complex:
    """Up to four Newton steps on the monic cubic, stopping at a fixed point
    z - step == z, which every later step would repeat; keeps real roots real.

    A real root also stops before a step that raises |f| by more than _RISE
    of _term_size.  Near a real extremum of the cubic (a complex pair close to
    the real axis, which the deflation can round onto it as a near-double
    real pair) f' ~ 0, and an unguarded step lands far from every root.

    A real start runs the float loop, a complex one (the upper member of a
    pair) the complex loop.  Each writes f and f' out in _horner's operation
    order and max(1, |z|) as a conditional, so it takes _horner's steps bit
    for bit (the batch route still calls _horner).  A polish evaluates the
    cubic 2.73 times on average, and the calls cost more than the arithmetic:
    inlined, the 8,744 polishes of the seed-1 certify pool took 20-32% less
    time (2-core Xeon, Python 3.11).  One loop over both kinds of start kept the
    bits, but solve_level took 7-10% more CPU time (seed-1 to 3 certify pools, 30
    rounds each); a likely, unverified cause is CPython 3.11's specializing
    interpreter seeing float and complex operands at the same instructions.
    """
    if root.imag == 0.0:
        z = root.real
        f = ((z + B) * z + C) * z + D
        fp = (3.0 * z + 2.0 * B) * z + C
        for _ in range(4):
            if abs(fp) < _FLAT:
                break
            step = f / fp
            z_next = z - step
            a = abs(z)
            if z_next == z or abs(step) < _STEP * (a if a > 1.0 else 1.0):
                break
            f_next = ((z_next + B) * z_next + C) * z_next + D
            if abs(f_next) > abs(f) and (
                    abs(f_next) - abs(f) > _RISE * _term_size(z_next, B, C, D)):
                break
            fp = (3.0 * z_next + 2.0 * B) * z_next + C
            z, f = z_next, f_next
        return complex(z)
    z = root
    f = ((z + B) * z + C) * z + D
    fp = (3.0 * z + 2.0 * B) * z + C
    for _ in range(4):
        if abs(fp) < _FLAT:
            break
        step = f / fp
        z_next = z - step
        a = abs(z)
        if z_next == z or abs(step) < _STEP * (a if a > 1.0 else 1.0):
            break
        z = z_next
        f = ((z + B) * z + C) * z + D
        fp = (3.0 * z + 2.0 * B) * z + C
    return z


_REAL_IMAG = attrgetter("real", "imag")


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
            if z == 0.0:  # z^3 underflowed, so d / (3 z) has no float value
                raise ValueError(f"the level cubic underflows in float64: "
                                 f"B={B!r}, C={C!r}, D={D!r}")
            y1 = z - d / (3.0 * z)
        e1, b1, disc = _deflate(y1, B, C)
        sq = math.sqrt(abs(disc))
        if disc >= 0.0:
            pair = [_polish(complex((-b1 + t) / 2.0), B, C, D) for t in (sq, -sq)]
        else:  # with real B, C, D, polishing conj(z) gives conj(_polish(z))
            upper = _polish(complex(-b1 / 2.0, sq / 2.0), B, C, D)
            pair = [upper, upper.conjugate()]
        roots = [_polish(complex(e1), B, C, D)] + pair
    else:
        # e^2 < 4p forces p > 0, hence d < 0
        u = math.sqrt(-d / 3.0)
        arg = min(1.0, max(-1.0, -e / (2.0 * _power(u, 3))))
        theta = math.acos(arg) / 3.0
        roots = [_polish(complex(2.0 * u * math.cos(theta - 2.0 * math.pi * k / 3.0)
                                 - B / 3.0), B, C, D) for k in range(3)]

    polished = tuple(sorted(roots, key=_REAL_IMAG))
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
    return CubicSolution(roots, (d, e), p, method)


def _margins(kappa: int, E, M, C, gp):
    """The two sign-condition margins, both > 0 for a physical root (floats or arrays)."""
    return E - kappa * M - C, -kappa * (E + kappa * M + gp)


def _sign_code(kappa: int, E, M, C, gp):
    """The real root E's sign-condition code (floats or arrays): bit 0 or bit 1
    is set where E fails the first or second margin by more than 1e-12
    max(1, |E|), written without max so that arrays take it."""
    m1, m2 = _margins(kappa, E, M, C, gp)
    rel = -_BOUNDARY_TOL * abs(E)
    return ((m1 < -_BOUNDARY_TOL) & (m1 < rel)) + 2 * ((m2 < -_BOUNDARY_TOL) & (m2 < rel))


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


def _in_domain(kappa: int, m1):
    """Where _condition is defined: spin m1 > 0, pseudospin m1 >= 0 (floats or arrays)."""
    return m1 > 0.0 if kappa < 0 else m1 >= 0.0


def _residual(kappa: int, k: int, M: float, C: float, gp: float, w2: float,
              lo: float = -math.inf):
    """_condition as a function of E, nan outside its domain; the spin
    residual reads -inf, its limit, on and under its gamma = 0 edge, and on
    and under lo, instead.  The oracle's bisection calls it once per
    evaluation, so it writes the margins out and precomputes kappa M."""
    kM = kappa * M
    if kappa < 0:
        def f(E):
            m1 = E - kM - C
            if E <= lo or m1 <= 0.0:
                return -math.inf
            return _condition(kappa, k, m1, E + kM + gp, w2)
    else:
        def f(E):
            m1 = E - kM - C
            if m1 < 0.0:
                return math.nan
            return _condition(kappa, k, m1, -(E + kM + gp), w2)
    return f


# Enough halvings to take any float64 bracket down to adjacent floats: one
# to zero, then 2098 from 2^1024 to the smallest subnormal 2^-1074.
_MAX_HALVINGS = 2100


def _bisect(f, a: float, b: float, tol: float = 1e-12) -> float:
    """Root of f between a and b, where f must change sign, to within tol or
    until the midpoint equals an end of the bracket (at most _MAX_HALVINGS
    steps, which any float64 bracket reaches).  The midpoint is 0.5 (a + b),
    or 0.5 a + 0.5 b where a + b overflows.

    Step j = 0, 1, ... evaluates the ITP point (Oliveira & Takahashi, ACM
    TOMS 47(1), 2020): regula falsi, truncated towards the midpoint by
    0.2 (b - a)^2 / (b0 - a0) and projected to within r = tol 2^(n_half - j)
    - (b - a)/2 of it, n_half = ceil(log2((b0 - a0) / tol)); so it takes at
    most one step more than halving, and a smooth f far fewer.  A step takes
    the midpoint where r <= 0 (always at tol = 0) or where regula falsi is
    not strictly inside the bracket (an end reads +-inf, or it rounds onto one).
    """
    fa, fb = f(a), f(b)
    if math.isnan(fa) or math.isnan(fb) or (fa < 0.0) == (fb < 0.0):
        raise NoSignChange(f"no sign change over [{a}, {b}]")
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    # s = tol 2^(n_half - j), n_half exact from the exponent of (b0 - a0) / tol;
    # nan (every step the midpoint) at tol = 0 or where that quotient overflows
    frac, exp = math.frexp((b - a) / tol) if tol > 0.0 else (math.inf, 0)
    s = math.ldexp(tol, exp - (frac == 0.5)) if frac < math.inf else math.nan
    k1 = 0.2 / (b - a)
    for _ in range(_MAX_HALVINGS):
        m = 0.5 * (a + b)
        if math.isinf(m):
            m = 0.5 * a + 0.5 * b
        w = b - a
        if w <= tol or m == a or m == b:
            break
        x, r = m, s - 0.5 * w
        if r > 0.0:
            xf = (fb * a - fa * b) / (fb - fa)
            if a < xf < b:
                d, delta = m - xf, k1 * w * w
                xt = xf + math.copysign(delta, d) if delta <= abs(d) else m
                x = xt if abs(xt - m) <= r else m - math.copysign(r, d)
        s *= 0.5
        fx = f(x)
        if fx == 0.0:
            return x
        if (fx < 0.0) == (fa < 0.0):
            a, fa = x, fx
        else:
            b, fb = x, fx
    return m


def _margin_forms(kappa: int, M: float, C: float, gp, clip=lambda x: max(x, 0.0)):
    """_margins (m1, m2) = (E - e1, -kappa (E - e2)) written in the margin t
    from each edge of _edges, as (edge, direction, margins) with E = edge +
    direction t.  With gap = e1 - e2, t is m1 from e1 and m2 from e2 (direction
    -kappa), and the pseudospin depth margin m1 from e2 is clipped at 0: on
    floats by default, on arrays of cells with an array clip."""
    e1, e2 = _edges(kappa, M, C, gp)
    gap = e1 - e2
    if kappa < 0:  # the spin gamma margin is never clipped
        clip = lambda x: x
    return ((e1, 1.0, lambda t: (t, -kappa * (t + gap))),
            (e2, float(-kappa), lambda t: (clip(-kappa * t - gap), t)))


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
    def f(t):  # the spin w2 / (2 m1) takes its IEEE value at m1 = 0, as in _refine_batch
        m1, m2 = margins(t)
        if kappa < 0 and m1 == 0.0:
            return m2 - k * (math.inf if w2 else math.nan)
        return _condition(kappa, k, m1, m2, w2)
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
    selected, and a residual above _REFINE there triggers the margin-form
    refinement.  The alternates are the coded roots, then the lower roots.
    """
    M, C = params.M, params.C
    reasons = _REASONS[kappa]
    codes, rejected = [], []
    selected = None
    for r in roots:
        if abs(r.imag) > _PAIR * (1.0 + abs(r)):
            code = _COMPLEX
        else:
            E = r.real
            code = _sign_code(kappa, E, M, C, gp)
            if not code and (selected is None or E > selected):
                selected = E
        codes.append(code)
        if code:
            rejected.append(_rejected_root(r, reasons[code]))
    if selected is None:
        return _energy_level(n, kappa, Status.NO_PHYSICAL_ROOT, None, None,
                             tuple(rejected), not cardano_real, False, None)
    rejected += [_rejected_root(complex(r.real), reasons[_LOWER])
                 for r, c in zip(roots, codes)
                 if _alternate_code(c, r.real, selected) == _LOWER]
    w2 = M * _power(params.omega0, 2)
    k = 2 * n + 1
    m1, m2 = _margins(kappa, selected, M, C, gp)
    residual = abs(_condition(kappa, k, m1, m2, w2)) if _in_domain(kappa, m1) else math.nan
    if residual > _REFINE:
        refined = _refine_near_boundary(kappa, k, M, C, gp, w2, selected)
        if refined is not None and refined[1] < residual:
            selected, residual = refined
    boundary, gamma, alpha, v2, beta = _level_scalars(
        kappa, selected, M, C, gp, w2, params.q * params.eps)
    scalars = _channel_scalars(complex(gamma), complex(alpha),
                               cmath.sqrt(complex(v2)), complex(beta))
    return _energy_level(n, kappa, Status.BOUND, selected, residual,
                         tuple(rejected), not cardano_real, boundary, scalars)


def select_physical_root(sol: CubicSolution, params: ModelParams, n: int) -> EnergyLevel:
    """Apply the sign conditions of the unsquared condition to the cubic roots.

    Spin: keep real roots with E + M - C_s > 0 and E - M + g' > 0 (at most
    one exists).  Pseudospin: keep real roots with E - M - C_ps > 0 and
    E + M + g' < 0; when two survive, the largest is the tabulated branch.
    Roots sitting on a sign boundary within 1e-12 count as satisfying it and
    set the boundary flag.
    """
    gp = _stark_shift(params.M, params.omega0, params.q, params.eps)
    return _select(params, params.kappa, n, gp, sol.roots,
                   sol.method is CubicMethod.CARDANO_REAL)


def solve_level(params: ModelParams, n: int) -> EnergyLevel:
    """Level-n energy in the symmetry limit of the parameters."""
    n = _check_n(n)
    kappa = params.kappa
    M, C = params.M, params.C
    gp = _stark_shift(M, params.omega0, params.q, params.eps)
    roots, _, _, _, cardano_real = _cubic_roots(
        *_level_bcd(kappa, M, C, gp, _rhs_squared(M, params.omega0, n)))
    return _select(params, kappa, n, gp, roots, cardano_real)


def bisection_oracle(equation: Equation, params: ModelParams, n: int) -> float:
    """Root of the chosen unsquared condition, independent of the cubic path.

    The bracket is closed form in the sign-condition edges e1 = kappa M + C
    and e2 = -kappa M - g', where the margins vanish.  The spin residual
    rises on its domain, and with lo = max(e1, e2) both margins are at least
    E - lo, so it is positive above lo + c, c = (k^2 M w0^2 / 2)^(1/3),
    k = 2n+1: the bracket is (lo, lo + c], or (lo, lo + 2c) where the residual
    at lo + c rounds negative (where e1 = e2 the root is lo + c itself).  The
    spin residual reads -inf on and below the gamma = 0 edge e1, its limit
    there, and at lo itself, where margins recomputed from lo can round
    positive when the root is within an ulp of lo.  The pseudospin residual equals
    2n+1 at both ends of its window lo = e1, hi = e2 and is smallest at
    lo + (hi - lo)/3, so the bracket (lo + (hi - lo)/3, hi) holds the
    tabulated upper root.  _bisect locates the root to 1e-12 in ITP steps.
    The equation must match params.sym.
    """
    n = _check_n(n)
    M, C, omega0 = params.M, params.C, params.omega0
    kappa = params.kappa
    if equation is not (Equation.SPIN_EQ if kappa < 0 else Equation.PSEUDOSPIN_EQ):
        raise ValueError(f"equation {equation.value} needs {equation.value} "
                         f"parameters, got {params.sym.value}")
    gp = _stark_shift(M, omega0, params.q, params.eps)
    k, w2, rhs = 2 * n + 1, M * _power(omega0, 2), _rhs_squared(M, omega0, n)
    if not math.isfinite(rhs):
        raise ValueError(f"(2n+1)^2 M omega0^2 / 2 is not finite in float64 at n={n}")
    if rhs == 0.0 or w2 == 0.0:  # the pseudospin condition divides by w2
        raise ValueError(f"(2n+1)^2 M omega0^2 / 2 underflows to 0 in float64 at "
                         f"M={M}, omega0={omega0}")
    e1, e2 = _edges(kappa, M, C, gp)
    if kappa < 0:
        lo, c = max(e1, e2), rhs ** (1.0 / 3.0)
        f = _residual(kappa, k, M, C, gp, w2, lo)
        try:
            return _bisect(f, lo, lo + c)
        except NoSignChange:
            return _bisect(f, lo, lo + 2.0 * c)
    if e1 >= e2:
        raise NoSignChange("pseudospin sign conditions define an empty window")
    return _bisect(_residual(kappa, k, M, C, gp, w2), e1 + (e2 - e1) / 3.0, e2)


def relativistic_ho_level(M: float, omega: float, n: int) -> float:
    """Oscillator level with relativistic mass correction (field-free limit).

    Root E > M of sqrt((E + M)/(2M)) (E - M) = (n + 1/2) omega, halved to
    float resolution (tol = 0) on [M, M + 10(n+1) omega + 10], its upper end
    clipped to the largest float.
    """
    if M <= 0 or omega <= 0:
        raise ValueError("M and omega must be > 0")
    n = _check_n(n)
    return _bisect(
        lambda E: math.sqrt((E + M) / (2.0 * M)) * (E - M) - (n + 0.5) * omega,
        M,
        min(M + 10.0 * (n + 1) * omega + 10.0, sys.float_info.max),
        tol=0.0,
    )


def nr_spin_level(params: ModelParams, n: int) -> float:
    """Nonrelativistic limit of the spin branch: w0 (n + 1/2) - g_shift.

    The whole oscillator ladder is rigidly shifted down by g_shift.
    """
    n = _check_n(n)
    return params.omega0 * (n + 0.5) - _stark_shift(params.M, params.omega0, params.q,
                                                    params.eps)


def nr_pseudospin_level(params: ModelParams, n: int) -> float:
    """Nonrelativistic limit of the pseudospin branch (always positive).

    Implemented literally as (w0^2 / 2M)(n + 1/2)^2 [1 + (q eps / 2 M w0)^2]^-2.
    Raises ValueError where float64 cannot hold it.
    """
    n = _check_n(n)
    two_m_w0 = 2.0 * params.M * params.omega0
    if two_m_w0 == 0.0:
        raise ValueError(f"2 M omega0 underflows to 0 in float64 at "
                         f"M={params.M}, omega0={params.omega0}")
    base = _power(params.omega0, 2) / (2.0 * params.M) * _power(n + 0.5, 2)
    bracket = 1.0 + _power(params.q * params.eps / two_m_w0, 2)
    E = base * bracket ** -2
    if not math.isfinite(E):
        raise ValueError(f"nr_pseudospin_level is not finite in float64 at n={n}")
    return E


def _grid_inputs(params: ModelParams, n_max: int, eps_list):
    """The checked inputs of an (n, eps) grid, before any cell is solved:
    n_max, then each eps's ModelParams, then each eps's g_shift.  Returns
    (n_max, grid, g_shifts).  The rows equal, and fail first where, those of
    dataclasses.replace(params, eps=float(eps)): each eps in turn is converted
    and takes __post_init__'s check, then the rows' slots are set (_records)."""
    n_max = _check_n(n_max, "n_max")
    M, omega0, q, C = params.M, params.omega0, params.q, params.C
    eps_column = []
    for eps in eps_list:
        eps = float(eps)
        _check_params(M, omega0, q, eps, C)
        eps_column.append(eps)
    count = len(eps_column)
    grid = _records(type(params), count, *(repeat(x, count) for x in (M, omega0, q)),
                    eps_column, repeat(params.sym, count), repeat(C, count),
                    checked=ModelParams.__post_init__)
    return n_max, grid, [_stark_shift(M, omega0, q, eps) for eps in eps_column]


def spectrum_grid(params: ModelParams, n_max: int,
                  eps_list) -> list[tuple[ModelParams, EnergyLevel]]:
    """Levels over an (n, eps) grid, n outer and eps inner, cells independent.

    The whole grid is solved as one NumPy batch (hostark._grid); every row
    equals (p, solve_level(p, n)) field for field.  Rows of one eps share one
    ModelParams, and what eps alone fixes (g', the cubic's B and C, d, p, u
    and u^3) is formed once per eps, with the bits each cell would form.  The
    records are built with the cyclic garbage collector paused, process-wide;
    the caller's setting is restored before pairing.
    """
    from ._grid import _solve_grid

    n_max, grid, g_shifts = _grid_inputs(params, n_max, eps_list)
    if not grid:
        return []
    return list(zip(grid * (n_max + 1), _solve_grid(grid, n_max, g_shifts)))


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
    if params.kappa < 0:
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
