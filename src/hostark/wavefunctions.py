"""Radial wavefunction evaluators for the oscillator-plus-linear problem.

Shape constants (hbar = c = 1):

    lambda = sqrt(M w0),   b = q eps / w0,   b / lambda^2 = r0.

The relativistic upper component is printed as

    F_n(r) = N exp[-eps1 (lambda^2 r^2/2 - b r)] L_n[eps2 (lambda^2 r - b)^2]

with eps1 = sqrt(gamma/(2M)), eps2 = gamma/(2Mv) = eps1/lambda^2 at the solved
level energy (gamma = E + M - C_s).  Each spinor takes N = exp(-eps1 b^2 /
(2 lambda^2)), which centres its Gaussian envelope exp[-eps1 u^2/(2 lambda^2)],
u = lambda^2 r - b, on the well: F_n = exp(-xi/2) L_n(xi), xi = eps2 u^2, and
|F_n| <= 1 at every level.  The printed lower-component closed form is
reproduced as well; the authoritative lower component is the derivative relation

    G(r) = d0 (d/dr + kappa/r) F(r),      d0 = 1/gamma,

with dF/dr in closed form from F's own factors (L_n' = -L_{n-1}^(1), summed
in L_n's recurrence); the two are compared, never forced to agree (the
printed form carries a Laguerre-derivative term with a nonstandard index
and sign).

The nonrelativistic radial function is the displaced-oscillator solution

    R_n(r) = (lambda^2/pi)^(1/4) 1/sqrt(2^n n!) exp[-lambda^2 (r-r0)^2 / 2]
             H_n(lambda (r - r0)),

which is the authoritative shape for node-count and orthogonality checks.

The pseudospin lower component is printed with imaginary prefactors,
exp[i eps1' (lambda^2 r^2/2 - b r)] H_n(-i eps2' (lambda^2 r - b)^2); at a
bound level (gamma_tilde < 0) i eps1' and -i eps2' are exactly real, so it is
evaluated in real arithmetic over the spin components' envelope and argument.

None of the closed forms vanish at r = 0 once eps > 0 (they are full-line
oscillator solutions used on the half line); the origin value relative to
the peak is reported as a defect rather than corrected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce

import numpy as np

from .model import ModelParams, SymmetryKind, _check_n, _check_r_max, derived_constants
from .spectra import Status, _power, solve_level


# samples per pass of sample_radial: the scratch of a block stays in cache (a
# shorter remainder than _BLOCK // 2 joins the pass before it)
_BLOCK = 8192
_G_R_MIN = 1e-8  # the smallest r of the lower spin component, whose kappa/r diverges at 0


class ConstantsUndefined(ValueError):
    """Shape constants are not defined at this energy (e.g. m1 = E - kappa M - C <= 0)."""


class SingularAtOrigin(ValueError):
    """The kappa/r term makes the lower component singular at r = 0."""


class RadialKind(Enum):
    UPPER_F = "UpperF"
    LOWER_G = "LowerG"
    NONREL_R = "NonRelR"
    PSEUDO_LOWER_G = "PseudoLowerG"

    def __init__(self, value: str):
        # the symmetry limit whose parameters the component is evaluated at
        self.sym = SymmetryKind.PSEUDOSPIN if value == "PseudoLowerG" else SymmetryKind.SPIN


@dataclass(frozen=True)
class ShapeConstants:
    """Envelope and polynomial-argument constants at a solved level.

    Both channels fill eps1 and eps2 from the margin m1 = E - kappa M - C > 0
    (gamma for spin, -gamma_tilde for pseudospin): eps1 = sqrt(m1/(2M)) for
    spin and sqrt(m1)/(2M), the printed -i eps1', for pseudospin;
    eps2 = m1/(2Mv) = -i eps2' in both.  Only spin levels fill d0.
    """

    lambda_scale: float
    b: float
    eps1: float
    eps2: float
    d0: float | None = None

    def _factors(self, r):
        """lambda^2, the envelope exp[-eps1 u^2/(2 lambda^2)] (the printed one times
        exp(-eps1 b^2/(2 lambda^2)), so spin |F| <= 1), the polynomial argument
        eps2 u^2 of both channels and u = lambda^2 r - b, as new arrays."""
        lam2 = self.lambda_scale ** 2
        u = lam2 * r  # a scalar for 0-d r: there ** 2 is C pow, not np.square
        u -= self.b
        xi = u ** 2
        envelope = np.multiply(-0.5 * self.eps1 / lam2, xi, out=np.empty_like(r))
        xi *= self.eps2
        return lam2, np.exp(envelope, out=envelope), xi, u

    def _lower_g(self, dF, F, r, out=None):
        """The spin derivative relation d0 (dF/dr + kappa/r F)."""
        return np.multiply(self.d0, dF + SymmetryKind.SPIN.kappa / r * F, out=out)


def shape_constants(params: ModelParams, energy: float) -> ShapeConstants:
    """Constants entering the closed forms, evaluated at a level energy.

    Raises ConstantsUndefined where the margin m1 = E - kappa M - C is <= 0
    (no bound level lies there) or one of the constants, or v, is not finite
    in float64 (eps2 is where 2 M v underflows to 0).
    """
    lam = math.sqrt(params.M * params.omega0)
    b = params.q * params.eps / params.omega0
    w2 = 0.5 * params.M * _power(params.omega0, 2)  # inf where ** overflows
    m1 = energy - params.kappa * params.M - params.C
    if m1 <= 0.0:
        raise ConstantsUndefined(f"m1 = E - kappa M - C = {m1} <= 0 at E = {energy}")
    v = math.sqrt(w2 * m1)
    two_m_v = 2.0 * params.M * v
    eps2 = m1 / two_m_v if two_m_v else math.inf
    if params.kappa < 0:
        channel = dict(eps1=math.sqrt(m1 / (2.0 * params.M)), d0=1.0 / m1)
    else:
        channel = dict(eps1=math.sqrt(m1) / (2.0 * params.M))
    if not all(map(math.isfinite, (lam, b, v, eps2, *channel.values()))):
        raise ConstantsUndefined(f"the shape constants are not finite in float64 at "
                                 f"E = {energy} for {params}")
    return ShapeConstants(lambda_scale=lam, b=b, eps2=eps2, **channel)


def _hermite(n: int, x):
    """Physicists' Hermite polynomial via H_{k+1} = 2x H_k - 2k H_{k-1}; the caller checks n."""
    x = np.asarray(x)
    h = np.empty_like(x, dtype=float)
    h.fill(1.0)  # cheaper per call than np.ones_like, and this runs once per block
    if n == 0:
        return h[()] if h.ndim == 0 else h
    hm1, tmp, x2 = np.empty_like(h), np.empty_like(h), 2.0 * x
    hm1.fill(0.0)
    for k in range(n):
        np.subtract(np.multiply(x2, h, out=tmp), np.multiply(2.0 * k, hm1, out=hm1), out=hm1)
        h, hm1 = hm1, h  # H_{k+1} in H_{k-1}'s buffer
    return h[()] if h.ndim == 0 else h


def _laguerre(n: int, alpha: float, x, total=None):
    """L_n^(alpha)(x); total, a buffer shaped like x, if given, gets
    sum_{k<n} L_k^(alpha)(x) = L_{n-1}^(alpha+1)(x), added up in the recurrence."""
    x = np.asarray(x)
    lk = np.empty_like(x, dtype=float)
    lk.fill(1.0)
    if total is not None:
        total.fill(1.0 if n else 0.0)
    if n == 0:
        return lk[()] if lk.ndim == 0 else lk
    lkp1, tmp = np.subtract(1.0 + alpha, x, out=np.empty_like(lk)), np.empty_like(lk)
    for k in range(1, n):
        if total is not None:
            total += lkp1
        np.multiply(np.subtract(2 * k + 1 + alpha, x, out=tmp), lkp1, out=tmp)
        np.subtract(tmp, np.multiply(k + alpha, lk, out=lk), out=lk)
        lk, lkp1 = lkp1, np.divide(lk, k + 1, out=lk)  # L_{k+1} in L_{k-1}'s buffer
    return lkp1[()] if lkp1.ndim == 0 else lkp1


def _upper_F(sc: ShapeConstants, n: int, r, out=None, slope=False):
    """F = e L_n(xi) at r, into out: the spin envelope e times L_n of the spin
    argument xi.  With slope, (F, dF/dr) from the same factors, since
    L_n' = -L_{n-1}^(1):  dF/dr = e u (-eps1 L_n(xi) - 2 eps2 lambda^2 L_{n-1}^(1)(xi))."""
    lam2, envelope, xi, u = sc._factors(r)
    total = np.empty_like(xi) if slope else None
    L = _laguerre(n, 0.0, xi, total)
    F = np.multiply(envelope, L, out=out)
    if not slope:
        return F
    dF = np.multiply(-sc.eps1, L)
    dF -= np.multiply(2.0 * sc.eps2 * lam2, total, out=total)
    u *= envelope
    dF *= u
    return F, dF


def _lower_G(sc: ShapeConstants, n: int, r, out=None):
    """G at r, into out: the derivative relation with dF/dr in closed form."""
    F, dF = _upper_F(sc, n, r, slope=True)
    return sc._lower_g(dF, F, r, out)


def _pseudo_G(sc: ShapeConstants, n: int, r, out=None):
    """The pseudospin lower component e H_n(xi) at r, into out: the envelope e
    and argument xi of the spin components, at the pseudospin constants."""
    _, envelope, xi, _ = sc._factors(r)
    return np.multiply(envelope, _hermite(n, xi), out=out)


def _nr_constants(params: ModelParams, n: int):
    """(lambda, r0, the prefactor of R_n) for a checked level index n."""
    n = _check_n(n)
    if n > 150:  # 2^n n! overflows float64 from n = 151 on
        raise ValueError(f"n = {n} is past 150, where 2^n n! in R_n overflows float64")
    lam = math.sqrt(params.M * params.omega0)
    pref = (lam * lam / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    consts = lam, derived_constants(params).r0, pref
    if not all(map(math.isfinite, consts)):
        raise ValueError(f"the constants of R_n are not finite in float64 for {params}")
    return consts


def _nr_R(consts, n: int, r, out):
    """R_n at r, into out (an array, also for 0-d r)."""
    lam, r0, pref = consts
    x = r - r0
    np.multiply(-0.5 * lam * lam, x, out=out)
    out *= x
    np.exp(out, out=out)
    out *= pref
    x *= lam
    out *= _hermite(n, x)
    return out


# kind -> (its public evaluator, named in errors; its kernel)
_KERNELS = {
    RadialKind.UPPER_F: ("upper_spinor_F", _upper_F),
    RadialKind.LOWER_G: ("lower_spinor_G", _lower_G),
    RadialKind.NONREL_R: ("nr_radial_R", _nr_R),
    RadialKind.PSEUDO_LOWER_G: ("pseudo_lower_G", _pseudo_G),
}


def _resolve(kind: RadialKind, params: ModelParams, n: int, r, energy: float | None = None,
             fn: str | None = None, kernel=None):
    """(constants, kernel(r, out) bound to them, r as a float array) for the
    evaluator fn of kind, both kind's own by default.  Checks, in this order:
    params are of kind's channel, n, the level is bound (energy, if given,
    stands for it), the constants exist, and r >= 1e-8 for the lower spin
    component.  NONREL_R has no channel and no level, only its own n check."""
    name, own = _KERNELS[kind]
    if kind is RadialKind.NONREL_R:
        consts = _nr_constants(params, n)
    else:
        if params.sym is not kind.sym:
            what = "spin-symmetry" if kind.sym is SymmetryKind.SPIN else "pseudospin"
            raise ValueError(f"{fn or name} requires {what} parameters")
        _check_n(n)  # the kernels' recurrences take n unchecked
        if energy is None:
            level = solve_level(params, n)
            if level.status is not Status.BOUND:
                raise ConstantsUndefined(
                    f"no bound level at n={n} for these parameters ({level.status.value})")
            energy = level.E
        consts = shape_constants(params, energy)
    r = np.asarray(r, dtype=float)
    if kind is RadialKind.LOWER_G and np.any(r < _G_R_MIN):
        raise SingularAtOrigin("lower component needs r >= "
                               + np.format_float_scientific(_G_R_MIN, trim="-", exp_digits=1))
    return consts, partial(kernel or own, consts, n), r


def _overflow(kind: RadialKind, n: int) -> ValueError:
    return ValueError(f"{kind.value} at n={n} has non-finite samples (float64 overflow)")


def _evaluate(kind: RadialKind, params: ModelParams, n: int, r, energy: float | None = None,
              fn: str | None = None, kernel=None):
    """_resolve's kernel over the whole of r; a Python number for scalar r.
    Raises sample_radial's ValueError where a sample is not finite."""
    _, kernel, r = _resolve(kind, params, n, r, energy, fn, kernel)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples raise below
        out = kernel(r, np.empty_like(r))
    if not np.isfinite(out).all():
        raise _overflow(kind, n)
    return out.item() if out.ndim == 0 else out


def upper_spinor_F(params: ModelParams, n: int, r, energy: float | None = None):
    """The printed F at the solved spin level times exp(-eps1 b^2/(2 lambda^2)): |F| <= 1."""
    return _evaluate(RadialKind.UPPER_F, params, n, r, energy)


def nr_radial_R(params: ModelParams, n: int, r):
    """Nonrelativistic radial function: displaced Gaussian times Hermite."""
    return _evaluate(RadialKind.NONREL_R, params, n, r)


def lower_spinor_G(params: ModelParams, n: int, r, energy: float | None = None):
    """Lower spinor component from the derivative relation (authoritative).

    The printed relation times exp(-eps1 b^2/(2 lambda^2)), as upper_spinor_F;
    dF/dr in closed form from F's factors, in F's pass; r >= 1e-8 (kappa/r).
    """
    return _evaluate(RadialKind.LOWER_G, params, n, r, energy)


def _lower_G_closed(sc: ShapeConstants, n: int, r, out=None):
    """The printed closed form of the lower component at r, into out."""
    lam2, envelope, xi, u = sc._factors(r)
    bracket = (-sc.eps1 * u + SymmetryKind.SPIN.kappa / r) * _laguerre(n, 0.0, xi) \
        + 2.0 * lam2 * sc.eps2 * u * _laguerre(n, 1.0, xi)
    return np.multiply(sc.d0 * envelope, bracket, out=out)


def lower_spinor_G_closed_form(params: ModelParams, n: int, r,
                               energy: float | None = None):
    """Printed closed form of the lower component times exp(-eps1 b^2/(2 lambda^2)).

    Carries the polynomial-derivative term as + L_n^(1) of the squared
    argument; compare against lower_spinor_G, do not substitute for it.
    """
    return _evaluate(RadialKind.LOWER_G, params, n, r, energy,
                     "lower_spinor_G_closed_form", _lower_G_closed)


def pseudo_lower_G(params: ModelParams, n: int, r, energy: float | None = None):
    """Pseudospin lower component at the solved pseudospin level.

    The printed form times exp(-eps1 b^2/(2 lambda^2)); its imaginary prefactors
    are exactly real at a bound level, so it returns real float samples.
    """
    return _evaluate(RadialKind.PSEUDO_LOWER_G, params, n, r, energy)


def _guarded_div(num, den):
    """num / den, and 0 where den is 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def simpson(y, x):
    """Composite Simpson integral of samples y on the grid x (N >= 3 points).

    Repeats scipy.integrate.simpson(y, x=x) of SciPy 1.17 on 1-D input
    operation for operation, so the result is the same bit for bit: the
    nonuniform three-point rule over pairs of intervals, and for even N
    Cartwright's correction for the last interval.  The rule for any grid,
    behind mean_radius (sample_radial weighs its own grid uniformly); public
    while the benchmark's traced radial run binds it by name.
    """
    y, x = np.asarray(y), np.asarray(x)
    m = len(x) if len(x) % 2 else len(x) - 1  # the interval pairs span x[:m]
    h = np.diff(x[:m]).astype(float, copy=False)
    h0, h1 = h[0::2], h[1::2]
    hsum = h0 + h1
    h0divh1 = _guarded_div(h0, h1)
    result = np.sum(hsum / 6.0 * (y[0:m - 2:2] * (2.0 - _guarded_div(1.0, h0divh1))
                                  + y[1:m - 1:2] * (hsum * _guarded_div(hsum, h0 * h1))
                                  + y[2:m:2] * (2.0 - h0divh1)))
    if m == len(x):
        return result
    # 0-d arrays, as in SciPy, so that ** takes the same NumPy loop
    h0, h1 = np.asarray(x[-2] - x[-3], float), np.asarray(x[-1] - x[-2], float)
    alpha = _guarded_div(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
    beta = _guarded_div(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
    eta = _guarded_div(1 * h1 ** 3, 6 * h0 * (h0 + h1))
    result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
    return result + 0.0  # SciPy adds 0.0 here too, which turns -0.0 into 0.0


def _pair_weights(x0: float, x1: float, x2: float):
    """simpson's (w, a, b, c) of the pair x0 <= x1 < x2: w (a y0 + b y1 + c y2)."""
    h0, h1 = x1 - x0, x2 - x1
    hsum, q = h0 + h1, h0 / h1
    return (hsum / 6.0, 2.0 - (1.0 / q if q else 0.0),
            hsum * (hsum / (h0 * h1)) if h0 else 0.0, 2.0 - q)


def _norm_sq(values, h: float, pair) -> float:
    """Simpson integral of values^2 on sample_radial's grid of step h.

    Weights h/3 (1, 4, 2, ..., 4, 1) on the odd-length run values[lo:hi + 1],
    whose interior enters as two strided sums of values^2 per block; an even
    count adds simpson's last-interval correction with h0 = h1 = h (5h/12, 2h/3,
    -h/12).  A pair of _pair_weights weighs the first two intervals instead.
    Every term is a square, so where they overflow the integral is inf.
    """
    n = len(values)
    lo, hi = 0 if pair is None else 2, n - 1 - (n % 2 == 0)
    four = two = 0.0
    inner = values[lo + 1:hi]
    for s in _blocks(len(inner)):
        d = np.square(inner[s])
        four += d[::2].sum()
        two += d[1::2].sum()
    y0, y1, y_lo, y_hi, y_n3, y_n1 = np.square(values[[0, 1, lo, hi, n - 3, n - 1]]).tolist()
    total = h / 3.0 * (y_lo + 4.0 * four + 2.0 * two + y_hi) if hi > lo else 0.0
    if pair is not None:
        w, a, b, c = pair
        total += w * (y0 * a + y1 * b + y_lo * c)
    if n % 2 == 0 and total < math.inf:  # past an overflow it adds inf - inf
        total += 5.0 / 12.0 * h * y_n1 + 2.0 / 3.0 * h * y_hi - h / 12.0 * y_n3
    return float(total)


def mean_radius(rf: "RadialFunction") -> float:
    """Numeric <r> of the stored samples.

    Reported as a diagnostic only; no sign convention is asserted on the
    displacement (the closed forms place the density center at +r0).
    """
    w = rf.values ** 2
    return float(simpson(rf.r * w, rf.r) / simpson(w, rf.r))


def _blocks(size: int) -> list[slice]:
    """Slices that cover range(size) in runs of _BLOCK; a remainder shorter
    than _BLOCK // 2 joins the run before it (one empty slice for size 0)."""
    starts = range(0, max(size - _BLOCK // 2 + 1, 1), _BLOCK)
    return [slice(lo, lo + _BLOCK) for lo in starts[:-1]] + [slice(starts[-1], None)]


def _peak(parts):
    """max |p| over the arrays p of parts; nan if any sample is nan."""
    return reduce(np.maximum, [np.maximum.reduce(np.abs(p)) for p in parts])


def _count_nodes(v: np.ndarray, blocks, peak=None) -> int:
    """count_nodes of the real 1-D v over blocks; peak is max |v|, if the
    caller has it."""
    parts = [v[s] for s in blocks]
    peak = _peak(parts) if peak is None else peak
    if peak == 0.0:
        return 0
    nodes, last = 0, None
    for block in parts:
        signs = np.sign(block[np.abs(block) > 1e-9 * peak])
        if len(signs):
            nodes += int(np.count_nonzero(signs[1:] != signs[:-1]))
            nodes += last is not None and bool(signs[0] != last)
            last = signs[-1]
    return nodes


def count_nodes(values) -> int:
    """Interior sign changes of real values, ignoring samples below 1e-9 of
    the peak; complex values raise ValueError.

    Runs a block at a time, carrying the last kept sign across block edges.
    """
    v = np.asarray(values).reshape(-1)
    if v.dtype.kind == "c":
        raise ValueError("count_nodes takes real values, got a complex array")
    return _count_nodes(v, _blocks(len(v)))


@dataclass(frozen=True)
class RadialFunction:
    """A sampled radial component with normalization and node metadata.

    norm is the L2 integral of the stored samples on [r[0], r[-1]] by
    composite Simpson quadrature (approximately 1 after normalization);
    origin_defect is |f(r[0])| / max|f|, the boundary-condition violation
    of the printed closed forms.
    """

    kind: RadialKind
    n: int
    r: np.ndarray
    values: np.ndarray
    norm: float
    nodes: int
    normalized: bool
    origin_defect: float


def default_r_max(params: ModelParams) -> float:
    """Envelope-based sampling window: r0 + 20 / lambda (<= 0 when q eps < 0
    moves the well far enough, which sample_radial rejects)."""
    lam = math.sqrt(params.M * params.omega0)
    return derived_constants(params).r0 + 20.0 / lam


def sample_radial(kind: RadialKind, params: ModelParams, n: int,
                  r_max: float | None = None, samples: int = 2001,
                  normalize: bool = True) -> RadialFunction:
    """Sample a radial component on [0, r_max] and optionally L2-normalize.

    The norm takes Simpson's uniform weights on this linspace grid.  The
    lower spin component is sampled from r = 1e-8 instead of 0 (its kappa/r
    term diverges there, so its norm depends on that cutoff) and keeps
    simpson's nonuniform weights on its first interval pair.
    """
    if samples < 3:
        raise ValueError(f"samples must be >= 3, got {samples}")
    if r_max is None:
        r_max = default_r_max(params)
        _check_r_max(r_max, " (the default r0 + 20/lambda); pass r_max (--r-max)")
    else:
        _check_r_max(r_max)
    r = np.linspace(0.0, r_max, samples)
    if kind is RadialKind.LOWER_G:
        r[0] = _G_R_MIN
    _, kernel, r = _resolve(kind, params, n, r)  # checks r[1] >= r[0] for LOWER_G
    pair = _pair_weights(*r[:3].tolist()) if kind is RadialKind.LOWER_G else None
    h = float(r_max) / (samples - 1)  # linspace's own step
    # every pass below works through r and values _BLOCK samples at a time
    values, blocks = np.empty_like(r), _blocks(samples)
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples raise below
        for s in blocks:
            kernel(r[s], values[s])
        norm = _norm_sq(values, h, pair)
        if normalize:
            if not math.isfinite(norm):
                # |values|^2 overflowed: normalize the peak-scaled samples instead
                raw_peak = float(_peak(values[s] for s in blocks))
                if 0.0 < raw_peak < math.inf:
                    values /= raw_peak
                    norm = _norm_sq(values, h, pair)
            if norm <= 0.0:
                raise ValueError("cannot normalize an identically zero function")
            values /= math.sqrt(norm)
            norm = _norm_sq(values, h, pair)
        peak = float(_peak(values[s] for s in blocks))
    if not math.isfinite(peak):
        raise _overflow(kind, n)
    return RadialFunction(
        kind=kind,
        n=n,
        r=r,
        values=values,
        norm=norm,
        nodes=_count_nodes(values, blocks, peak),
        normalized=normalize,
        origin_defect=float(abs(values[0]) / peak) if peak > 0.0 else 0.0,
    )


@dataclass(frozen=True)
class GDeviationReport:
    """lower_spinor_G (numeric) against the printed closed form (closed_form).

    max_rel_deviation / mean_rel_deviation quantify their disagreement
    (expected to be O(1): the printed polynomial-derivative term does not
    match the actual derivative).  richardson_defect checks numeric's closed-
    form dF/dr independently: max |numeric - G_ex| / max(1, max |G_ex|), G_ex
    the relation on the Richardson extrapolation of the central differences
    of step h = 1e-6 max(1, r) and h/2.
    """

    r: np.ndarray
    numeric: np.ndarray
    closed_form: np.ndarray
    max_rel_deviation: float
    mean_rel_deviation: float
    richardson_defect: float


def g_deviation_report(params: ModelParams, n: int) -> GDeviationReport:
    """Compare the two lower-component paths on 200 points of [0.1, 20]."""
    sc, closed_form, r = _resolve(RadialKind.LOWER_G, params, n, np.linspace(0.1, 20.0, 200),
                                  fn="g_deviation_report", kernel=_lower_G_closed)
    closed = closed_form(r)
    numeric = _lower_G(sc, n, r)
    scale = np.maximum(np.maximum(np.abs(numeric), np.abs(closed)), 1e-300)
    rel = np.abs(numeric - closed) / scale

    # the closed-form dF/dr against central differences of step h and h/2, extrapolated
    h = 1e-6 * np.maximum(1.0, r)
    d_h, d_h2 = ((_upper_F(sc, n, r + s) - _upper_F(sc, n, r - s)) / (2.0 * s) for s in (h, h / 2))
    g_ex = sc._lower_g((4.0 * d_h2 - d_h) / 3.0, _upper_F(sc, n, r), r)
    rich = np.max(np.abs(numeric - g_ex)) / max(1.0, float(np.max(np.abs(g_ex))))

    return GDeviationReport(
        r=r,
        numeric=numeric,
        closed_form=closed,
        max_rel_deviation=float(np.max(rel)),
        mean_rel_deviation=float(np.mean(rel)),
        richardson_defect=float(rich),
    )
