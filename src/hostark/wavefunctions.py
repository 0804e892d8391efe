"""Radial wavefunction evaluators for the oscillator-plus-linear problem.

Shape constants (hbar = c = 1):

    lambda = sqrt(M w0),   b = q eps / w0,   b / lambda^2 = r0,

so the Gaussian envelopes are centered on the displaced well bottom.  The
relativistic upper component is evaluated exactly as its closed form is
written,

    F_n(r) = N exp[-eps1 (lambda^2 r^2/2 - b r)] L_n[eps2 (lambda^2 r - b)^2],

with eps1 = sqrt(gamma/(2M)), eps2 = gamma/(2Mv) taken at the solved level
energy (gamma = E + M - C_s).  The printed lower-component closed form is
reproduced verbatim as well, but the authoritative lower component is the
derivative relation

    G(r) = d0 (d/dr + kappa/r) F(r),      d0 = 1/gamma,

computed by central differences; the two are compared, never forced to
agree (the printed form carries a Laguerre-derivative term with a
nonstandard index and sign).

The nonrelativistic radial function is the displaced-oscillator solution

    R_n(r) = (lambda^2/pi)^(1/4) 1/sqrt(2^n n!) exp[-lambda^2 (r-r0)^2 / 2]
             H_n(lambda (r - r0)),

which is the authoritative shape for node-count and orthogonality checks.

The pseudospin lower component is evaluated over complex arithmetic as
printed; for bound levels (gamma_tilde < 0) the imaginary prefactors
combine to a real function, and the residual imaginary part after global
phase alignment is reported as a diagnostic.

None of the closed forms vanish at r = 0 once eps > 0 (they are full-line
oscillator solutions used on the half line); the origin value relative to
the peak is reported as a defect rather than corrected.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelParams, SymmetryKind, _check_n, _check_r_max, derived_constants
from .spectra import EnergyLevel, Status, solve_level


class ConstantsUndefined(ValueError):
    """Shape constants are not defined at this energy (e.g. gamma <= 0)."""


class SingularAtOrigin(ValueError):
    """The kappa/r term makes the lower component singular at r = 0."""


class RadialKind(Enum):
    UPPER_F = "UpperF"
    LOWER_G = "LowerG"
    NONREL_R = "NonRelR"
    PSEUDO_LOWER_G = "PseudoLowerG"

    @property
    def sym(self) -> SymmetryKind:
        """The symmetry limit whose parameters this component is evaluated at."""
        if self is RadialKind.PSEUDO_LOWER_G:
            return SymmetryKind.PSEUDOSPIN
        return SymmetryKind.SPIN


@dataclass(frozen=True)
class ShapeConstants:
    """Envelope and polynomial-argument constants at a solved level.

    Spin levels fill eps1, eps2, d0; pseudospin levels fill the complex
    eps1p, eps2p instead (gamma_tilde < 0 for bound states, so square roots
    land on the imaginary axis).
    """

    lambda_scale: float
    b: float
    eps1: float | None = None
    eps2: float | None = None
    eps1p: complex | None = None
    eps2p: complex | None = None
    d0: float | None = None

    def _spin_factors(self, r):
        """lambda^2, the envelope exp[-eps1 (lambda^2 r^2/2 - b r)] and the
        Laguerre argument eps2 (lambda^2 r - b)^2 of the spin components, as new arrays."""
        lam2 = self.lambda_scale ** 2
        envelope = np.multiply(0.5 * lam2, r, out=np.empty_like(r))
        envelope *= r
        envelope -= self.b * r
        envelope *= -self.eps1
        xi = lam2 * r  # a scalar for 0-d r: there ** 2 is C pow, not np.square
        xi -= self.b
        xi **= 2
        xi *= self.eps2
        return lam2, np.exp(envelope, out=envelope), xi

    def _lower_g(self, dF, F, r):
        """The spin derivative relation d0 (dF/dr + kappa/r F)."""
        return self.d0 * (dF + SymmetryKind.SPIN.kappa / r * F)


def _level_energy(params: ModelParams, n: int, energy: float | None) -> float:
    if energy is not None:
        return energy
    level: EnergyLevel = solve_level(params, n)
    if level.status is not Status.BOUND:
        raise ConstantsUndefined(
            f"no bound level at n={n} for these parameters ({level.status.value})"
        )
    return level.E


def _evaluation(fn: str, kind: RadialKind, params: ModelParams, n: int, r,
                energy: float | None):
    """(E, shape constants, r as a float array) for the evaluator fn of kind:
    params must be of its channel, and r >= 1e-8 for the lower spin component."""
    if params.sym is not kind.sym:
        what = "spin-symmetry" if kind.sym is SymmetryKind.SPIN else "pseudospin"
        raise ValueError(f"{fn} requires {what} parameters")
    E = _level_energy(params, n, energy)
    sc, r = shape_constants(params, E), np.asarray(r, dtype=float)
    if kind is RadialKind.LOWER_G and np.any(r < 1e-8):
        raise SingularAtOrigin("lower component needs r >= 1e-8")
    return E, sc, r


def shape_constants(params: ModelParams, energy: float) -> ShapeConstants:
    """Constants entering the closed forms, evaluated at a level energy."""
    lam = math.sqrt(params.M * params.omega0)
    b = params.q * params.eps / params.omega0
    gamma = -params.kappa * (energy - params.kappa * params.M - params.C)
    if params.kappa < 0:
        if gamma <= 0.0:
            raise ConstantsUndefined(f"gamma = {gamma} <= 0 at E = {energy}")
        v = math.sqrt(0.5 * params.M * params.omega0 ** 2 * gamma)
        return ShapeConstants(
            lambda_scale=lam,
            b=b,
            eps1=math.sqrt(gamma / (2.0 * params.M)),
            eps2=gamma / (2.0 * params.M * v),
            d0=1.0 / gamma,
        )
    gamma_t = complex(gamma)
    v_t = cmath.sqrt(0.5 * params.M * params.omega0 ** 2 * gamma_t)
    if abs(v_t) == 0.0:
        raise ConstantsUndefined(f"gamma_tilde vanishes at E = {energy}")
    return ShapeConstants(
        lambda_scale=lam,
        b=b,
        eps1p=cmath.sqrt(gamma_t) / (2.0 * params.M),
        eps2p=gamma_t / (2.0 * params.M * v_t),
    )


def hermite(n: int, x):
    """Physicists' Hermite polynomial via H_{k+1} = 2x H_k - 2k H_{k-1}."""
    n = _check_n(n)
    x = np.asarray(x)
    dtype = complex if np.iscomplexobj(x) else float
    h = np.ones_like(x, dtype=dtype)
    if n == 0:
        return h[()] if h.ndim == 0 else h
    hm1 = np.zeros_like(x, dtype=dtype)
    tmp, x2 = np.empty_like(h), 2.0 * x
    for k in range(n):
        np.subtract(np.multiply(x2, h, out=tmp), np.multiply(2.0 * k, hm1, out=hm1), out=hm1)
        h, hm1 = hm1, h  # H_{k+1} in H_{k-1}'s buffer
    return h[()] if h.ndim == 0 else h


def assoc_laguerre(n: int, alpha: float, x):
    """Associated Laguerre polynomial via the three-term recurrence."""
    n = _check_n(n)
    if alpha <= -1:
        raise ValueError(f"alpha must be > -1, got {alpha}")
    x = np.asarray(x)
    dtype = complex if np.iscomplexobj(x) else float
    lk = np.ones_like(x, dtype=dtype)
    if n == 0:
        return lk[()] if lk.ndim == 0 else lk
    lkp1, tmp = np.subtract(1.0 + alpha, x, out=np.empty_like(lk)), np.empty_like(lk)
    for k in range(1, n):
        np.multiply(np.subtract(2 * k + 1 + alpha, x, out=tmp), lkp1, out=tmp)
        np.subtract(tmp, np.multiply(k + alpha, lk, out=lk), out=lk)
        lk, lkp1 = lkp1, np.divide(lk, k + 1, out=lk)  # L_{k+1} in L_{k-1}'s buffer
    return lkp1[()] if lkp1.ndim == 0 else lkp1


def upper_spinor_F(params: ModelParams, n: int, r, energy: float | None = None):
    """Unnormalized upper spinor component at the solved spin level."""
    _, sc, r = _evaluation("upper_spinor_F", RadialKind.UPPER_F, params, n, r, energy)
    _, out, xi = sc._spin_factors(r)
    out *= assoc_laguerre(n, 0.0, xi)
    return float(out) if out.ndim == 0 else out


def nr_radial_R(params: ModelParams, n: int, r):
    """Nonrelativistic radial function: displaced Gaussian times Hermite."""
    n = _check_n(n)
    if n > 150:  # 2^n n! overflows float64 from n = 151 on
        raise ValueError(f"n = {n} is past 150, where 2^n n! in R_n overflows float64")
    lam = math.sqrt(params.M * params.omega0)
    r0 = derived_constants(params).r0
    r = np.asarray(r, dtype=float)
    x = r - r0
    pref = (lam * lam / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    out = np.multiply(-0.5 * lam * lam, x, out=np.empty_like(r))
    out *= x
    np.exp(out, out=out)
    out *= pref
    x *= lam
    out *= hermite(n, x)
    return float(out) if out.ndim == 0 else out


def _central_dF(params: ModelParams, n: int, r, h, E: float):
    """dF/dr of the upper spin component by the central difference of step h."""
    return (upper_spinor_F(params, n, r + h, E) - upper_spinor_F(params, n, r - h, E)) / (2.0 * h)


def lower_spinor_G(params: ModelParams, n: int, r, energy: float | None = None):
    """Lower spinor component from the derivative relation (authoritative).

    Central differences with step h = 1e-6 max(1, r); r must stay >= 1e-8
    because of the kappa/r term.
    """
    E, sc, r = _evaluation("lower_spinor_G", RadialKind.LOWER_G, params, n, r, energy)
    dF = _central_dF(params, n, r, 1e-6 * np.maximum(1.0, r), E)
    out = sc._lower_g(dF, upper_spinor_F(params, n, r, E), r)
    return float(out) if out.ndim == 0 else out


def lower_spinor_G_closed_form(params: ModelParams, n: int, r,
                               energy: float | None = None):
    """Printed closed form of the lower component, reproduced verbatim.

    Carries the polynomial-derivative term as + L_n^(1) of the squared
    argument; compare against lower_spinor_G, do not substitute for it.
    """
    _, sc, r = _evaluation("lower_spinor_G_closed_form", RadialKind.LOWER_G,
                           params, n, r, energy)
    lam2, envelope, xi = sc._spin_factors(r)
    bracket = (sc.eps1 * (sc.b - lam2 * r) + SymmetryKind.SPIN.kappa / r) \
        * assoc_laguerre(n, 0.0, xi) \
        + 2.0 * lam2 * sc.eps2 * (lam2 * r - sc.b) * assoc_laguerre(n, 1.0, xi)
    out = sc.d0 * envelope * bracket
    return float(out) if out.ndim == 0 else out


def pseudo_lower_G(params: ModelParams, n: int, r, energy: float | None = None):
    """Pseudospin lower component, evaluated over complex arithmetic.

    For bound levels the result is real up to floating-point noise; use
    realness_defect to quantify the residual imaginary part.
    """
    _, sc, r = _evaluation("pseudo_lower_G", RadialKind.PSEUDO_LOWER_G, params, n, r, energy)
    lam2 = sc.lambda_scale ** 2
    arg = -1j * sc.eps2p * (lam2 * r - sc.b) ** 2
    out = np.exp(1j * sc.eps1p * (-sc.b * r + 0.5 * lam2 * r * r)) * hermite(n, arg)
    return complex(out) if out.ndim == 0 else out


def _guarded_div(num, den):
    """num / den, and 0 where den is 0."""
    return np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)


def _simpson_rule(x):
    """simpson(., x) as a function of y alone: the factors that depend on the
    grid x only are computed once, for every integral on that grid."""
    h = np.diff(x)
    odd = len(x) % 2 == 1
    stop = len(x) - 2 if odd else len(x) - 3
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    hprod = h0 * h1
    h0divh1 = _guarded_div(h0, h1)
    w, c = hsum / 6.0, 2.0 - h0divh1
    a, b = 2.0 - _guarded_div(1.0, h0divh1), hsum * _guarded_div(hsum, hprod)
    if not odd:
        # 0-d arrays, as in SciPy, so that ** takes the same NumPy loop
        h0, h1 = np.asarray(h[-2]), np.asarray(h[-1])
        alpha = _guarded_div(2 * h1 ** 2 + 3 * h0 * h1, 6 * (h1 + h0))
        beta = _guarded_div(h1 ** 2 + 3.0 * h0 * h1, 6 * h0)
        eta = _guarded_div(1 * h1 ** 3, 6 * h0 * (h0 + h1))

    def integrate(y):
        y = np.asarray(y)
        acc = y[0:stop:2] * a  # w * (y0 a + y1 b + y2 c), summed in one buffer
        acc += y[1:stop + 1:2] * b
        acc += y[2:stop + 2:2] * c
        acc *= w
        result = np.sum(acc)
        if odd:
            return result
        result += alpha * y[-1] + beta * y[-2] - eta * y[-3]
        return result + 0.0  # SciPy adds 0.0 here too, which turns -0.0 into 0.0

    return integrate


def simpson(y, x):
    """Composite Simpson integral of samples y on the grid x (N >= 3 points).

    Repeats scipy.integrate.simpson(y, x=x) of SciPy 1.17 on 1-D input
    operation for operation, so the result is the same bit for bit: the
    nonuniform three-point rule over pairs of intervals, and for even N
    Cartwright's correction for the last interval.  sample_radial and
    mean_radius compute the grid factors once for all their integrals.
    """
    return _simpson_rule(x)(y)


def mean_radius(rf: "RadialFunction") -> float:
    """Numeric <r> of the stored samples.

    Reported as a diagnostic only; no sign convention is asserted on the
    displacement (the closed forms place the density center at +r0).
    """
    w = np.abs(rf.values) ** 2
    integrate = _simpson_rule(rf.r)
    return float(integrate(rf.r * w) / integrate(w))


def realness_defect(values) -> float:
    """Max |Im| after aligning the global phase, relative to the peak."""
    v = np.asarray(values, dtype=complex)
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return 0.0
    ref = v[np.argmax(np.abs(v))]
    aligned = v * np.conj(ref / abs(ref))
    return float(np.max(np.abs(aligned.imag)) / peak)


def count_nodes(values) -> int:
    """Interior sign changes, ignoring samples below 1e-9 of the peak."""
    v = np.asarray(values)
    if np.iscomplexobj(v):
        ref = v[np.argmax(np.abs(v))]
        v = (v * np.conj(ref / abs(ref))).real
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return 0
    keep = v[np.abs(v) > 1e-9 * peak]
    signs = np.sign(keep)
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


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

    @property
    def samples(self) -> np.ndarray:
        return np.column_stack((self.r, self.values))


def default_r_max(params: ModelParams) -> float:
    """Envelope-based sampling window: r0 + 20 / lambda (<= 0 when q eps < 0
    moves the well far enough, which sample_radial rejects)."""
    lam = math.sqrt(params.M * params.omega0)
    return derived_constants(params).r0 + 20.0 / lam


_EVALUATORS = {
    RadialKind.UPPER_F: upper_spinor_F,
    RadialKind.LOWER_G: lower_spinor_G,
    RadialKind.NONREL_R: nr_radial_R,
    RadialKind.PSEUDO_LOWER_G: pseudo_lower_G,
}


def sample_radial(kind: RadialKind, params: ModelParams, n: int,
                  r_max: float | None = None, samples: int = 2001,
                  normalize: bool = True) -> RadialFunction:
    """Sample a radial component on [0, r_max] and optionally L2-normalize.

    The lower spin component is sampled from r = 1e-8 instead of 0 (its
    kappa/r term diverges there, so its norm depends on that cutoff).
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
        r[0] = 1e-8
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite samples raise below
        values = np.asarray(_EVALUATORS[kind](params, n, r))
        integrate, modulus = _simpson_rule(r), np.abs(values)
        norm = float(integrate(modulus ** 2))
        if normalize:
            if not math.isfinite(norm):
                # |values|^2 overflowed: normalize the peak-scaled samples instead
                raw_peak = float(np.max(modulus))
                if 0.0 < raw_peak < math.inf:
                    values /= raw_peak
                    norm = float(integrate(np.abs(values, out=modulus) ** 2))
            if norm <= 0.0:
                raise ValueError("cannot normalize an identically zero function")
            values /= math.sqrt(norm)
            norm = float(integrate(np.abs(values, out=modulus) ** 2))
    peak = float(np.max(modulus))
    if not math.isfinite(peak):
        raise ValueError(f"{kind.value} at n={n} has non-finite samples (float64 overflow)")
    return RadialFunction(
        kind=kind,
        n=n,
        r=r,
        values=values,
        norm=norm,
        nodes=count_nodes(values),
        normalized=normalize,
        origin_defect=float(abs(values[0]) / peak) if peak > 0.0 else 0.0,
    )


@dataclass(frozen=True)
class GDeviationReport:
    """Numeric-derivative vs printed closed form for the lower component.

    max_rel_deviation / mean_rel_deviation quantify their disagreement
    (expected to be O(1): the printed polynomial-derivative term does not
    match the actual derivative).  richardson_defect certifies the numeric
    path itself: it compares the h and h/2 central differences against
    their Richardson extrapolation.
    """

    r: np.ndarray
    numeric: np.ndarray
    closed_form: np.ndarray
    max_rel_deviation: float
    mean_rel_deviation: float
    richardson_defect: float


def g_deviation_report(params: ModelParams, n: int) -> GDeviationReport:
    """Compare the two lower-component paths on 200 points of [0.1, 20]."""
    E = _level_energy(params, n, None)
    sc = shape_constants(params, E)
    r = np.linspace(0.1, 20.0, 200)
    closed = lower_spinor_G_closed_form(params, n, r, E)
    # lower_spinor_G's central difference, kept for the h-refinement below
    h = 1e-6 * np.maximum(1.0, r)
    d_h = _central_dF(params, n, r, h, E)
    f0 = upper_spinor_F(params, n, r, E)
    numeric = sc._lower_g(d_h, f0, r)
    scale = np.maximum(np.maximum(np.abs(numeric), np.abs(closed)), 1e-300)
    rel = np.abs(numeric - closed) / scale

    # h-refinement consistency of the derivative path
    d_h2 = _central_dF(params, n, r, h / 2.0, E)
    g_ex = sc._lower_g((4.0 * d_h2 - d_h) / 3.0, f0, r)
    rich = np.max(np.abs(sc._lower_g(d_h2, f0, r) - g_ex)) / max(1.0, float(np.max(np.abs(g_ex))))

    return GDeviationReport(
        r=r,
        numeric=numeric,
        closed_form=closed,
        max_rel_deviation=float(np.max(rel)),
        mean_rel_deviation=float(np.mean(rel)),
        richardson_defect=float(rich),
    )
