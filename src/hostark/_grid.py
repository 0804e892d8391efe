"""The batch route of spectrum_grid: the scalar level stage over NumPy arrays."""

from __future__ import annotations

import gc
import math
from itertools import repeat

import numpy as np

from .model import ModelParams
from .spectra import (
    _COMPLEX, _FLAT, _LOWER, _MAX_HALVINGS, _PAIR, _REASONS, _REFINE, _RISE, _STEP,
    ChannelScalars, EnergyLevel, RejectedRoot, Status, _alternate_code, _condition,
    _deflate, _depressed, _horner, _in_domain, _level_bcd, _level_scalars, _margin_forms,
    _margins, _power, _records, _rhs_squared, _sign_code, _term_size, solve_level,
)

# ---------------------------------------------------------------- batch route
#
# _solve_grid repeats the scalar stage (_level_bcd, _cubic_roots, _select) over
# arrays, so each level equals solve_level's bit for bit.  What eps alone fixes
# (g', so the cubic's B and C, the depressed d, p = -(d/3)^3 and the
# trigonometric u = sqrt(-d/3) and u^3; n enters only through R) is formed once
# per eps, by the scalar stage's operations on the same operands, and each cell
# reads its eps's value; an IEEE result depends on its operands alone, so no bit
# can move.  The rules come from spectra (the thresholds, the sign codes, the
# unsquared condition, the margin forms, the level scalars); this module keeps
# the array control flow and the emulation of CPython arithmetic.  The
# refinement bisects its cells at once, and the records are built column by
# column with the cyclic collector paused, since they all outlive the build.
# NumPy's powers, cube roots, arccos, cos and complex product and quotient can
# differ from CPython's in the last bit, so the first four call CPython's pow
# and math per element and the last two are written out (_cmul, _cdiv).  _map
# maps a builtin over a column with no Python frame per element: the cubes
# (_cubes) map pow, and _power only where a cube could overflow; the cube roots
# (_cbrts) map pow over |x| and take the sign with NumPy's copysign.  As in
# _cubic_roots, real roots take _polish's float steps and a complex pair's lower
# member is its polished upper one's conjugate; the batch runs all four masked
# steps where _polish stops at a fixed point, which later steps repeat.


def _map(fn, x: np.ndarray, *args) -> np.ndarray:
    """fn(x_i, *args) per element, in Python floats."""
    return np.fromiter(map(fn, x.tolist(), *map(repeat, args)), float, len(x))


# Where |x| < _CUBE_SAFE, x^3 is finite in float64 (5e102^3 = 1.25e308), so
# pow(x, 3) cannot raise the OverflowError that _power handles.
_CUBE_SAFE = 5e102


def _cubes(x: np.ndarray) -> np.ndarray:
    """_power(x, 3) per element, as pow(x, 3) where every |x| < _CUBE_SAFE."""
    return _map(pow if (np.abs(x) < _CUBE_SAFE).all() else _power, x, 3)


def _cbrts(x: np.ndarray) -> np.ndarray:
    """_cbrt per element: pow(|x|, 1/3), which cannot raise, with the sign of x."""
    return np.copysign(_map(pow, np.abs(x), 1.0 / 3.0), x)


def _cmul(ar, ai, br, bi):
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """CPython's complex quotient: scale by the larger component of b."""
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _newton_real(z, B, C, D):
    """_polish of real roots over arrays, in its float steps (_horner),
    refusing a step that raises |f| as _polish does."""
    active = np.ones(z.shape, dtype=bool)
    f, fp = _horner(z, B, C, D)
    for _ in range(4):
        step = f / fp
        active &= ~(np.abs(fp) < _FLAT)
        active &= ~(np.abs(step) < _STEP * np.fmax(np.abs(z), 1.0))  # as max, drops nan
        z_next = z - step
        f_next, fp_next = _horner(z_next, B, C, D)
        active &= ~(np.abs(f_next) - np.abs(f) > _RISE * _term_size(z_next, B, C, D))
        z = np.where(active, z_next, z)
        f = np.where(active, f_next, f)
        fp = np.where(active, fp_next, fp)
    return z


def _newton_complex(zr, zi, B, C, D):
    """_polish of complex roots over arrays, in CPython's complex arithmetic
    (a float operand enters as x + 0j) of _horner's f and f'."""
    active = np.ones(zr.shape, dtype=bool)
    for _ in range(4):
        fr, fi = _cmul(zr + B, zi + 0.0, zr, zi)
        fr, fi = _cmul(fr + C, fi + 0.0, zr, zi)
        fr, fi = fr + D, fi + 0.0
        pr, pi = _cmul(3.0, 0.0, zr, zi)
        pr, pi = _cmul(pr + 2.0 * B, pi + 0.0, zr, zi)
        pr, pi = pr + C, pi + 0.0
        sr, si = _cdiv(fr, fi, pr, pi)
        active &= ~(np.hypot(pr, pi) < _FLAT)
        active &= ~(np.hypot(sr, si) < _STEP * np.fmax(np.hypot(zr, zi), 1.0))
        zr = np.where(active, zr - sr, zr)
        zi = np.where(active, zi - si, zi)
    return zr, zi


def _cubic_roots_batch(B, C, D):
    """_cubic_roots over an (n, eps) grid of cubics: B and C of shape (G,),
    one per eps, and D of shape (N, G).  d, p, u and u^3 depend on B and C
    alone, so they are formed once per eps.

    Returns (roots, cardano_real, finite) over the N G cells, n outer: roots,
    complex of shape (cells, 3), holds the polished roots sorted by (real,
    imag); finite marks the cells that _cubic_roots does not reject.
    """
    d, e = _depressed(B, C, D)
    p = -_cubes(d / 3.0)
    # e^2 < 4p needs p > 0, hence d < 0, so where d >= 0 (or is nan) no
    # trigonometric cell reads u: u = 0 there, not sqrt's nan
    u = np.sqrt(np.where(d < 0.0, -d / 3.0, 0.0))
    col = np.tile(np.arange(len(B)), len(D))  # each cell's eps
    B, C, d, p, u, u3 = (x[col] for x in (B, C, d, p, u, _cubes(u)))
    D, e = D.ravel(), e.ravel()
    cardano_real = e * e >= 4.0 * p
    re = np.empty((len(B), 3))
    im = np.zeros((len(B), 3))

    c = cardano_real
    Bc, Cc, dc, ec = B[c], C[c], d[c], e[c]
    x = ec * ec - 4.0 * p[c]
    s = np.sqrt(np.where(0.0 > x, 0.0, x))  # max(x, 0.0)
    z3 = np.where(ec > 0.0, -ec / 2.0 - s / 2.0, -ec / 2.0 + s / 2.0)
    z = _cbrts(np.where(dc == 0.0, -ec, z3))
    y1 = np.where(dc == 0.0, z, z - dc / (3.0 * z))
    e1, b1, disc = _deflate(y1, Bc, Cc)
    real_pair = disc >= 0.0
    sq = np.sqrt(np.where(real_pair, disc, -disc))
    re[c, 0] = e1
    re[c, 1] = np.where(real_pair, (-b1 + sq) / 2.0, -b1 / 2.0)
    re[c, 2] = np.where(real_pair, (-b1 - sq) / 2.0, -b1 / 2.0)
    im[c, 1] = np.where(real_pair, 0.0, sq / 2.0)
    im[c, 2] = np.where(real_pair, 0.0, -sq / 2.0)

    t = ~cardano_real
    arg = -e[t] / (2.0 * u3[t])
    arg = np.where(arg > -1.0, arg, -1.0)  # min(1.0, max(-1.0, arg))
    arg = np.where(arg < 1.0, arg, 1.0)
    theta = _map(math.acos, arg) / 3.0
    for k in range(3):
        re[t, k] = (2.0 * u[t] * _map(math.cos, theta - 2.0 * math.pi * k / 3.0)
                    - B[t] / 3.0)

    pair = im[:, 1] != 0.0  # a complex pair: polish column 1, conjugate it into 2
    zr, zi = _newton_complex(re[pair, 1], im[pair, 1], B[pair], C[pair], D[pair])
    real = im == 0.0
    re[real] = _newton_real(re[real], *(x[real.nonzero()[0]] for x in (B, C, D)))
    re[pair, 1], re[pair, 2], im[pair, 1], im[pair, 2] = zr, zr, zi, -zi
    roots = np.empty(re.shape, complex)
    roots.real, roots.imag = re, im
    roots.sort(axis=1, kind="stable")  # NumPy orders complex by (real, imag)
    finite = np.isfinite(np.column_stack((B, C, D, d, e, p, roots.real, roots.imag))).all(axis=1)
    return roots, cardano_real, finite


def _select_batch(kappa: int, roots, M: float, C: float, gp, k, w2: float):
    """_select's classification and residual over cells of three roots.

    Returns (codes, bound, selected, residual); selected is the first of the
    largest surviving energies, as Python's max picks it.
    """
    re = roots.real
    complex_ = np.abs(roots.imag) > _PAIR * (1.0 + np.abs(roots))
    codes = np.where(complex_, _COMPLEX, _sign_code(kappa, re, M, C, gp[:, None]))
    selected = np.full(gp.shape, np.nan)
    bound = np.zeros(gp.shape, dtype=bool)
    for col in range(3):
        take = (codes[:, col] == 0) & (~bound | (re[:, col] > selected))
        selected = np.where(take, re[:, col], selected)
        bound |= take
    m1, m2 = _margins(kappa, selected, M, C, gp)
    residual = np.where(_in_domain(kappa, m1), _condition(kappa, k, m1, m2, w2, np.sqrt),
                        np.nan)
    return codes, bound, selected, np.abs(residual)


def _bisect_batch(f, a, b):
    """_bisect with tol=0 over arrays of brackets, each cell stopping where
    _bisect stops (after at most _MAX_HALVINGS halvings).  Returns (roots,
    found): found is False where _bisect raises NoSignChange.  The brackets
    shrink in place on copies of a and b, f(a) keeps its sign, and a live
    bracket stays ordered, so its width is checked once."""
    a, b = a.copy(), b.copy()
    fa, fb = f(a), f(b)
    found = ~(np.isnan(fa) | np.isnan(fb) | ((fa < 0.0) == (fb < 0.0)))
    exact, x = (fa == 0.0) | (fb == 0.0), np.where(fa == 0.0, a, b)
    live, neg = found & ~exact & ~(b - a <= 0.0), fa < 0.0
    for _ in range(_MAX_HALVINGS):
        m = 0.5 * (a + b)
        np.copyto(m, 0.5 * a + 0.5 * b, where=np.isinf(m))  # a + b overflowed
        live &= (m != a) & (m != b)
        if not live.any():
            break
        fm = f(m)
        if not fm.all():  # some f(m) == 0.0
            hit = live & (fm == 0.0)
            exact, x, live = exact | hit, np.where(hit, m, x), live & ~hit
        lo = live & ((fm < 0.0) == neg)
        np.copyto(a, m, where=lo)
        np.copyto(b, m, where=live ^ lo)
    return np.where(exact, x, m), found


def _refine_batch(kappa: int, k, M: float, C: float, gp, w2: float, E, residual):
    """_refine_near_boundary over arrays of cells, kept where it lowers the
    residual as _select keeps it.  Returns the new (E, residual)."""
    (b1, d1, m1), (b2, d2, m2) = _margin_forms(
        kappa, M, C, gp, lambda x: np.where(0.0 > x, 0.0, x))
    first = ~(np.abs(E - b2) < np.abs(E - b1))  # min() keeps the first on ties
    boundary, direction = np.where(first, b1, b2), np.where(first, d1, d2)
    f = lambda t: _condition(kappa, k, *(np.where(first, x1, x2)
                                         for x1, x2 in zip(m1(t), m2(t))), w2, np.sqrt)
    t0 = direction * (E - boundary)
    t, found = _bisect_batch(f, t0 / 16.0, t0 * 16.0)
    r = np.abs(f(t))
    keep = (0.0 < t0) & (t0 < math.inf) & found & (r < residual)
    return np.where(keep, boundary + direction * t, E), np.where(keep, r, residual)


def _solve_grid(grid: list[ModelParams], n_max: int,
                g_shifts: list[float]) -> list[EnergyLevel]:
    """Levels of the cells (n, grid[j]), n outer, as one NumPy batch.

    The parameters differ only in eps; g_shifts[j] is grid[j]'s g_shift.
    The cubic's B and C are formed once per eps (_level_bcd takes g' of shape
    (G,) and R of shape (N, 1)), as are d, p and u^3 in _cubic_roots_batch.
    Roots, selection, residual, boundary flag, gamma/alpha/v/beta, the
    margin-form refinement and the alternates' values and reasons are arrays
    over the cells, and the records are built from them column by column.
    Cells whose cubic is not finite take the scalar stage, which raises for
    them as solve_level does.
    """
    p0 = grid[0]
    kappa = p0.kappa
    M, omega0, C = p0.M, p0.omega0, p0.C
    w2 = M * _power(omega0, 2)
    size, cells = len(grid), len(grid) * (n_max + 1)
    ns = np.repeat(np.arange(n_max + 1), size)
    R = np.array([_rhs_squared(M, omega0, n) for n in range(n_max + 1)])[:, None]
    gp = np.tile(g_shifts, n_max + 1)
    qeps = np.tile([p0.q * p.eps for p in grid], n_max + 1)

    with np.errstate(all="ignore"):
        roots, cardano_real, finite = _cubic_roots_batch(
            *_level_bcd(kappa, M, C, np.array(g_shifts), R))
        k = 2.0 * ns + 1.0
        codes, bound, selected, residual = _select_batch(kappa, roots, M, C, gp, k, w2)
        alt = _alternate_code(codes, roots.real, selected[:, None])
        refine = finite & bound & (residual > _REFINE)
        if refine.any():
            selected[refine], residual[refine] = _refine_batch(
                kappa, k[refine], M, C, gp[refine], w2, selected[refine], residual[refine])
        flag, gamma, alpha, v2, beta = _level_scalars(kappa, selected, M, C, gp, w2, qeps)
        # cmath.sqrt(complex(x)) is (0+0j) for x = -0.0, np.sqrt(-0.0) is -0.0
        v = np.where(v2 > 0.0, np.sqrt(v2), 0.0).astype(complex)
        v.imag = np.where(v2 < 0.0, np.sqrt(-v2), 0.0)

    # alternates in row order, the coded roots of a cell before its lower ones
    # (no spin cell has a lower root)
    lower = alt == _LOWER
    if lower.any():
        order = np.argsort(lower, axis=1, kind="stable")
        alt, roots = (np.take_along_axis(a, order, axis=1) for a in (alt, roots))
        roots.imag[alt == _LOWER] = 0.0
    keep = alt != 0
    values = roots[keep]
    ends = np.cumsum(keep.sum(axis=1)).tolist()
    has = bound & finite
    # ~6.7k records on an 11x100 grid; the caller's collector setting is
    # restored also when a scalar-stage cell raises
    enabled = gc.isenabled()
    gc.disable()
    try:
        rejected = tuple(_records(RejectedRoot, len(values), values.tolist(),
                                  map(_REASONS[kappa].__getitem__, alt[keep].tolist())))
        # gamma/alpha/v/beta as complex for the Bound rows only, placed by row
        scalars = iter(_records(ChannelScalars, int(has.sum()), *(
            x[has].astype(complex).tolist() for x in (gamma, alpha, v, beta))))
        diagnostics = [next(scalars) if h else None for h in has.tolist()]
        levels = _records(
            EnergyLevel, cells, ns.tolist(), repeat(kappa, cells),
            map((Status.NO_PHYSICAL_ROOT, Status.BOUND).__getitem__, bound.tolist()),
            np.where(bound, selected, None).tolist(), np.where(bound, residual, None).tolist(),
            map(rejected.__getitem__, map(slice, [0] + ends, ends)),
            (~cardano_real).tolist(), (flag & bound).tolist(), diagnostics)
        for i in np.flatnonzero(~finite).tolist():
            levels[i] = solve_level(grid[i % size], i // size)
        return levels
    finally:
        if enabled:
            gc.enable()
