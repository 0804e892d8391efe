"""The batch route of spectrum_grid: the scalar level stage over NumPy arrays."""

from __future__ import annotations

import math

import numpy as np

from .model import ModelParams, _stark_shift
from .spectra import (
    _BOUNDARY_TOL, _COMPLEX, _LOWER, _MAX_HALVINGS, _REASONS, ChannelScalars, EnergyLevel,
    RejectedRoot, Status, _alternate_code, _cbrt, _condition, _deflate, _depressed,
    _level_bcd, _level_scalars, _margin_forms, _margins, _power, _rhs_squared, solve_level,
)

# ---------------------------------------------------------------- batch route
#
# _solve_grid repeats the scalar stage (_level_bcd, _cubic_roots, _select)
# over arrays of cells, operation for operation, so each level it builds
# equals solve_level's bit for bit.  Every formula comes from spectra
# (_level_bcd, _depressed, _deflate, _condition, _margins, _margin_forms,
# _level_scalars, _alternate_code, _REASONS); this module keeps only the
# array control flow and the emulation of CPython arithmetic.  Every field
# of a level is a column over all cells; the margin-form refinement bisects
# all its cells at once (_bisect_batch stops each where _bisect would), and
# only cells whose cubic is not finite take the scalar stage, which raises
# for them.  So a grid costs about the same whatever share of its cells
# needs refinement.  Two kinds of operation are not vectorised, because
# NumPy's versions can differ from CPython's in the last bit: powers, cube
# roots, arccos and cos run through Python's math per element (_map), and
# Newton steps repeat CPython's complex product and quotient in real
# arithmetic (_cmul, _cdiv), which at a zero imaginary part reduce to
# _polish's real steps.


def _map(fn, x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), float, len(x))


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


def _newton_batch(zr, zi, B, C, D):
    """_polish over arrays, in CPython's complex arithmetic (a float operand
    enters as x + 0j): f = ((z + B) z + C) z + D, fp = (3z + 2B) z + C."""
    active = np.ones(zr.shape, dtype=bool)
    for _ in range(4):
        fr, fi = _cmul(zr + B, zi + 0.0, zr, zi)
        fr, fi = _cmul(fr + C, fi + 0.0, zr, zi)
        fr, fi = fr + D, fi + 0.0
        pr, pi = _cmul(3.0, 0.0, zr, zi)
        pr, pi = _cmul(pr + 2.0 * B, pi + 0.0, zr, zi)
        pr, pi = pr + C, pi + 0.0
        sr, si = _cdiv(fr, fi, pr, pi)
        abs_z = np.hypot(zr, zi)
        active &= ~(np.hypot(pr, pi) < 1e-300)
        active &= ~(np.hypot(sr, si) < 1e-18 * np.where(abs_z > 1.0, abs_z, 1.0))
        zr = np.where(active, zr - sr, zr)
        zi = np.where(active, zi - si, zi)
    return zr, zi


def _cubic_roots_batch(B, C, D):
    """_cubic_roots over 1-d arrays of cubics.

    Returns (re, im, cardano_real, finite): re and im have shape (cells, 3)
    and hold the polished roots sorted by (real, imag); finite marks the
    cells that _cubic_roots does not reject.
    """
    d, e = _depressed(B, C, D)
    p = -_map(lambda x: _power(x, 3), d / 3.0)
    cardano_real = e * e >= 4.0 * p
    re = np.empty((len(B), 3))
    im = np.zeros((len(B), 3))

    c = cardano_real
    Bc, Cc, dc, ec = B[c], C[c], d[c], e[c]
    x = ec * ec - 4.0 * p[c]
    s = np.sqrt(np.where(0.0 > x, 0.0, x))  # max(x, 0.0)
    z3 = np.where(ec > 0.0, -ec / 2.0 - s / 2.0, -ec / 2.0 + s / 2.0)
    z = _map(_cbrt, np.where(dc == 0.0, -ec, z3))
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
    u = np.sqrt(-d[t] / 3.0)
    arg = -e[t] / (2.0 * _map(lambda x: _power(x, 3), u))
    arg = np.where(arg > -1.0, arg, -1.0)  # min(1.0, max(-1.0, arg))
    arg = np.where(arg < 1.0, arg, 1.0)
    theta = _map(math.acos, arg) / 3.0
    for k in range(3):
        re[t, k] = (2.0 * u * _map(math.cos, theta - 2.0 * math.pi * k / 3.0)
                    - B[t] / 3.0)

    re, im = _newton_batch(re, im, B[:, None], C[:, None], D[:, None])
    for a, b in ((0, 1), (1, 2), (0, 1)):  # stable sort by (real, imag)
        swap = (re[:, a] > re[:, b]) | ((re[:, a] == re[:, b]) & (im[:, a] > im[:, b]))
        re[swap, a], re[swap, b] = re[swap, b], re[swap, a]
        im[swap, a], im[swap, b] = im[swap, b], im[swap, a]
    finite = np.isfinite(np.column_stack((B, C, D, d, e, p, re, im))).all(axis=1)
    return re, im, cardano_real, finite


def _select_batch(kappa: int, re, im, M: float, C: float, gp, k, w2: float):
    """_select's classification and residual over cells of three roots.

    Returns (codes, bound, selected, residual); selected is the first of the
    largest surviving energies, as Python's max picks it.
    """
    complex_ = np.abs(im) > 1e-9 * (1.0 + np.hypot(re, im))
    abs_E = np.abs(re)
    tol = _BOUNDARY_TOL * np.where(abs_E > 1.0, abs_E, 1.0)
    m1, m2 = _margins(kappa, re, M, C, gp[:, None])
    codes = np.where(complex_, _COMPLEX, (m1 < -tol) + 2 * (m2 < -tol))
    selected = np.full(gp.shape, np.nan)
    bound = np.zeros(gp.shape, dtype=bool)
    for col in range(3):
        take = (codes[:, col] == 0) & (~bound | (re[:, col] > selected))
        selected = np.where(take, re[:, col], selected)
        bound |= take
    m1, m2 = _margins(kappa, selected, M, C, gp)
    domain = m1 > 0.0 if kappa < 0 else m1 >= 0.0
    residual = np.where(domain, _condition(kappa, k, m1, m2, w2, np.sqrt), np.nan)
    return codes, bound, selected, np.abs(residual)


def _bisect_batch(f, a, b):
    """_bisect with tol=0 over arrays of brackets, each cell stopping where
    _bisect stops (after at most _MAX_HALVINGS halvings).  Returns (roots,
    found): found is False where _bisect raises NoSignChange."""
    fa, fb = f(a), f(b)
    found = ~(np.isnan(fa) | np.isnan(fb) | ((fa < 0.0) == (fb < 0.0)))
    exact, x = (fa == 0.0) | (fb == 0.0), np.where(fa == 0.0, a, b)
    live = found & ~exact
    for _ in range(_MAX_HALVINGS):
        m = 0.5 * (a + b)
        live &= ~(b - a <= 0.0) & (m != a) & (m != b)
        if not live.any():
            break
        fm = f(m)
        hit = live & (fm == 0.0)
        exact, x, live = exact | hit, np.where(hit, m, x), live & ~hit
        lo = live & ((fm < 0.0) == (fa < 0.0))
        hi = live & ~lo
        a, fa = np.where(lo, m, a), np.where(lo, fm, fa)
        b, fb = np.where(hi, m, b), np.where(hi, fm, fb)
    return np.where(exact, x, 0.5 * (a + b)), found


def _refine_batch(kappa: int, k, M: float, C: float, gp, w2: float, E, residual):
    """_refine_near_boundary over arrays of cells, kept where it lowers the
    residual as _select keeps it.  Returns the new (E, residual)."""
    (b1, d1, m1), (b2, d2, m2) = _margin_forms(
        kappa, M, C, gp, lambda x: np.where(0.0 > x, 0.0, x))
    first = ~(np.abs(E - b2) < np.abs(E - b1))  # min() keeps the first on ties
    boundary, direction = np.where(first, b1, b2), np.where(first, d1, d2)
    cond = lambda margins, t: _condition(kappa, k, *margins(t), w2, np.sqrt)
    f = lambda t: np.where(first, cond(m1, t), cond(m2, t))
    t0 = direction * (E - boundary)
    t, found = _bisect_batch(f, t0 / 16.0, t0 * 16.0)
    r = np.abs(f(t))
    keep = (0.0 < t0) & (t0 < math.inf) & found & (r < residual)
    return np.where(keep, boundary + direction * t, E), np.where(keep, r, residual)


def _solve_grid(grid: list[ModelParams], n_max: int) -> list[EnergyLevel]:
    """Levels of the cells (n, grid[j]), n outer, as one NumPy batch.

    The parameters differ only in eps.  Roots, selection, residual, boundary
    flag, gamma/alpha/v/beta, the margin-form refinement and the alternates'
    values and reasons are columns; the loop only builds the result objects
    from them.  Cells whose cubic is not finite take the scalar stage, which
    raises for them as solve_level does.
    """
    p0 = grid[0]
    kappa = p0.kappa
    M, omega0, C = p0.M, p0.omega0, p0.C
    w2 = M * _power(omega0, 2)
    rows = grid * (n_max + 1)
    ns = [n for n in range(n_max + 1) for _ in grid]
    gp = np.array([_stark_shift(M, omega0, p0.q, p.eps) for p in grid] * (n_max + 1))
    qeps = np.array([p0.q * p.eps for p in grid] * (n_max + 1))
    R = np.repeat([_rhs_squared(M, omega0, n) for n in range(n_max + 1)], len(grid))

    with np.errstate(all="ignore"):
        re, im, cardano_real, finite = _cubic_roots_batch(
            *_level_bcd(kappa, M, C, gp, R))
        k = 2.0 * np.array(ns) + 1.0
        codes, bound, selected, residual = _select_batch(kappa, re, im, M, C, gp, k, w2)
        alt = _alternate_code(codes, re, selected[:, None])
        refine = finite & bound & (residual > 1e-9)
        if refine.any():
            selected[refine], residual[refine] = _refine_batch(
                kappa, k[refine], M, C, gp[refine], w2, selected[refine], residual[refine])
        flag, gamma, alpha, v2, beta = _level_scalars(kappa, selected, M, C, gp, w2, qeps)
        # cmath.sqrt(complex(x)) is (0+0j) for x = -0.0, np.sqrt(-0.0) is -0.0
        v = np.where(v2 > 0.0, np.sqrt(v2), 0.0).astype(complex)
        v.imag = np.where(v2 < 0.0, np.sqrt(-v2), 0.0)

    # alternates in row order, the coded roots of a cell before its lower ones
    order = np.argsort(alt == _LOWER, axis=1, kind="stable")
    alt, re, im = (np.take_along_axis(a, order, axis=1) for a in (alt, re, im))
    im = np.where(alt == _LOWER, 0.0, im)
    keep = alt != 0
    reasons = _REASONS[kappa]
    rejected = [RejectedRoot(complex(r, i), reasons[a]) for r, i, a in zip(
        re[keep].tolist(), im[keep].tolist(), alt[keep].tolist())]
    ends = np.cumsum(keep.sum(axis=1)).tolist()

    levels = []
    start = 0
    for p, n, end, go_scalar, has, E, res, ccr, boundary, g, a, vv, b in zip(
            rows, ns, ends, (~finite).tolist(), bound.tolist(), selected.tolist(),
            residual.tolist(), (~cardano_real).tolist(), flag.tolist(),
            *(x.astype(complex).tolist() for x in (gamma, alpha, v, beta))):
        alternates, start = tuple(rejected[start:end]), end
        if go_scalar:
            levels.append(solve_level(p, n))
        elif has:
            levels.append(EnergyLevel(n, kappa, Status.BOUND, E, res, alternates, ccr,
                                      boundary, ChannelScalars(g, a, vv, b)))
        else:
            levels.append(EnergyLevel(n, kappa, Status.NO_PHYSICAL_ROOT, None, None,
                                      alternates, ccr))
    return levels
