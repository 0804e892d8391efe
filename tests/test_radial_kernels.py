"""The radial kernels against a frozen copy of their out-of-place formulas.

hostark evaluates the polynomial recurrences, the spin envelope and the
Simpson sums in buffers it reuses.  The reference below writes the same
operations as plain NumPy expressions, one new array per step, exactly as
the closed forms read.  Every sample, norm, node count and origin defect
must come out with the same bits, for array, 0-d and Python-float r, and no
evaluator may write into the caller's r.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from hostark import wavefunctions as wf
from hostark.model import ModelParams, SymmetryKind, derived_constants
from hostark.spectra import Status, solve_level
from hostark.wavefunctions import ConstantsUndefined

# ------------------------------------------------------------ frozen reference


def ref_hermite(n, x):
    x = np.asarray(x)
    dtype = complex if np.iscomplexobj(x) else float
    h = np.ones_like(x, dtype=dtype)
    hm1 = np.zeros_like(x, dtype=dtype)
    for k in range(n):
        h, hm1 = 2.0 * x * h - 2.0 * k * hm1, h
    return h[()] if h.ndim == 0 else h


def ref_assoc_laguerre(n, alpha, x):
    x = np.asarray(x)
    dtype = complex if np.iscomplexobj(x) else float
    lk = np.ones_like(x, dtype=dtype)
    if n == 0:
        return lk[()] if lk.ndim == 0 else lk
    lkp1 = 1.0 + alpha - x
    for k in range(1, n):
        lk, lkp1 = lkp1, ((2 * k + 1 + alpha - x) * lkp1 - (k + alpha) * lk) / (k + 1)
    return lkp1[()] if lkp1.ndim == 0 else lkp1


def ref_spin_factors(sc, r):
    lam2 = sc.lambda_scale ** 2
    return (lam2, np.exp(-sc.eps1 * (0.5 * lam2 * r * r - sc.b * r)),
            sc.eps2 * (lam2 * r - sc.b) ** 2)


def ref_upper_F(params, n, r, E):
    r = np.asarray(r, dtype=float)
    _, envelope, xi = ref_spin_factors(wf.shape_constants(params, E), r)
    out = envelope * ref_assoc_laguerre(n, 0.0, xi)
    return float(out) if out.ndim == 0 else out


def ref_lower_G(params, n, r, E):
    sc = wf.shape_constants(params, E)
    r = np.asarray(r, dtype=float)
    h = 1e-6 * np.maximum(1.0, r)
    dF = (ref_upper_F(params, n, r + h, E) - ref_upper_F(params, n, r - h, E)) / (2.0 * h)
    out = sc.d0 * (dF + SymmetryKind.SPIN.kappa / r * ref_upper_F(params, n, r, E))
    return float(out) if out.ndim == 0 else out


def ref_nr_R(params, n, r, E=None):
    lam = math.sqrt(params.M * params.omega0)
    r0 = derived_constants(params).r0
    r = np.asarray(r, dtype=float)
    x = r - r0
    pref = (lam * lam / math.pi) ** 0.25 / math.sqrt(2.0 ** n * math.factorial(n))
    out = pref * np.exp(-0.5 * lam * lam * x * x) * ref_hermite(n, lam * x)
    return float(out) if out.ndim == 0 else out


def ref_pseudo_G(params, n, r, E):
    sc = wf.shape_constants(params, E)
    r = np.asarray(r, dtype=float)
    lam2 = sc.lambda_scale ** 2
    arg = -1j * sc.eps2p * (lam2 * r - sc.b) ** 2
    out = np.exp(1j * sc.eps1p * (-sc.b * r + 0.5 * lam2 * r * r)) * ref_hermite(n, arg)
    return complex(out) if out.ndim == 0 else out


def ref_sample_radial(kind, params, n, samples, normalize, E):
    """sample_radial's arithmetic; SciPy's simpson is the quadrature."""
    r = np.linspace(0.0, wf.default_r_max(params), samples)
    if kind is wf.RadialKind.LOWER_G:
        r[0] = 1e-8
    values = np.asarray(REFERENCE[kind][1](params, n, r, E))
    with np.errstate(over="ignore"):
        raw_norm_sq = float(simpson(np.abs(values) ** 2, x=r))
    if normalize:
        if not math.isfinite(raw_norm_sq):
            raw_peak = float(np.max(np.abs(values)))
            if 0.0 < raw_peak < math.inf:
                values = values / raw_peak
                raw_norm_sq = float(simpson(np.abs(values) ** 2, x=r))
        if raw_norm_sq <= 0.0:
            return None
        values = values / math.sqrt(raw_norm_sq)
    norm = float(simpson(np.abs(values) ** 2, x=r))
    peak = float(np.max(np.abs(values)))
    defect = float(abs(values[0]) / peak) if peak > 0.0 else 0.0
    return r, values, norm, peak, defect


# kind -> (library evaluator with its energy argument, reference, channel)
REFERENCE = {
    wf.RadialKind.UPPER_F: (wf.upper_spinor_F, ref_upper_F, SymmetryKind.SPIN),
    wf.RadialKind.LOWER_G: (wf.lower_spinor_G, ref_lower_G, SymmetryKind.SPIN),
    wf.RadialKind.NONREL_R: (lambda p, n, r, E: wf.nr_radial_R(p, n, r), ref_nr_R,
                             SymmetryKind.SPIN),
    wf.RadialKind.PSEUDO_LOWER_G: (wf.pseudo_lower_G, ref_pseudo_G, SymmetryKind.PSEUDOSPIN),
}


def bits(value):
    """Type and bytes of a result, so that 0.0 != -0.0 and nan payloads count."""
    return type(value), np.asarray(value).dtype, np.asarray(value).tobytes()


def wide_params(sym):
    """The radial workload's wide ranges; pseudospin C is drawn from the lower
    third of its range, where most pseudospin levels are bound."""
    return st.builds(ModelParams, M=st.floats(0.1, 10.0), omega0=st.floats(0.05, 5.0),
                     eps=st.floats(0.0, 5.0), sym=st.just(sym),
                     C=st.floats(-40.0, 20.0 if sym is SymmetryKind.SPIN else -20.0))


kinds_and_params = st.sampled_from(list(wf.RadialKind)).flatmap(
    lambda kind: st.tuples(st.just(kind), wide_params(REFERENCE[kind][2])))


def bound_energy(kind, p, n):
    """The level energy an evaluator of kind uses, or None if it has none."""
    if kind is wf.RadialKind.NONREL_R:
        return None
    level = solve_level(p, n)
    return level.E if level.status is Status.BOUND else None


# ------------------------------------------------------------------- tests


@settings(max_examples=150, deadline=None)
@given(n=st.integers(0, 30),
       xs=st.lists(st.floats(-60.0, 60.0), min_size=1, max_size=40),
       alpha=st.sampled_from([0.0, 1.0, -0.5, 2.5]),
       shape=st.sampled_from(["python", "0-d", "array", "complex"]))
def test_polynomials_match_reference(n, xs, alpha, shape):
    x = {"python": xs[0], "0-d": np.asarray(xs[0]), "array": np.asarray(xs),
         "complex": np.asarray(xs) * (0.3 - 0.7j)}[shape]
    before = bits(x)
    with np.errstate(all="ignore"):
        assert bits(wf.hermite(n, x)) == bits(ref_hermite(n, x))
        if shape != "complex":
            assert bits(wf.assoc_laguerre(n, alpha, x)) == bits(ref_assoc_laguerre(n, alpha, x))
    assert bits(x) == before


@settings(max_examples=120, deadline=None)
@given(kind_and_params=kinds_and_params, n=st.integers(0, 30),
       samples=st.one_of(st.integers(3, 3000), st.integers(32769, 40000)),
       normalize=st.booleans())
def test_sample_radial_matches_reference(kind_and_params, n, samples, normalize):
    kind, p = kind_and_params
    if not wf.default_r_max(p) > 0.0:
        with pytest.raises(ValueError, match="r_max must be finite and > 0"):
            wf.sample_radial(kind, p, n, samples=samples, normalize=normalize)
        return
    E = bound_energy(kind, p, n)
    if E is None and kind is not wf.RadialKind.NONREL_R:
        with pytest.raises(ConstantsUndefined):
            wf.sample_radial(kind, p, n, samples=samples, normalize=normalize)
        return
    with np.errstate(all="ignore"):
        ref = ref_sample_radial(kind, p, n, samples, normalize, E)
    if ref is None:
        with pytest.raises(ValueError, match="identically zero"):
            wf.sample_radial(kind, p, n, samples=samples, normalize=normalize)
        return
    r, values, norm, peak, defect = ref
    if not math.isfinite(peak):
        with pytest.raises(ValueError, match="has non-finite samples"):
            wf.sample_radial(kind, p, n, samples=samples, normalize=normalize)
        return
    with np.errstate(all="ignore"):
        rf = wf.sample_radial(kind, p, n, samples=samples, normalize=normalize)
        assert rf.nodes == wf.count_nodes(values)
        assert repr(wf.mean_radius(rf)) == repr(float(
            simpson(r * np.abs(values) ** 2, x=r) / simpson(np.abs(values) ** 2, x=r)))
    assert bits(rf.r) == bits(r)
    assert bits(rf.values) == bits(values)
    assert repr(rf.norm) == repr(norm)
    assert repr(rf.origin_defect) == repr(defect)


@settings(max_examples=120, deadline=None)
@given(kind_and_params=kinds_and_params, n=st.integers(0, 30), u=st.floats(0.0, 1.0),
       samples=st.one_of(st.integers(1, 50), st.integers(32769, 33000)))
def test_evaluators_match_reference_and_leave_r_alone(kind_and_params, n, u, samples):
    kind, p = kind_and_params
    E = bound_energy(kind, p, n)
    if E is None and kind is not wf.RadialKind.NONREL_R:
        return
    ours, ref, _ = REFERENCE[kind]
    r_max = max(wf.default_r_max(p), 1.0)
    point = 1e-8 + u * r_max  # the lower component needs r >= 1e-8
    grid = np.linspace(1e-8, r_max, samples)
    for r in (point, np.float64(point), np.asarray(point), grid, grid[::-1]):
        before = bits(r)
        with np.errstate(all="ignore"):
            assert bits(ours(p, n, r, E)) == bits(ref(p, n, r, E))
        assert bits(r) == before


def test_spin_factors_match_reference():
    # one r in ~1000 tells ** 2 on a NumPy scalar (C pow) from np.square
    p = ModelParams(M=1.5, omega0=0.4, eps=0.5)
    sc = wf.shape_constants(p, solve_level(p, 2).E)
    grid = np.linspace(0.0, 30.0, 20001)
    for r in [grid, *map(np.asarray, grid)]:
        for got, want in zip(sc._spin_factors(r), ref_spin_factors(sc, r)):
            assert bits(np.asarray(got))[1:] == bits(np.asarray(want))[1:]


@pytest.mark.parametrize("samples", [3, 4, 5, 1000, 1001, 32769, 32770])
def test_simpson_rule_is_simpson(samples):
    r = np.linspace(0.0, 7.5, samples)
    integrate = wf._simpson_rule(r)
    for y in (np.exp(-r), np.cos(3 * r) * r, np.full_like(r, -0.0)):
        assert bits(integrate(y)) == bits(simpson(y, x=r)) == bits(wf.simpson(y, r))
