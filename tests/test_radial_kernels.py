"""The radial kernels against a frozen copy of their out-of-place formulas.

hostark evaluates the polynomial recurrences and the centred envelope in
buffers it reuses, and sums |values|^2 block by block.  The reference below
writes the same operations as plain NumPy expressions, one new array per
step, exactly as the closed forms read, and adds the norm's block sums in
the same order.  Every sample, norm, node count and origin defect must come
out with the same bits, for array, 0-d and Python-float r, and no evaluator
may write into the caller's r.  SciPy's simpson stays the reference of the
quadrature: the uniform weights of sample_radial must agree with it to
1e-14 relative, beyond what the rounding of the grid points accounts for,
and wavefunctions.simpson bit for bit.
"""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import simpson

from hostark import wavefunctions as wf
from hostark.model import ModelParams, SymmetryKind, derived_constants
from hostark.spectra import Status, solve_level
from hostark.wavefunctions import ConstantsUndefined

# ------------------------------------------------------------ frozen reference

BLOCK = wf._BLOCK

# counts about the edge where a remainder of BLOCK // 2 samples stops joining
# the pass before it, for the samples and for the norm's interior, which is 2
# to 5 samples shorter
TAIL_COUNTS = [k * BLOCK + BLOCK // 2 + d for k in (1, 2) for d in range(-1, 7)]


def ref_hermite(n, x):
    x = np.asarray(x)
    h = np.ones_like(x, dtype=float)
    hm1 = np.zeros_like(x, dtype=float)
    for k in range(n):
        h, hm1 = 2.0 * x * h - 2.0 * k * hm1, h
    return h[()] if h.ndim == 0 else h


def ref_assoc_laguerre(n, alpha, x):
    x = np.asarray(x)
    lk = np.ones_like(x, dtype=float)
    if n == 0:
        return lk[()] if lk.ndim == 0 else lk
    lkp1 = 1.0 + alpha - x
    for k in range(1, n):
        lk, lkp1 = lkp1, ((2 * k + 1 + alpha - x) * lkp1 - (k + alpha) * lk) / (k + 1)
    return lkp1[()] if lkp1.ndim == 0 else lkp1


def ref_spin_factors(sc, r):
    """lambda^2, the envelope exp[-eps1 u^2/(2 lambda^2)] and eps2 u^2, u = lambda^2 r - b."""
    lam2 = sc.lambda_scale ** 2
    return (lam2, np.exp(-0.5 * sc.eps1 / lam2 * (lam2 * r - sc.b) ** 2),
            sc.eps2 * (lam2 * r - sc.b) ** 2)


def ref_upper_F(params, n, r, E):
    r = np.asarray(r, dtype=float)
    _, envelope, xi = ref_spin_factors(wf.shape_constants(params, E), r)
    out = envelope * ref_assoc_laguerre(n, 0.0, xi)
    return float(out) if out.ndim == 0 else out


def ref_lower_G(params, n, r, E):
    """d0 (dF/dr + kappa/r F) with dF/dr in closed form: L_n' = -L_{n-1}^(1), and
    L_{n-1}^(1) = L_0 + ... + L_{n-1}, added up from L_0 in that order."""
    sc = wf.shape_constants(params, E)
    r = np.asarray(r, dtype=float)
    lam2, envelope, xi = ref_spin_factors(sc, r)
    L = ref_assoc_laguerre(n, 0.0, xi)
    S = sum((ref_assoc_laguerre(k, 0.0, xi) for k in range(n)), 0.0)
    dF = envelope * (lam2 * r - sc.b) * (-sc.eps1 * L - 2.0 * sc.eps2 * lam2 * S)
    out = sc.d0 * (dF + SymmetryKind.SPIN.kappa / r * (envelope * L))
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
    """The printed exp[i eps1' (...)] H_n(-i eps2' (...)^2) with the real
    products i eps1' = -eps1 and -i eps2' = eps2 of a bound level."""
    r = np.asarray(r, dtype=float)
    _, envelope, xi = ref_spin_factors(wf.shape_constants(params, E), r)
    out = envelope * ref_hermite(n, xi)
    return float(out) if out.ndim == 0 else out


def ref_blocks(size):
    """sample_radial's blocks as (start, stop): runs of BLOCK samples, and a
    remainder shorter than BLOCK // 2 joined to the run before it."""
    starts = list(range(0, size, BLOCK)) or [0]
    if len(starts) > 1 and size - starts[-1] < BLOCK // 2:
        starts.pop()
    return list(zip(starts, starts[1:] + [size]))


def ref_norm_sq(r, values, h):
    """sample_radial's uniform Simpson rule, added up in its order: weights
    h/3 (1, 4, 2, ..., 4, 1) on the odd-length run y[lo:hi + 1], whose
    interior is two strided sums per block; SciPy's weights on the first pair
    of the LOWER_G grid (r[0] = 1e-8), which the run skips; for even N,
    Cartwright's correction with h0 = h1 = h.  A sum of squares that has
    overflowed stays inf: the correction would add inf - inf."""
    y = np.abs(values) ** 2
    n = len(y)
    lo, hi = (2 if r[0] else 0), (n - 1 if n % 2 else n - 2)
    inner = y[lo + 1:hi]
    four = two = 0.0
    for start, stop in ref_blocks(len(inner)):
        four += np.sum(inner[start:stop][0::2])
        two += np.sum(inner[start:stop][1::2])
    total = h / 3.0 * (y[lo] + 4.0 * four + 2.0 * two + y[hi]) if hi > lo else 0.0
    if lo:
        total += simpson(y[:3], x=r[:3])
    if n % 2 == 0 and total != math.inf:
        total += 5.0 / 12.0 * h * y[-1] + 2.0 / 3.0 * h * y[-2] - h / 12.0 * y[-3]
    return float(total)


def ref_sample_radial(kind, params, n, samples, normalize, E):
    """sample_radial's arithmetic; ref_norm_sq is the quadrature."""
    r_max = wf.default_r_max(params)
    r, h = np.linspace(0.0, r_max, samples), r_max / (samples - 1)
    if kind is wf.RadialKind.LOWER_G:
        r[0] = 1e-8
    values = np.asarray(REFERENCE[kind][1](params, n, r, E))
    with np.errstate(over="ignore"):
        raw_norm_sq = ref_norm_sq(r, values, h)
    if normalize:
        if not math.isfinite(raw_norm_sq):
            raw_peak = float(np.max(np.abs(values)))
            if 0.0 < raw_peak < math.inf:
                values = values / raw_peak
                raw_norm_sq = ref_norm_sq(r, values, h)
        if raw_norm_sq <= 0.0:
            return None
        values = values / math.sqrt(raw_norm_sq)
    norm = ref_norm_sq(r, values, h)
    peak = float(np.max(np.abs(values)))
    defect = float(abs(values[0]) / peak) if peak > 0.0 else 0.0
    return r, values, norm, peak, defect


def ref_count_nodes(values):
    """count_nodes over the whole vector at once."""
    v = np.asarray(values)
    peak = np.max(np.abs(v))
    if peak == 0.0:
        return 0
    signs = np.sign(v[np.abs(v) > 1e-9 * peak])
    return int(np.count_nonzero(signs[1:] != signs[:-1]))


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
       shape=st.sampled_from(["python", "0-d", "array"]))
def test_polynomials_match_reference(n, xs, alpha, shape):
    x = {"python": xs[0], "0-d": np.asarray(xs[0]), "array": np.asarray(xs)}[shape]
    before = bits(x)
    with np.errstate(all="ignore"):
        assert bits(wf._hermite(n, x)) == bits(ref_hermite(n, x))
        assert bits(wf._laguerre(n, alpha, x)) == bits(ref_assoc_laguerre(n, alpha, x))
    assert bits(x) == before


@settings(max_examples=120, deadline=None)
@given(kind_and_params=kinds_and_params, n=st.integers(0, 30),
       samples=st.one_of(st.integers(3, 3000), st.integers(32769, 40000),
                         st.sampled_from(TAIL_COUNTS)),
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
            want = ref(p, n, r, E)
        if np.isfinite(want).all():
            assert bits(ours(p, n, r, E)) == bits(want)
        else:
            with pytest.raises(ValueError, match=f"at n={n} has non-finite samples"):
                ours(p, n, r, E)
        assert bits(r) == before


def test_spin_factors_match_reference():
    # one r in ~1000 tells ** 2 on a NumPy scalar (C pow) from np.square
    p = ModelParams(M=1.5, omega0=0.4, eps=0.5)
    sc = wf.shape_constants(p, solve_level(p, 2).E)
    grid = np.linspace(0.0, 30.0, 20001)
    for r in [grid, *map(np.asarray, grid)]:
        lam2, envelope, xi, u = sc._factors(r)
        assert bits(np.asarray(u))[1:] == bits(np.asarray(lam2 * r - sc.b))[1:]
        for got, want in zip((lam2, envelope, xi), ref_spin_factors(sc, r)):
            assert bits(np.asarray(got))[1:] == bits(np.asarray(want))[1:]


@pytest.mark.parametrize("samples", [3, 4, 5, 1000, 1001, 32769, 32770])
def test_simpson_rule_is_simpson(samples):
    r = np.linspace(0.0, 7.5, samples)
    for y in (np.exp(-r), np.cos(3 * r) * r, np.full_like(r, -0.0)):
        assert bits(wf.simpson(y, r)) == bits(simpson(y, x=r))


# sample counts on either side of the edges of k and 2k blocks of samples
EDGE_COUNTS = sorted({c for k in (1, 2) for c in (k * BLOCK - 1, k * BLOCK, k * BLOCK + 1,
                                                  2 * k * BLOCK - 2, 2 * k * BLOCK - 1,
                                                  2 * k * BLOCK + 1, 2 * k * BLOCK + 2)})
EDGE_PARAMS = {
    SymmetryKind.SPIN: ModelParams(M=1.5, omega0=0.4, eps=0.5),
    SymmetryKind.PSEUDOSPIN: ModelParams(M=1.5, omega0=0.4, eps=0.5, C=-10.3,
                                         sym=SymmetryKind.PSEUDOSPIN),
}
# the printed |F|^2 overflowed here (raw peak 8.7e216, r0 = 22.9); the centred
# envelope keeps F's raw peak at 0.999
OVERFLOW_F = ModelParams(M=4.0638, omega0=0.08247, eps=1.2905, C=-36.985)
# |Gps|^2 overflows at n = 60 here (raw peak 6.1e155), so the peak-scaled samples
# are normalized
OVERFLOW_GPS = ModelParams(M=10.0, omega0=0.4, eps=0.5, C=-103.0, sym=SymmetryKind.PSEUDOSPIN)


@pytest.mark.parametrize("samples", EDGE_COUNTS)
@pytest.mark.parametrize("kind, p, n", [(kind, EDGE_PARAMS[REFERENCE[kind][2]], 3)
                                        for kind in wf.RadialKind]
                         + [(wf.RadialKind.UPPER_F, OVERFLOW_F, 3),
                            (wf.RadialKind.PSEUDO_LOWER_G, OVERFLOW_GPS, 60)],
                         ids=[kind.value for kind in wf.RadialKind]
                         + ["UpperF-overflow", "PseudoLowerG-overflow"])
def test_block_edges_match_reference(kind, p, n, samples):
    E = bound_energy(kind, p, n)
    for normalize in (True, False):
        with np.errstate(all="ignore"):
            r, values, norm, peak, defect = ref_sample_radial(kind, p, n, samples, normalize, E)
            rf = wf.sample_radial(kind, p, n, samples=samples, normalize=normalize)
        if p is OVERFLOW_GPS and not normalize:
            # so normalizing takes the peak-scaled path; inf at every count, also
            # where the even counts' end correction would add inf - inf
            assert rf.norm == math.inf
        if p is OVERFLOW_F and not normalize:
            assert peak <= 1.0
        assert bits(rf.r) == bits(r)
        assert bits(rf.values) == bits(values)
        assert repr(rf.norm) == repr(norm)
        assert repr(rf.origin_defect) == repr(defect)
        assert rf.nodes == ref_count_nodes(values)


@settings(max_examples=150, deadline=None)
@given(kind_and_params=kinds_and_params, n=st.integers(0, 30),
       samples=st.one_of(st.sampled_from([3, 4, 5, 6]), st.integers(3, 3000),
                         st.sampled_from(EDGE_COUNTS + TAIL_COUNTS)),
       tight=st.booleans())
def test_raw_norm_matches_scipy(kind_and_params, n, samples, tight):
    """The uniform weights move the raw norm by at most 1e-14 relative from
    SciPy's nonuniform rule on the same samples, plus what the rounding of
    the grid itself accounts for: linspace's points stray from i h by up to
    ulp(r_max), which SciPy's weights follow and the uniform ones do not, so
    the two integrals may differ by that times the variation of |values|^2;
    and by an ulp of 0.0 per sample where the samples underflow to
    subnormals, whose relative precision is lower.  A tight window has step 1e-8, where the LOWER_G grid's first interval,
    from r[0] = 1e-8, can have zero width."""
    kind, p = kind_and_params
    r_max = 1e-8 * (samples - 1) if tight else wf.default_r_max(p)
    assume(r_max > 0.0)
    assume(kind is wf.RadialKind.NONREL_R or bound_energy(kind, p, n) is not None)
    try:
        with np.errstate(all="ignore"):
            rf = wf.sample_radial(kind, p, n, r_max=r_max, samples=samples, normalize=False)
    except ValueError as exc:  # float64 overflow, or a step just below 1e-8 for LOWER_G
        assert re.search("non-finite samples|needs r >= 1e-8", str(exc)), exc
        return
    with np.errstate(over="ignore"):
        y = np.abs(rf.values) ** 2
        ref = float(simpson(y, x=rf.r))
    if math.isfinite(ref):
        grid = math.ulp(r_max) * float(np.sum(np.abs(np.diff(y)))) + samples * math.ulp(0.0)
        assert abs(rf.norm - ref) <= 1e-14 * ref + grid, (rf.norm, ref, grid)
    else:  # a sum of squares that overflowed; SciPy's even-count correction adds inf - inf
        assert rf.norm == math.inf and not ref < math.inf, (rf.norm, ref)


def node_cases():
    """Sample vectors whose node count depends on the handling of block edges."""
    x = np.linspace(0.0, 9.0, 3 * BLOCK)
    wave = np.sin(x)
    across = np.ones(2 * BLOCK)
    across[BLOCK:] = -1.0  # the only sign change is across the block edge
    quiet = wave.copy()
    quiet[BLOCK:2 * BLOCK] *= 1e-12  # a whole block below 1e-9 of the peak
    quiet[:BLOCK] = np.abs(quiet[:BLOCK])
    quiet[2 * BLOCK:] = -np.abs(quiet[2 * BLOCK:])
    tied = wave.copy()
    tied[BLOCK // 2] = tied[BLOCK + 7] = 3.0  # equal maxima in two blocks
    return {"across": across, "quiet": quiet, "tied": tied}


@pytest.mark.parametrize("name", ["across", "quiet", "tied"])
def test_count_nodes_across_blocks_matches_whole_vector(name):
    v = node_cases()[name]
    assert wf.count_nodes(v) == ref_count_nodes(v)
    with pytest.raises(ValueError, match="real values"):
        wf.count_nodes(v * (0.6 - 0.8j))


# upper bounds on the float64 sample arrays (of N = 100,001) that sample_radial
# holds at once: r, the values and block-sized scratch
PEAK_ARRAYS = {wf.RadialKind.UPPER_F: 5.5, wf.RadialKind.LOWER_G: 5.5,
               wf.RadialKind.NONREL_R: 5.5, wf.RadialKind.PSEUDO_LOWER_G: 5.5}


@pytest.mark.parametrize("kind", list(wf.RadialKind), ids=lambda kind: kind.value)
def test_sample_radial_memory_stays_block_sized(kind):
    p, samples = EDGE_PARAMS[REFERENCE[kind][2]], 100_001
    wf.sample_radial(kind, p, 3, samples=samples)  # solver and import caches
    tracemalloc.start()
    try:
        wf.sample_radial(kind, p, 3, samples=samples)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= PEAK_ARRAYS[kind] * 8 * samples, peak / (8 * samples)
