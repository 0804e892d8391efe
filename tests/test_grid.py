"""spectrum_grid solves the whole grid as one batch; every row must equal the
scalar route, solve_level, field for field (alternates and diagnostics
included).  Rows are compared by repr, which unlike == tells 0.0 from -0.0."""

import cmath
import contextlib
import dataclasses
import gc
import io
import itertools
import math
import re
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

import numpy as np

from hostark.cli import main
from hostark.model import ModelParams, SymmetryKind
from hostark import _grid
from hostark._grid import _bisect_batch, _cbrts, _cubes, _newton_real, _records
from hostark.spectra import (
    ChannelScalars,
    Equation,
    NoSignChange,
    RejectedRoot,
    Status,
    _bisect,
    _cbrt,
    _depressed,
    _grid_inputs,
    _level_bcd,
    _polish,
    _power,
    _rhs_squared,
    bisection_oracle,
    cubic_coefficients,
    select_physical_root,
    solve_cubic_cardano,
    solve_level,
    spectrum_grid,
)


def scalar_rows(params, n_max, eps_list):
    """The grid cell by cell through solve_level, n outer and eps inner."""
    rows = []
    for n in range(n_max + 1):
        for eps in eps_list:
            p = dataclasses.replace(params, eps=float(eps))
            rows.append((p, solve_level(p, n)))
    return rows


def same_rows(params, n_max, eps_list):
    """spectrum_grid's rows, checked against scalar_rows one row at a time, so
    a failure names the first differing (n, eps) cell and shows only it."""
    rows = spectrum_grid(params, n_max, eps_list)
    expected = scalar_rows(params, n_max, eps_list)
    assert len(rows) == len(expected)
    for i, (got, want) in enumerate(zip(rows, expected)):
        if repr(got) != repr(want):
            n, j = divmod(i, len(eps_list))
            pytest.fail(f"row n={n}, eps={eps_list[j]!r} differs:\n"
                        f"  batch:  {got!r}\n  scalar: {want!r}")
    return rows


def pseudo(M=1.5, omega0=1 / 2.4, C=-10.3):
    return ModelParams(M=M, omega0=omega0, sym=SymmetryKind.PSEUDOSPIN, C=C)


def spin(M=1.5, omega0=1 / 2.4, C=0.0, q=1.0):
    return ModelParams(M=M, omega0=omega0, C=C, q=q)


# an 11x100 grid where 764 of 1,100 cells refine, 484 from the first margin's
# edge and 280 from the second's
REFINING_GRID = (spin(M=6.0, omega0=0.013, C=-940.0, q=0.5), 10, [0.05 * j for j in range(100)])

wide_params = st.builds(
    ModelParams,
    M=st.floats(0.1, 10.0),
    omega0=st.floats(0.05, 5.0),
    sym=st.sampled_from(list(SymmetryKind)),
    C=st.floats(-40.0, 20.0),
)


@settings(max_examples=150, deadline=None)
@given(params=wide_params, n_max=st.integers(0, 12),
       eps_list=st.lists(st.floats(0.0, 5.0), max_size=12))
def test_batch_equals_scalar_route_wide(params, n_max, eps_list):
    same_rows(params, n_max, eps_list)


def log_uniform(lo, hi):
    return st.floats(math.log(lo), math.log(hi)).map(math.exp)


@settings(max_examples=60, deadline=None)
@given(params=st.builds(ModelParams, M=log_uniform(0.1, 100.0),
                        omega0=log_uniform(0.005, 50.0),
                        q=st.sampled_from([1.0, -1.0, 0.5, 2.0]),
                        sym=st.sampled_from(list(SymmetryKind)),
                        C=st.floats(-1000.0, 1000.0)),
       n_max=st.integers(0, 30),
       eps_list=st.lists(st.floats(0.0, 60.0), max_size=12))
def test_batch_equals_scalar_route_extreme(params, n_max, eps_list):
    same_rows(params, n_max, eps_list)


@settings(max_examples=40, deadline=None)
@given(params=wide_params, n=st.integers(0, 30), eps=st.floats(0.0, 5.0))
def test_public_wrappers_compose_to_solve_level(params, n, eps):
    p = dataclasses.replace(params, eps=eps)
    sol = solve_cubic_cardano(cubic_coefficients(p, n))
    assert repr(select_physical_root(sol, p, n)) == repr(solve_level(p, n))


@pytest.mark.parametrize("params, n_max, eps_list", [
    (pseudo(), 0, []),                          # empty field list
    (pseudo(), 0, [0.5]),                       # a single cell
    (spin(), 0, [0.0, 0.5, 2.0]),               # n_max = 0
    (pseudo(), 3, [0.5, 0.5, 1.0, 0.5]),        # duplicate eps values
    (spin(C=-5.0), 4, [0.0]),                   # eps = 0 only
    (pseudo(), 10, [0.0, 0.1, 0.5, 1.0, 1.5]),  # table2 grid
    (spin(M=7.6, omega0=0.06, C=-13.3), 10,     # margin refinement fires
     [0.5 * j for j in range(11)]),
    (pseudo(M=0.92, omega0=0.13, C=-39.1), 10, [0.5 * j for j in range(11)]),
    (spin(M=0.1009544406678142, omega0=0.3911409727953298,  # 72 of 121 refine
          C=8.506271269402738), 10, [0.5 * j for j in range(11)]),
    REFINING_GRID,                              # refinement from both edges
])
def test_batch_equals_scalar_route_edge_cases(params, n_max, eps_list):
    rows = same_rows(params, n_max, eps_list)
    assert len(rows) == (n_max + 1) * len(eps_list)


@pytest.mark.parametrize("params, eps, n, beta", [
    # spin levels on their gamma = 0 edge: the residual is nan, every channel
    # scalar is a zero, and beta's zero takes the sign of q
    (spin(M=2.1611926340449954, omega0=0.005491207480256318, C=-281.6172466686213,
          q=2.0), 45.04372438439045, 27, "0j"),
    (spin(M=1.3152032801015137, omega0=0.00859117324828494, C=-158.70835937838376,
          q=-1.0), 27.18929480999857, 19, "(-0+0j)"),
])
def test_gamma_zero_edge_cells(params, eps, n, beta):
    _, level = same_rows(params, n, [eps])[-1]
    assert math.isnan(level.residual) and level.boundary
    scalars = level.diagnostics
    assert [repr(x) for x in (scalars.gamma, scalars.v, scalars.beta)] == ["0j", "0j", beta]


@pytest.mark.parametrize("C, eps", [(-25.287487731237853, 4.301528887635381),
                                    (0.0, 1.9375)])
def test_near_double_pair_cells_refuse_the_far_newton_step(C, eps):
    # the deflation rounds a complex pair onto the real axis next to an
    # extremum of the cubic, where f' ~ 0; both routes refuse the real step
    # that would leave it, so the pair stays below the gamma = 0 edge and the
    # level is the oracle's root
    (p, level), = same_rows(spin(M=0.1, omega0=0.05, C=C), 0, [eps])
    assert level.E == pytest.approx(bisection_oracle(Equation.SPIN_EQ, p, 0), abs=1e-9)


def test_lower_pseudospin_root_follows_the_coded_ones():
    # roots ascending: the lower survivor, the selected one, one failing m2;
    # the alternates list the coded root first
    for _, level in same_rows(pseudo(), 3, [0.0, 0.5, 1.0]):
        assert [a.reason.split(";")[0] for a in level.alternates] == [
            "fails E + M + g' < 0", "sign conditions hold"]
        assert level.alternates[1].value.real < level.E


def test_negative_charge_flips_beta():
    plus, minus = (same_rows(spin(q=q), 4, [0.5, 2.0]) for q in (1.0, -1.0))
    for (_, a), (_, b) in zip(plus, minus):
        assert a.E == b.E and b.diagnostics.beta == -a.diagnostics.beta != 0


def replaced_inputs(params, eps_list):
    """_grid_inputs' ModelParams built through dataclasses.replace."""
    return [dataclasses.replace(params, eps=float(eps)) for eps in eps_list]


def test_rows_of_one_eps_share_params():
    rows = spectrum_grid(pseudo(), 2, [0.0, 0.5])
    assert rows[0][0] is rows[2][0] is rows[4][0]
    # _grid_inputs sets each ModelParams' slots, equal to replace's by repr,
    # from any eps that float() takes, and reads a generator once
    for params in (pseudo(), ModelParams(M=2.0, omega0=0.5, q=-2.0, C=3.0),
                   ModelParams(M=2.0, omega0=0.5, q=0.0, C=3.0)):
        eps_list = [0, -0.0, 0.0, False, Fraction(0), Decimal("-0")]
        if params.q != 0.0:
            eps_list += [3, np.float64(0.1), np.float32(0.7), np.int64(2), 1e-300,
                         Fraction(1, 3), Decimal("2.5"), True, "0.25", " 1e-3 "]
        pulled = []
        _, grid, _ = _grid_inputs(params, 2, (pulled.append(x) or x for x in eps_list))
        assert repr(grid) == repr(replaced_inputs(params, eps_list))
        assert pulled == eps_list
    rows = spectrum_grid(pseudo(), 2, (eps for eps in [0.0, 0.5]))
    assert repr(rows) == repr(spectrum_grid(pseudo(), 2, [0.0, 0.5]))


@pytest.mark.parametrize("sym", list(SymmetryKind))
def test_overflowing_cells_take_the_scalar_route(sym):
    # these cells overflow float64 in g', the cubic's coefficients, its
    # depressed form or its roots; both routes reject the first such cell
    # with the same message
    params = ModelParams(M=1.5, omega0=0.4, sym=sym, C=-10.3)
    for eps in (1e75, 1e80, 1e100, 1e160):
        eps_list = [0.5, eps, 1.0]
        with pytest.raises(ValueError, match="not finite in float64") as scalar:
            scalar_rows(params, 2, eps_list)
        with pytest.raises(ValueError, match="not finite in float64") as batch:
            spectrum_grid(params, 2, eps_list)
        assert str(batch.value) == str(scalar.value)


CUBE_SAFE = 5e102  # a round bound below which x^3 is finite in float64 (1.25e308)
CUBE_EDGE = 5.643803094122361e102  # the largest x whose x^3 is finite in float64
HELPER_POINTS = [0.0, -0.0, 5e-324, -5e-324, 1.5, -2.0e-100] + [
    s * x for x in (CUBE_SAFE, CUBE_EDGE) for s in (1.0, -1.0)
    for x in (math.nextafter(x, 0.0), x, math.nextafter(x, math.inf))] + [
    math.inf, -math.inf, math.nan, -math.nan]


def float_bits(values):
    return [np.float64(v).tobytes() for v in values]


def test_cube_and_cube_root_columns_equal_the_scalar_helpers():
    assert _power(CUBE_EDGE, 3) < math.inf == _power(math.nextafter(CUBE_EDGE, math.inf), 3)
    # each point alone, then all at once: on both sides of CUBE_SAFE and
    # CUBE_EDGE the column maps _power, whose OverflowError handler gives the
    # cube's inf
    columns = [np.array([x]) for x in HELPER_POINTS] + [np.array(HELPER_POINTS)]
    for x in columns:
        assert float_bits(_cubes(x)) == float_bits(_power(v, 3) for v in x.tolist())
        assert float_bits(_cbrts(x)) == float_bits(_cbrt(v) for v in x.tolist())


# spin cells whose depressed-cubic d / 3 can pass CUBE_SAFE (d = -(g - a)^2 / 3
# and e = 2 ((a - g) / 3)^3 - R, so this R puts e near 0 for small g')
X = 2.28e51
HUGE = ModelParams(M=1.5, omega0=math.sqrt(2.0 * X ** 3 / 0.75), C=3.0 - 3.0 * X)


def test_cubes_past_the_safe_bound_take_power(monkeypatch):
    # HUGE's d / 3 lies on both sides of CUBE_SAFE over these eps; the n = 0
    # cells take the trigonometric form, and the n = 1 cells overflow in e^2
    # and raise on both routes
    params = HUGE
    eps_list = [0.0, 3e102, 1e103]
    thirds = [abs(_depressed(*_level_bcd(-1, p.M, p.C, gp, _rhs_squared(p.M, p.omega0, 0)))[0])
              / 3.0 for p, gp in zip(*_grid_inputs(params, 0, eps_list)[1:])]
    assert min(thirds) < CUBE_SAFE <= max(thirds) < CUBE_EDGE
    exponents = []
    monkeypatch.setattr(_grid, "_power", lambda x, k: exponents.append(k) or _power(x, k))
    rows = same_rows(params, 0, eps_list)
    assert 3 in exponents and all(level.status is Status.BOUND for _, level in rows)
    with pytest.raises(ValueError, match="not finite in float64") as scalar:
        scalar_rows(params, 1, eps_list)
    with pytest.raises(ValueError, match="not finite in float64") as batch:
        spectrum_grid(params, 1, eps_list)
    assert str(batch.value) == str(scalar.value)


def rows_or_message(solve):
    """The reprs of the rows solve() returns, or its ValueError's message."""
    try:
        return [repr(row) for row in solve()]
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("params, eps_list", [
    # |d/3| >= CUBE_SAFE with a trigonometric n = 0 cell, a trigonometric
    # column below it, and d > 0 (rounded from -(g' - 3X)^2 / 3 ~ 0), whose
    # cells overflow in e^2
    (HUGE, [0.0, 1e103, 2.546685495776799e+103]),
    # trigonometric columns, a finite Cardano-only column of d > 0 (d is
    # -(g - a)^2 / 3 on paper), Cardano columns of d < 0, and a column of
    # |d/3| >= CUBE_SAFE whose p overflows
    (spin(M=1.5, omega0=0.4, C=-2.0), [0.0, 0.7, 1.549193338482958, 3.0, 1e60]),
    (pseudo(M=1.5, omega0=0.4, C=-5.0), [0.0, 0.7, 0.9797958971132671, 3.0, 1e60]),
])
def test_per_eps_quantities_in_every_kind_of_column(params, eps_list):
    # d, p, u and u^3 are formed once per eps, u where d < 0 only (a
    # RuntimeWarning that leaves the solver's errstate fails the suite); every
    # ordered subset of the columns, with n_max = 0 and 3, gives the scalar
    # route's rows or its first non-finite cell's message
    d = [_depressed(*_level_bcd(params.kappa, params.M, params.C, gp,
                                _rhs_squared(params.M, params.omega0, 0)))[0]
         for gp in _grid_inputs(params, 0, eps_list)[2]]
    assert max(d) > 0.0 and max(abs(x) / 3.0 for x in d) >= CUBE_SAFE
    outcomes = []
    for n_max in (0, 3):
        for size in range(1, len(eps_list) + 1):
            for columns in itertools.combinations(eps_list, size):
                batch = rows_or_message(lambda: spectrum_grid(params, n_max, columns))
                assert batch == rows_or_message(lambda: scalar_rows(params, n_max, columns)), (
                    n_max, columns)
                outcomes.append(batch)
    rows = "".join(row for rows in outcomes if isinstance(rows, list) for row in rows)
    assert "cardano_complex_regime=True" in rows
    assert any(isinstance(x, str) for x in outcomes)


# spin cells whose cubic overflows in e^2 at n = 1 for eps 7.2e102 and 7.5e102
# only: n = 0 stays finite there, and eps up to 6.5e102 stay finite at n = 1
LAYOUT = ModelParams(M=1.5, omega0=4.2e76, C=-5.5e51)
LAYOUT_EPS = [7.2e102, 0.0, 3e102, 6.5e102, 7.5e102]


@pytest.mark.parametrize("n_max, eps_list, raises", [
    (1, LAYOUT_EPS, True),  # not finite at eps index 0 of n = 1 and the last cell
    (1, LAYOUT_EPS[1:], True),  # the last cell only
    (0, LAYOUT_EPS, False),
    (1, [3e102], False),
    (1, [7.2e102], True),
])
def test_cell_layout_is_n_outer_eps_inner(n_max, eps_list, raises):
    # cell i is (n, eps index) = divmod(i, G) in the batch columns, the
    # records and the cells that take the scalar route, whose first error
    # names its cell's B, C and D
    batch = rows_or_message(lambda: spectrum_grid(LAYOUT, n_max, eps_list))
    assert batch == rows_or_message(lambda: scalar_rows(LAYOUT, n_max, eps_list))
    assert isinstance(batch, str) == raises


def level_or_value_error(solve):
    """repr of the level solve() returns, or "ValueError"; any other exception escapes."""
    try:
        return repr(solve())
    except ValueError:
        return "ValueError"


SCALES = [5e-324, 1e-300, 1e-150, 1e-20, 1.0, 1e20, 1e150, 1e300]


def test_routes_agree_from_the_smallest_subnormal_to_1e300():
    # 3,072 cells, most of which raise ValueError on both routes; at M = 5e-324
    # the margin-form refinement of three spin cells bisects from t = 0, where
    # the spin condition's w2 / (2 m1) reads inf as IEEE division gives it
    for M, omega0, eps, C, sym, n in itertools.product(
            SCALES, SCALES, (0.0, 1.0, 1e100), (-1e300, -10.0, 0.0, 1e300), SymmetryKind,
            (0, 3)):
        params = ModelParams(M=M, omega0=omega0, sym=sym, C=C)
        scalar = level_or_value_error(
            lambda: solve_level(dataclasses.replace(params, eps=eps), n))
        batch = level_or_value_error(lambda: spectrum_grid(params, n, [eps])[-1][1])
        assert batch == scalar, (M, omega0, eps, C, sym, n)


def test_grid_restores_the_callers_collector_setting():
    # on a normal grid, and on grids whose overflowing cells raise from the
    # scalar stage
    cases = [REFINING_GRID] + [
        (ModelParams(M=1.5, omega0=0.4, sym=sym, C=-10.3), 2, [0.5, eps, 1.0])
        for sym in SymmetryKind for eps in (1e75, 1e80, 1e100, 1e160)]
    was = gc.isenabled()
    try:
        for enabled in (True, False):
            for case in cases:
                (gc.enable if enabled else gc.disable)()
                try:
                    spectrum_grid(*case)
                except ValueError:
                    pass
                assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_grid_starts_at_most_one_collection():
    # The records are built with the cyclic collector paused, so the young
    # objects they leave take one pass after the pause, still inside the
    # call (the unpaused build starts about six).  A full collection empties
    # CPython's tuple free list, after which the 1,100 (p, level) pairs are
    # new allocations that can start a second young pass; so the young
    # generations are emptied with gc.collect(1), after a grid whose pairs
    # went back to the free list.
    starts = []
    callback = lambda phase, info: phase == "start" and starts.append(info["generation"])
    spectrum_grid(*REFINING_GRID)
    gc.collect(1)
    gc.callbacks.append(callback)
    try:
        rows = spectrum_grid(*REFINING_GRID)
    finally:
        gc.callbacks.remove(callback)
    assert len(rows) == 1100 and len(starts) <= 1, starts


def test_negative_eps_mid_list_raises_like_scalar_route():
    message = re.escape("eps must be >= 0, got -0.5")
    with pytest.raises(ValueError, match=message):
        scalar_rows(pseudo(), 2, [0.0, -0.5, 1.0])
    with pytest.raises(ValueError, match=message):
        spectrum_grid(pseudo(), 2, [0.0, -0.5, 1.0])
    # the slot-set build of _grid_inputs fails first where replace's does, with
    # the same exception, whether float() or the eps check refuses
    q0 = ModelParams(M=1.5, omega0=0.4, q=0.0)
    for params, bad in [(pseudo(), x) for x in (
            -0.5, math.nan, math.inf, -math.inf, np.float64(math.nan), "abc", None,
            Fraction(-1, 3), Decimal("NaN"), "-inf")] + [(q0, 0.5), (q0, True)]:
        eps_list = [0.0, np.float64(0.0), bad, -1.0, "abc", 1.0]
        with pytest.raises(Exception) as replaced:
            replaced_inputs(params, eps_list)
        with pytest.raises(Exception) as direct:
            _grid_inputs(params, 2, eps_list)
        assert type(direct.value) is type(replaced.value)
        assert str(direct.value) == str(replaced.value)
    # and so does the spectrum command, which reads its rows from _grid_inputs
    with pytest.raises(ValueError) as replaced:
        replaced_inputs(q0, [0.0, 0.5, -1.0])
    assert replaced.match("q must be nonzero when eps > 0")
    argv = ["spectrum", "--symmetry", "spin", "--M", "1.5", "--omega0", "0.4", "--q", "0",
            "--eps", "0,0.5,-1"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
        assert main(argv) == 2
    assert (out.getvalue(), err.getvalue()) == ("", f"error: {replaced.value}\n")


def test_negative_n_max_rejected():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        spectrum_grid(pseudo(), -1, [0.0])


@settings(max_examples=100, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-10.0, 10.0),
                                st.sampled_from([1e-300, 1e-3, 1.0, 1e3, 1e300])),
                      min_size=1, max_size=20))
def test_batch_bisection_stops_where_scalar_bisection_stops(cells):
    # f(t) = s (t^3 - c) over [a, a + 4]: brackets with a root, without one,
    # with the root at an end (a = c = 0), and steep ones whose halvings run
    # down to adjacent floats
    a, c, s = (np.array(x) for x in zip(*cells))
    roots, found = _bisect_batch(lambda t: s * (t * t * t - c), a, a + 4.0)
    for i, (ai, ci, si) in enumerate(cells):
        try:
            root = _bisect(lambda t: si * (t * t * t - ci), ai, ai + 4.0, tol=0.0)
        except NoSignChange:
            assert not found[i]
        else:
            assert found[i] and repr(roots[i].item()) == repr(root)


@settings(max_examples=50, deadline=None)
@given(cells=st.lists(st.tuples(st.floats(-4.0, 4.0), st.floats(-4.0, 4.0),
                                st.floats(-10.0, 10.0)), min_size=1, max_size=20))
def test_batch_bisection_takes_ends_in_either_order_and_keeps_them(cells):
    # a reversed or empty bracket stops at once on both routes, and the
    # arrays passed in are left as they were
    a, b, c = (np.array(x) for x in zip(*cells))
    a0, b0 = a.copy(), b.copy()
    roots, found = _bisect_batch(lambda t: t * t * t - c, a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)
    for i, (ai, bi, ci) in enumerate(cells):
        try:
            root = _bisect(lambda t: t * t * t - ci, ai, bi, tol=0.0)
        except NoSignChange:
            assert not found[i]
        else:
            assert found[i] and repr(roots[i].item()) == repr(root)


# a real root: 0.0, subnormals, +-1e150 or an ordinary value
real_roots = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
                     1e150, -1e150]),
    st.floats(-1e6, 1e6),
)


@st.composite
def cubics_at_a_real_root(draw):
    """(z, B, C, D): a monic (E - r)(E^2 + p E + q) started a few ulps from
    its real root r.  The quadratic holds a real pair, a complex pair, or a
    root next to r, where f' -> 0 at the nearly double root."""
    r = draw(real_roots)
    kind = draw(st.sampled_from(["real", "complex", "double"]))
    a, b = draw(st.floats(-1e3, 1e3)), draw(st.floats(-1e3, 1e3))
    if kind == "double":
        a = r + draw(st.floats(-1e-6, 1e-6)) * max(1.0, abs(r))
    if kind == "complex":
        p, q = -2.0 * a, a * a + b * b
    else:
        p, q = -(a + b), a * b
    z = r + draw(st.integers(-4, 4)) * math.ulp(r)
    B, C, D = p - r, q - r * p, -r * q
    assume(all(map(math.isfinite, (z, B, C, D))))
    return z, B, C, D


@settings(max_examples=200, deadline=None)
@given(cases=st.lists(cubics_at_a_real_root(), min_size=1, max_size=8))
def test_newton_batch_on_real_roots_equals_polish(cases):
    # the batch's real steps are _polish's; where _polish leaves float64 the
    # cell is not finite either, and the batch route hands such cells to the
    # scalar stage
    z, B, C, D = (np.array(x) for x in zip(*cases))
    with np.errstate(all="ignore"):
        polished = _newton_real(z, B, C, D)
    for i, case in enumerate(cases):
        want = _polish(complex(case[0]), *case[1:])
        got = complex(polished[i])
        if cmath.isfinite(want):
            assert repr(got) == repr(want)
        else:
            assert not cmath.isfinite(got)


def test_batch_bisection_midpoint_where_the_sum_overflows():
    # a + b overflows at the top of float64; both routes then halve through
    # 0.5 a + 0.5 b instead of taking inf as the midpoint
    f = lambda t: t - 1.5e308
    root = _bisect(f, 1e307, 1.7e308, tol=0.0)
    with np.errstate(over="ignore"):
        roots, found = _bisect_batch(f, np.array([1e307]), np.array([1.7e308]))
    assert root == 1.5e308
    assert found[0] and repr(roots[0].item()) == repr(root)


def test_records_sets_every_field_from_its_column():
    got = _records(RejectedRoot, 2, [1j, complex(-0.0, 2.0)], iter(["a", "b"]))
    assert repr(got) == repr([RejectedRoot(1j, "a"), RejectedRoot(complex(-0.0, 2.0), "b")])
    assert _records(ChannelScalars, 0, [], [], [], []) == []


def test_records_refuses_a_column_of_another_length():
    for count, columns in ((2, ([1j], ["a", "b"])), (1, ([1j, 2j], ["a"])),
                           (2, ([1j, 2j], iter(["a"])))):
        with pytest.raises(ValueError):
            _records(RejectedRoot, count, *columns)
    with pytest.raises(ValueError):  # one column per field
        _records(RejectedRoot, 1, [1j])


def test_records_refuses_a_class_with_post_init():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Checked:
        x: float

        def __post_init__(self):
            if not self.x > 0:
                raise ValueError("x must be > 0")

    with pytest.raises(TypeError, match="__post_init__"):
        _records(Checked, 1, [-1.0])
    # unless the caller has run that __post_init__'s checks, as _grid_inputs
    # runs ModelParams'
    got = _records(Checked, 1, [2.0], checked=Checked.__post_init__)
    assert repr(got) == repr([Checked(2.0)])
    with pytest.raises(TypeError, match="__post_init__"):
        _records(Checked, 1, [2.0], checked=ModelParams.__post_init__)
