import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hostark import nu, spectra, wavefunctions
from hostark.cli import build_parser
from hostark.model import (
    ModelParams,
    SymmetryKind,
    derived_constants,
    eval_potential,
    potential_curve,
)

# parameter sets used for the potential-curve figures
FIG1_SETS = [(1.0, 1 / 2.4), (1.5, 1 / 2.4), (1.0, 1.0), (1.5, 1.0)]


def params(M=1.5, omega0=1 / 2.4, q=1.0, eps=0.0, C=0.0, sym=SymmetryKind.SPIN):
    return ModelParams(M=M, omega0=omega0, q=q, eps=eps, sym=sym, C=C)


class TestValidation:
    @pytest.mark.parametrize("bad", [
        dict(M=0.0), dict(M=-1.0), dict(omega0=0.0), dict(omega0=-0.2),
        dict(eps=-0.5), dict(q=0.0, eps=1.0),
    ])
    def test_rejects_invalid(self, bad):
        with pytest.raises(ValueError):
            params(**bad)

    @pytest.mark.parametrize("field", ["M", "omega0", "q", "eps", "C"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            params(**{field: value})

    def test_q_zero_allowed_at_zero_field(self):
        params(q=0.0, eps=0.0)

    def test_kappa_pairing(self):
        assert SymmetryKind.SPIN.kappa == -1
        assert SymmetryKind.PSEUDOSPIN.kappa == +1


class TestEvalPotential:
    def test_pure_oscillator_point(self):
        # 0.5 * 1.5 * (1/2.4)^2 * 2.4^2 = 0.75
        assert eval_potential(params(eps=0.0), 2.4) == pytest.approx(0.75, rel=1e-12)

    def test_minimum_value_at_well_bottom(self):
        p = params(eps=2.0)
        dc = derived_constants(p)
        assert dc.r0 == pytest.approx(7.68, rel=1e-12)
        assert eval_potential(p, dc.r0) == pytest.approx(-7.68, rel=1e-12)
        assert eval_potential(p, dc.r0) == pytest.approx(-dc.g_shift, rel=1e-12)

    def test_zero_at_origin(self):
        assert eval_potential(params(eps=1.3), 0.0) == 0.0

    def test_vectorized(self):
        p = params(eps=1.0)
        r = np.linspace(0, 10, 7)
        v = eval_potential(p, r)
        assert v.shape == r.shape
        assert v[0] == 0.0

    @given(
        st.floats(0.1, 5.0),
        st.floats(0.1, 3.0),
        st.floats(0.1, 4.0),
        st.floats(0.0, 3.0),
        st.floats(0.0, 20.0),
    )
    def test_depends_only_on_q_eps_product(self, M, w0, q, eps, r):
        direct = eval_potential(params(M=M, omega0=w0, q=q, eps=eps), r)
        moved = eval_potential(params(M=M, omega0=w0, q=2.0 * q, eps=eps / 2.0), r)
        assert moved == pytest.approx(direct, rel=1e-12, abs=1e-12)


def test_completed_square_identity_fuzz():
    rng = np.random.default_rng(1914)
    n = 1000
    M = rng.uniform(0.1, 5.0, n)
    w0 = rng.uniform(0.1, 3.0, n)
    q = rng.uniform(0.1, 4.0, n)
    eps = rng.uniform(0.0, 3.0, n)
    r = rng.uniform(0.0, 20.0, n)
    direct = 0.5 * M * w0**2 * r**2 - q * eps * r
    r0 = q * eps / (M * w0**2)
    g_shift = (q * eps) ** 2 / (2 * M * w0**2)
    square = 0.5 * M * w0**2 * (r - r0) ** 2 - g_shift
    scale = 0.5 * M * w0**2 * r**2 + np.abs(q * eps * r) + 1.0
    assert np.all(np.abs(direct - square) <= 1e-12 * scale)


class TestDerivedConstants:
    def test_zero_field(self):
        dc = derived_constants(params(eps=0.0, C=0.7))
        assert dc.g_shift == 0.0
        assert dc.r0 == 0.0

    def test_unit_field(self):
        dc = derived_constants(params(eps=1.0))
        assert dc.g_shift == pytest.approx(1.92, rel=1e-12)
        assert dc.r0 == pytest.approx(3.84, rel=1e-12)

    def test_field_two_coincidence(self):
        # at these parameters g_shift and r0 happen to coincide
        dc = derived_constants(params(eps=2.0))
        assert dc.g_shift == pytest.approx(7.68, rel=1e-12)
        assert dc.r0 == pytest.approx(7.68, rel=1e-12)

    def test_rejects_an_overflowing_r0(self):
        # q eps / (M w0^2) = 1e310 overflows while g_shift = 5.0e299 does not
        with pytest.raises(ValueError, match="^r0 is not finite in float64 at M=1e-300, "
                                             "omega0=1e-10, q=1.0, eps=1e-10$"):
            derived_constants(params(M=1e-300, omega0=1e-10, eps=1e-10))


class TestPotentialCurve:
    def test_monotone_without_field(self):
        curve = potential_curve(params(M=1.5, omega0=1.0, eps=0.0), 10.0, 300)
        assert curve[0, 1] == 0.0
        assert np.all(np.diff(curve[:, 1]) > 0)

    def test_interior_minimum_near_well_bottom(self):
        p = params(M=1.0, omega0=1 / 2.4, eps=2.0)
        r0 = derived_constants(p).r0
        curve = potential_curve(p, 15.0, 600)
        step = 15.0 / 599
        r_at_min = curve[np.argmin(curve[:, 1]), 0]
        assert abs(r_at_min - r0) <= step

    def test_two_samples_are_endpoints(self):
        p = params(eps=0.3)
        curve = potential_curve(p, 1.0, 2)
        assert curve[0, 0] == 0.0 and curve[1, 0] == 1.0
        assert curve[0, 1] == eval_potential(p, 0.0)
        assert curve[1, 1] == eval_potential(p, 1.0)

    @pytest.mark.parametrize("M,w0", FIG1_SETS)
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0])
    def test_min_converges_to_minus_shift(self, M, w0, eps):
        p = params(M=M, omega0=w0, eps=eps)
        curve = potential_curve(p, 15.0, 10_000)
        assert np.min(curve[:, 1]) == pytest.approx(
            -derived_constants(p).g_shift, abs=1e-6
        )

    @pytest.mark.parametrize("bad", [dict(r_max=0.0, samples=10),
                                     dict(r_max=-1.0, samples=10),
                                     dict(r_max=1.0, samples=1),
                                     dict(r_max=math.nan, samples=10),
                                     dict(r_max=math.inf, samples=10),
                                     # r^2 overflows, so V is inf
                                     dict(r_max=1e308, samples=50)])
    def test_rejects_bad_grid(self, bad):
        with pytest.raises(ValueError):
            potential_curve(params(), **bad)


def _figure2_stdout(n_max):
    args = build_parser().parse_args(["figure2", "--M", "1.5", "--omega0", "0.4"])
    args.n_max = n_max
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        args.func(args)
    return out.getvalue()


_P = params(eps=0.5)
_PS = params(sym=SymmetryKind.PSEUDOSPIN, C=-10.3)
_NU = nu.reduce(*nu.oscillator_instance(2.0, 4.0, 1.0))[0]
_X = np.linspace(0.0, 2.0, 5)

# every entry point that takes a level index (or n_max) from its caller
LEVEL_INDEX_ENTRY_POINTS = {
    "cubic_coefficients": ("n", lambda n: spectra.cubic_coefficients(_P, n)),
    "solve_level": ("n", lambda n: spectra.solve_level(_PS, n)),
    "bisection_oracle": ("n", lambda n: spectra.bisection_oracle(
        spectra.Equation.SPIN_EQ, _P, n)),
    "relativistic_ho_level": ("n", lambda n: spectra.relativistic_ho_level(1.0, 1.0, n)),
    "nr_spin_level": ("n", lambda n: spectra.nr_spin_level(_P, n)),
    "nr_pseudospin_level": ("n", lambda n: spectra.nr_pseudospin_level(_PS, n)),
    "spectrum_grid": ("n_max", lambda n: spectra.spectrum_grid(_PS, n, [0.1, 0.5])),
    "nr_radial_R": ("n", lambda n: wavefunctions.nr_radial_R(_P, n, _X)),
    "NuReduction.lambda_n": ("n", lambda n: _NU.lambda_n(n)),
    "figure2": ("n_max", _figure2_stdout),
}


@pytest.mark.parametrize("entry", sorted(LEVEL_INDEX_ENTRY_POINTS))
def test_level_index_must_be_a_nonnegative_integer(entry):
    name, call = LEVEL_INDEX_ENTRY_POINTS[entry]
    with pytest.raises(TypeError, match=f"^{name} must be an integer, got 1.5$"):
        call(1.5)
    with pytest.raises(ValueError, match=f"^{name} must be >= 0, got -1$"):
        call(-1)
    # a NumPy integer is an index like any other, and gives the same result
    assert repr(call(np.int64(2))) == repr(call(2))


@pytest.mark.parametrize("entry", sorted(LEVEL_INDEX_ENTRY_POINTS))
def test_level_index_past_float64_range_is_rejected(entry):
    # the level formulas take n + 0.5, which cannot convert such an n
    name, call = LEVEL_INDEX_ENTRY_POINTS[entry]
    with pytest.raises(ValueError, match=f"^{name} must be within float64 range, got 1329 bits$"):
        call(10 ** 400)
