import cmath
import math
import random

import mpmath

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

import ledger
from hostark.model import ModelParams, SymmetryKind, derived_constants
from hostark.spectra import Status, solve_level
from hostark.wavefunctions import (
    ConstantsUndefined,
    RadialKind,
    SingularAtOrigin,
    _hermite,
    _laguerre,
    count_nodes,
    default_r_max,
    g_deviation_report,
    lower_spinor_G,
    lower_spinor_G_closed_form,
    nr_radial_R,
    pseudo_lower_G,
    sample_radial,
    shape_constants,
    simpson as hostark_simpson,
    upper_spinor_F,
)


def spin(eps=0.0, M=1.5, omega0=1 / 2.4, C=0.0):
    return ModelParams(M=M, omega0=omega0, eps=eps, C=C)


def pseudo(eps=0.0, C=-10.3):
    return ModelParams(M=1.5, omega0=1 / 2.4, eps=eps,
                       sym=SymmetryKind.PSEUDOSPIN, C=C)


def hermite_series(n, x):
    # brute-force sum in 50-digit arithmetic (float64 cancellation would
    # otherwise dominate the comparison at large |x|)
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        return float(sum(
            (-1) ** m
            * mpmath.mpf(math.factorial(n))
            / (math.factorial(m) * math.factorial(n - 2 * m))
            * (2 * x) ** (n - 2 * m)
            for m in range(n // 2 + 1)
        ))


def laguerre_series(n, alpha, x):
    with mpmath.workdps(50):
        alpha, x = mpmath.mpf(alpha), mpmath.mpf(x)
        total = mpmath.mpf(0)
        for k in range(n + 1):
            binom = mpmath.mpf(1)
            for j in range(1, n - k + 1):  # C(n+alpha, n-k) as a product
                binom *= (alpha + k + j) / j
            total += (-1) ** k * binom * x**k / math.factorial(k)
        return float(total)


def mp_upper_F(sc, n):
    """The printed F_n times exp(-eps1 b^2/(2 lambda^2)), the scale of
    upper_spinor_F, at mpmath's working precision, from the float shape constants."""
    lam2 = mpmath.mpf(sc.lambda_scale) ** 2
    b, eps1, eps2 = (mpmath.mpf(c) for c in (sc.b, sc.eps1, sc.eps2))
    return lambda r: (mpmath.exp(-eps1 * (lam2 * r * r / 2 - b * r))
                      * mpmath.laguerre(n, 0, eps2 * (lam2 * r - b) ** 2)
                      * mpmath.exp(-eps1 * b * b / (2 * lam2)))


def mp_pseudo_G(p, n, E):
    """The printed pseudospin G_n, exp[i eps1' (lambda^2 r^2/2 - b r)]
    H_n(-i eps2' (lambda^2 r - b)^2), times exp(i eps1' b^2/(2 lambda^2)), the
    scale of pseudo_lower_G, in complex arithmetic at mpmath's working
    precision, its constants formed there from the float parameters and level
    energy: eps1' = sqrt(gamma_tilde)/(2M), eps2' = gamma_tilde/(2Mv),
    v = sqrt(w2 gamma_tilde), gamma_tilde = M + C - E and w2 = M w0^2 / 2."""
    M, omega0, C, q, eps = (mpmath.mpf(x) for x in (p.M, p.omega0, p.C, p.q, p.eps))
    gamma_t = mpmath.mpc(M + C - mpmath.mpf(E))
    eps1p = mpmath.sqrt(gamma_t) / (2 * M)
    eps2p = gamma_t / (2 * M * mpmath.sqrt(M * omega0 ** 2 / 2 * gamma_t))
    lam2, b = M * omega0, q * eps / omega0
    scale = mpmath.exp(1j * eps1p * b * b / (2 * lam2))

    def G(r):
        z, h, h_prev = -1j * eps2p * (lam2 * r - b) ** 2, mpmath.mpc(1), mpmath.mpc(0)
        for k in range(n):
            h, h_prev = 2 * z * h - 2 * k * h_prev, h
        return mpmath.exp(1j * eps1p * (lam2 * r * r / 2 - b * r)) * h * scale
    return G


class TestPolynomials:
    def test_hermite_base_cases(self):
        assert _hermite(0, 0.37) == 1.0
        assert _hermite(1, 0.5) == 1.0
        assert _hermite(2, 1.0) == 2.0  # 4x^2 - 2

    def test_hermite_frozen_value(self):
        assert _hermite(5, 0.7) == pytest.approx(34.49824, rel=1e-12)

    @given(st.integers(0, 15), st.floats(-10, 10))
    @settings(max_examples=200)
    def test_hermite_matches_series(self, n, x):
        expect = hermite_series(n, x)
        assert _hermite(n, x) == pytest.approx(expect, rel=1e-10, abs=1e-10)

    def test_laguerre_base_cases(self):
        assert _laguerre(0, 2.5, 1.7) == 1.0
        assert _laguerre(1, 1.0, 0.5) == pytest.approx(1.5)  # 2 - x

    def test_laguerre_frozen_value(self):
        assert _laguerre(4, 0.0, 2.3) == pytest.approx(
            0.72467083333333333, rel=1e-12
        )

    @given(st.integers(0, 15), st.floats(-0.9, 5.0), st.floats(0.0, 10.0))
    @settings(max_examples=200)
    def test_laguerre_matches_series(self, n, alpha, x):
        expect = laguerre_series(n, alpha, x)
        assert _laguerre(n, alpha, x) == pytest.approx(
            expect, rel=1e-10, abs=1e-10
        )

    def test_vectorized(self):
        x = np.linspace(-2, 2, 9)
        assert _hermite(3, x).shape == x.shape
        assert _laguerre(3, 1.0, x).shape == x.shape


class TestShapeConstants:
    def test_spin_constants(self):
        p = spin(eps=0.5)
        E = solve_level(p, 0).E
        sc = shape_constants(p, E)
        gamma = E + 1.5
        assert sc.lambda_scale == pytest.approx(math.sqrt(1.5 / 2.4))
        assert sc.b == pytest.approx(0.5 * 2.4)
        assert sc.eps1 == pytest.approx(math.sqrt(gamma / 3.0))
        v = math.sqrt(0.5 * 1.5 * (1 / 2.4) ** 2 * gamma)
        assert sc.eps2 == pytest.approx(gamma / (3.0 * v))
        assert sc.d0 == pytest.approx(1.0 / gamma)
        # well-bottom identity: b / lambda^2 = r0
        assert sc.b / sc.lambda_scale**2 == pytest.approx(
            derived_constants(p).r0, rel=1e-12
        )

    def test_gamma_must_be_positive(self):
        with pytest.raises(ConstantsUndefined):
            shape_constants(spin(), -3.0)

    def test_pseudospin_constants_are_complex(self):
        # the printed constants eps1', eps2' are complex; the products
        # i eps1' and -i eps2' of the printed form are real, and shape_constants
        # holds them, bit for bit, as -eps1 and eps2
        p = pseudo()

        E = solve_level(p, 0).E
        sc = shape_constants(p, E)
        gamma_t = complex(p.M + p.C - E)
        assert gamma_t.real < 0 and sc.d0 is None
        eps1p = cmath.sqrt(gamma_t) / (2.0 * p.M)
        eps2p = gamma_t / (2.0 * p.M * cmath.sqrt(0.5 * p.M * p.omega0 ** 2 * gamma_t))
        assert eps1p.real == 0.0 and eps2p.real == 0.0
        assert (1j * eps1p).imag == 0.0 and (-1j * eps2p).imag == 0.0
        assert repr(sc.eps1) == repr(-(1j * eps1p).real)
        assert repr(sc.eps2) == repr((-1j * eps2p).real)


class TestNonFiniteConstants:
    """Constants past float64 raise ValueError where they are formed, not an
    OverflowError from omega0 ** 2 or nan samples with a RuntimeWarning."""

    def test_shape_constants_of_an_overflowing_omega0_squared(self):
        with pytest.raises(ConstantsUndefined, match="not finite"):
            shape_constants(ModelParams(M=1.0, omega0=1e200), 5.0)

    @pytest.mark.parametrize("evaluator", [upper_spinor_F, lower_spinor_G])
    def test_spin_components_of_an_overflowing_omega0_squared(self, evaluator):
        with pytest.raises(ConstantsUndefined, match="not finite"):
            evaluator(ModelParams(M=1.0, omega0=1e200), 0, 1.0, energy=5.0)

    @pytest.mark.parametrize("evaluator", [upper_spinor_F, lower_spinor_G])
    def test_spin_components_of_an_infinite_lambda(self, evaluator):
        # lambda = sqrt(M omega0) is inf; F read 0.0 and G nan
        with pytest.raises(ConstantsUndefined, match="not finite"):
            evaluator(ModelParams(M=1e300, omega0=1e10), 0, 1.0, energy=5.0)

    @pytest.mark.parametrize("kind", [RadialKind.UPPER_F, RadialKind.LOWER_G])
    def test_spin_components_where_2_M_v_underflows(self, kind):
        # eps2 = gamma / (2 M v) raised ZeroDivisionError
        with pytest.raises(ConstantsUndefined, match="not finite"):
            sample_radial(kind, ModelParams(M=1e-300, omega0=1.0), 0, samples=5)

    def test_nr_radial_R_of_an_infinite_lambda(self):
        with pytest.raises(ValueError, match="constants of R_n are not finite"):
            nr_radial_R(ModelParams(M=1e300, omega0=1e300), 0, 1.0)


@pytest.mark.parametrize("evaluator", [upper_spinor_F, lower_spinor_G, lower_spinor_G_closed_form,
                                       pseudo_lower_G, nr_radial_R], ids=lambda f: f.__name__)
def test_evaluators_raise_where_samples_overflow(evaluator):
    """Finite constants whose samples overflow raise sample_radial's ValueError,
    not inf or nan samples with a RuntimeWarning."""
    if evaluator is nr_radial_R:  # the Hermite factor overflows at r = 1e200
        args = (ModelParams(M=1.0, omega0=1.0), 2, [0.5, 1e200])
    else:
        sym = SymmetryKind.PSEUDOSPIN if evaluator is pseudo_lower_G else SymmetryKind.SPIN
        args = (ModelParams(M=1e-150, omega0=1e-20, eps=1e100, sym=sym), 1, [0.5, 1.0], 5.0)
    with pytest.raises(ValueError, match=f"at n={args[1]} has non-finite samples"):
        evaluator(*args)


class TestUpperSpinorF:
    def test_zero_field_is_centered_gaussian(self):
        p = spin()
        E = solve_level(p, 0).E
        sc = shape_constants(p, E)
        r = np.linspace(0, 10, 50)
        expect = np.exp(-0.5 * sc.eps1 * sc.lambda_scale**2 * r**2)
        assert upper_spinor_F(p, 0, r, E) == pytest.approx(expect, rel=1e-12)

    def test_polynomial_argument_minimized_at_well_bottom(self):
        p = spin(eps=1.0)
        sc = shape_constants(p, solve_level(p, 0).E)
        r0 = derived_constants(p).r0
        assert sc.b / sc.lambda_scale**2 == pytest.approx(r0, rel=1e-12)
        r = np.linspace(0, 3 * r0, 4001)
        arg = sc.eps2 * (sc.lambda_scale**2 * r - sc.b) ** 2
        assert r[np.argmin(arg)] == pytest.approx(r0, abs=r[1] - r[0])

    def test_normalized_integral(self):
        rf = sample_radial(RadialKind.UPPER_F, spin(eps=0.5), 0,
                           r_max=40.0, samples=4001)
        assert rf.norm == pytest.approx(1.0, abs=1e-8)
        # independent check on a refined trapezoid grid
        assert np.trapezoid(np.abs(rf.values) ** 2, rf.r) == pytest.approx(1.0, abs=1e-6)

    def test_requires_spin_params(self):
        with pytest.raises(ValueError):
            upper_spinor_F(pseudo(), 0, 1.0)

    def test_origin_defect_reported(self):
        rf = sample_radial(RadialKind.UPPER_F, spin(eps=0.5), 0)
        assert rf.origin_defect > 0.0  # closed form does not vanish at r = 0


class TestNrRadialR:
    def test_ground_state_zero_field_peaks_at_origin(self):
        p = spin()
        r = np.linspace(0, 8, 801)
        vals = nr_radial_R(p, 0, r)
        assert np.argmax(np.abs(vals)) == 0
        lam = math.sqrt(1.5 / 2.4)
        expect = (lam**2 / math.pi) ** 0.25 * np.exp(-0.5 * lam**2 * r**2)
        assert vals == pytest.approx(expect, rel=1e-12)

    def test_ground_state_peaks_at_well_bottom(self):
        p = spin(eps=1.0)
        r0 = derived_constants(p).r0
        r = np.linspace(0, 2 * r0, 2001)
        vals = nr_radial_R(p, 0, r)
        assert r[np.argmax(vals)] == pytest.approx(r0, abs=r[1] - r[0])

    def test_three_interior_sign_changes(self):
        p = spin(eps=0.7)
        r0 = derived_constants(p).r0
        lam = math.sqrt(p.M * p.omega0)
        r = np.linspace(r0 - 8 / lam, r0 + 8 / lam, 4001)
        assert count_nodes(nr_radial_R(p, 3, r)) == 3

    @pytest.mark.parametrize("omega0", [1 / 2.4, 1.0])
    @pytest.mark.parametrize("eps", [0.0, 0.5, 1.0, 2.0])
    def test_node_count_equals_n(self, omega0, eps):
        p = spin(eps=eps, omega0=omega0)
        r0 = derived_constants(p).r0
        lam = math.sqrt(p.M * p.omega0)
        r = np.linspace(r0 - 8 / lam, r0 + 8 / lam, 4001)
        for n in range(11):
            assert count_nodes(nr_radial_R(p, n, r)) == n

    def test_index_past_150_is_rejected(self):
        # 2^n n! overflows float64 from n = 151 on (and 2.0 ** n from 1024)
        r = np.linspace(0.0, 40.0, 101)
        assert np.all(np.isfinite(nr_radial_R(spin(), 150, r)))
        for n in (151, 170, 171, 1100):
            with pytest.raises(ValueError, match=f"^n = {n} is past 150"):
                nr_radial_R(spin(), n, r)

    def test_translation_covariance_exact(self):
        p = spin(eps=1.3)
        p0 = spin(eps=0.0)
        r0 = derived_constants(p).r0
        r = np.linspace(0, 12, 601)
        moved = nr_radial_R(p, 4, r)
        reference = nr_radial_R(p0, 4, r - r0)
        assert np.array_equal(moved, reference)

    def test_orthogonality(self):
        p = spin(eps=0.5)
        r0 = derived_constants(p).r0
        lam = math.sqrt(p.M * p.omega0)
        r = np.linspace(r0 - 12 / lam, r0 + 12 / lam, 8001)
        funcs = [nr_radial_R(p, n, r) for n in range(6)]
        for m in range(6):
            for n in range(m + 1, 6):
                overlap = simpson(funcs[m] * funcs[n], x=r)
                assert abs(overlap) <= 1e-6
            assert simpson(funcs[m] * funcs[m], x=r) == pytest.approx(1.0, abs=1e-8)


class TestLowerSpinorG:
    def test_ground_state_zero_field_reduction(self):
        # (d/dr + kappa/r) F0 = (-eps1 lam^2 r + kappa/r) F0 when eps = 0
        p = spin()
        E = solve_level(p, 0).E
        sc = shape_constants(p, E)
        r = np.linspace(0.2, 8, 40)
        f0 = upper_spinor_F(p, 0, r, E)
        expect = sc.d0 * (-sc.eps1 * sc.lambda_scale**2 * r - 1.0 / r) * f0
        assert lower_spinor_G(p, 0, r, E) == pytest.approx(expect, rel=1e-8)

    def test_singular_at_origin(self):
        with pytest.raises(SingularAtOrigin):
            lower_spinor_G(spin(), 0, 0.0)
        with pytest.raises(SingularAtOrigin):
            lower_spinor_G_closed_form(spin(), 0, np.array([0.5, 0.0]))

    def test_decays_at_large_radius(self):
        assert abs(lower_spinor_G(spin(eps=0.5), 0, 30.0)) < 1e-100

    def test_closed_form_matches_its_printed_expression(self):
        # the printed form keeps a +L_n^(1) term that does not vanish at n=0
        p = spin()
        E = solve_level(p, 0).E
        sc = shape_constants(p, E)
        r = np.linspace(0.2, 6, 30)
        lam2 = sc.lambda_scale**2
        f0 = upper_spinor_F(p, 0, r, E)
        expect = sc.d0 * ((-sc.eps1 * lam2 * r - 1.0 / r)
                          + 2.0 * lam2 * sc.eps2 * lam2 * r) * f0
        assert lower_spinor_G_closed_form(p, 0, r, E) == pytest.approx(
            expect, rel=1e-12
        )

    def test_referee_40_digit_derivative(self):
        """lower_spinor_G against d0 (F' + kappa F / r), F' the mpmath.diff of
        F at 40 digits (the printed F times exp(-eps1 b^2/(2 lambda^2)), the
        evaluators' scale), on 20 points across +-4 sqrt(2n+1) envelope widths
        about r0 for each Bound level of 40 wide draws (n <= 10).  The error
        relative to |d0| (|F'| + |F / r|) on these 800 points, measured:
        closed-form dF/dr median 1.23e-15, max 3.9e-14; the central difference
        of step 1e-6 max(1, r), three F evaluations, median 1.6e-10 and max
        2.6e-8.  upper_spinor_F is within 7.0e-15 of its peak on the points
        (9.3e-15 with the printed envelope, whose terms grow as r0^2)."""
        kappa = SymmetryKind.SPIN.kappa
        closed, central, upper = [], [], []
        for p, n, E, sc in ledger.bound_levels(ledger.certify_draws(17, 40, 10)):
            half = 4.0 * math.sqrt(2 * n + 1) * ledger.envelope_width(sc)
            r0 = sc.b / sc.lambda_scale ** 2
            r = np.linspace(max(r0 - half, 0.005 * half), r0 + half, 20)
            f = upper_spinor_F(p, n, r, E)
            h = 1e-6 * np.maximum(1.0, r)
            dF = (upper_spinor_F(p, n, r + h, E) - upper_spinor_F(p, n, r - h, E)) / (2.0 * h)
            samples = zip(r.tolist(), lower_spinor_G(p, n, r, E), sc.d0 * (dF + kappa / r * f), f)
            F = mp_upper_F(sc, n)
            with mpmath.workdps(40):
                F_peak = max(abs(F(mpmath.mpf(x))) for x in r.tolist())
                for x, g, g_central, f_x in samples:
                    x = mpmath.mpf(x)
                    F_x, dF_x = F(x), mpmath.diff(F, x)
                    G_x = sc.d0 * (dF_x + kappa * F_x / x)
                    scale = abs(sc.d0) * (abs(dF_x) + abs(F_x / x))
                    closed.append(float(abs(g - G_x) / scale))
                    central.append(float(abs(g_central - G_x) / scale))
                    upper.append(float(abs(f_x - F_x) / F_peak))
        assert len(closed) >= 400
        assert np.median(closed) <= 2e-15 and max(closed) <= 5e-14
        assert np.median(central) >= 1e4 * np.median(closed)
        # F itself is the printed form, so dF/dr cannot drift from it unseen
        assert max(upper) <= 1e-14

    def test_deviation_report(self):
        rep = g_deviation_report(spin(eps=0.5), 1)
        # numeric agrees with the extrapolated central differences
        assert rep.richardson_defect <= 1e-6
        # and the printed closed form genuinely disagrees with it
        assert rep.max_rel_deviation > 1e-3
        assert rep.mean_rel_deviation > 0.0


class TestPseudoLowerG:
    def test_ground_state_modulus_is_pure_exponential(self):
        p = pseudo(eps=0.5)

        E = solve_level(p, 0).E
        sc = shape_constants(p, E)
        r = np.linspace(0, 6, 30)
        vals = pseudo_lower_G(p, 0, r, E)
        eps1p = cmath.sqrt(complex(p.M + p.C - E)) / (2.0 * p.M)
        # the printed exponent, plus that of the scale exp(i eps1' b^2/(2 lambda^2))
        exponent = 1j * eps1p * (-sc.b * r + 0.5 * sc.lambda_scale**2 * r**2
                                 + 0.5 * sc.b**2 / sc.lambda_scale**2)
        assert vals.dtype == np.float64
        assert np.abs(vals) == pytest.approx(np.exp(exponent.real), rel=1e-12)
        # above the margin's edge (gamma_tilde > 0) the printed form does not
        # decay, and there is no bound level
        with pytest.raises(ConstantsUndefined, match="<= 0"):
            pseudo_lower_G(p, 0, r, energy=p.M + p.C - 1e-3)

    def test_zero_field_gaussian_envelope(self):
        p = pseudo()

        E = solve_level(p, 0).E
        gamma_t = 1.5 - E - 10.3
        r = np.linspace(0, 6, 30)
        vals = pseudo_lower_G(p, 0, r, E)
        expect = np.exp(-math.sqrt(-gamma_t) / (2 * 1.5)
                        * 0.5 * (1.5 / 2.4) * r**2)
        assert np.abs(vals) == pytest.approx(expect, rel=1e-12)

    def test_referee_40_digit_printed_form(self):
        """pseudo_lower_G against the printed complex form times
        exp(i eps1' b^2/(2 lambda^2)), the evaluators' scale, at 40 digits, on
        201 points of the default window, for the Bound levels of 24 wide draws
        and the n = 10 draw of the CI's multi-block step.  The error relative
        to the peak of |G|, measured over the 143 Bound levels of 300 such
        draws: median 8.3e-16, max 8.7e-15 (1.1e-15 and 1.0e-13 with the
        printed envelope, whose terms grow as r0^2)."""
        rng = random.Random(29)
        draws = [(ModelParams(M=rng.uniform(0.1, 10.0), omega0=rng.uniform(0.05, 5.0),
                              eps=rng.uniform(0.0, 5.0), C=rng.uniform(-40.0, -20.0),
                              sym=SymmetryKind.PSEUDOSPIN), rng.randrange(11))
                 for _ in range(24)]
        draws.append((ModelParams(M=1.046494044710348, omega0=0.6442066809323429,
                                  eps=2.528224943018201, C=-29.983058372373172,
                                  sym=SymmetryKind.PSEUDOSPIN), 10))
        errors = []
        for p, n in draws:
            level = solve_level(p, n)
            if level.status is not Status.BOUND:
                continue
            r = np.linspace(0.0, default_r_max(p), 201)
            g = pseudo_lower_G(p, n, r, level.E)
            assert g.dtype == np.float64
            with mpmath.workdps(40):
                G = list(map(mp_pseudo_G(p, n, level.E), map(mpmath.mpf, r.tolist())))
                peak = max(abs(z) for z in G)
                errors.append(float(max(abs(x - z) for x, z in zip(g.tolist(), G)) / peak))
        assert len(errors) >= 10
        assert np.median(errors) <= 4e-15 and max(errors) <= 1e-13

    def test_unbound_level_raises(self):
        with pytest.raises(ConstantsUndefined):
            pseudo_lower_G(pseudo(eps=2.0), 0, 1.0)

    def test_requires_pseudospin_params(self):
        with pytest.raises(ValueError):
            pseudo_lower_G(spin(), 0, 1.0)

    def test_vanishing_gamma_tilde_raises(self):
        # gamma_tilde = M + C - E = 0, 1e-3 and 1e300
        p = pseudo()
        for energy in (p.M + p.C, p.M + p.C - 1e-3, -1e300):
            with pytest.raises(ConstantsUndefined, match="<= 0"):
                pseudo_lower_G(p, 0, 1.0, energy=energy)
            with pytest.raises(ConstantsUndefined, match="<= 0"):
                shape_constants(p, energy)

    def test_all_zero_samples(self):
        assert count_nodes(np.zeros(5)) == 0
        with pytest.raises(ValueError, match="real values"):
            count_nodes(np.zeros(5, complex))


# Bound levels far from the origin: a spin draw of the defect ledger's sampling
# recipe and a pseudospin draw, whose printed envelopes overflow float64
FAR_WELLS = {
    SymmetryKind.SPIN: (ModelParams(M=0.32655985658297415, omega0=2.220269524615326,
                                    eps=35.78797839179613, C=-413.12930703052575), 1),
    SymmetryKind.PSEUDOSPIN: (ModelParams(M=0.13619691459387595, omega0=0.19999342799276731,
                                          eps=0.452672169323069, C=-36.593321039820744,
                                          sym=SymmetryKind.PSEUDOSPIN), 0),
}


class TestSampling:
    @pytest.mark.parametrize("kind", list(RadialKind), ids=lambda kind: kind.value)
    def test_values_are_float64(self, kind):
        params = pseudo(eps=0.5) if kind is RadialKind.PSEUDO_LOWER_G else spin(eps=0.5)
        assert sample_radial(kind, params, 1, samples=801).values.dtype == np.float64

    def test_norm_metadata(self):
        for kind, params in [(RadialKind.UPPER_F, spin(eps=0.5)),
                             (RadialKind.NONREL_R, spin(eps=1.0)),
                             (RadialKind.PSEUDO_LOWER_G, pseudo())]:
            rf = sample_radial(kind, params, 2, samples=4001)
            assert rf.norm == pytest.approx(1.0, abs=1e-8)
            assert rf.normalized

    def test_raw_sampling(self):
        rf = sample_radial(RadialKind.UPPER_F, spin(), 0, normalize=False)
        assert rf.values[0] == pytest.approx(1.0)  # unnormalized closed form at r=0

    def test_nonrel_norm_converges_to_mpmath_quad(self):
        # the raw norm of R_3 against a 30-digit quad of the closed-form R_3^2
        # over the same window [0, r0 + 20/lambda], which cuts R_3 off at
        # r = 0 (the integral is 0.675..., not 1); at 1001 samples the
        # uniform rule is 1.95e-8 off, and halving h cuts that 16.01x (h^4)
        p = spin(eps=0.5, omega0=0.4)
        n, r_max = 3, default_r_max(p)
        lam, r0 = math.sqrt(p.M * p.omega0), derived_constants(p).r0
        with mpmath.workdps(30):
            pref = (lam ** 2 / mpmath.pi) ** 0.25 / mpmath.sqrt(2 ** n * math.factorial(n))
            exact = float(mpmath.quad(
                lambda r: (pref * mpmath.exp(-lam ** 2 * (r - r0) ** 2 / 2)
                           * mpmath.hermite(n, lam * (r - r0))) ** 2, [0, r0, r_max]))
        err = [sample_radial(RadialKind.NONREL_R, p, n, samples=samples, normalize=False).norm
               / exact - 1.0 for samples in (1001, 2001)]
        assert abs(err[0]) <= 2e-8
        assert 15.5 <= err[0] / err[1] <= 16.5

    def test_too_few_samples(self):
        with pytest.raises(ValueError, match="^samples must be >= 3, got 2$"):
            sample_radial(RadialKind.UPPER_F, spin(), 0, samples=2)

    def test_node_metadata_matches_count(self):
        rf = sample_radial(RadialKind.NONREL_R, spin(eps=0.5), 3, samples=4001)
        assert rf.nodes == count_nodes(rf.values)

    def test_identically_zero_samples_are_not_normalized(self):
        # the well sits at r0 = 100, so every R sample on [0, 10] underflows to 0
        p = spin(M=1.0, omega0=1.0, eps=100.0)
        with pytest.raises(ValueError, match="cannot normalize an identically zero function"):
            sample_radial(RadialKind.NONREL_R, p, 0, r_max=10.0)
        raw = sample_radial(RadialKind.NONREL_R, p, 0, r_max=10.0, normalize=False)
        assert raw.norm == 0.0 and not raw.values.any()

    def test_normalizes_when_norm_integral_overflows(self):
        # raw peak ~6.1e155, so |Gps|^2 overflows and the raw Simpson integral is inf
        p = ModelParams(M=10.0, omega0=0.4, eps=0.5, C=-103.0, sym=SymmetryKind.PSEUDOSPIN)
        raw = sample_radial(RadialKind.PSEUDO_LOWER_G, p, 60, samples=2001, normalize=False)
        assert raw.norm == math.inf
        rf = sample_radial(RadialKind.PSEUDO_LOWER_G, p, 60, samples=2001)
        assert np.all(np.isfinite(rf.values))
        assert rf.norm == pytest.approx(1.0, abs=1e-9)
        assert np.max(np.abs(rf.values)) > 0.0

    @pytest.mark.parametrize("samples", [201, 2001])
    @pytest.mark.parametrize("kind", [RadialKind.UPPER_F, RadialKind.LOWER_G,
                                      RadialKind.PSEUDO_LOWER_G], ids=lambda kind: kind.value)
    def test_far_displaced_well_is_sampled(self, kind, samples):
        # the printed envelope peaks at exp(eps1 b^2/(2 lambda^2)), past float64 at these
        # Bound levels: exp(904) for the spin draw (r0 = 22.2) and exp(1444) for the
        # pseudospin one (r0 = 83.1); the centred envelope peaks at 1
        p, n = FAR_WELLS[kind.sym]
        raw = sample_radial(kind, p, n, samples=samples, normalize=False)
        assert 0.0 < np.max(np.abs(raw.values)) <= 1.0
        rf = sample_radial(kind, p, n, samples=samples)
        assert np.all(np.isfinite(rf.values))
        assert rf.norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("kind", [RadialKind.UPPER_F, RadialKind.LOWER_G])
    def test_nan_samples_are_rejected(self, kind, normalize):
        # L_400 of the envelope argument overflows to inf - inf = nan
        with pytest.raises(ValueError, match=f"^{kind.value} at n=400 has non-finite samples"):
            sample_radial(kind, spin(M=1.5, omega0=0.4), 400, normalize=normalize)

    @pytest.mark.parametrize("kind", [
        RadialKind.UPPER_F,
        pytest.param(RadialKind.LOWER_G, marks=pytest.mark.xfail(strict=True, reason=(
            "Simpson's first interval pair, from r = 1e-8, sets G's norm: the kappa/r "
            "term makes |G|^2 ~ 1/r^2 there, so the norm follows h (a factor 1/sqrt(10) "
            "at r_max/2 here)"))),
    ], ids=lambda kind: kind.value)
    def test_normalized_values_converge_with_samples(self, kind):
        # r_max/2 is sample 1000 of 2001 and 10000 of 20001
        p = spin(eps=0.5, omega0=0.4, C=-10.3)
        coarse, fine = (sample_radial(kind, p, 1, samples=s) for s in (2001, 20001))
        assert coarse.r[1000] == fine.r[10000]
        assert abs(fine.values[10000] / coarse.values[1000] - 1.0) <= 0.01

    def test_lower_g_grid_avoids_origin(self):
        rf = sample_radial(RadialKind.LOWER_G, spin(eps=0.3), 0, samples=501)
        assert rf.r[0] == pytest.approx(1e-8)
        assert np.all(np.isfinite(rf.values))

    @pytest.mark.parametrize("r_max", [math.nan, math.inf, -math.inf, -5.0, 0.0])
    def test_rejects_bad_r_max(self, r_max):
        with pytest.raises(ValueError, match="r_max must be finite and > 0"):
            sample_radial(RadialKind.UPPER_F, spin(), 0, r_max=r_max)

    @pytest.mark.parametrize("normalize", [True, False])
    @pytest.mark.parametrize("kind", list(RadialKind))
    def test_rejects_non_positive_default_window(self, kind, normalize):
        # q eps < 0 moves the well to r0 = -41.7, so r0 + 20/lambda = -15.8
        sym = (SymmetryKind.PSEUDOSPIN if kind is RadialKind.PSEUDO_LOWER_G
               else SymmetryKind.SPIN)
        p = ModelParams(M=1.5, omega0=0.4, q=-2.0, eps=5.0, sym=sym)
        with pytest.raises(ValueError, match=r"got -15\.8.*; pass r_max \(--r-max\)"):
            sample_radial(kind, p, 0, normalize=normalize)


@pytest.fixture(scope="module")
def radial_residuals():
    return ledger.radial_residuals()


class TestRadialEquations:
    """The components against their radial equations on 100 wide draws, as
    the ledger's radial_residuals entry measures them (the bounds are the
    largest residuals measured there)."""

    def test_nonrel_R_meets_the_schrodinger_equation(self, radial_residuals):
        # n = 0..4; measured: median 2.8e-10, max 8.65e-10
        assert max(radial_residuals["NonRelR"].values()) <= 9e-10

    @pytest.mark.parametrize("n", [
        0,
        pytest.param(1, marks=pytest.mark.xfail(strict=True, reason=(
            "the printed F is L_n(a x^2), x = r - r0, of degree 2n; the oscillator "
            "eigenfunction with that envelope is H_n(sqrt(a) x) (residual 0.48 here)"))),
    ])
    def test_upper_F_meets_the_spin_equation(self, n, radial_residuals):
        assert len(ledger.spin_equation_levels(n)) >= 95
        worst = radial_residuals["UpperF"][f"n = {n}"]
        # measured at n = 0: median 4.84e-10, max 2.17e-9; with the printed envelope, whose
        # two terms grow as r0^2, F's rounding at r0 = 12 made the max 7.06e-8
        assert worst <= 2.5e-9, worst


def same_float(a, b) -> bool:
    """Equal as floats, sign of zero included; NaN matches NaN."""
    a, b = float(a), float(b)
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)


class TestSimpson:
    """hostark's Simpson rule against SciPy's, which stays the reference."""

    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(3, 5000),
           grid=st.sampled_from(["linspace", "lower_g", "nonuniform", "repeated"]),
           width=st.floats(1e-3, 1e3),
           exponents=st.tuples(st.integers(-300, 300), st.integers(-300, 300)),
           zero_frac=st.sampled_from([0.0, 0.1, 0.9]),
           signed=st.booleans(),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_bit_identical_to_scipy(self, n, grid, width, exponents, zero_frac,
                                    signed, seed):
        rng = np.random.default_rng(seed)
        if grid in ("linspace", "lower_g"):
            x = np.linspace(0.0, width, n)
            if grid == "lower_g":
                x[0] = 1e-8  # the LOWER_G sampling grid
        else:
            x = np.sort(rng.uniform(-width, width, n))
            if grid == "repeated":
                # zero spacings exercise the guarded divisions
                x[rng.integers(1, n, size=max(1, n // 10))] = x[0]
                x = np.sort(x)
        lo, hi = sorted(exponents)
        y = 10.0 ** rng.uniform(lo, hi, n)
        if signed:
            y *= rng.choice([-1.0, 1.0], n)
        y[rng.random(n) < zero_frac] = 0.0
        with np.errstate(all="ignore"):
            ours, ref = hostark_simpson(y, x), simpson(y, x=x)
        assert same_float(ours, ref), (ours, ref)

    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_smallest_grids(self, n):
        x = np.array([0.0, 0.5, 1.5, 1.75, 3.0, 3.1])[:n]
        y = np.array([1.0, -2.0, 0.0, 3.5, 1e-300, 1e300])[:n]
        assert same_float(hostark_simpson(y, x), simpson(y, x=x))


class TestMeanRadius:
    def test_reported_near_density_center(self):
        from hostark.wavefunctions import mean_radius

        p = spin(eps=1.0)
        rf = sample_radial(RadialKind.NONREL_R, p, 0, samples=4001)
        r0 = derived_constants(p).r0
        # diagnostic only: the computed center sits at +r0 up to the
        # half-line truncation of the sampling window
        assert mean_radius(rf) == pytest.approx(r0, abs=1e-2)
        assert 0.0 <= mean_radius(rf) <= rf.r[-1]


def test_lower_g_requires_spin_params():
    with pytest.raises(ValueError):
        lower_spinor_G(pseudo(), 0, 1.0)
    with pytest.raises(ValueError):
        lower_spinor_G_closed_form(pseudo(), 0, 1.0)
    # the channel is checked before the level: this one has no bound level
    with pytest.raises(ValueError, match="^g_deviation_report requires spin-symmetry parameters$"):
        g_deviation_report(pseudo(eps=2.0), 0)
