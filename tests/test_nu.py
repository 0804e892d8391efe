import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hostark import nu
from hostark.model import ModelParams, SymmetryKind
from hostark.nu import (
    NoAdmissibleBranch,
    NonPolynomialRoot,
    NuError,
    Poly2,
    inverted_oscillator_instance,
    oscillator_instance,
    quantize,
)
from hostark.spectra import Status, solve_level


def first_admissible(branches):
    assert branches[0].admissible
    return branches[0]


def assert_poly(poly, c0, c1, tol=1e-12):
    assert poly.c0 == pytest.approx(c0, rel=tol, abs=tol)
    assert poly.c1 == pytest.approx(c1, rel=tol, abs=tol)
    assert abs(poly.c2) <= tol


class TestOscillatorInstance:
    def test_worked_numbers(self):
        # v=2, beta=4, alpha=1: k = beta^2/(4v^2) - alpha = 0
        branches = nu.reduce(*oscillator_instance(2.0, 4.0, 1.0))
        b = first_admissible(branches)
        assert b.k == pytest.approx(0.0, abs=1e-12)
        assert_poly(b.pi, 1.0, -2.0)
        assert_poly(b.tau, 2.0, -4.0)
        assert b.tau.c1 == pytest.approx(-4.0)
        assert b.lambda_ == pytest.approx(-2.0)
        assert [b.lambda_n(n) for n in range(4)] == pytest.approx([0, 4, 8, 12])

    def test_pure_oscillator(self):
        branches = nu.reduce(*oscillator_instance(1.0, 0.0, 0.0))
        b = first_admissible(branches)
        assert b.k == pytest.approx(0.0, abs=1e-12)
        assert_poly(b.pi, 0.0, -1.0)
        assert_poly(b.tau, 0.0, -2.0)
        assert b.lambda_ == pytest.approx(-1.0)
        assert b.lambda_n(3) == pytest.approx(6.0)

    def test_quantization_recovers_ladder(self):
        # residual at alpha = 0 is -(2n+1), so the quantized value of the
        # ODE constant coefficient -alpha is 2n+1
        branches = nu.reduce(*oscillator_instance(1.0, 0.0, 0.0))
        b = first_admissible(branches)
        for n in range(5):
            assert quantize(b, n) == pytest.approx(-(2 * n + 1))

    def test_ground_state_constant_term(self):
        # at alpha = -(2n+1) the residual vanishes; ground state: -alpha = 1
        for n in range(3):
            b = first_admissible(nu.reduce(*oscillator_instance(1.0, 0.0, -(2 * n + 1.0))))
            assert quantize(b, n) == pytest.approx(0.0, abs=1e-12)

    def test_closed_forms_regression(self):
        rng = np.random.default_rng(52)
        for _ in range(100):
            v, beta, alpha = rng.uniform(0.1, 5.0, 3)
            b = first_admissible(nu.reduce(*oscillator_instance(v, beta, alpha)))
            k_expect = beta**2 / (4 * v**2) - alpha
            scale = max(1.0, abs(k_expect))
            assert abs(b.k - k_expect) <= 1e-12 * scale
            assert abs(b.pi.c1 - (-v)) <= 1e-12 * max(1.0, v)
            assert abs(b.pi.c0 - beta / (2 * v)) <= 1e-12 * max(1.0, beta / (2 * v))
            assert abs(b.tau.c1 - (-2 * v)) <= 1e-12 * max(1.0, 2 * v)
            assert abs(b.tau.c0 - beta / v) <= 1e-12 * max(1.0, beta / v)
            assert abs(b.lambda_ - (k_expect - v)) <= 1e-12 * max(1.0, abs(k_expect - v))
            assert abs(b.lambda_n(3) - 6 * v) <= 1e-12 * max(1.0, 6 * v)


class TestInvertedInstance:
    def test_imaginary_collapse(self):
        # v=1, beta=2, alpha=0.5: k = -(beta^2/(4v^2) + alpha) = -1.5
        branches = nu.reduce(*inverted_oscillator_instance(1.0, 2.0, 0.5))
        b = branches[0]
        assert not b.admissible  # tau' purely imaginary
        assert b.k == pytest.approx(-1.5, abs=1e-12)
        # preferred branch carries pi = -i(r - 1)
        assert b.pi.c1 == pytest.approx(-1j, abs=1e-12)
        assert b.pi.c0 == pytest.approx(1j, abs=1e-12)
        assert b.tau.c1 == pytest.approx(-2j, abs=1e-12)
        assert b.lambda_ == pytest.approx(-1.5 - 1j, abs=1e-12)

    def test_both_orientations_present(self):
        branches = nu.reduce(*inverted_oscillator_instance(1.0, 2.0, 0.5))
        slopes = sorted(complex(b.tau.c1).imag for b in branches)
        assert slopes == pytest.approx([-2.0, 2.0])


class TestDoubleRoot:
    def test_one_k_for_a_double_root(self):
        # sigma = r, sigma_tilde = 2r - r^2, tau_tilde = 1: disc(k) = (k - 2)^2
        branches = nu.reduce(Poly2(0.0, 1.0), Poly2(0.0, 2.0, -1.0), Poly2(1.0))
        assert sorted(b.branch for b in branches) == ["k0+", "k0-"]
        assert all(b.k == 2.0 for b in branches)


class TestStructuralInvariants:
    def test_tau_and_lambda_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            v, beta, alpha = rng.uniform(0.1, 4.0, 3)
            for builder in (oscillator_instance, inverted_oscillator_instance):
                sigma, sigma_tilde, tau_tilde = builder(v, beta, alpha)
                for b in nu.reduce(sigma, sigma_tilde, tau_tilde):
                    # tau = tau_tilde + 2 pi, coefficientwise and exact
                    assert b.tau.c0 == tau_tilde.c0 + 2.0 * b.pi.c0
                    assert b.tau.c1 == tau_tilde.c1 + 2.0 * b.pi.c1
                    # lambda = k + pi'
                    assert b.lambda_ == b.k + b.pi.c1

    def test_quantization_matches_transcendental_condition(self):
        # engine residual equals gamma * (unsquared-condition residual)
        rng = np.random.default_rng(11)
        checked = 0
        while checked < 50:
            M = rng.uniform(0.5, 3.0)
            w0 = rng.uniform(0.2, 1.5)
            eps = rng.uniform(0.0, 1.5)
            C = rng.uniform(-2.0, 2.0)
            E = rng.uniform(-1.0, 5.0)
            n = int(rng.integers(0, 4))
            gamma = E + M - C
            if gamma < 0.1:
                continue
            beta = eps * gamma
            v = np.sqrt(0.5 * M * w0**2 * gamma)
            alpha = gamma * (M - E)
            b = first_admissible(nu.reduce(*oscillator_instance(v, beta, alpha)))
            engine = complex(quantize(b, n))
            gp = eps**2 / (2 * M * w0**2)
            condition = gamma * (E - M + gp) - (2 * n + 1) * v
            assert engine.imag == pytest.approx(0.0, abs=1e-12)
            assert engine.real == pytest.approx(
                condition, rel=1e-12, abs=1e-12 * max(1.0, abs(condition))
            )
            checked += 1


class TestSolverCertificate:
    """Every Bound level's diagnostics (v, beta, alpha) satisfy the NU
    quantization condition lambda = lambda_n of its channel's instance."""

    @settings(max_examples=200, deadline=None)
    @given(M=st.floats(0.1, 10.0), omega0=st.floats(0.05, 5.0),
           eps=st.floats(0.0, 5.0), C=st.floats(-40.0, 20.0),
           sym=st.sampled_from(list(SymmetryKind)), n=st.integers(0, 29))
    # gamma ~ 5e-14: every coefficient of the instance is far below 1
    @example(M=0.1, omega0=0.05, eps=5.0, C=20.0, sym=SymmetryKind.SPIN, n=0)
    # lambda ~ 0 is the difference of terms ~ 350: alpha sets the scale
    @example(M=0.1, omega0=0.06055054591543548, eps=0.1163864612738047,
             C=-37.28737395629715, sym=SymmetryKind.SPIN, n=0)
    def test_bound_levels_satisfy_quantization(self, M, omega0, eps, C, sym, n):
        level = solve_level(ModelParams(M=M, omega0=omega0, eps=eps, sym=sym, C=C), n)
        if level.status is not Status.BOUND:
            return
        d = level.diagnostics
        if sym is SymmetryKind.SPIN:
            branch = first_admissible(
                nu.reduce(*oscillator_instance(d.v, d.beta, d.alpha)))
        else:
            # gamma < 0 makes v imaginary; the level solves the one branch
            # the engine flags as not admissible (real tau' > 0)
            [branch] = [b for b in nu.reduce(
                *inverted_oscillator_instance(d.v, d.beta, d.alpha)) if not b.admissible]
        lam, lam_n = branch.lambda_, branch.lambda_n(n)
        scale = max(1.0, abs(lam), abs(lam_n), abs(d.alpha))
        assert abs(lam - lam_n) <= 1e-10 * scale


class TestErrors:
    def test_no_admissible_branch(self):
        # all four branches land on real tau' >= 0
        sigma = Poly2(1.0, 0.0, 1.0)
        sigma_tilde = Poly2(0.0, 0.0, 0.75)
        with pytest.raises(NoAdmissibleBranch):
            nu.reduce(sigma, sigma_tilde, Poly2())

    def test_non_polynomial_root(self):
        with pytest.raises(NonPolynomialRoot):
            nu.reduce(Poly2(1.0), Poly2(0.0, 1.0, 1.0), Poly2(0.0, 2.0))

    def test_linear_q_is_not_a_square(self):
        # Q = q2 r^2 + 1e-7 r + 1 with q2 = 0, and with q2 = 1e-20, whose
        # s0 = 1e-7 / (2 sqrt(q2)) = 500 does not square back to q0 = 1
        for q2 in (0.0, 1e-20):
            with pytest.raises(NonPolynomialRoot, match="Q is linear in r"):
                nu._collapse_root(Poly2(), Poly2(1.0, 1e-7, q2), 0.0)

    def test_square_with_an_r2_coefficient_under_the_threshold(self):
        # sigma = r^2, tau_tilde = 2r: k = 2.5e-15 gives Q = 2.5e-15 r^2 + 1e-7 r + 1
        # = (5e-8 r + 1)^2, whose r^2 coefficient is below the threshold while
        # its r coefficient is not; it collapses, and both tau' = 2 +- 1e-7 > 0
        sigma, q = Poly2(0.0, 0.0, 1.0), Poly2(1.0, 1e-7)
        root = nu._collapse_root(sigma, q, 2.5e-15)
        assert (root.c0, root.c1, root.c2) == (pytest.approx(1.0, rel=1e-12),
                                               pytest.approx(5e-8, rel=1e-12), 0.0)
        with pytest.raises(NoAdmissibleBranch):
            nu.reduce(sigma, Poly2(-1.0, -1e-7), Poly2(0.0, 2.0))

    def test_unconstrained_k(self):
        # sigma = 1, tau_tilde = 0: Q(r; k) = k - 2 is a constant for every k
        with pytest.raises(NuError, match="discriminant vanishes identically"):
            nu.reduce(Poly2(1.0), Poly2(2.0), Poly2())

    def test_vanishing_sigma(self):
        with pytest.raises(NuError):
            nu.reduce(Poly2(0.0), Poly2(-1.0, 0.0, -1.0), Poly2())

    def test_negative_level_index(self):
        b = nu.reduce(*oscillator_instance(1.0, 0.0, 0.0))[0]
        with pytest.raises(ValueError):
            b.lambda_n(-1)
