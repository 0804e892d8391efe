import numpy as np
import pytest

from conftest import cardano_complex_roots
from hostark.spectra import (
    CubicCoefficients,
    CubicMethod,
    DegenerateCubic,
    solve_cubic_cardano,
)


def roots_sorted(sol):
    return sorted(sol.roots, key=lambda z: (z.real, z.imag))


def assert_multiset_close(got, want, tol):
    remaining = list(want)
    for z in got:
        best = min(remaining, key=lambda w: abs(z - w))
        assert abs(z - best) <= tol * max(1.0, abs(best))
        remaining.remove(best)


def poly_residual(B, C, D, z):
    return abs(((z + B) * z + C) * z + D)


class TestKnownCubics:
    def test_factored_construction(self):
        sol = solve_cubic_cardano(CubicCoefficients(1, -6, 11, -6))
        assert roots_sorted(sol) == pytest.approx([1, 2, 3], abs=1e-12)
        assert sol.method is CubicMethod.TRIGONOMETRIC  # three distinct real roots

    def test_pure_cube(self):
        sol = solve_cubic_cardano(CubicCoefficients(1, 0, 0, -8))
        expect = sorted(
            [2 + 0j, -1 + 1j * np.sqrt(3), -1 - 1j * np.sqrt(3)],
            key=lambda z: (z.real, z.imag),
        )
        assert roots_sorted(sol) == pytest.approx(expect, abs=1e-12)
        assert sol.method is CubicMethod.CARDANO_REAL

    def test_spin_instance_complex_regime(self):
        # squared-condition cubic at M=1.5, w0=1/2.4, C_s=0, eps=0, n=0
        D = 3.375 - 0.75 / 5.76
        sol = solve_cubic_cardano(CubicCoefficients(1, -1.5, -2.25, D))
        d, e = sol.depressed
        assert d == pytest.approx(-3.0, abs=1e-12)
        assert e == pytest.approx(1.8697916666666667, abs=1e-12)
        assert sol.p == pytest.approx(1.0, abs=1e-12)
        assert e * e < 4 * sol.p
        assert sol.method is CubicMethod.TRIGONOMETRIC
        # frozen 50-digit bisection values
        assert roots_sorted(sol) == pytest.approx(
            [-1.48539046146773, 1.28372504952443, 1.70166541194331], abs=1e-9
        )

    def test_triple_root(self):
        sol = solve_cubic_cardano(CubicCoefficients(1, -3, 3, -1))
        assert roots_sorted(sol) == pytest.approx([1, 1, 1], abs=1e-6)

    def test_degenerate(self):
        with pytest.raises(DegenerateCubic):
            solve_cubic_cardano(CubicCoefficients(0, 1, 1, 1))

    def test_non_monic_normalized(self):
        sol = solve_cubic_cardano(CubicCoefficients(2, -12, 22, -12))
        assert roots_sorted(sol) == pytest.approx([1, 2, 3], abs=1e-10)


def test_roundtrip_fuzz():
    # reconstruct (B, C, D) from the roots via Vieta and compare
    rng = np.random.default_rng(2203)
    coeffs = rng.uniform(-10, 10, size=(1000, 3))
    for B, C, D in coeffs:
        sol = solve_cubic_cardano(CubicCoefficients(1, B, C, D))
        r1, r2, r3 = sol.roots
        back = (-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))
        for got, want in zip(back, (B, C, D)):
            assert abs(got.imag) <= 1e-9 * max(1.0, abs(got))
            assert got.real == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_cardano_vs_trigonometric_agreement():
    # dispatching solver vs the all-complex alternative, both regimes
    rng = np.random.default_rng(990)
    coeffs = rng.uniform(-10, 10, size=(1000, 3))
    regimes = dict.fromkeys(CubicMethod, 0)
    for B, C, D in coeffs:
        sol = solve_cubic_cardano(CubicCoefficients(1, B, C, D))
        regimes[sol.method] += 1
        assert_multiset_close(sol.roots, cardano_complex_roots(B, C, D), 1e-9)
    assert min(regimes.values()) > 100


def test_residual_invariant_fuzz():
    rng = np.random.default_rng(41)
    coeffs = rng.uniform(-10, 10, size=(500, 3))
    for B, C, D in coeffs:
        sol = solve_cubic_cardano(CubicCoefficients(1, B, C, D))
        for z in sol.roots:
            assert poly_residual(B, C, D, z) <= 1e-9 * max(1.0, abs(D))
