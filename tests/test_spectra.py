import dataclasses
import math
import random
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import referee
from conftest import mapped_spin_coefficients
from hostark import spectra
from hostark.model import ModelParams, SymmetryKind, derived_constants
from hostark.spectra import (
    Equation,
    NoSignChange,
    Status,
    _bisect,
    _edges,
    _margin_forms,
    _margins,
    _polish,
    _refine_near_boundary,
    _residual,
    _sign_code,
    field_free_closed_form_variant,
    bisection_oracle,
    cubic_coefficients,
    nr_pseudospin_level,
    nr_spin_level,
    pseudospin_breakdown_threshold,
    relativistic_ho_level,
    select_physical_root,
    solve_cubic_cardano,
    solve_level,
    spectrum_grid,
)

GEV = ModelParams(M=1.0, omega0=1.0)
GEV_LEVELS = [1.4516059, 2.1880707, 2.8110575, 3.3682575]

SPIN_TBL = ModelParams(M=1.5, omega0=1 / 2.4)
PSEUDO_TBL = ModelParams(M=1.5, omega0=1 / 2.4, sym=SymmetryKind.PSEUDOSPIN, C=-10.3)

# frozen 50-digit bisection values for the n = 0 cubics at M=1.5, w0=1/2.4
SPIN_N0_ROOT = 1.70166541194331
PSEUDO_N0_ROOTS = (-8.79755497091465, -1.63480480639905, -1.3676402226863)


# the wide ranges perfbench's certify draws, and the extreme ones of ROADMAP item 1
WIDE_OR_EXTREME = st.one_of(
    st.builds(ModelParams, M=st.floats(0.1, 10.0), omega0=st.floats(0.05, 5.0),
              eps=st.floats(0.0, 5.0), sym=st.sampled_from(list(SymmetryKind)),
              C=st.floats(-40.0, 20.0)),
    st.builds(ModelParams, M=st.floats(0.1, 100.0), omega0=st.floats(0.005, 50.0),
              q=st.sampled_from([1.0, -1.0, 0.5, 2.0]), eps=st.floats(0.0, 60.0),
              sym=st.sampled_from(list(SymmetryKind)), C=st.floats(-1000.0, 1000.0)))


def pseudo(C=-10.3, eps=0.0):
    return ModelParams(M=1.5, omega0=1 / 2.4, eps=eps,
                       sym=SymmetryKind.PSEUDOSPIN, C=C)


def spin(C=0.0, eps=0.0, M=1.5, omega0=1 / 2.4):
    return ModelParams(M=M, omega0=omega0, eps=eps, C=C)


class TestCubicCoefficients:
    def test_spin_worked_numbers(self):
        c = cubic_coefficients(spin(), 0)
        assert (c.A, c.B, c.C) == (1.0, -1.5, -2.25)
        assert c.D == pytest.approx(3.2447917, abs=1e-7)

    def test_zero_field_closed_form(self):
        # at eps = 0 and C_s = 0: B = -M, C = -M^2, D = M^3 - 2 M w0^2 (n+1/2)^2
        for M, w0, n in [(1.0, 1.0, 0), (2.5, 0.7, 3), (0.8, 1.3, 1)]:
            c = cubic_coefficients(spin(M=M, omega0=w0), n)
            assert c.B == pytest.approx(-M, rel=1e-14)
            assert c.C == pytest.approx(-M * M, rel=1e-14)
            assert c.D == pytest.approx(M**3 - 2 * M * w0**2 * (n + 0.5) ** 2,
                                        rel=1e-14)

    def test_pseudospin_term_by_term(self):
        c = cubic_coefficients(pseudo(), 0)
        expanded = np.polymul([1.0, 8.8], np.polymul([1.0, 1.5], [1.0, 1.5]))
        expanded[-1] -= 2 * 1.5 * (1 / 2.4) ** 2 * 0.25
        assert [c.A, c.B, c.C, c.D] == pytest.approx(list(expanded), rel=1e-12)

    @pytest.mark.parametrize("sym", [SymmetryKind.SPIN, SymmetryKind.PSEUDOSPIN])
    def test_expansion_matches_polynomial_multiplication(self, sym):
        rng = np.random.default_rng(61)
        for _ in range(50):
            p = ModelParams(M=rng.uniform(0.5, 3), omega0=rng.uniform(0.2, 1.5),
                            eps=rng.uniform(0, 2), C=rng.uniform(-12, 5), sym=sym)
            n = int(rng.integers(0, 6))
            dc = derived_constants(p)
            if sym is SymmetryKind.SPIN:
                lin, quad = p.M - p.C, dc.g_shift - p.M
            else:
                lin, quad = -(p.M + p.C), p.M + dc.g_shift
            expanded = np.polymul([1.0, lin], np.polymul([1.0, quad], [1.0, quad]))
            expanded[-1] -= 2 * p.M * p.omega0**2 * (n + 0.5) ** 2
            c = cubic_coefficients(p, n)
            for got, want in zip((c.A, c.B, c.C, c.D), expanded):
                assert got == pytest.approx(want, rel=1e-12,
                                            abs=1e-12 * max(1.0, abs(want)))

    def test_mapping_identity_fuzz(self):
        # pseudospin coefficients == reflected spin coefficients, 200 draws
        rng = np.random.default_rng(8)
        for _ in range(200):
            p = pseudo(C=rng.uniform(-12, 5), eps=rng.uniform(0, 2))
            p = dataclasses.replace(p, M=rng.uniform(0.5, 3),
                                    omega0=rng.uniform(0.2, 1.5))
            n = int(rng.integers(0, 8))
            c = cubic_coefficients(p, n)
            mapped = mapped_spin_coefficients(p, n)
            for got, want in zip((c.B, c.C, c.D), mapped):
                assert abs(got - want) <= 1e-12 * max(1.0, abs(got))


class TestSelectPhysicalRoot:
    def test_pseudospin_first_table_cell(self):
        p = pseudo()
        lvl = select_physical_root(solve_cubic_cardano(cubic_coefficients(p, 0)), p, 0)
        assert lvl.status is Status.BOUND
        assert lvl.E == pytest.approx(PSEUDO_N0_ROOTS[1], abs=1e-9)
        assert lvl.E == pytest.approx(-1.635, abs=5e-3)
        rejected = {round(a.value.real, 3): a.reason for a in lvl.alternates}
        assert rejected[-1.368] .startswith("fails E + M + g'")
        assert "bound pair" in rejected[-8.798]
        assert lvl.cardano_complex_regime

    def test_spin_selection(self):
        p = spin()
        lvl = select_physical_root(solve_cubic_cardano(cubic_coefficients(p, 0)), p, 0)
        assert lvl.status is Status.BOUND
        assert lvl.E == pytest.approx(SPIN_N0_ROOT, abs=1e-9)
        assert len(lvl.alternates) == 2
        for alt in lvl.alternates:
            assert "fails E - M + g'" in alt.reason

    def test_no_physical_root_at_strong_field(self):
        p = pseudo(eps=2.0)
        lvl = solve_level(p, 0)
        assert lvl.status is Status.NO_PHYSICAL_ROOT
        assert lvl.E is None and lvl.residual is None
        assert len(lvl.alternates) == 3

    def test_diagnostics_scalars(self):
        lvl = solve_level(pseudo(), 0)
        d = lvl.diagnostics
        gamma = 1.5 - lvl.E + (-10.3)
        assert d.gamma == pytest.approx(gamma)
        assert d.alpha == pytest.approx(gamma * (1.5 + lvl.E))
        # gamma < 0 for bound pseudospin levels, so v is imaginary
        assert d.v.real == pytest.approx(0.0, abs=1e-12)
        assert d.v.imag**2 == pytest.approx(0.5 * 1.5 * (1 / 2.4) ** 2 * abs(gamma))


class TestSolveSpinLevel:
    def test_gev_sequence(self):
        for n, expect in enumerate(GEV_LEVELS):
            lvl = solve_level(GEV, n)
            assert lvl.status is Status.BOUND
            assert lvl.E == pytest.approx(expect, abs=1e-6)
            assert lvl.residual <= 1e-9

    def test_table_parameters_ground_state(self):
        lvl = solve_level(SPIN_TBL, 0)
        oracle = bisection_oracle(Equation.SPIN_EQ, SPIN_TBL, 0)
        assert lvl.E == pytest.approx(oracle, abs=1e-9)
        assert lvl.E == pytest.approx(SPIN_N0_ROOT, abs=1e-9)

    def test_field_shift_is_bounded_by_g_shift(self):
        p0, p5 = spin(eps=0.0), spin(eps=0.5)
        e0 = solve_level(p0, 0).E
        e5 = solve_level(p5, 0).E
        assert e5 == pytest.approx(1.23807057607988, abs=1e-9)  # frozen oracle
        g_shift = derived_constants(p5).g_shift
        assert 0.0 < e0 - e5 < g_shift

    def test_monotone_in_n(self):
        for p in (GEV, SPIN_TBL, spin(eps=0.5)):
            levels = [solve_level(p, n).E for n in range(8)]
            assert all(a < b for a, b in zip(levels, levels[1:]))


class TestSolvePseudospinLevel:
    @pytest.mark.parametrize("C,eps,n,expect", [
        (-10.3, 0.0, 0, -1.635),
        (-11.5, 1.0, 4, -4.851),
        (-10.3, 1.5, 0, -6.037),
    ])
    def test_reference_cells(self, C, eps, n, expect):
        lvl = solve_level(pseudo(C=C, eps=eps), n)
        assert lvl.status is Status.BOUND
        assert lvl.E == pytest.approx(expect, abs=5e-3)
        assert lvl.residual <= 1e-9

    def test_monotone_decreasing_in_n(self):
        for C in (-10.3, -11.5):
            for eps in (0.0, 0.1, 0.5, 1.0, 1.5):
                levels = [solve_level(pseudo(C=C, eps=eps), n)
                          for n in range(11)]
                bound = [l.E for l in levels if l.status is Status.BOUND]
                assert all(a > b for a, b in zip(bound, bound[1:]))
                # bound cells precede unbound ones as n grows
                statuses = [l.status is Status.BOUND for l in levels]
                assert statuses == sorted(statuses, reverse=True)


class TestRelativisticHoLevel:
    def test_gev_values(self):
        for n, expect in enumerate(GEV_LEVELS):
            assert relativistic_ho_level(1.0, 1.0, n) == pytest.approx(expect, abs=1e-6)

    def test_zero_frequency_limit(self):
        assert relativistic_ho_level(1.0, 1e-12, 2) == pytest.approx(1.0, abs=1e-9)

    def test_agrees_with_cubic_path(self):
        for n in range(4):
            assert relativistic_ho_level(1.0, 1.0, n) == pytest.approx(
                solve_level(GEV, n).E, abs=1e-9
            )

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            relativistic_ho_level(0.0, 1.0, 0)
        with pytest.raises(ValueError):
            relativistic_ho_level(1.0, 1.0, -1)

    def test_nr_limit_convergence(self):
        # deviation from the flat ladder shrinks at least 5x per mass decade
        w0 = 1 / 2.4
        prev = None
        for scale in (1.0, 10.0, 100.0, 1000.0):
            dev = abs(
                (relativistic_ho_level(1.5 * scale, w0, 1) - 1.5 * scale)
                - 1.5 * w0
            )
            if prev is not None:
                assert prev / dev >= 5.0
            prev = dev


class TestNrLevels:
    def test_spin_values(self):
        assert nr_spin_level(spin(), 0) == pytest.approx(0.2083333, abs=1e-7)
        assert nr_spin_level(spin(eps=1.0), 0) == pytest.approx(-1.7116667, abs=1e-7)

    def test_spin_sign_change_between_n4_and_n5(self):
        p = spin(eps=1.0)
        assert nr_spin_level(p, 4) < 0 < nr_spin_level(p, 5)

    def test_shift_identity_exact(self):
        for eps in (0.3, 1.0, 2.0):
            p = spin(eps=eps)
            g_shift = derived_constants(p).g_shift
            for n in range(11):
                assert nr_spin_level(p, n) == nr_spin_level(spin(), n) - g_shift

    def test_pseudospin_value(self):
        assert nr_pseudospin_level(pseudo(C=0.0), 0) == pytest.approx(
            0.0144676, abs=1e-7
        )

    def test_pseudospin_always_positive(self):
        rng = np.random.default_rng(17)
        for _ in range(100):
            p = pseudo(C=rng.uniform(-12, 5), eps=rng.uniform(0, 3))
            assert nr_pseudospin_level(p, int(rng.integers(0, 10))) > 0.0

    def test_pseudospin_vanishes_at_strong_field(self):
        vals = [nr_pseudospin_level(pseudo(eps=eps), 0)
                for eps in (0.0, 1.0, 10.0, 100.0, 1e6)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-10


class TestSpectrumGrid:
    def test_single_cell(self):
        rows = spectrum_grid(pseudo(), 0, [0.0])
        assert len(rows) == 1
        assert rows[0][1].E == pytest.approx(-1.635, abs=5e-3)

    def test_row_order_and_shape(self):
        eps_list = [0.0, 0.1, 0.5, 1.0, 1.5]
        rows = spectrum_grid(pseudo(), 10, eps_list)
        assert len(rows) == 55
        keys = [(lvl.n, p.eps) for p, lvl in rows]
        assert keys == [(n, e) for n in range(11) for e in eps_list]

    def test_deterministic(self):
        a = spectrum_grid(pseudo(), 4, [0.0, 0.7])
        b = spectrum_grid(pseudo(), 4, [0.0, 0.7])
        assert [l.E for _, l in a] == [l.E for _, l in b]


class TestBisectionOracle:
    def test_gev_with_bracket(self):
        # the closed-form spin bracket
        E = bisection_oracle(Equation.SPIN_EQ, GEV, 0)
        assert E == pytest.approx(1.4516059, abs=1e-7)

    def test_pseudospin_with_bracket(self):
        # the closed-form pseudospin bracket holds the upper root of the pair
        E = bisection_oracle(Equation.PSEUDOSPIN_EQ, pseudo(), 0)
        assert E == pytest.approx(-1.63480480639905, abs=1e-9)
        assert E == pytest.approx(-1.635, abs=5e-3)

    def test_invalid_bracket(self):
        # the oracle's pseudospin residual is positive at both ends of (0, 1)
        p = pseudo()
        f = _residual(p.kappa, 1, p.M, p.C, 0.0, p.M * p.omega0 ** 2)
        with pytest.raises(NoSignChange):
            _bisect(f, 0.0, 1.0)

    def test_root_on_an_end_of_the_bracket(self):
        # a zero at either end is the root, found by the two end evaluations
        for f, root in ((lambda x: 1.0 - x, 1.0), (lambda x: x - 2.0, 2.0)):
            calls = []
            assert _bisect(lambda x: calls.append(x) or f(x), 1.0, 2.0) == root
            assert calls == [1.0, 2.0]

    def test_spin_root_at_the_end_of_the_short_bracket(self):
        # where e1 = e2 (C_s = 2M at eps = 0) both margins are E - lo, the
        # root is lo + c itself and the residual there rounds negative, so
        # the oracle retries on (lo, lo + 2c)
        p = spin(M=0.5, omega0=0.05, C=1.0)
        brackets, bisect = [], spectra._bisect

        def recording(f, a, b, tol=1e-12):
            brackets.append((a, b))
            return bisect(f, a, b, tol)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_bisect", recording)
            E = bisection_oracle(Equation.SPIN_EQ, p, 0)
        (lo, short), (lo_again, wide) = brackets
        assert lo == lo_again == 0.5
        assert wide - lo == pytest.approx(2.0 * (short - lo), rel=1e-15)
        assert abs(mpmath.mpf(E) - referee.level(p, 0)) <= 0.5e-12 + 2.0 * math.ulp(E)

    def test_pseudospin_residual_is_nan_below_its_domain(self):
        # below e1 = M + C_ps the depth margin is negative and has no sqrt
        p = pseudo()
        f = _residual(p.kappa, 1, p.M, p.C, 0.0, p.M * p.omega0 ** 2)
        assert math.isnan(f(p.M + p.C - 1.0))

    def test_rel_ho_root_past_200_halvings(self):
        # the default bracket [1, 1e201 + 11] holds the root 1.71e133 (50-digit
        # value 1.70997594667669698935e133): ~280 halvings to float resolution
        E = relativistic_ho_level(1.0, 1e200, 0)
        assert E == pytest.approx(1.7099759466766970e133, rel=1e-15)

    def test_rel_ho_level_is_the_rounded_root(self):
        # bisected to float resolution; the 50-digit root is 1.45160596295577664...
        with mpmath.workdps(50):
            root = mpmath.findroot(lambda E: mpmath.sqrt((E + 1) / 2) * (E - 1) - 0.5, 1.45)
        assert relativistic_ho_level(1.0, 1.0, 0) == float(root) == 1.4516059629557767

    def test_rel_ho_default_bracket(self):
        assert relativistic_ho_level(GEV.M, GEV.omega0, 2) == pytest.approx(
            2.8110575, abs=1e-6
        )

    def test_auto_bracket_matches_solver(self):
        for p, eq in [(SPIN_TBL, Equation.SPIN_EQ),
                      (spin(eps=1.2), Equation.SPIN_EQ),
                      (pseudo(), Equation.PSEUDOSPIN_EQ),
                      (pseudo(C=-11.5, eps=1.0), Equation.PSEUDOSPIN_EQ)]:
            lvl = solve_level(p, 2)
            assert lvl.status is Status.BOUND
            assert bisection_oracle(eq, p, 2) == pytest.approx(lvl.E, abs=1e-9)

    def test_pseudospin_bound_pair_between_scan_steps(self):
        # both roots of the bound pair lie between two steps of a geometric
        # scan down from -(M + g'); the bracket from the residual's minimum
        # to -(M + g') still holds the upper root
        p = ModelParams(M=7.156, omega0=2.601, eps=2.45,
                        sym=SymmetryKind.PSEUDOSPIN, C=-30.58)
        lvl = solve_level(p, 2)
        assert lvl.E == pytest.approx(-16.716117407932, abs=1e-9)
        assert bisection_oracle(Equation.PSEUDOSPIN_EQ, p, 2) == pytest.approx(
            lvl.E, abs=1e-9)

    @pytest.mark.parametrize("eq, p", [(Equation.SPIN_EQ, PSEUDO_TBL),
                                       (Equation.PSEUDOSPIN_EQ, SPIN_TBL)])
    def test_equation_must_match_the_symmetry(self, eq, p):
        # C_ps is not a C_s: the other channel's condition has other roots
        with pytest.raises(ValueError, match=f"equation {eq.value} needs"):
            bisection_oracle(eq, p, 0)

    def test_empty_pseudospin_window(self):
        # C_ps so shallow that E - M - C_ps > 0 and E + M + g' < 0 cannot hold
        with pytest.raises(NoSignChange):
            bisection_oracle(Equation.PSEUDOSPIN_EQ, pseudo(C=5.0), 0)

    @pytest.mark.parametrize("p, n", [
        # the root is 9.7e-10 above the boundary max(C_s - M, M - g'), below
        # the first step of a geometric scan up from it
        (ModelParams(M=74.77567318887942, omega0=0.013043113823708468,
                     eps=52.82410533379526, C=641.6889984585166), 21),
        (ModelParams(M=0.183988489163116, omega0=0.05051693745206321,
                     eps=4.077874328872469, C=12.976251141514247), 11),
    ])
    def test_spin_root_next_to_its_boundary(self, p, n):
        lvl = solve_level(p, n)
        assert lvl.status is Status.BOUND and lvl.residual <= 1e-9
        assert bisection_oracle(Equation.SPIN_EQ, p, n) == pytest.approx(
            lvl.E, abs=1e-9)

    def test_spin_root_within_an_ulp_of_the_gamma_edge(self):
        # the root lies within an ulp of C_s - M, where E + M - C_s rounds
        # to a tiny positive margin and the residual reads positive
        p = ModelParams(M=29.818343657747878, omega0=0.007269196263227651, q=-1.0,
                        eps=48.6370152283438, C=-12.548444060355564)
        E = bisection_oracle(Equation.SPIN_EQ, p, 0)
        assert E == pytest.approx(p.C - p.M, abs=1e-12)

    def test_spin_oracle_finds_the_root_the_cubic_route_misses(self):
        p = ModelParams(M=0.1, omega0=0.05, eps=4.301528887635381,
                        C=-25.287487731237853)
        assert bisection_oracle(Equation.SPIN_EQ, p, 0) == pytest.approx(
            -25.38748773123749, abs=1e-9)

    # The deflation rounds a complex pair onto the real axis as a nearly
    # double real pair, next to an extremum of the cubic where f' ~ 0.  An
    # unguarded Newton step took it far off, past the gamma = 0 edge, and the
    # level was that point; _polish now refuses the step.
    @pytest.mark.parametrize("eps, C", [
        # pair -37006.2 +- 2.5e-4 i: the step went to E = 21527.744 (residual 58534)
        (4.301528887635381, -25.287487731237853),
        # pair -7507.7 +- 1.1e-4 i: the step went to E = 36.798 (residual 7,545),
        # where the oracle's root is -0.09999999999807; TestSolverCertificate's
        # wide ranges hold this draw
        (1.9375, 0.0),
    ])
    def test_spin_level_nearly_double_pair(self, eps, C):
        p = ModelParams(M=0.1, omega0=0.05, eps=eps, C=C)
        assert solve_level(p, 0).E == pytest.approx(
            bisection_oracle(Equation.SPIN_EQ, p, 0), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(M=st.floats(0.1, 100.0), omega0=st.floats(0.005, 50.0),
           q=st.sampled_from([1.0, -1.0, 0.5, 2.0]), eps=st.floats(0.0, 60.0),
           C=st.floats(-1000.0, 1000.0), sym=st.sampled_from(list(SymmetryKind)),
           n=st.integers(0, 30))
    # the spin level sits on the gamma = 0 edge and has residual nan
    @example(M=2.1611926340449954, omega0=0.005491207480256318, q=2.0,
             eps=45.04372438439045, C=-281.6172466686213, sym=SymmetryKind.SPIN,
             n=27)
    # a Newton step off a near-double real pair took these spin levels to
    # -638.1616 and 243359.93, away from every root
    @example(M=0.5191687081853719, omega0=0.013701744493584541, q=-1.0,
             eps=15.713717512956132, C=-637.708064887401, sym=SymmetryKind.SPIN, n=29)
    @example(M=0.13681838929350787, omega0=0.019155111451529275, q=-1.0,
             eps=16.360012464716057, C=-453.3238699513238, sym=SymmetryKind.SPIN, n=16)
    def test_extreme_range_roots_change_sign(self, M, omega0, q, eps, C, sym, n):
        p = ModelParams(M=M, omega0=omega0, q=q, eps=eps, sym=sym, C=C)
        lvl = solve_level(p, n)
        gp, w2, k = derived_constants(p).g_shift, M * omega0 ** 2, 2 * n + 1
        if sym is SymmetryKind.SPIN:
            def f(E):  # rising; read as -inf on and below the gamma = 0 edge
                m1 = E + M - C
                if m1 <= 0:
                    return -math.inf
                return (E - M + gp) - k * math.sqrt(w2 / (2 * m1))
            eq = Equation.SPIN_EQ
        else:
            def f(E):  # rising through the tabulated upper root
                return k + (E + M + gp) * math.sqrt(2 * (E - M - C) / w2)
            eq = Equation.PSEUDOSPIN_EQ
        try:
            x = bisection_oracle(eq, p, n)
        except NoSignChange:
            # only the pseudospin window can hold no root, and then no
            # level solves the unsquared condition
            assert sym is SymmetryKind.PSEUDOSPIN
            assert lvl.status is not Status.BOUND or not lvl.residual <= 1e-9
            return
        delta = 1e-9 * max(1.0, abs(x))
        assert f(x - delta) < 0.0 < f(x + delta)
        if lvl.status is Status.BOUND:
            # every Bound level is the oracle's root, whatever its residual
            assert lvl.E == pytest.approx(x, rel=1e-9, abs=1e-9)
            if lvl.residual <= 1e-9:
                assert x == pytest.approx(lvl.E, abs=1e-9)


def oracle_equation(p):
    return Equation.SPIN_EQ if p.sym is SymmetryKind.SPIN else Equation.PSEUDOSPIN_EQ


def ceil_log2(q: Fraction) -> int:
    """ceil(log2(q)) of a positive rational, exactly: log2(q) lies in (k - 1, k + 1)."""
    k = q.numerator.bit_length() - q.denominator.bit_length()
    return k + (Fraction(2) ** k < q)


class TestOracleInvariants:
    @settings(max_examples=300, deadline=None)
    @given(p=WIDE_OR_EXTREME, n=st.integers(0, 30))
    # the spin level on the gamma = 0 edge (residual nan), a root within an
    # ulp of that edge, and the nearly double pair the cubic route misses
    @example(p=ModelParams(M=2.1611926340449954, omega0=0.005491207480256318, q=2.0,
                           eps=45.04372438439045, C=-281.6172466686213), n=27)
    @example(p=ModelParams(M=29.818343657747878, omega0=0.007269196263227651, q=-1.0,
                           eps=48.6370152283438, C=-12.548444060355564), n=0)
    @example(p=ModelParams(M=0.1, omega0=0.05, eps=4.301528887635381,
                           C=-25.287487731237853), n=0)
    # the root is the end lo + c of the short bracket (e1 = e2)
    @example(p=ModelParams(M=0.5, omega0=0.05, C=1.0), n=0)
    # halving stopped 1.008 times the bound from the root
    @example(p=ModelParams(M=71.72773256677044, omega0=0.5099954538961443, q=-1.0,
                           eps=52.72658438228243, C=-920.9842290221226), n=1)
    def test_oracle_roots_within_tol_of_the_50_digit_root(self, p, n):
        # the oracle stops within tol = 1e-12 of the float residual's sign
        # change, and so returns the root to tol/2 plus rounding
        root = referee.level(p, n)
        try:
            E = bisection_oracle(oracle_equation(p), p, n)
        except NoSignChange:
            assert root is None
            return
        assert abs(mpmath.mpf(E) - root) <= 0.5e-12 + 2.0 * math.ulp(E)

    @settings(max_examples=300, deadline=None)
    @given(p=WIDE_OR_EXTREME, n=st.integers(0, 30))
    def test_oracle_takes_at_most_one_step_more_than_halving(self, p, n):
        # halving a bracket [a, b] to tol takes ceil(log2((b - a) / tol))
        # steps, + 1 where rounding keeps a half above tol; ITP adds n0 = 1
        calls, bisect = [], spectra._bisect

        def counted(f, a, b, tol=1e-12):
            evals = []
            root = bisect(lambda x: evals.append(x) or f(x), a, b, tol)
            calls.append((len(evals) - 2, a, b, tol))  # not the two ends
            return root

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_bisect", counted)
            try:
                bisection_oracle(oracle_equation(p), p, n)
            except NoSignChange:
                pass
        for steps, a, b, tol in calls:
            assert steps <= ceil_log2((Fraction(b) - Fraction(a)) / Fraction(tol)) + 2

    @settings(max_examples=300, deadline=None)
    @given(p=WIDE_OR_EXTREME, n=st.integers(0, 30))
    def test_polish_commutes_with_conjugation(self, p, n):
        # _cubic_roots and the grid route's _cubic_roots_batch both polish
        # the upper member of a complex pair and conjugate it; this checks
        # that polishing the lower member instead would give the same bits
        pairs = []

        def recording(root, B, C, D):
            if root.imag:
                pairs.append((root, B, C, D))
            return _polish(root, B, C, D)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_polish", recording)
            solve_level(p, n)
        for root, B, C, D in pairs:
            assert signed_parts(_polish(root.conjugate(), B, C, D)) == signed_parts(
                _polish(root, B, C, D).conjugate())

    @settings(max_examples=300, deadline=None)
    @given(p=WIDE_OR_EXTREME, n=st.integers(0, 30))
    # _RISE refuses a step off the near-double real pair of these two draws
    # (test_spin_level_nearly_double_pair)
    @example(p=ModelParams(M=0.1, omega0=0.05, eps=4.301528887635381,
                           C=-25.287487731237853), n=0)
    @example(p=ModelParams(M=0.1, omega0=0.05, eps=1.9375), n=0)
    def test_polish_matches_the_horner_reference(self, p, n):
        calls = []

        def recording(root, B, C, D):
            calls.append((root, B, C, D))
            return _polish(root, B, C, D)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(spectra, "_polish", recording)
            solve_level(p, n)
        for args in calls:
            assert signed_parts(_polish(*args)) == signed_parts(horner_polish(*args))


def signed_parts(z):
    """The real and imaginary parts of z, each with the sign of its zero."""
    return [(x, math.copysign(1.0, x)) for x in (z.real, z.imag)]


def horner_polish(root, B, C, D):
    """_polish with one _horner call per evaluation and max(1, |z|): the
    reference for its inline float and complex loops."""
    is_real = root.imag == 0.0
    z = root.real if is_real else root
    f, fp = spectra._horner(z, B, C, D)
    for _ in range(4):
        if abs(fp) < spectra._FLAT:
            break
        step = f / fp
        z_next = z - step
        if z_next == z or abs(step) < spectra._STEP * max(1.0, abs(z)):
            break
        f_next, fp = spectra._horner(z_next, B, C, D)
        if is_real and abs(f_next) > abs(f) and (
                abs(f_next) - abs(f) > spectra._RISE * spectra._term_size(z_next, B, C, D)):
            break
        z, f = z_next, f_next
    return complex(z)


def spin_root_60_digits(p, n, E):
    """The root of the unsquared spin condition within 1e-9 max(1, |E|) of E,
    to 60 digits, in exact arithmetic on the float parameters."""
    with mpmath.workdps(60):
        M, C, k = mpmath.mpf(p.M), mpmath.mpf(p.C), 2 * n + 1
        w2 = M * mpmath.mpf(p.omega0) ** 2
        gp = (p.q * mpmath.mpf(p.eps)) ** 2 / (2 * w2)

        def f(x):  # rising; -inf on and below the gamma = 0 edge
            m1 = x + M - C
            return x - M + gp - k * mpmath.sqrt(w2 / (2 * m1)) if m1 > 0 else -mpmath.inf

        d = 1e-9 * max(1.0, abs(E))
        a, b = mpmath.mpf(E) - d, mpmath.mpf(E) + d
        assert f(a) < 0 < f(b)
        for _ in range(240):  # 2^-240 of the bracket is below 60 digits
            m = (a + b) / 2
            a, b = (m, b) if f(m) < 0 else (a, m)
        return (a + b) / 2


# E = -693.4733426959593 is the correctly rounded root -693.473342695959358656...
# of the unsquared condition; the refinement takes it from the gamma = 0 edge
# e1 = C_s - M, 0.53 below it
ROUNDED_ROOT = (ModelParams(M=54.402366316082706, omega0=0.17484346323744382,
                            eps=50.000883966025555, C=-639.5996704949263), 1)


class TestRefinementReferee:
    def test_refined_level_is_the_rounded_root(self):
        p, n = ROUNDED_ROOT
        E = solve_level(p, n).E
        assert E == float(spin_root_60_digits(p, n, E)) == -693.4733426959593

    def test_refined_levels_within_an_ulp(self, monkeypatch):
        # the cases of test_spin_root_next_to_its_boundary, ROUNDED_ROOT, and
        # test_grid's "margin refinement fires" and "72 of 121 refine" grids:
        # 135 levels keep their refinement, the worst 0.99278 ulp off
        cases = [
            (ModelParams(M=74.77567318887942, omega0=0.013043113823708468,
                         eps=52.82410533379526, C=641.6889984585166), 21),
            (ModelParams(M=0.183988489163116, omega0=0.05051693745206321,
                         eps=4.077874328872469, C=12.976251141514247), 11),
            ROUNDED_ROOT,
        ]
        for M, omega0, C in ((7.6, 0.06, -13.3),
                             (0.1009544406678142, 0.3911409727953298, 8.506271269402738)):
            cases += [(spin(M=M, omega0=omega0, C=C, eps=0.5 * j), n)
                      for n in range(11) for j in range(11)]
        refine, calls = spectra._refine_near_boundary, []
        monkeypatch.setattr(spectra, "_refine_near_boundary",
                            lambda *args: calls.append(refine(*args)) or calls[-1])
        worst = kept = 0
        for p, n in cases:
            calls.clear()
            E = solve_level(p, n).E
            if calls and calls[0] is not None and calls[0][0] == E:
                kept += 1
                root = spin_root_60_digits(p, n, E)
                worst = max(worst, float(abs(mpmath.mpf(E) - root)) / math.ulp(E))
        assert kept == 135
        assert worst <= 0.9927834990902161


class TestUnsquaredConsistency:
    def test_bound_levels_have_tiny_residuals(self):
        rows = spectrum_grid(pseudo(), 10, [0.0, 0.1, 0.5, 1.0, 1.5])
        rows += spectrum_grid(spin(), 10, [0.0, 0.5, 2.0])
        for _, lvl in rows:
            if lvl.status is Status.BOUND:
                assert lvl.residual <= 1e-9

    def test_rejected_roots_carry_reasons(self):
        # every rejected real root either violates a recorded sign condition
        # or is the lower member of the bound pair
        rows = spectrum_grid(pseudo(), 10, [0.0, 0.5, 1.5])
        for _, lvl in rows:
            for alt in lvl.alternates:
                if abs(alt.value.imag) > 1e-9 * (1 + abs(alt.value)):
                    assert "complex" in alt.reason
                else:
                    assert alt.reason.startswith("fails") or "bound pair" in alt.reason

    @settings(max_examples=300, deadline=None)
    @given(p=WIDE_OR_EXTREME, log_t=st.floats(-40.0, 10.0))
    def test_margin_forms_are_the_margins(self, p, log_t):
        # each form writes (m1, m2) in the margin t from its edge; through
        # E = edge + direction t they are the same margins up to rounding
        gp = derived_constants(p).g_shift
        for edge, direction, margins in _margin_forms(p.kappa, p.M, p.C, gp):
            t = math.exp(log_t) * max(1.0, abs(edge))
            E = edge + direction * t
            tol = 8.0 * sys.float_info.epsilon * (abs(edge) + t + 2.0 * p.M + abs(p.C) + gp)
            for got, want in zip(margins(t), _margins(p.kappa, E, p.M, p.C, gp)):
                # the pseudospin form from e2 clips its depth margin at 0
                assert abs(got - want) <= tol or got == 0.0 > want

    @pytest.mark.parametrize("kappa", [-1, 1])
    def test_sign_code_is_the_max_rule(self, kappa):
        # a margin at -tol, tol = 1e-12 max(1, |E|), or an ulp either side of
        # it, across the |E| = 1 bend of max; M = +-kappa E zeroes one margin's
        # E + kappa M or E - kappa M, so C or g' sets it exactly
        cases, codes = [], set()
        for a in (0.0, 0.5, math.nextafter(1.0, 0.0), 1.0, math.nextafter(1.0, 2.0), 1e6):
            tol = 1e-12 * max(1.0, a)
            for E in (a, -a):
                for t in (math.nextafter(-tol, -math.inf), -tol, math.nextafter(-tol, 0.0)):
                    for M, C, gp, exact in ((kappa * E, -t, -2.0 * E - kappa, 0),
                                            (-kappa * E, 2.0 * E - 1.0, -kappa * t, 1),
                                            (kappa * E, -t, -2.0 * E - kappa * t, None)):
                        m = _margins(kappa, E, M, C, gp)
                        assert exact is None or m[exact] == t
                        want = (m[0] < -tol) + 2 * (m[1] < -tol)  # the rule with max
                        assert _sign_code(kappa, E, M, C, gp) == want
                        cases.append((E, M, C, gp, want))
                        codes.add(want)
        assert codes == {0, 1, 2, 3}
        E, M, C, gp, want = map(np.array, zip(*cases))
        assert (_sign_code(kappa, E, M, C, gp) == want).all()

    @pytest.mark.parametrize("p", [SPIN_TBL, PSEUDO_TBL])
    def test_refinement_needs_a_margin(self, p):
        # E on its nearer edge leaves no margin t0 > 0 to bracket from
        gp, w2 = derived_constants(p).g_shift, p.M * p.omega0 ** 2
        for edge in _edges(p.kappa, p.M, p.C, gp):
            assert _refine_near_boundary(p.kappa, 1, p.M, p.C, gp, w2, edge) is None


class TestBreakdownThreshold:
    def test_location_and_coincidence(self):
        scan = pseudospin_breakdown_threshold(pseudo(), 0, eps_lo=1.5, eps_hi=2.5)
        # frozen 50-digit value of the discriminant flip
        assert scan.eps_discriminant == pytest.approx(1.8174663582266, abs=1e-6)
        assert 1.5 < scan.eps_discriminant < 2.5
        assert scan.eps_physical == pytest.approx(scan.eps_discriminant, abs=1e-6)

    def test_requires_pseudospin(self):
        with pytest.raises(ValueError):
            pseudospin_breakdown_threshold(spin(), 0)

    def test_window_without_a_flip_raises(self):
        # the bound pair survives up to eps ~ 1.82, so neither indicator flips
        with pytest.raises(NoSignChange):
            pseudospin_breakdown_threshold(pseudo(), 0, eps_lo=0.0, eps_hi=1.5)

    def test_reversed_window_raises(self):
        # both indicators turn from True to False as eps grows, so a window
        # given from high to low eps does not bracket the flip
        with pytest.raises(NoSignChange):
            pseudospin_breakdown_threshold(pseudo(), 0, eps_lo=2.5, eps_hi=1.5)


class TestFieldFreeClosedFormVariant:
    def test_disagrees_with_authoritative_route(self):
        value = field_free_closed_form_variant(1.0, 0.0, 1.0, 0)
        assert value.real == pytest.approx(0.547043499594, abs=1e-6)
        assert abs(value.imag) < 1e-9
        assert abs(value.real - relativistic_ho_level(1.0, 1.0, 0)) > 0.5


@pytest.mark.parametrize("call", [
    lambda: bisection_oracle(Equation.SPIN_EQ, ModelParams(M=1.0, omega0=1e200), 0),
    lambda: bisection_oracle(Equation.SPIN_EQ, GEV, 10 ** 200),
    lambda: nr_pseudospin_level(ModelParams(M=1.0, omega0=1.0), 10 ** 200),
    lambda: nr_pseudospin_level(ModelParams(M=1.0, omega0=1e200), 0),
    # finite d = -3.3e239 whose cube overflows, in the trigonometric branch
    lambda: solve_level(ModelParams(M=1e-300, omega0=1.0, C=-1e120), 10 ** 200),
    lambda: spectrum_grid(ModelParams(M=1e-300, omega0=1e200, C=-1e120), 2, [0.0]),
], ids=["oracle-omega0", "oracle-n", "nr-pseudospin-n", "nr-pseudospin-omega0",
        "level-trig-cube", "grid-trig-cube"])
def test_float64_overflow_is_a_value_error(call):
    with pytest.raises(ValueError, match="not finite in float64"):
        call()


UNDERFLOW_CUBIC = ModelParams(M=5e-324, omega0=1.0, q=1e-200, C=2.6013065110635485e-121)


@pytest.mark.parametrize("call, message", [
    # 2 M omega0 underflows to 0, and q eps / (2 M omega0) divided by it
    (lambda: nr_pseudospin_level(ModelParams(M=1e-300, omega0=1e-300), 0),
     "2 M omega0 underflows to 0"),
    # w2 = M omega0^2 underflows to 0, and the pseudospin condition divides by it
    (lambda: bisection_oracle(Equation.PSEUDOSPIN_EQ, ModelParams(
        M=1e100, omega0=1e-200, sym=SymmetryKind.PSEUDOSPIN, C=-1e120), 0),
     "/ 2 underflows to 0"),
    # d underflows to -0.0 and e^2 - 4p to 0, so the Cardano z^3 is 0; the
    # batch route sends the cell to the scalar stage
    (lambda: solve_level(UNDERFLOW_CUBIC, 0), "the level cubic underflows in float64"),
    (lambda: spectrum_grid(UNDERFLOW_CUBIC, 0, [0.0]),
     "the level cubic underflows in float64"),
], ids=["nr-pseudospin", "oracle-pseudospin", "level-cubic", "grid-cubic"])
def test_float64_underflow_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_bisection_stays_finite_in_the_top_binade():
    top = sys.float_info.max
    # the bracket end M + 10 (n+1) omega + 10 overflows; the root is ~1.71e205
    E = relativistic_ho_level(1.0, 1e308, 0)
    assert math.isfinite(E)
    assert (E - 1.0) * math.sqrt((E + 1.0) / 2.0) == pytest.approx(0.5e308, rel=1e-12)
    # a + b overflows at every halving while the root is near the top
    root = _bisect(lambda x: x - 0.999 * top, -top, top)
    assert root == pytest.approx(0.999 * top, rel=1e-15)
    # below the top binade the midpoint is 0.5 (a + b), as before
    assert _bisect(lambda x: x - 1.0, 0.0, 3.0, tol=0.0) == 1.0


def range_draws(seed, count):
    """count pairs of cells (range, params, n), n below 30: random.Random(seed)
    draws a channel, then one cell of each range of WIDE_OR_EXTREME."""
    rng = random.Random(seed)
    for _ in range(count):
        sym = rng.choice(list(SymmetryKind))
        yield "wide", ModelParams(M=rng.uniform(0.1, 10.0), omega0=rng.uniform(0.05, 5.0),
                                  eps=rng.uniform(0.0, 5.0), sym=sym,
                                  C=rng.uniform(-40.0, 20.0)), rng.randrange(30)
        yield "extreme", ModelParams(
            M=rng.uniform(0.1, 100.0), omega0=rng.uniform(0.005, 50.0),
            q=rng.choice([1.0, -1.0, 0.5, 2.0]), eps=rng.uniform(0.0, 60.0), sym=sym,
            C=rng.uniform(-1000.0, 1000.0)), rng.randrange(30)


def referee_ulps(p, n, E):
    """(what, |E - r| / ulp(E)) for the referee root r nearest E: what is
    "cubic" for the 50-digit roots of the level cubic's float coefficients,
    or "level" for the 50-digit level where the margin-form refinement moved
    E off every polished root of that cubic."""
    c = cubic_coefficients(p, n)
    if E in [root.real for root in spectra._cubic_roots(c.B, c.C, c.D)[0]]:
        what, roots = "cubic", referee.cubic_roots(c.B, c.C, c.D)
    else:
        what, roots = "level", [referee.level(p, n)]
    return what, float(min(abs(E - root) for root in roots) / math.ulp(E))


# small grids of both channels, two in each range of WIDE_OR_EXTREME; the
# margin-form refinement moves levels of the first and third
REFEREE_GRIDS = [
    ("wide", spin(M=7.6, omega0=0.06, C=-13.3), 3, [0.5, 2.0, 3.5, 5.0]),
    ("wide", pseudo(C=-10.3), 5, [0.0, 0.5, 1.0, 1.5]),
    ("extreme", ModelParams(M=6.0, omega0=0.013, q=0.5, C=-940.0), 3, [0.5, 2.0, 3.5, 5.0]),
    ("extreme", ModelParams(M=40.0, omega0=2.5, q=-1.0, sym=SymmetryKind.PSEUDOSPIN,
                            C=-600.0), 5, [0.0, 20.0, 40.0, 60.0]),
]
# the largest forward error from the nearest cubic root measured on the
# levels of the test below, in ulps of E, rounded up, per route and range.
# The extreme grid's worst, 70,952 ulps at n = 3, eps = 2, sits on a nearly
# double pair, where rounding B, C, D to float moves the root by thousands of
# ulps: it is 2,655 ulps from referee.level, with a residual (1.5e-10) below
# the one that starts the refinement.
REFEREE_ULPS = {("solve_level", "wide"): 4, ("solve_level", "extreme"): 44,
                ("spectrum_grid", "wide"): 34, ("spectrum_grid", "extreme"): 71_000}
# a level the refinement moved, from referee.level (measured 0.990)
REFINED_ULPS = 1


def test_bound_levels_are_within_pinned_ulps_of_the_referee():
    levels = [("solve_level", range_, p, solve_level(p, n))
              for range_, p, n in range_draws(30, 150)]
    for range_, params, n_max, eps_list in REFEREE_GRIDS:
        levels += [("spectrum_grid", range_, p, level)
                   for p, level in spectrum_grid(params, n_max, eps_list)]
    worst = dict.fromkeys([*REFEREE_ULPS, "level"], 0.0)
    for route, range_, p, level in levels:
        if level.status is Status.BOUND:
            what, ulps = referee_ulps(p, level.n, level.E)
            key = (route, range_) if what == "cubic" else what
            worst[key] = max(worst[key], ulps)
    assert worst.pop("level") <= REFINED_ULPS
    assert all(worst[key] <= bound for key, bound in REFEREE_ULPS.items()), worst


def slot_record_draws():
    """Table-2 cells of both channels, then range_draws(26, 1000)."""
    cells = [(dataclasses.replace(p, eps=eps), n) for p in (SPIN_TBL, PSEUDO_TBL)
             for eps in (0.0, 0.1, 0.5, 1.0, 1.5) for n in range(11)]
    return cells + [(p, n) for _, p, n in range_draws(26, 1000)]


def test_solve_level_never_runs_the_record_constructors(monkeypatch):
    cells = slot_record_draws()
    expected = [repr(solve_level(p, n)) for p, n in cells]
    levels = [solve_level(p, n) for p, n in cells]
    assert {level.status for level in levels} == set(Status)
    assert any(level.alternates and level.diagnostics for level in levels)

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"{type(self).__name__}.__init__ ran")

    for cls in (spectra.RejectedRoot, spectra.ChannelScalars, spectra.EnergyLevel):
        monkeypatch.setattr(cls, "__init__", refuse)
    assert [repr(solve_level(p, n)) for p, n in cells] == expected


def test_slot_records_refuse_post_init_and_a_wrong_value_count():
    @dataclasses.dataclass(frozen=True, slots=True)
    class Checked:
        x: float

        def __post_init__(self):
            if not self.x > 0:
                raise ValueError("x must be > 0")

    with pytest.raises(TypeError, match="__post_init__"):
        spectra._slot_record(Checked)
    build = spectra._slot_record(spectra.RejectedRoot)
    assert repr(build(complex(-0.0, 1.0), "r")) == repr(
        spectra.RejectedRoot(complex(-0.0, 1.0), "r"))
    for values in ((1j,), (1j, "r", "extra")):
        with pytest.raises(TypeError):
            build(*values)
