import dataclasses
import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import mapped_spin_coefficients
from hostark.model import ModelParams, SymmetryKind, derived_constants
from hostark.spectra import (
    Equation,
    NoSignChange,
    Status,
    _margin_forms,
    _margins,
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
                lin, quad = dc.M_s, dc.g_eps
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
        E = bisection_oracle(Equation.SPIN_EQ, GEV, 0, bracket=(1.0, 2.0))
        assert E == pytest.approx(1.4516059, abs=1e-7)

    def test_pseudospin_with_bracket(self):
        E = bisection_oracle(Equation.PSEUDOSPIN_EQ, pseudo(), 0,
                             bracket=(-1.7, -1.5))
        assert E == pytest.approx(-1.63480480639905, abs=1e-9)
        assert E == pytest.approx(-1.635, abs=5e-3)

    def test_invalid_bracket(self):
        with pytest.raises(NoSignChange):
            bisection_oracle(Equation.PSEUDOSPIN_EQ, pseudo(), 0, bracket=(0.0, 1.0))

    def test_rel_ho_root_past_200_halvings(self):
        # the default bracket [1, 1e201 + 11] holds the root 1.71e133 (50-digit
        # value 1.70997594667669698935e133): ~280 halvings to float resolution
        E = relativistic_ho_level(1.0, 1e200, 0)
        assert E == pytest.approx(1.7099759466766970e133, rel=1e-15)
        assert bisection_oracle(Equation.REL_HO, ModelParams(M=1.0, omega0=1e200), 0) == E

    def test_rel_ho_default_bracket(self):
        assert bisection_oracle(Equation.REL_HO, GEV, 2) == pytest.approx(
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
        assert bisection_oracle(Equation.REL_HO, p, 0) == relativistic_ho_level(
            p.M, p.omega0, 0)

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

    @pytest.mark.xfail(strict=True, reason="the cubic route deflates a nearly "
                       "double real pair, Newton polish jumps far off and "
                       "solve_level returns E = 21527.744 with residual 58534")
    def test_spin_level_nearly_double_pair(self):
        p = ModelParams(M=0.1, omega0=0.05, eps=4.301528887635381,
                        C=-25.287487731237853)
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
        if lvl.status is Status.BOUND and lvl.residual <= 1e-9:
            assert x == pytest.approx(lvl.E, abs=1e-9)


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
    @given(p=st.one_of(
               st.builds(ModelParams, M=st.floats(0.1, 10.0), omega0=st.floats(0.05, 5.0),
                         eps=st.floats(0.0, 5.0), sym=st.sampled_from(list(SymmetryKind)),
                         C=st.floats(-40.0, 20.0)),
               st.builds(ModelParams, M=st.floats(0.1, 100.0),
                         omega0=st.floats(0.005, 50.0),
                         q=st.sampled_from([1.0, -1.0, 0.5, 2.0]), eps=st.floats(0.0, 60.0),
                         sym=st.sampled_from(list(SymmetryKind)),
                         C=st.floats(-1000.0, 1000.0))),
           log_t=st.floats(-40.0, 10.0))
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
