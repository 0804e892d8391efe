"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines inline; the
module is scheduled last by conftest so the runtime criterion measures the
whole suite.
"""

import math
import time

import numpy as np

import conftest
from hostark.model import ModelParams, SymmetryKind, derived_constants
from hostark.reference import ReconciliationStatus, TableId, compare
from hostark.spectra import (
    CubicCoefficients,
    Equation,
    Status,
    bisection_oracle,
    cubic_coefficients,
    nr_spin_level,
    pseudospin_breakdown_threshold,
    relativistic_ho_level,
    solve_cubic_cardano,
    solve_level,
)
from hostark.wavefunctions import RadialKind, count_nodes, nr_radial_R, sample_radial

GEV_LEVELS = [1.4516059, 2.1880707, 2.8110575, 3.3682575]


def report(criterion, ok, detail):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def test_criterion_1_gev_sequence():
    t0 = time.perf_counter()
    params = ModelParams(M=1.0, omega0=1.0)
    worst = 0.0
    for n, expect in enumerate(GEV_LEVELS):
        worst = max(worst, abs(solve_level(params, n).E - expect))
        worst = max(worst, abs(relativistic_ho_level(1.0, 1.0, n) - expect))
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-6 and elapsed < 1.0,
        f"field-free sequence max |delta| {worst:.2e} (tol 1e-6), "
        f"runtime {elapsed:.3f}s (< 1s)",
    )


def test_criterion_2_table2_reproduction():
    t0 = time.perf_counter()
    rep = compare(TableId.TABLE2, 5e-3)
    elapsed = time.perf_counter() - t0
    report(
        2,
        rep.passed is True and elapsed < 5.0,
        f"table2: {rep.n_pass} pass / {rep.n_fail} fail"
        f" (tol 5e-3, max |delta| {rep.max_abs_delta:.2e}),"
        f" blanks map to non-bound statuses, runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_3_table1_unreconciled_with_certified_root():
    rep = compare(TableId.TABLE1)
    params = ModelParams(M=1.5, omega0=1 / 2.4)
    cubic_E = solve_level(params, 0).E
    oracle_E = bisection_oracle(Equation.SPIN_EQ, params, 0)
    agree = abs(cubic_E - oracle_E)
    ok = (
        rep.reconciliation_status is ReconciliationStatus.UNRECONCILED
        and rep.passed is None
        and agree <= 1e-9
        and abs(cubic_E - 1.7013) < 5e-3
    )
    report(
        3,
        ok,
        f"table1 report Unreconciled (non-gating); physical root {cubic_E:.7f}"
        f" vs quoted 0.271140; cubic/oracle agreement {agree:.2e} (tol 1e-9)",
    )


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(20260810)
    bound = 0
    worst = 0.0
    for i in range(100):
        sym = SymmetryKind.SPIN if i % 2 == 0 else SymmetryKind.PSEUDOSPIN
        params = ModelParams(
            M=rng.uniform(0.5, 3.0),
            omega0=rng.uniform(0.2, 1.5),
            eps=rng.uniform(0.0, 1.5),
            C=rng.uniform(-12.0, 5.0),
            sym=sym,
        )
        n = int(rng.integers(0, 4))
        level = solve_level(params, n)
        if level.status is not Status.BOUND:
            continue
        bound += 1
        eq = Equation.SPIN_EQ if sym is SymmetryKind.SPIN else Equation.PSEUDOSPIN_EQ
        worst = max(worst, abs(level.E - bisection_oracle(eq, params, n)))
    report(
        4,
        bound >= 50 and worst <= 1e-9,
        f"{bound}/100 draws bound; max cubic-vs-bisection |delta| {worst:.2e}"
        " (tol 1e-9)",
    )


def _check_cubic_roundtrip(rng):
    worst = 0.0
    for B, C, D in rng.uniform(-10, 10, size=(1000, 3)):
        r1, r2, r3 = solve_cubic_cardano(CubicCoefficients(1, B, C, D)).roots
        back = (-(r1 + r2 + r3), r1 * r2 + r1 * r3 + r2 * r3, -(r1 * r2 * r3))
        for got, want in zip(back, (B, C, D)):
            worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    return worst


def _check_method_agreement(rng):
    worst = 0.0
    for B, C, D in rng.uniform(-10, 10, size=(1000, 3)):
        mine = solve_cubic_cardano(CubicCoefficients(1, B, C, D)).roots
        alt = list(conftest.cardano_complex_roots(B, C, D))
        for z in mine:
            best = min(alt, key=lambda w: abs(z - w))
            worst = max(worst, abs(z - best) / max(1.0, abs(best)))
            alt.remove(best)
    return worst


def _check_mapping_identity(rng):
    worst = 0.0
    for _ in range(200):
        params = ModelParams(
            M=rng.uniform(0.5, 3.0),
            omega0=rng.uniform(0.2, 1.5),
            eps=rng.uniform(0.0, 2.0),
            C=rng.uniform(-12.0, 5.0),
            sym=SymmetryKind.PSEUDOSPIN,
        )
        n = int(rng.integers(0, 8))
        c = cubic_coefficients(params, n)
        mapped = conftest.mapped_spin_coefficients(params, n)
        for got, want in zip((c.B, c.C, c.D), mapped):
            worst = max(worst, abs(got - want) / max(1.0, abs(got)))
    return worst


def _check_nr_convergence():
    w0 = 1 / 2.4
    ratios = []
    for n in (0, 2):
        prev = None
        for scale in (1.0, 10.0, 100.0, 1000.0):
            M = 1.5 * scale
            dev = abs((relativistic_ho_level(M, w0, n) - M) - w0 * (n + 0.5))
            if prev is not None:
                ratios.append(prev / dev)
            prev = dev
    return min(ratios)


def _check_shift_identity():
    for eps in (0.3, 1.0, 2.0):
        p = ModelParams(M=1.5, omega0=1 / 2.4, eps=eps)
        p0 = ModelParams(M=1.5, omega0=1 / 2.4)
        g_shift = derived_constants(p).g_shift
        for n in range(11):
            if nr_spin_level(p, n) != nr_spin_level(p0, n) - g_shift:
                return False
    return True


def _check_node_counts():
    for omega0 in (1 / 2.4, 1.0):
        for eps in (0.0, 0.5, 1.0, 2.0):
            p = ModelParams(M=1.5, omega0=omega0, eps=eps)
            r0 = derived_constants(p).r0
            lam = math.sqrt(p.M * p.omega0)
            r = np.linspace(r0 - 8 / lam, r0 + 8 / lam, 4001)
            for n in range(11):
                if count_nodes(nr_radial_R(p, n, r)) != n:
                    return False
    return True


def _check_normalization():
    cases = [
        (RadialKind.UPPER_F, ModelParams(M=1.5, omega0=1 / 2.4, eps=0.5), 0, 40.0),
        (RadialKind.NONREL_R, ModelParams(M=1.5, omega0=1 / 2.4, eps=1.0), 3, None),
        (RadialKind.PSEUDO_LOWER_G,
         ModelParams(M=1.5, omega0=1 / 2.4, sym=SymmetryKind.PSEUDOSPIN, C=-10.3),
         1, None),
    ]
    worst = 0.0
    for kind, params, n, r_max in cases:
        rf = sample_radial(kind, params, n, r_max=r_max, samples=4001)
        worst = max(worst, abs(rf.norm - 1.0))
    return worst


def test_criterion_5_property_suites():
    rng = np.random.default_rng(55)
    roundtrip = _check_cubic_roundtrip(rng)
    agreement = _check_method_agreement(rng)
    mapping = _check_mapping_identity(rng)
    nr_ratio = _check_nr_convergence()
    shift_exact = _check_shift_identity()
    nodes_ok = _check_node_counts()
    norm_defect = _check_normalization()
    ok = (
        roundtrip <= 1e-9
        and agreement <= 1e-9
        and mapping <= 1e-12
        and nr_ratio >= 5.0
        and shift_exact
        and nodes_ok
        and norm_defect <= 1e-8
    )
    report(
        5,
        ok,
        f"cubic roundtrip {roundtrip:.1e} (1e-9);"
        f" method agreement {agreement:.1e} (1e-9);"
        f" mapping identity {mapping:.1e} (1e-12);"
        f" NR shrink ratio {nr_ratio:.1f} (>=5/decade);"
        f" shift identity exact={shift_exact};"
        f" node counts n<=10 ok={nodes_ok};"
        f" normalization defect {norm_defect:.1e} (1e-8)",
    )


def test_criterion_6_breakdown_threshold():
    params = ModelParams(M=1.5, omega0=1 / 2.4, sym=SymmetryKind.PSEUDOSPIN, C=-10.3)
    scan = pseudospin_breakdown_threshold(params, 0, eps_lo=1.5, eps_hi=2.5)
    ok = (
        1.5 < scan.eps_discriminant < 2.5
        and abs(scan.eps_discriminant - scan.eps_physical) <= 1e-6
    )
    report(
        6,
        ok,
        f"discriminant flip at eps = {scan.eps_discriminant:.7f} and"
        f" physical-root loss at eps = {scan.eps_physical:.7f},"
        " inside (1.5, 2.5); reference breakdown window (1.81, 1.90)",
    )


def test_criterion_7_suite_runtime():
    elapsed = time.perf_counter() - conftest.SESSION_START
    report(7, elapsed < 60.0, f"suite runtime {elapsed:.1f}s (< 60s)")
