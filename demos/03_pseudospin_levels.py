#!/usr/bin/env python3
"""Pseudospin-symmetric bound levels and where they disappear.

Regenerates the bundled reference grid (M = 1.5, w0 = 1/2.4, two values of
C_ps, five field strengths), prints it next to the reference values, then
locates the field strength at which the bound pair merges and turns
complex.  All bound cells sit in the three-real-root cubic regime
(e^2 < 4p, Cardano's intermediates complex); once e^2 - 4p crosses zero the
only remaining real root violates the E + M + g' < 0 branch condition and
binding is lost.
"""

from hostark import (
    ModelParams,
    Status,
    SymmetryKind,
    TableId,
    compare,
    pseudospin_breakdown_threshold,
    solve_level,
)

W0 = 1 / 2.4


def grid_column(C, eps):
    out = []
    for n in range(11):
        p = ModelParams(M=1.5, omega0=W0, eps=eps, sym=SymmetryKind.PSEUDOSPIN, C=C)
        lvl = solve_level(p, n)
        out.append(lvl.E if lvl.status is Status.BOUND else None)
    return out


for C in (-10.3, -11.5):
    print(f"\nC_ps = {C}: computed levels (blank = no bound root)")
    eps_list = (0.0, 0.1, 0.5, 1.0, 1.5)
    cols = {eps: grid_column(C, eps) for eps in eps_list}
    print(f"{'n':>2}" + "".join(f"  eps={e:<6.1f}" for e in eps_list))
    for n in range(11):
        cells = ["" if cols[e][n] is None else f"{cols[e][n]:.3f}" for e in eps_list]
        print(f"{n:>2}" + "".join(f" {c:>10}" for c in cells))

print("\ncomparison against the bundled reference table (tolerance 5e-3):")
report = compare(TableId.TABLE2)
print(report.to_text())

params = ModelParams(M=1.5, omega0=W0, sym=SymmetryKind.PSEUDOSPIN, C=-10.3)
scan = pseudospin_breakdown_threshold(params, 0, eps_lo=1.5, eps_hi=2.5)
print(f"\nbinding breakdown at C_ps = -10.3, n = 0:")
print(f"  discriminant sign flip: eps = {scan.eps_discriminant:.9f}")
print(f"  physical root lost:     eps = {scan.eps_physical:.9f}")
print("  (the two coincide: the bound pair merges exactly where it turns complex)")

print("\nroot bookkeeping at the first grid cell (eps = 0, n = 0):")
lvl = solve_level(params, 0)
print(f"  selected E = {lvl.E:.6f}, unsquared residual {lvl.residual:.1e}")
for alt in lvl.alternates:
    print(f"  alternate {alt.value.real:+.6f}: {alt.reason}")
