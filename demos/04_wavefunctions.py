#!/usr/bin/env python3
"""Radial components: envelopes, nodes, normalization, and honest defects.

Samples all four radial kinds at the standard table parameters, reports the
metadata the evaluators attach (L2 norm, node count, origin defect), and
shows the two diagnostics that are deliberately reported instead of fixed:

* the printed closed forms do not vanish at r = 0 once eps > 0
  (full-line oscillator solutions used on a half line), and
* the printed lower-component closed form disagrees with the derivative
  relation that defines it (its polynomial-derivative term carries a
  nonstandard index and sign), so the derivative relation, with dF/dr
  in closed form, is authoritative and the disagreement is quantified,
  never hidden.
"""

import cmath

import numpy as np

from hostark import (
    ModelParams,
    RadialKind,
    SymmetryKind,
    derived_constants,
    g_deviation_report,
    mean_radius,
    sample_radial,
    shape_constants,
    solve_level,
)

SPIN = ModelParams(M=1.5, omega0=1 / 2.4, eps=0.5)
PSEUDO = ModelParams(M=1.5, omega0=1 / 2.4, sym=SymmetryKind.PSEUDOSPIN, C=-10.3)

print("sampled radial components at M = 1.5, w0 = 1/2.4, eps = 0.5")
print(f"{'kind':>14} {'n':>2} {'L2 norm':>10} {'nodes':>6} {'origin defect':>14}")
for kind, params, n in [
    (RadialKind.UPPER_F, SPIN, 0),
    (RadialKind.UPPER_F, SPIN, 2),
    (RadialKind.LOWER_G, SPIN, 0),
    (RadialKind.NONREL_R, SPIN, 3),
    (RadialKind.PSEUDO_LOWER_G, PSEUDO, 1),
]:
    rf = sample_radial(kind, params, n, samples=4001)
    print(f"{kind.value:>14} {n:>2} {rf.norm:>10.8f} {rf.nodes:>6}"
          f" {rf.origin_defect:>14.3e}")

rf = sample_radial(RadialKind.NONREL_R, ModelParams(M=1.5, omega0=1 / 2.4, eps=1.0),
                   0, samples=4001)
r0 = derived_constants(ModelParams(M=1.5, omega0=1 / 2.4, eps=1.0)).r0
print(f"\nnonrelativistic ground state with eps = 1: computed <r> = "
      f"{mean_radius(rf):.5f} vs well bottom r0 = {r0:.5f}")
print("(the density is centered on +r0; the value is reported, no sign asserted)")

print("\nlower-component paths, n = 1:")
rep = g_deviation_report(SPIN, 1)
print(f"  derivative relation (closed-form dF/dr) vs extrapolated central "
      f"differences: {rep.richardson_defect:.2e}")
print(f"  printed closed form vs derivative relation: max relative deviation "
      f"{rep.max_rel_deviation:.3f}, mean {rep.mean_rel_deviation:.3f}")
idx = np.linspace(0, len(rep.r) - 1, 5, dtype=int)
print(f"  {'r':>8} {'relation':>14} {'printed form':>14}")
for i in idx:
    print(f"  {rep.r[i]:>8.3f} {rep.numeric[i]:>14.6e} {rep.closed_form[i]:>14.6e}")

print("\npseudospin lower component, n = 1 (printed with imaginary prefactors):")
E = solve_level(PSEUDO, 1).E
sc = shape_constants(PSEUDO, E)
eps1p = cmath.sqrt(complex(PSEUDO.M + PSEUDO.C - E)) / (2 * PSEUDO.M)
print(f"  eps1' = {eps1p:.6f}, so i eps1' = {1j * eps1p:.6f} is real: -eps1 = {-sc.eps1:.6f}")
rf = sample_radial(RadialKind.PSEUDO_LOWER_G, PSEUDO, 1, samples=801)
print(f"  evaluated in real arithmetic: {rf.values.dtype} samples, {rf.nodes} node(s),"
      f" L2 norm {rf.norm:.8f}")
