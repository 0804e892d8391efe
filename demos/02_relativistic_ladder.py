#!/usr/bin/env python3
"""Field-free relativistic oscillator ladder and its nonrelativistic limit.

The spin-symmetric quantization condition at zero field reduces to

    sqrt((E + M) / (2M)) (E - M) = (n + 1/2) w,

whose root exceeds the flat ladder M + (n + 1/2) w by a relativistic
correction that dies off as 1/M.  Both solver routes (cubic + physical-root
selection, and direct bisection) are shown side by side.
"""

from hostark import (
    Equation,
    ModelParams,
    bisection_oracle,
    nr_spin_level,
    relativistic_ho_level,
    solve_level,
)

print("M = 1, w = 1: the first four levels by three routes")
params = ModelParams(M=1.0, omega0=1.0)
print(f"{'n':>2} {'cubic path':>14} {'bisection':>14} {'closed bracket':>15}")
for n in range(4):
    via_cubic = solve_level(params, n).E
    via_scan = bisection_oracle(Equation.SPIN_EQ, params, n)
    via_relho = relativistic_ho_level(1.0, 1.0, n)
    print(f"{n:>2} {via_cubic:>14.7f} {via_scan:>14.7f} {via_relho:>15.7f}")

print("\nrelativistic correction vs mass (n = 1, w = 1/2.4)")
print(f"{'M':>8} {'E - M':>12} {'flat ladder':>12} {'deviation':>12}")
w0 = 1 / 2.4
for M in (1.5, 15.0, 150.0, 1500.0):
    E = relativistic_ho_level(M, w0, 1)
    flat = 1.5 * w0
    print(f"{M:>8.1f} {E - M:>12.6f} {flat:>12.6f} {abs(E - M - flat):>12.2e}")

print("\nStark-shifted nonrelativistic ladder at M = 1.5, w0 = 1/2.4")
print("the whole ladder drops rigidly by g_shift = q^2 eps^2 / (2 M w0^2):")
print(f"{'n':>2}" + "".join(f"  eps={e:<4.1f}" for e in (0.0, 0.5, 1.0, 2.0)))
for n in range(6):
    row = [nr_spin_level(ModelParams(M=1.5, omega0=w0, eps=e), n)
           for e in (0.0, 0.5, 1.0, 2.0)]
    print(f"{n:>2}" + "".join(f" {v:>9.4f}" for v in row))
print("note the eps = 1 column changing sign between n = 4 and n = 5")
