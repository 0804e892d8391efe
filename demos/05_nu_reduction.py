#!/usr/bin/env python3
"""The reduction engine on the two oscillator instances, step by step.

Equations of the form u'' + sigma_tilde(r) u = 0 with quadratic
sigma_tilde reduce to a quantization condition lambda = lambda_n once the
square root in the auxiliary polynomial pi collapses.  The spin-symmetric
instance collapses over the reals; the pseudospin one has a positive
leading coefficient and collapses onto the imaginary axis, which the
engine carries through complex coefficients.
"""

import numpy as np

from hostark import (
    Equation,
    ModelParams,
    bisection_oracle,
    inverted_oscillator_instance,
    oscillator_instance,
    quantize,
    reduce,
)


def show(tag, sigma, sigma_tilde, tau_tilde):
    print(f"\n{tag}: sigma_tilde coefficients (c0, c1, c2) ="
          f" {tuple(complex(c) for c in sigma_tilde.coeffs)}")
    for b in reduce(sigma, sigma_tilde, tau_tilde):
        mark = "admissible" if b.admissible else "not admissible"
        print(f"  branch {b.branch:<4} ({mark}):")
        print(f"    pi = ({b.pi.c1})*r + ({b.pi.c0}),  k = {b.k}")
        print(f"    tau' = {b.tau.c1},  lambda = {b.lambda_},"
              f"  lambda_n: {[complex(b.lambda_n(n)) for n in range(3)]}")


show("spin-type instance (v=2, beta=4, alpha=1)",
     *oscillator_instance(2.0, 4.0, 1.0))
show("pseudospin-type instance (v=1, beta=2, alpha=0.5)",
     *inverted_oscillator_instance(1.0, 2.0, 0.5))

print("\nquantization residual feeding the energy solver:")
print("with alpha carrying the energy, quantize() vanishes exactly at the")
print("transcendental condition's root; checking at a solved level:")

params = ModelParams(M=1.5, omega0=1 / 2.4, eps=0.5)
E = bisection_oracle(Equation.SPIN_EQ, params, 2)
gamma = E + params.M - params.C
v = np.sqrt(0.5 * params.M * params.omega0**2 * gamma)
beta = params.q * params.eps * gamma
alpha = gamma * (params.M - E)
branch = reduce(*oscillator_instance(v, beta, alpha))[0]
print(f"  solved E (n=2) = {E:.9f}")
print(f"  engine residual lambda - lambda_2 = {complex(quantize(branch, 2)):.3e}")
