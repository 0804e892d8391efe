"""Nikiforov-Uvarov reduction for hypergeometric-type second-order ODEs.

Input is an equation

    u''(r) + (tau_tilde(r)/sigma(r)) u'(r) + (sigma_tilde(r)/sigma(r)^2) u(r) = 0

with sigma of degree <= 2 and tau_tilde of degree <= 1.  The reduction picks
the constants k for which

    Q(r; k) = ((sigma' - tau_tilde)/2)^2 - sigma_tilde + k sigma

collapses to a perfect square (s1 r + s0)^2, then forms

    pi  = (sigma' - tau_tilde)/2 +/- (s1 r + s0),
    tau = tau_tilde + 2 pi,
    lambda   = k + pi',
    lambda_n = -n tau' - n (n-1) sigma''/2,

and the quantization condition is lambda = lambda_n.  A branch is admissible
when Re(tau') < 0; branches with imaginary tau' are returned un-flagged so
the caller can carry the complex bookkeeping through to a real condition.

All coefficient arithmetic is complex: oscillator-type problems whose
sigma_tilde has a positive leading coefficient collapse to an imaginary
square root, and the engine keeps those branches rather than rejecting them.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

from .model import _check_n

_EPS = 1e-12


class NuError(ValueError):
    """Base class for reduction failures."""


class NonPolynomialRoot(NuError):
    """No constant k makes the square root in pi collapse to a polynomial."""


class NoAdmissibleBranch(NuError):
    """Every branch has real tau' >= 0, so none yields decaying solutions."""


@dataclass(frozen=True)
class Poly2:
    """Polynomial c2 r^2 + c1 r + c0 with (possibly complex) coefficients."""

    c0: complex = 0.0
    c1: complex = 0.0
    c2: complex = 0.0

    def __call__(self, r):
        return (self.c2 * r + self.c1) * r + self.c0

    def derivative(self) -> "Poly2":
        return Poly2(self.c1, 2.0 * self.c2, 0.0)

    @property
    def coeffs(self) -> tuple[complex, complex, complex]:
        return (self.c0, self.c1, self.c2)


@dataclass(frozen=True)
class NuReduction:
    """One (k, sign) branch of the reduction.

    tau equals tau_tilde + 2 pi coefficientwise by construction and
    lambda_ equals k + pi' exactly.
    """

    pi: Poly2
    k: complex
    tau: Poly2
    tau_slope: complex
    lambda_: complex
    sigma: Poly2
    branch: str
    admissible: bool

    def lambda_n(self, n: int) -> complex:
        """Level-n eigenvalue of the quantization sequence."""
        n = _check_n(n)
        return -n * self.tau_slope - 0.5 * n * (n - 1) * (2.0 * self.sigma.c2)


def _k_candidates(sigma: Poly2, sigma_tilde: Poly2, u: Poly2) -> list[complex]:
    """Solve disc_r(Q(r; k)) = 0 for k; the discriminant is <= quadratic in k."""
    q2_0 = u.c1 * u.c1 - sigma_tilde.c2
    q1_0 = 2.0 * u.c1 * u.c0 - sigma_tilde.c1
    q0_0 = u.c0 * u.c0 - sigma_tilde.c0
    # disc(k) = (q1_0 + k s1)^2 - 4 (q2_0 + k s2)(q0_0 + k s0)
    a = sigma.c1 * sigma.c1 - 4.0 * sigma.c2 * sigma.c0
    b = 2.0 * q1_0 * sigma.c1 - 4.0 * (q2_0 * sigma.c0 + q0_0 * sigma.c2)
    c = q1_0 * q1_0 - 4.0 * q2_0 * q0_0
    scale = max(abs(a), abs(b), abs(c))
    if abs(a) > _EPS * scale:
        rt = cmath.sqrt(b * b - 4.0 * a * c)
        k1 = (-b + rt) / (2.0 * a)
        k2 = (-b - rt) / (2.0 * a)
        if abs(k1 - k2) <= _EPS * max(1.0, abs(k1), abs(k2)):
            return [k1]
        return [k1, k2]
    if abs(b) > _EPS * scale:
        return [-c / b]
    if abs(c) <= _EPS * scale:
        raise NuError(
            "discriminant vanishes identically: k is unconstrained "
            "(sigma_tilde already differs from a perfect square by a constant)"
        )
    raise NonPolynomialRoot("no k makes the root in pi collapse to a polynomial")


def _collapse_root(sigma: Poly2, sigma_tilde: Poly2, u: Poly2, k: complex) -> Poly2:
    """Write Q(r; k) = (s1 r + s0)^2 and return s1 r + s0."""
    q2 = u.c1 * u.c1 - sigma_tilde.c2 + k * sigma.c2
    q1 = 2.0 * u.c1 * u.c0 - sigma_tilde.c1 + k * sigma.c1
    q0 = u.c0 * u.c0 - sigma_tilde.c0 + k * sigma.c0
    scale = max(abs(q2), abs(q1), abs(q0))
    if abs(q2) > _EPS * scale:
        s1 = cmath.sqrt(q2)
        return Poly2(q1 / (2.0 * s1), s1, 0.0)
    if abs(q1) > _EPS * scale:
        # zero discriminant with q2 = 0 forces q1 = 0; reaching here means
        # the k root was inconsistent
        raise NonPolynomialRoot("Q is linear in r and cannot be a perfect square")
    return Poly2(cmath.sqrt(q0), 0.0, 0.0)


def reduce(sigma: Poly2, sigma_tilde: Poly2, tau_tilde: Poly2) -> list[NuReduction]:
    """Enumerate all (k, sign) branches of the reduction.

    Branches are ordered admissible-first, then by the real and imaginary
    parts of the leading coefficient of pi (most negative first), so the
    decaying-solution branch comes first.

    Raises NonPolynomialRoot if no k collapses the square root, and
    NoAdmissibleBranch if every branch has a real, nonnegative tau'.
    """
    if all(abs(c) <= _EPS for c in sigma.coeffs):
        raise NuError("sigma must not vanish identically")
    sp = sigma.derivative()
    u = Poly2((sp.c0 - tau_tilde.c0) / 2.0, (sp.c1 - tau_tilde.c1) / 2.0, 0.0)

    branches: list[NuReduction] = []
    for i, k in enumerate(_k_candidates(sigma, sigma_tilde, u)):
        root = _collapse_root(sigma, sigma_tilde, u, k)
        for sign, tag in ((+1.0, "+"), (-1.0, "-")):
            pi = Poly2(u.c0 + sign * root.c0, u.c1 + sign * root.c1, 0.0)
            tau = Poly2(
                tau_tilde.c0 + 2.0 * pi.c0,
                tau_tilde.c1 + 2.0 * pi.c1,
                tau_tilde.c2,
            )
            tau_slope = tau.c1
            branches.append(
                NuReduction(
                    pi=pi,
                    k=k,
                    tau=tau,
                    tau_slope=tau_slope,
                    lambda_=k + pi.c1,
                    sigma=sigma,
                    branch=f"k{i}{tag}",
                    admissible=complex(tau_slope).real < 0.0,
                )
            )

    slopes = [complex(b.tau_slope) for b in branches]
    if all(abs(s.imag) <= _EPS * max(1.0, abs(s)) and s.real >= 0.0 for s in slopes):
        raise NoAdmissibleBranch("every branch has tau' >= 0")

    branches.sort(
        key=lambda b: (
            not b.admissible,
            complex(b.pi.c1).real,
            complex(b.pi.c1).imag,
        )
    )
    return branches


def quantize(red: NuReduction, n: int) -> complex:
    """Residual lambda - lambda_n of the quantization condition at level n.

    A zero of this residual in the embedded energy parameter is the
    eigenvalue condition.
    """
    return red.lambda_ - red.lambda_n(n)


def oscillator_instance(v: float, beta: float, alpha: float):
    """(sigma, sigma_tilde, tau_tilde) for u'' + (-v^2 r^2 + beta r - alpha) u = 0.

    This is the decoupled upper-spinor equation of the spin-symmetric
    oscillator-plus-linear problem, with alpha carrying the energy.
    """
    return Poly2(1.0), Poly2(-alpha, beta, -v * v), Poly2()


def inverted_oscillator_instance(v: float, beta: float, alpha: float):
    """(sigma, sigma_tilde, tau_tilde) for u'' + (v^2 r^2 - beta r - alpha) u = 0.

    The pseudospin lower-spinor equation takes this form; the positive
    leading coefficient makes pi imaginary, which the engine carries
    through complex arithmetic.
    """
    return Poly2(1.0), Poly2(-alpha, -beta, v * v), Poly2()
