"""A 50-digit referee for the levels and cubic roots of hostark.spectra.

level(params, n) solves the unsquared quantization condition in mpmath, with
the float parameters taken as exact, inside bisection_oracle's closed-form
bracket (for spin, the wider one it falls back to), written out here again at
50 digits, and certifies the root by a sign change of the condition at 50
digits.  cubic_roots(B, C, D) gives the three roots of a level cubic at 50
digits, with the float coefficients the solver was given taken as exact.
It shares no code with the package, so it can say which last digit of a
float level is right.
"""

import mpmath

DIGITS = 50


def level(params, n):
    """The level-n root of the unsquared condition as a 50-digit mpf, or None
    where the pseudospin window holds no root.

    With the margins m1 = E - e1 and m2 = -kappa (E - e2) of the edges
    e1 = kappa M + C and e2 = -kappa M - g', the condition is
    m2 - k sqrt(w2 / (2 m1)) (spin, read as -inf for m1 <= 0) or
    k - m2 sqrt(2 m1 / w2) (pseudospin), k = 2n + 1 and w2 = M w0^2.  Both
    rise through the root over the bracket.  Raises AssertionError when the
    root found does not change the sign of the condition at 50 digits.
    """
    with mpmath.workdps(DIGITS + 10):
        M, C, omega0, q, eps = (mpmath.mpf(x) for x in (
            params.M, params.C, params.omega0, params.q, params.eps))
        k, w2 = 2 * n + 1, M * omega0 ** 2
        gp = (q * eps) ** 2 / (2 * w2)
        e1, e2 = params.kappa * M + C, -params.kappa * M - gp
        if params.kappa < 0:
            def f(E):  # -inf on and below the gamma = 0 edge e1
                if E <= e1:
                    return -mpmath.inf
                return E - e2 - k * mpmath.sqrt(w2 / (2 * (E - e1)))
            a = max(e1, e2)
            b = a + 2 * mpmath.cbrt(k * k * w2 / 2)
        else:
            def f(E):
                return k - (e2 - E) * mpmath.sqrt(2 * (E - e1) / w2)
            if e1 >= e2:
                return None
            a, b = e1 + (e2 - e1) / 3, e2  # f is smallest at a and k at b
            if f(a) >= 0:
                return None
        while not f(a) > -mpmath.inf:  # the spin gamma = 0 edge: halve towards it
            m = (a + b) / 2
            a, b = (m, b) if f(m) < 0 else (a, m)
        root = mpmath.findroot(f, (a, b), solver="anderson", verify=False)
        d = mpmath.mpf(10) ** -DIGITS * max(1, abs(root))
        assert f(root - d) < 0 < f(root + d), "no sign change about the root"
        return root


def cubic_roots(B, C, D):
    """The three roots of the monic cubic E^3 + B E^2 + C E + D as 50-digit
    mpc, with the float coefficients taken as exact (mpmath.polyroots)."""
    with mpmath.workdps(DIGITS):
        return mpmath.polyroots([1, B, C, D], maxsteps=100, extraprec=100)
