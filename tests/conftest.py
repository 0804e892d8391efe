import cmath
import time

import numpy as np

from hostark.model import derived_constants
from hostark.spectra import _depressed, _polish, _power

SESSION_START = time.perf_counter()


def pytest_collection_modifyitems(config, items):
    # acceptance gate runs last so its runtime criterion sees the whole suite
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def mapped_spin_coefficients(params, n):
    """Pseudospin B, C, D built from the spin cubic, independently of the solver.

    Expand the spin cubic (E + M - C_s)(E - M + g')^2 - R with C_s -> -C_ps,
    g' -> -g' and R -> -R, then send E -> -E and negate the polynomial, which
    negates the odd coefficients of the monic cubic.
    """
    gp = derived_constants(params).g_shift
    shift = [1.0, -params.M - gp]
    spin = np.polymul([1.0, params.M + params.C], np.polymul(shift, shift))
    spin[-1] += 2.0 * params.M * params.omega0 ** 2 * (n + 0.5) ** 2
    _, b, c, d = spin
    return -b, c, -d


def cardano_complex_roots(B, C, D):
    """All three roots of the monic cubic by the all-complex Cardano path.

    Valid in both discriminant regimes; an independent cross-check of
    solve_cubic_cardano, sharing only its depressed form and Newton polish.
    """
    d, e = _depressed(B, C, D)
    p = -_power(d / 3.0, 3)
    if d == 0.0 and e == 0.0:
        y = (0j, 0j, 0j)
    else:
        z3 = (-e + cmath.sqrt(complex(e * e - 4.0 * p))) / 2.0
        if abs(z3) < 1e-300:
            z3 = (-e - cmath.sqrt(complex(e * e - 4.0 * p))) / 2.0
        z0 = z3 ** (1.0 / 3.0)
        w = cmath.exp(2j * cmath.pi / 3.0)
        zs = (z0, z0 * w, z0 * w * w)
        if d == 0.0:
            y = zs
        else:
            y = tuple(z - d / (3.0 * z) for z in zs)
    roots = tuple(_polish(yk - B / 3.0, B, C, D) for yk in y)
    return tuple(sorted(roots, key=lambda z: (z.real, z.imag)))
