import time

import numpy as np

from hostark.model import derived_constants

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
