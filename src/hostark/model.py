"""Potential model: charged harmonic oscillator in a uniform electric field.

The combined radial potential is

    V(r) = (1/2) M w0^2 r^2 - q eps r,

a harmonic well plus a linear Stark term.  Completing the square,

    V(r) = (1/2) M w0^2 (r - r0)^2 - g_shift,
    r0      = q eps / (M w0^2)          (well-bottom displacement),
    g_shift = q^2 eps^2 / (2 M w0^2)    (depth of the shifted well).

UNITS: everything is a pure number with hbar = c = 1.  Any "MeV" / "fm^-1"
labels attached to inputs are documentation only; no unit conversion is
performed anywhere in this package.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

import math
import operator
import sys

if TYPE_CHECKING:
    import numpy as np


class SymmetryKind(Enum):
    """Which Dirac symmetry limit a parameter set refers to.

    SPIN pairs with kappa = -1 (difference potential held constant at C_s);
    PSEUDOSPIN pairs with kappa = +1 (sum potential held constant at C_ps).
    Each member sets kappa once, as a plain attribute: the solvers read it
    per level, and through a property ModelParams.kappa took 220-230 ns
    against 60-95 ns (Python 3.11, 2-core Xeon).
    """

    SPIN = "spin"
    PSEUDOSPIN = "pseudospin"

    def __init__(self, value: str):
        self.kappa: int = -1 if value == "spin" else +1


@dataclass(frozen=True, slots=True)
class ModelParams:
    """Physical inputs, all finite pure numbers (hbar = c = 1).

    M      : mass, > 0
    omega0 : oscillator frequency, > 0
    q      : particle charge (default 1; must be nonzero when eps > 0)
    eps    : electric field strength, >= 0
    sym    : symmetry limit the constant C belongs to
    C      : symmetry constant (C_s for SPIN, C_ps for PSEUDOSPIN)
    """

    M: float
    omega0: float
    q: float = 1.0
    eps: float = 0.0
    sym: SymmetryKind = SymmetryKind.SPIN
    C: float = 0.0

    def __post_init__(self):
        _check_params(self.M, self.omega0, self.q, self.eps, self.C)

    @property
    def kappa(self) -> int:
        return self.sym.kappa


def _check_params(M, omega0, q, eps, C) -> None:
    """ModelParams' rules on its numbers, which __post_init__ runs and
    spectra._grid_inputs runs per eps of a grid's rows."""
    for name, value in zip(("M", "omega0", "q", "eps", "C"), (M, omega0, q, eps, C)):
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")
    if not M > 0:
        raise ValueError(f"M must be > 0, got {M}")
    if not omega0 > 0:
        raise ValueError(f"omega0 must be > 0, got {omega0}")
    if eps < 0:
        raise ValueError(f"eps must be >= 0, got {eps}")
    if q == 0 and eps != 0:
        raise ValueError("q must be nonzero when eps > 0")


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from the model parameters.

    g_shift : q^2 eps^2 / (2 M w0^2), the Stark shift of the spectrum
    r0      : q eps / (M w0^2), displacement of the well bottom
    """

    g_shift: float
    r0: float


def _potential(M, omega0, q, eps, r):
    """(1/2) M w0^2 r^2 - q eps r in one operation order, so a float r and
    each element of an array r give the same bits."""
    return 0.5 * M * omega0 * omega0 * r * r - q * eps * r


def eval_potential(params: ModelParams, r):
    """V(r) for r >= 0, vectorized over r; q and eps enter only as q*eps."""
    import numpy as np

    v = _potential(params.M, params.omega0, params.q, params.eps,
                   np.asarray(r, dtype=float))
    return float(v) if v.ndim == 0 else v


def _stark_shift(M, omega0, q, eps):
    """g_shift = q^2 eps^2 / (2 M w0^2) on plain floats.

    The energy solvers call this instead of derived_constants; keeping one
    operation order makes every caller's g_shift agree to the last bit.
    Raises ValueError where float64 cannot hold it.
    """
    try:
        g_shift = (q * eps) ** 2 / (2.0 * (M * omega0 * omega0))
    except (OverflowError, ZeroDivisionError):
        g_shift = math.inf
    if not math.isfinite(g_shift):  # the quotient overflows without raising
        raise ValueError(f"g_shift is not finite in float64 at "
                         f"{M=}, {omega0=}, {q=}, {eps=}")
    return g_shift


def derived_constants(params: ModelParams) -> DerivedConstants:
    """Compute the shifted-well constants for the given parameters.

    Raises ValueError where float64 cannot hold g_shift or r0.
    """
    M, omega0, q, eps = params.M, params.omega0, params.q, params.eps
    g_shift = _stark_shift(M, omega0, q, eps)  # raises where M w0^2 is 0
    r0 = q * eps / (M * omega0 * omega0)
    if not math.isfinite(r0):  # the quotient overflows without raising
        raise ValueError(f"r0 is not finite in float64 at {M=}, {omega0=}, {q=}, {eps=}")
    return DerivedConstants(g_shift=g_shift, r0=r0)


def _check_r_max(r_max: float, note: str = "") -> None:
    if not (math.isfinite(r_max) and r_max > 0):
        raise ValueError(f"r_max must be finite and > 0, got {r_max}{note}")


def _check_n(value, name: str = "n") -> int:
    """A level index (or n_max) as an int: any integer type, 0 <= n <= float64 max."""
    try:
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {n}")
    if n > sys.float_info.max:  # the level formulas take n + 0.5
        raise ValueError(f"{name} must be within float64 range, got {n.bit_length()} bits")
    return n


def potential_curve(params: ModelParams, r_max: float, samples: int) -> np.ndarray:
    """Uniformly sampled (r, V(r)) curve on [0, r_max], shape (samples, 2)."""
    import numpy as np

    return np.array(_potential_rows(params, r_max, samples))


def _potential_rows(params: ModelParams, r_max: float, samples: int) -> list[tuple[float, float]]:
    """The rows of potential_curve on plain floats.

    r repeats np.linspace(0.0, r_max, samples): i * step with step =
    r_max / (samples - 1), or (i / (samples - 1)) * r_max where step
    underflows to 0, and the last point set to r_max.  Raises ValueError
    at the first r where V is not finite in float64.
    """
    _check_r_max(r_max)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    div = samples - 1
    step = r_max / div
    if step == 0.0:
        r = [i / div * r_max for i in range(samples)]
    else:
        r = [i * step for i in range(samples)]
    r[-1] = r_max
    M, omega0, q, eps = params.M, params.omega0, params.q, params.eps
    rows = [(x, _potential(M, omega0, q, eps, x)) for x in r]
    for x, v in rows:
        if not math.isfinite(v):
            raise ValueError(f"V(r) is not finite in float64 at r={x}")
    return rows
