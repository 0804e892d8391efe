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
    """

    SPIN = "spin"
    PSEUDOSPIN = "pseudospin"

    @property
    def kappa(self) -> int:
        return -1 if self is SymmetryKind.SPIN else +1


@dataclass(frozen=True)
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
        for name in ("M", "omega0", "q", "eps", "C"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not self.M > 0:
            raise ValueError(f"M must be > 0, got {self.M}")
        if not self.omega0 > 0:
            raise ValueError(f"omega0 must be > 0, got {self.omega0}")
        if self.eps < 0:
            raise ValueError(f"eps must be >= 0, got {self.eps}")
        if self.q == 0 and self.eps != 0:
            raise ValueError("q must be nonzero when eps > 0")

    @property
    def kappa(self) -> int:
        return self.sym.kappa


@dataclass(frozen=True)
class DerivedConstants:
    """Constants derived from the model parameters.

    g_shift : q^2 eps^2 / (2 M w0^2), the Stark shift of the spectrum
    r0      : q eps / (M w0^2), displacement of the well bottom
    g_eps   : g_shift - M (the constant entering the cubic energy equation)
    M_s     : M - C, the spin-branch mass constant
    """

    g_shift: float
    r0: float
    g_eps: float
    M_s: float


def combined_potential(M, omega0, q, eps, r):
    """Raw potential kernel (1/2) M w0^2 r^2 - q eps r, vectorized over r.

    Depends on q and eps only through the product q*eps, so it is invariant
    under the joint flip (q, eps) -> (-q, -eps).
    """
    import numpy as np

    r = np.asarray(r, dtype=float)
    v = 0.5 * M * omega0 * omega0 * r * r - q * eps * r
    return float(v) if v.ndim == 0 else v


def eval_potential(params: ModelParams, r):
    """Evaluate V(r) for r >= 0."""
    return combined_potential(params.M, params.omega0, params.q, params.eps, r)


def _stark_shift(M, omega0, q, eps):
    """g_shift = q^2 eps^2 / (2 M w0^2) on plain floats.

    The energy solvers call this instead of derived_constants; keeping one
    operation order makes every caller's g_shift agree to the last bit.
    Raises ValueError where float64 cannot hold it.
    """
    try:
        return (q * eps) ** 2 / (2.0 * (M * omega0 * omega0))
    except (OverflowError, ZeroDivisionError):
        raise ValueError(f"g_shift is not finite in float64 at "
                         f"{M=}, {omega0=}, {q=}, {eps=}") from None


def derived_constants(params: ModelParams) -> DerivedConstants:
    """Compute the shifted-well constants for the given parameters.

    g_eps is formed as g_shift - M so that the identity g_eps = g_shift - M
    holds exactly in floating point.
    """
    m_omega2 = params.M * params.omega0 * params.omega0
    g_shift = _stark_shift(params.M, params.omega0, params.q, params.eps)
    r0 = params.q * params.eps / m_omega2
    return DerivedConstants(
        g_shift=g_shift,
        r0=r0,
        g_eps=g_shift - params.M,
        M_s=params.M - params.C,
    )


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

    _check_r_max(r_max)
    if samples < 2:
        raise ValueError(f"samples must be >= 2, got {samples}")
    r = np.linspace(0.0, r_max, samples)
    return np.column_stack((r, eval_potential(params, r)))
