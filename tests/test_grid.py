"""spectrum_grid solves the whole grid as one batch; every row must equal the
scalar route, solve_level, field for field (alternates and diagnostics
included)."""

import dataclasses
import re

import pytest
from hypothesis import given, settings, strategies as st

from hostark.model import ModelParams, SymmetryKind
from hostark.spectra import (
    cubic_coefficients,
    select_physical_root,
    solve_cubic_cardano,
    solve_level,
    spectrum_grid,
)


def scalar_rows(params, n_max, eps_list):
    """The grid cell by cell through solve_level, n outer and eps inner."""
    rows = []
    for n in range(n_max + 1):
        for eps in eps_list:
            p = dataclasses.replace(params, eps=float(eps))
            rows.append((p, solve_level(p, n)))
    return rows


def pseudo(M=1.5, omega0=1 / 2.4, C=-10.3):
    return ModelParams(M=M, omega0=omega0, sym=SymmetryKind.PSEUDOSPIN, C=C)


def spin(M=1.5, omega0=1 / 2.4, C=0.0):
    return ModelParams(M=M, omega0=omega0, C=C)


wide_params = st.builds(
    ModelParams,
    M=st.floats(0.1, 10.0),
    omega0=st.floats(0.05, 5.0),
    sym=st.sampled_from(list(SymmetryKind)),
    C=st.floats(-40.0, 20.0),
)


@settings(max_examples=150, deadline=None)
@given(params=wide_params, n_max=st.integers(0, 12),
       eps_list=st.lists(st.floats(0.0, 5.0), max_size=12))
def test_batch_equals_scalar_route_wide(params, n_max, eps_list):
    assert spectrum_grid(params, n_max, eps_list) == scalar_rows(params, n_max, eps_list)


@settings(max_examples=40, deadline=None)
@given(params=wide_params, n=st.integers(0, 30), eps=st.floats(0.0, 5.0))
def test_public_wrappers_compose_to_solve_level(params, n, eps):
    p = dataclasses.replace(params, eps=eps)
    sol = solve_cubic_cardano(cubic_coefficients(p, n))
    assert select_physical_root(sol, p, n) == solve_level(p, n)


@pytest.mark.parametrize("params, n_max, eps_list", [
    (pseudo(), 0, []),                          # empty field list
    (pseudo(), 0, [0.5]),                       # a single cell
    (spin(), 0, [0.0, 0.5, 2.0]),               # n_max = 0
    (pseudo(), 3, [0.5, 0.5, 1.0, 0.5]),        # duplicate eps values
    (spin(C=-5.0), 4, [0.0]),                   # eps = 0 only
    (pseudo(), 10, [0.0, 0.1, 0.5, 1.0, 1.5]),  # table2 grid
    (spin(M=7.6, omega0=0.06, C=-13.3), 10,     # margin refinement fires
     [0.5 * j for j in range(11)]),
    (pseudo(M=0.92, omega0=0.13, C=-39.1), 10, [0.5 * j for j in range(11)]),
])
def test_batch_equals_scalar_route_edge_cases(params, n_max, eps_list):
    rows = spectrum_grid(params, n_max, eps_list)
    assert rows == scalar_rows(params, n_max, eps_list)
    assert len(rows) == (n_max + 1) * len(eps_list)


def test_rows_of_one_eps_share_params():
    rows = spectrum_grid(pseudo(), 2, [0.0, 0.5])
    assert rows[0][0] is rows[2][0] is rows[4][0]


@pytest.mark.parametrize("sym", list(SymmetryKind))
def test_overflowing_cells_take_the_scalar_route(sym):
    # these cells overflow float64 in g', the cubic's coefficients, its
    # depressed form or its roots; both routes reject the first such cell
    # with the same message
    params = ModelParams(M=1.5, omega0=0.4, sym=sym, C=-10.3)
    for eps in (1e75, 1e80, 1e100, 1e160):
        eps_list = [0.5, eps, 1.0]
        with pytest.raises(ValueError, match="not finite in float64") as scalar:
            scalar_rows(params, 2, eps_list)
        with pytest.raises(ValueError, match="not finite in float64") as batch:
            spectrum_grid(params, 2, eps_list)
        assert str(batch.value) == str(scalar.value)


def test_negative_eps_mid_list_raises_like_scalar_route():
    message = re.escape("eps must be >= 0, got -0.5")
    with pytest.raises(ValueError, match=message):
        scalar_rows(pseudo(), 2, [0.0, -0.5, 1.0])
    with pytest.raises(ValueError, match=message):
        spectrum_grid(pseudo(), 2, [0.0, -0.5, 1.0])


def test_negative_n_max_rejected():
    with pytest.raises(ValueError, match="n_max must be >= 0"):
        spectrum_grid(pseudo(), -1, [0.0])
