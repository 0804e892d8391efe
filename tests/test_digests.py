"""The bits of both solver routes on the benchmark's own draws.

The sha256 of the reprs of every spectrum_grid level over the seed-1 and
seed-8 `sweep` pools, and of every solve_level over the seed-1 `certify`
pool.  repr tells 0.0 from -0.0 and prints each float to its last bit, so a
digest moves with any bit of any level, alternate or diagnostic.  The draw
recipes repeat perfbench/workloads.py (which this suite does not import);
the digests move only on a referee verdict, as the golden files do.
"""

import hashlib
import random

import pytest

from hostark.model import ModelParams, SymmetryKind
from hostark.spectra import solve_level, spectrum_grid

SPIN, PSEUDOSPIN = SymmetryKind.SPIN, SymmetryKind.PSEUDOSPIN


def draw_params(rng, sym, eps=None):
    return ModelParams(
        M=rng.uniform(0.1, 10.0),
        omega0=rng.uniform(0.05, 5.0),
        eps=rng.uniform(0.0, 5.0) if eps is None else eps,
        sym=sym,
        C=rng.uniform(-40.0, 20.0),
    )


def sweep_pool(seed, size=64):
    """(params, eps_list) per grid: spin and pseudospin in turn, 100 sorted eps."""
    rng = random.Random(seed)
    pool = []
    for i in range(size):
        params = draw_params(rng, SPIN if i % 2 == 0 else PSEUDOSPIN, eps=0.0)
        pool.append((params, sorted(rng.uniform(0.0, 5.0) for _ in range(100))))
    return pool


def certify_pool(seed, size=4096):
    """(params, n) per level: one spin draw in four, n below 30."""
    rng = random.Random(seed)
    return [(draw_params(rng, SPIN if i % 4 == 0 else PSEUDOSPIN), rng.randrange(30))
            for i in range(size)]


def digest(reprs):
    h = hashlib.sha256()
    for text in reprs:
        h.update(text.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


SWEEP = {
    1: "1b634625c912b59f98800d3b8ec99c1c522f78aa2b5bbfb08becd8ab845a74ce",
    8: "2d3f3c97ea6b5e2cf2ef829ae9a15f84dc7f29e86e651bcbb60282c4249c4387",
}
CERTIFY_1 = "b1ab0bb14b8d523c0de073ba1891d9f6280f2968e210b0959395163ba42daebf"


@pytest.mark.parametrize("seed", sorted(SWEEP))
def test_spectrum_grid_bits_on_the_sweep_pool(seed):
    pytest.importorskip("numpy")
    assert digest(repr(level) for params, eps_list in sweep_pool(seed)
                  for _, level in spectrum_grid(params, 10, eps_list)) == SWEEP[seed]


def test_solve_level_bits_on_the_certify_pool():
    assert digest(repr(solve_level(params, n))
                  for params, n in certify_pool(1)) == CERTIFY_1
