"""The record contract of the result types: ModelParams, EnergyLevel,
RejectedRoot and ChannelScalars are frozen, slotted dataclasses.  Copies
made by pickle, deepcopy and dataclasses.replace equal the original by repr
(which unlike == tells 0.0 from -0.0), no field can be assigned, and no
other name can be stored.  The records spectrum_grid builds are covered
too: they are set field by field and never run __init__.  Those need NumPy
and are left out without it; the rest of this module needs neither NumPy nor
hypothesis, so it runs on any supported interpreter."""

import copy
import dataclasses
import pickle

import pytest

from hostark.model import ModelParams, SymmetryKind
from hostark.spectra import (
    ChannelScalars, EnergyLevel, RejectedRoot, Status, solve_level, spectrum_grid,
)


def records():
    """One record of each type, with -0.0, complex and None fields among them."""
    params = ModelParams(M=1.5, omega0=1.0 / 2.4, q=-2.0, eps=0.5,
                         sym=SymmetryKind.PSEUDOSPIN, C=-10.3)
    bound = solve_level(params, 0)
    unbound = solve_level(ModelParams(M=0.92, omega0=0.13, eps=5.0,
                                      sym=SymmetryKind.PSEUDOSPIN, C=-39.1), 10)
    assert bound.status is Status.BOUND and unbound.status is Status.NO_PHYSICAL_ROOT
    return [params, ModelParams(M=2.0, omega0=0.5, eps=-0.0), bound, unbound,
            *bound.alternates, *unbound.alternates, RejectedRoot(complex(1.0, -0.0), "x"),
            bound.diagnostics, ChannelScalars(-0.0j, 1j, 0j, complex(-0.0, 2.0)),
            *grid_records()]


def grid_records():
    """A Bound and a NoPhysicalRoot level of spectrum_grid, one of their
    RejectedRoots and the Bound one's ChannelScalars; none without NumPy."""
    try:
        import numpy  # noqa: F401
    except ImportError:
        return []
    params = ModelParams(M=0.92, omega0=0.13, q=-2.0, sym=SymmetryKind.PSEUDOSPIN, C=-39.1)
    (_, bound), (_, unbound) = spectrum_grid(params, 10, [0.5, 5.0])[-2:]
    assert bound.status is Status.BOUND and unbound.status is Status.NO_PHYSICAL_ROOT
    return [bound, unbound, bound.alternates[0], unbound.alternates[-1], bound.diagnostics]


def test_each_record_type_is_covered():
    kinds = {type(r) for r in records()}
    assert kinds == {ModelParams, EnergyLevel, RejectedRoot, ChannelScalars}


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_copies_equal_the_original(record):
    copies = [pickle.loads(pickle.dumps(record, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.deepcopy(record), copy.copy(record), dataclasses.replace(record)]
    for other in copies:
        assert type(other) is type(record)
        assert repr(other) == repr(record)
        assert other == record and hash(other) == hash(record)


@pytest.mark.parametrize("record", records(), ids=lambda r: type(r).__name__)
def test_records_are_frozen_and_slotted(record):
    assert not hasattr(record, "__dict__")
    before = repr(record)
    for field in dataclasses.fields(record):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, field.name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(record, field.name)
    # a name without a slot must raise, never be stored (CPython 3.10-3.13
    # raise TypeError from the generated __setattr__)
    with pytest.raises((TypeError, AttributeError)):
        record.extra = 1
    assert not hasattr(record, "extra")
    assert repr(record) == before

