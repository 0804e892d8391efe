"""The defect ledger at full size: every count at or below its pin."""

import pytest

import ledger


@pytest.fixture(scope="module")
def counts():
    return ledger.ledger()


def test_every_defect_count_is_at_or_below_its_pin(counts):
    found = {(entry, channel, name): count
             for entry, channels in counts.items()
             for channel, per_channel in channels.items()
             for name, count in per_channel.items() if name != "bound"}
    over = {key: (count, ledger.PINS.get(key, 0)) for key, count in found.items()
            if count > ledger.PINS.get(key, 0)}
    assert not over, over
    # every defect pinned above 0 still shows, so a pin cannot go stale unseen
    assert {key for key, count in found.items() if count} == set(ledger.PINS)


def test_sampling_failures_are_only_the_levels_without_shape_constants(counts):
    # no Bound level of the sampling recipe overflows; those left have m1 <= 0
    for per_channel in counts["sampling_failures"].values():
        failures = {name: count for name, count in per_channel.items() if ":" in name}
        assert all(name.endswith("ConstantsUndefined (m1 <= 0)") for name in failures), failures
        assert all(count == per_channel["m1 <= 0"] for count in failures.values())
