"""Field-drift regression for :class:`repro.flash.stats.FlashStats`.

``snapshot()``/``delta()`` historically risked silently missing counters
added later (a hand-maintained field list).  Both are now driven by
``dataclasses.fields()``; these tests pin that property by exercising
*every* field with a distinct value, so reintroducing an explicit list
that misses one field fails immediately.  The obs export is held to the
same standard: every FlashStats and DeviceCounters field is read by the
registry under exactly one name.
"""

from dataclasses import fields

from repro.device.ssd import StorageDevice
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.flash.stats import FlashStats
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.obs import Observability

# Distinct nonzero primes per field position: any copied/diffed field that
# is dropped or crossed with another shows up as an exact-value mismatch.
_PRIMES = [
    2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
    67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131,
]


def _distinct() -> FlashStats:
    stats = FlashStats()
    for i, f in enumerate(fields(FlashStats)):
        setattr(stats, f.name, _PRIMES[i])
    return stats


def test_enough_probe_values():
    assert len(fields(FlashStats)) <= len(_PRIMES)


def test_snapshot_copies_every_field():
    stats = _distinct()
    snap = stats.snapshot()
    assert snap == stats
    assert snap is not stats


def test_snapshot_is_independent():
    stats = _distinct()
    snap = stats.snapshot()
    for f in fields(FlashStats):
        setattr(stats, f.name, getattr(stats, f.name) + 1000)
    # The snapshot must not move with the live accumulator — for any field.
    for f in fields(FlashStats):
        assert getattr(snap, f.name) == getattr(stats, f.name) - 1000, f.name


def test_delta_covers_every_field():
    earlier = _distinct()
    later = earlier.snapshot()
    for i, f in enumerate(fields(FlashStats)):
        setattr(later, f.name, getattr(later, f.name) + 10 * (i + 1))
    diff = later.delta(earlier)
    for i, f in enumerate(fields(FlashStats)):
        assert getattr(diff, f.name) == 10 * (i + 1), f.name


def test_as_dict_covers_every_field():
    stats = _distinct()
    as_dict = stats.as_dict()
    assert set(as_dict) == {f.name for f in fields(FlashStats)}
    for f in fields(FlashStats):
        assert as_dict[f.name] == getattr(stats, f.name)


def test_every_field_has_one_obs_name():
    """Adding a FlashStats or DeviceCounters field exports it under exactly
    one obs name, and ``counters()`` reports the field's live value."""
    assert sorted(FlashStats.OBS_NAMES.values()) == sorted(f.name for f in fields(FlashStats))
    obs = Observability(enabled=True)
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=32), obs=obs)
    device = StorageDevice(PageMappingFTL(chip, FtlConfig(overprovision=0.25)))
    for offset in (0, 1000):  # the second pass proves the values are read live
        values = {}
        for record, base in ((chip.stats, offset), (device.counters, offset + 500)):
            for i, f in enumerate(fields(record)):
                setattr(record, f.name, base + _PRIMES[i])
                values[(type(record).__name__, f.name)] = base + _PRIMES[i]
        counters = obs.registry.counters()
        for key, value in values.items():
            names = [name for name, got in counters.items() if got == value]
            assert len(names) == 1, (key, names)
