"""The reverse map: ``PageMappingFTL._owner`` and its per-block counts.

The ppn-indexed owner table (one integer per page: an lpn, ``DEAD``, or a
negative code whose key sits in ``_owner_detail``) is the FTL's only
liveness state (a page is live iff the L2P or another mapping structure
references it), so it is checked here the way the L2P is: a randomized
property over every FTL kind and collection schedule, direct tests of the
three verbs' contracts, and one sabotage per direction of the "referenced
<=> owned" invariant.
"""

from __future__ import annotations

import pytest

from repro.errors import FtlError, TransactionError
from repro.flash.chip import FlashChip
from repro.flash.geometry import FlashGeometry
from repro.ftl import XFTL
from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import DEAD, OWNER_VERSION, OWNER_XL2P_DATA, PageMappingFTL
from repro.sim.rng import make_rng

from tests.test_ftl_gc import make_bg_ftl, make_bg_xftl

# 24 blocks x 8 pages on two channels with most of the space live — mapped
# lpns, or a third as many lpns plus two retained versions of each — so
# every schedule collects within the first few dozen overwrites.
KINDS = {
    "pagemap": (0.85, lambda **cfg: make_bg_ftl(num_blocks=24, **cfg)),
    "xftl": (0.85, lambda **cfg: make_bg_xftl(num_blocks=24, **cfg)),
    "xftl-retain3": (
        0.3, lambda **cfg: make_bg_xftl(num_blocks=24, retain_versions=3, **cfg)
    ),
}
SCHEDULES = {
    "inline": dict(gc_mode="inline", gc_policy="greedy"),
    "background": dict(gc_mode="background", gc_policy="cost-benefit"),
}


def check_reverse_map(ftl) -> None:
    ftl.check_invariants()
    per = ftl.chip.geometry.pages_per_block
    owners = ftl._owner
    assert type(owners) is list and all(type(owner) is int for owner in owners)
    assert len(owners) == ftl.chip.geometry.total_pages
    live = [owner != DEAD for owner in owners]
    for block, count in enumerate(ftl._valid_count):
        assert count == sum(live[block * per : (block + 1) * per]), f"block {block}"
    assert ftl.utilization() == sum(live) / len(live)


@pytest.mark.parametrize("schedule", sorted(SCHEDULES))
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_owner_table_tracks_every_mapping_change(kind, schedule):
    fill, build = KINDS[kind]
    ftl = build(**SCHEDULES[schedule])
    transactional = isinstance(ftl, XFTL)
    rng = make_rng(0, "test.ftl_ownership", kind, schedule)
    span = int(ftl.exported_pages * fill)
    for lpn in range(span):
        ftl.write(lpn, ("fill", lpn))
    check_reverse_map(ftl)
    open_tids: dict[int, set[int]] = {}
    next_tid = 1
    # A trim leaves nothing in OOB: it is durable at the next barrier.
    trimmed_since_barrier: set[int] = set()
    for step in range(400):
        roll = rng.random()
        if roll < 0.40 or (roll < 0.86 and not transactional):
            ftl.write(rng.randrange(span), ("w", step))
        elif roll < 0.46:
            lpn = rng.randrange(span)
            ftl.trim(lpn)
            trimmed_since_barrier.add(lpn)
        elif roll < 0.70:
            if open_tids and (len(open_tids) == 2 or rng.random() < 0.7):
                tid = rng.choice(sorted(open_tids))
            else:
                tid, next_tid = next_tid, next_tid + 1
                open_tids[tid] = set()
            if len(open_tids[tid]) < 4:
                lpn = rng.randrange(span)
                ftl.write_tx(tid, lpn, ("tx", tid, step))
                open_tids[tid].add(lpn)
        elif roll < 0.80:
            if open_tids:
                ftl.commit(open_tids.popitem()[0])
        elif roll < 0.86:
            if open_tids:
                ftl.abort(open_tids.popitem()[0])
        elif roll < 0.95:
            ftl.barrier()
            trimmed_since_barrier.clear()
        else:
            before = [ftl.read(lpn) for lpn in range(span)]
            ftl.power_fail()
            assert ftl._owner.count(DEAD) == len(ftl._owner) and not ftl._owner_detail
            assert not any(ftl._valid_count)
            ftl.remount()
            open_tids.clear()
            # Nothing was in flight, so the power cycle changes no read.
            changed = {
                lpn: (was, ftl.read(lpn))
                for lpn, was in enumerate(before)
                if lpn not in trimmed_since_barrier and ftl.read(lpn) != was
            }
            assert not changed, f"step {step}: power cycle changed {changed}"
            trimmed_since_barrier.clear()
        check_reverse_map(ftl)
    assert ftl.stats.gc_copyback_writes > 0  # the collector moved owned pages


class TestVerbs:
    def test_owning_an_owned_page_raises(self):
        ftl = make_bg_ftl()
        ftl.write(0, b"x")
        ppn = ftl.mapped_ppn(0)
        with pytest.raises(FtlError, match=f"ppn {ppn} already owned"):
            ftl._own(ppn, 1)
        assert ftl._owner[ppn] == 0
        ftl.check_invariants()

    def test_recovery_claim_overwrites_without_double_counting(self):
        ftl = make_bg_ftl()
        ftl.write(0, b"x")
        ppn = ftl.mapped_ppn(0)
        before = list(ftl._valid_count)
        ftl._own_for_recovery(ppn, 0)
        assert ftl._valid_count == before

    def test_disown_is_idempotent(self):
        ftl = make_bg_ftl()
        ftl.write(0, b"x")
        ppn = ftl.mapped_ppn(0)
        ftl._disown(ppn)
        ftl._disown(ppn)
        assert ftl._owner[ppn] == DEAD and sum(ftl._valid_count) == 0

    def test_plain_write_on_a_versioned_xftl_is_its_own_commit(self):
        """XFTL defines no write(): the inherited one reaches the version
        chain through the _supersede hook."""
        assert "write" not in vars(XFTL)
        ftl = make_bg_xftl(retain_versions=3)
        ftl.write(5, b"v0")
        first = ftl.mapped_ppn(5)
        assert ftl.snapshot_seq() == 0 and ftl.version_chain(5) == ()
        ftl.write(5, b"v1")
        assert ftl.snapshot_seq() == 1  # the overwrite ticked the commit counter
        assert [entry[:2] for entry in ftl.version_chain(5)] == [(first, 1)]
        assert ftl._owner[first] == OWNER_VERSION and ftl._owner_detail[first] == 5
        second = ftl.mapped_ppn(5)
        ftl.write(5, b"v2")
        assert ftl.snapshot_seq() == 2
        assert [entry[:2] for entry in ftl.version_chain(5)] == [(first, 1), (second, 2)]
        assert ftl.read(5) == b"v2" and ftl.read_as_of(5, 0) == b"v0"
        assert ftl.stats.host_page_writes == 3
        ftl.check_invariants()


#: A shrunk random stream (``w`` write, ``t`` trim, ``b`` barrier, ``p``
#: power cycle) after which remount mapped trimmed lpn 164 to another lpn's
#: page: the first remount dropped 164's stale entry but then reset the dirty
#: set, so the drop was never persisted; once a barrier had persisted the
#: page's new owner, the next remount kept the stale entry because "another
#: owner holds the page" was read as "keep it" instead of "it is stale".
TRIMMED_LPN_STREAM = """
w39 w11 w19 w5 w33 b t188 t106 b w86 t70 w164 w45 b w3 w3 w186 w116 w134 w39 w142 b
w106 w32 w15 w158 w45 w146 w25 w82 w37 w4 w19 w45 w74 w17 w45 w41 w30 w50 w130 w152
w86 w174 w6 p b t31 w33 w58 b w17 b w1 w66 w136 w20 w29 p w35 t164 w112 w23 p b p
"""


TRIM_VARIANTS = ["pagemap", "xftl-retain2", "cmt"]


def _trim_ftl(variant: str) -> PageMappingFTL:
    """Inline greedy GC on 2 channels x 20 blocks x 8 pages, 80 % filled."""
    chip = FlashChip(FlashGeometry(page_size=512, pages_per_block=8, num_blocks=40, channels=2))
    config = dict(
        overprovision=0.25,
        map_entries_per_page=16,
        barrier_meta_pages=1,
        gc_mode="inline",
        gc_policy="greedy",
    )
    if variant == "xftl-retain2":
        ftl = XFTL(chip, FtlConfig(**config, retain_versions=2))
    else:
        ftl = PageMappingFTL(chip, FtlConfig(**config, cmt_pages=2 if variant == "cmt" else 0))
    for lpn in range(int(ftl.exported_pages * 0.8)):
        ftl.write(lpn, ("fill", lpn))
    return ftl


@pytest.mark.parametrize("variant", TRIM_VARIANTS)
def test_remount_never_maps_a_trimmed_lpn_to_another_lpns_page(variant):
    ftl = _trim_ftl(variant)
    for step, op in enumerate(TRIMMED_LPN_STREAM.split()):
        if op[0] == "w":
            ftl.write(int(op[1:]), ("w", int(op[1:]), step))
        elif op[0] == "t":
            ftl.trim(int(op[1:]))
        elif op == "b":
            ftl.barrier()
        else:
            ftl.power_fail()
            ftl.remount()
        ftl.check_invariants()
    assert ftl.stats.gc_invocations > 0  # GC reused trimmed pages
    # An unpersisted trim may be undone by a power cut; nothing may read
    # another lpn's data.
    for lpn in range(ftl.exported_pages):
        data = ftl.read(lpn)
        assert data is None or data[1] == lpn, f"lpn {lpn} reads {data}"


@pytest.mark.parametrize("barrier_after_trim", [True, False], ids=["trim-barrier", "trim"])
@pytest.mark.parametrize("variant", TRIM_VARIANTS)
def test_trimmed_page_reused_by_another_lpn_then_power_cycle(variant, barrier_after_trim):
    """Trim an lpn (then barrier, or not), let GC erase its block and hand
    its page to another lpn, then power-cycle: the trimmed lpn reads nothing
    and the page belongs to its new lpn alone."""
    ftl = _trim_ftl(variant)
    fill = int(ftl.exported_pages * 0.8)
    ftl.barrier()  # the root names the page the trim is about to free
    trimmed, page = 0, ftl.mapped_ppn(0)
    ftl.trim(trimmed)
    if barrier_after_trim:
        ftl.barrier()
    rng = make_rng(1, "test.ftl_ownership", "trim_reuse", variant)
    for step in range(4000):
        if ftl._owner[page] >= 0:
            break
        lpn = rng.randrange(1, fill)
        ftl.write(lpn, ("w", lpn, step))
    else:
        pytest.fail("GC never handed the trimmed lpn's page to another lpn")
    reused_by = ftl._owner[page]
    assert reused_by != trimmed and ftl.chip.read_oob(page)[1] == reused_by
    ftl.power_fail()
    ftl.remount()
    ftl.check_invariants()
    assert ftl.mapped_ppn(trimmed) is None and ftl.read(trimmed) is None
    assert ftl.mapped_ppn(reused_by) == page and ftl.read(reused_by)[1] == reused_by


class TestConverseInvariant:
    """owner[p] names a structure  =>  that structure references p."""

    def test_stale_l2p_owner_detected(self):
        ftl = make_bg_ftl()
        ftl.write(0, b"old")
        stale = ftl.mapped_ppn(0)
        ftl.write(0, b"new")
        # Resurrect the superseded copy's owner behind the FTL's back: GC
        # relocating it would overwrite l2p[0] with the old data.
        ftl._own(stale, 0)
        with pytest.raises(FtlError, match=rf"ppn {stale} owned by l2p\[0\], which maps to"):
            ftl.check_invariants()

    def test_stale_xl2p_owner_detected(self):
        ftl = make_bg_xftl()
        ftl.write_tx(7, 0, b"first")
        stale = ftl.xl2p.get(7, 0).new_ppn
        ftl.write_tx(7, 0, b"second")
        ftl._own(stale, OWNER_XL2P_DATA, (7, 0))
        with pytest.raises(TransactionError, match=f"ppn {stale} owned by X-L2P entry"):
            ftl.check_invariants()
        ftl._disown(stale)
        ftl.abort(7)
        ftl._own(stale, OWNER_XL2P_DATA, (7, 0))
        with pytest.raises(TransactionError, match="which is gone"):
            ftl.check_invariants()

    def test_detail_without_a_code_detected(self):
        ftl = make_bg_ftl()
        ftl.write(0, b"x")
        ftl._owner_detail[ftl.mapped_ppn(0)] = 0  # an L2P-owned page has no detail
        with pytest.raises(FtlError, match="owner details out of sync"):
            ftl.check_invariants()
