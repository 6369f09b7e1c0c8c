"""Multi-version X-L2P: version chains, AS-OF reads, and the retain=1 pin.

Four concerns, bottom to top:

- :class:`~repro.ftl.xl2p.VersionedL2P` unit semantics — chain order,
  depth bound, floor pinning, the release protocol;
- :class:`~repro.ftl.xftl.XFTL` AS-OF reads end to end — publish on
  commit and plain overwrite, clamping, trim, power-cycle restoration;
- the **retain=1 pin**: ``retain_versions=1`` (the default) publishes no
  commit-sequence epochs at all (its counters, clock and flash state
  arrays are pinned by ``channel_baseline.json``'s ``synthetic.xftl`` row);
- the stack-level acceptance shape: an AS-OF reader holds an unchanging
  snapshot while four writer sessions group-commit around it (crash
  injection for the same shape lives in the ``ftl.mvcc`` verify layer).
"""

import pytest

from repro.errors import DatabaseError, TransactionError
from repro.flash import FlashChip, FlashGeometry
from repro.ftl import FtlConfig, PageMappingFTL, XFTL
from repro.ftl.pagemap import UNMAPPED
from repro.ftl.xl2p import VersionedL2P
from repro.stack import Mode, SessionScheduler, StackConfig, build_stack


def make_xftl(**cfg) -> XFTL:
    geo = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24)
    defaults = dict(
        overprovision=0.25,
        map_entries_per_page=16,
        barrier_meta_pages=1,
        xl2p_capacity=64,
    )
    defaults.update(cfg)
    return XFTL(FlashChip(geo), FtlConfig(**defaults))


# --------------------------------------------------------- VersionedL2P unit


class TestVersionedL2P:
    def test_requires_depth_of_two(self):
        with pytest.raises(ValueError):
            VersionedL2P(1)

    def test_push_resolve_and_bound(self):
        chains = VersionedL2P(3)  # bound: 2 retained old versions
        assert chains.push(7, 100, sup_seq=1, oob_seq=10) == []
        assert chains.push(7, 101, sup_seq=2, oob_seq=11) == []
        # Third push exceeds the bound: the oldest entry is released.
        assert chains.push(7, 102, sup_seq=3, oob_seq=12) == [100]
        assert chains.chain(7) == ((101, 2, 11), (102, 3, 12))
        # A snapshot at seq 1 reads the copy superseded at seq 2 ...
        assert chains.resolve(7, 1) == 101
        assert chains.resolve(7, 2) == 102
        # ... and one at/after the newest supersession reads current.
        assert chains.resolve(7, 3) is None
        # Prehistoric snapshots clamp to the oldest retained copy.
        assert chains.resolve(7, 0) == 101
        assert len(chains) == 2

    def test_push_out_of_order_rejected(self):
        chains = VersionedL2P(4)
        chains.push(0, 50, sup_seq=5, oob_seq=1)
        with pytest.raises(TransactionError):
            chains.push(0, 51, sup_seq=4, oob_seq=2)

    def test_floor_pins_past_the_bound(self):
        chains = VersionedL2P(2)  # bound: 1
        chains.floor = 0  # an active snapshot pinned before any supersession
        assert chains.push(3, 100, sup_seq=1, oob_seq=10) == []
        assert chains.push(3, 101, sup_seq=2, oob_seq=11) == []  # pinned
        assert chains.push(3, 102, sup_seq=3, oob_seq=12) == []  # pinned
        assert len(chains.chain(3)) == 3
        # Raising the floor re-trims: entries superseded at or before the
        # floor are invisible to every remaining snapshot (resolve needs
        # sup_seq strictly greater), so both older copies go.
        released = chains.set_floor(2)
        assert released == {3: [100, 101]}
        # Dropping the last reader trims back to the plain bound.
        assert chains.set_floor(None) == {}
        assert chains.chain(3) == ((102, 3, 12),)

    def test_release_lpn_drops_whole_chain(self):
        chains = VersionedL2P(3)
        chains.push(9, 100, sup_seq=1, oob_seq=10)
        chains.push(9, 101, sup_seq=2, oob_seq=11)
        assert chains.release_lpn(9) == [100, 101]
        assert chains.chain(9) == ()
        assert chains.release_lpn(9) == []

    def test_relocate_preserves_order_and_identity(self):
        chains = VersionedL2P(3)
        chains.push(4, 100, sup_seq=1, oob_seq=10)
        chains.push(4, 101, sup_seq=2, oob_seq=11)
        chains.relocate(4, 100, 200)
        assert chains.chain(4) == ((200, 1, 10), (101, 2, 11))
        assert chains.oob_seq_of(4, 200) == 10
        with pytest.raises(TransactionError):
            chains.relocate(4, 100, 300)  # old ppn no longer in the chain

    def test_chains_in_covers_exactly_the_lpn_range(self):
        chains = VersionedL2P(3)
        assert chains.chains_in(0, 16) == ()
        chains.push(1, 100, sup_seq=1, oob_seq=10)
        chains.push(16, 101, sup_seq=2, oob_seq=11)
        assert chains.chains_in(0, 16) == ((1, ((100, 1, 10),)),)
        assert chains.chains_in(16, 32) == ((16, ((101, 2, 11),)),)


# ----------------------------------------------------------- FTL-level AS-OF


class TestReadAsOf:
    def _commit(self, ftl, tid, lpn, value):
        ftl.write_tx(tid, lpn, value)
        ftl.commit(tid)

    def test_snapshot_epochs_and_historical_reads(self):
        ftl = make_xftl(retain_versions=3)
        assert ftl.snapshot_seq() == 0
        for tid, value in enumerate(("v1", "v2", "v3"), start=1):
            self._commit(ftl, tid, 0, value)
        assert ftl.snapshot_seq() == 3
        # Snapshot seq N is the state after commit N.
        assert ftl.read_as_of(0, 1) == "v1"
        assert ftl.read_as_of(0, 2) == "v2"
        assert ftl.read_as_of(0, 3) == "v3"
        # Prehistoric snapshots clamp to the oldest retained version.
        assert ftl.read_as_of(0, 0) == "v1"
        assert ftl.retained_version_count() == 2

    def test_plain_overwrites_publish_versions_too(self):
        ftl = make_xftl(retain_versions=2)
        ftl.write(5, "old")
        # A first write supersedes nothing: no version, no epoch tick.
        assert ftl.snapshot_seq() == 0
        ftl.write(5, "new")
        assert ftl.snapshot_seq() == 1
        assert ftl.read_as_of(5, 0) == "old"
        assert ftl.read_as_of(5, 1) == "new"

    def test_depth_bound_limits_history(self):
        ftl = make_xftl(retain_versions=2)  # one retained old version
        for tid, value in enumerate(("a", "b", "c"), start=1):
            self._commit(ftl, tid, 0, value)
        # seq 1's copy fell off the chain; the read clamps forward.
        assert ftl.read_as_of(0, 1) == "b"
        assert ftl.read_as_of(0, 2) == "b"
        assert ftl.read_as_of(0, 3) == "c"

    def test_snapshot_floor_pins_reclamation(self):
        ftl = make_xftl(retain_versions=2)
        self._commit(ftl, 1, 0, "pinned")
        snap = ftl.snapshot_seq()
        ftl.set_snapshot_floor(snap)
        for tid, value in enumerate(("x", "y", "z"), start=2):
            self._commit(ftl, tid, 0, value)
        # Three supersessions later the pinned epoch is still exact.
        assert ftl.read_as_of(0, snap) == "pinned"
        ftl.set_snapshot_floor(None)
        # With the reader gone the chain trims back to the bound.
        assert ftl.read_as_of(0, snap) == "y"
        ftl.check_invariants()

    def test_trim_releases_the_chain(self):
        ftl = make_xftl(retain_versions=3)
        self._commit(ftl, 1, 0, "v1")
        self._commit(ftl, 2, 0, "v2")
        ftl.trim(0)
        assert ftl.read(0) is None
        assert ftl.version_chain(0) == ()
        ftl.check_invariants()

    def test_chains_survive_a_power_cycle(self):
        ftl = make_xftl(retain_versions=3)
        for tid, value in enumerate(("v1", "v2", "v3"), start=1):
            self._commit(ftl, tid, 0, value)
        ftl.barrier()
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        assert ftl.snapshot_seq() == 3
        assert ftl.read_as_of(0, 1) == "v1"
        assert ftl.read_as_of(0, 2) == "v2"
        assert ftl.read(0) == "v3"

    def test_segment_image_carries_exactly_its_own_chains(self):
        ftl = make_xftl(retain_versions=3)
        tid = 0
        for lpn in (0, 5, 16):  # segments 0, 0, 1 (16 entries per map page)
            for value in ("v1", "v2", "v3"):
                tid += 1
                self._commit(ftl, tid, lpn, value)
        ftl.barrier()
        before = {lpn: ftl.version_chain(lpn) for lpn in (0, 5, 16)}
        assert all(len(chain) == 2 for chain in before.values())
        images = {seg: ftl.chip.peek(ftl._map_dir[seg]) for seg in (0, 1)}
        assert images[0][1] == ((0, before[0]), (5, before[5]))
        assert images[1][1] == ((16, before[16]),)
        mapped = [ftl.mapped_ppn(0)] + [UNMAPPED] * 4 + [ftl.mapped_ppn(5)]
        assert list(images[0][0][:6]) == mapped
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        assert {lpn: ftl.version_chain(lpn) for lpn in (0, 5, 16)} == before
        # lpn 5 was committed at sequences 4, 5 and 6.
        assert ftl.read_as_of(5, 4) == "v1"
        assert ftl.read_as_of(5, 5) == "v2"


# --------------------------------------------------------- retain=1 identity


class TestRetainOneBitIdentity:
    def test_retain_one_publishes_no_epochs(self):
        ftl = make_xftl()  # retain_versions defaults to 1
        ftl.write_tx(1, 0, "a")
        ftl.commit(1)
        ftl.write(0, "b")
        assert ftl.snapshot_seq() == 0  # the counter never ticks
        assert ftl.retained_version_count() == 0
        assert ftl.version_chain(0) == ()
        # AS-OF reads degrade to current reads (no history exists).
        assert ftl.read_as_of(0, 0) == "b"


# -------------------------------------------- stack-level snapshot isolation


def _stack(retain: int = 4):
    return build_stack(
        StackConfig(
            mode=Mode.XFTL,
            num_blocks=256,
            pages_per_block=64,
            ftl=FtlConfig(retain_versions=retain),
        )
    )


class TestSqlSnapshots:
    def _seeded_db(self, stack, name="t.db", rows=6):
        db = stack.open_database(name)
        db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
        db.begin()
        for row in range(rows):
            db.execute("INSERT INTO t VALUES (?, ?)", (row, "base"))
        db.commit()
        return db

    def test_begin_snapshot_statement_is_a_read_only_view(self):
        stack = _stack()
        db = self._seeded_db(stack)
        db.execute("BEGIN SNAPSHOT")
        assert db.snapshot_seq is not None
        assert stack.fs.txn_manager.oldest_snapshot() == db.snapshot_seq
        rows = db.execute("SELECT a, b FROM t ORDER BY a")
        assert [b for _a, b in rows] == ["base"] * 6
        with pytest.raises(DatabaseError):
            db.execute("UPDATE t SET b = 'nope' WHERE a = 0")
        db.execute("COMMIT")
        assert db.snapshot_seq is None
        assert stack.fs.txn_manager.oldest_snapshot() is None

    def test_read_as_of_returns_the_historical_table(self):
        stack = _stack()
        db = self._seeded_db(stack)
        past = stack.device.snapshot_seq()
        for round_ in range(3):
            db.begin()
            for row in range(6):
                db.execute(
                    "UPDATE t SET b = ? WHERE a = ?", (f"r{round_}", row)
                )
            db.commit()
        with db.read_as_of(past):
            rows = db.execute("SELECT a, b FROM t ORDER BY a")
            assert [b for _a, b in rows] == ["base"] * 6
        rows = db.execute("SELECT a, b FROM t ORDER BY a")
        assert [b for _a, b in rows] == ["r2"] * 6
        stack.ftl.check_invariants()

    def test_asof_reader_stable_across_four_group_committing_writers(self):
        """The acceptance shape, minus crash injection (verify covers that):
        a pinned reader's view must not move while four writer sessions
        group-commit updates over it."""
        stack = _stack()
        scheduler = SessionScheduler(stack)
        writers = []
        for index in range(4):
            session = stack.open_session(name=f"w{index}")
            db = session.open_database(f"db{index}.db")
            db.execute("CREATE TABLE t (a INTEGER PRIMARY KEY, b TEXT)")
            db.begin()
            for row in range(6):
                db.execute("INSERT INTO t VALUES (?, ?)", (row, "base"))
            db.commit()
            scheduler.prepare(db)
            writers.append(db)

        reader = stack.open_database("db0.db")
        reader.begin_snapshot()
        observed = []

        def reader_task():
            for _ in range(18):
                observed.append(
                    [b for _a, b in reader.execute("SELECT a, b FROM t ORDER BY a")]
                )
                yield None

        def writer_task(index, db):
            for n in range(6):
                db.begin()
                db.execute(
                    "UPDATE t SET b = ? WHERE a = ?", (f"v{n}", n % 6)
                )
                db.commit()
                yield scheduler.commit_token(db)

        scheduler.run(
            [reader_task()]
            + [writer_task(index, db) for index, db in enumerate(writers)]
        )
        # Writers really did commit in groups around the pinned reader ...
        assert scheduler.groups_committed > 0
        assert scheduler.transactions_grouped == 24
        assert stack.ftl.retained_version_count() > 0
        # ... and every probe of the snapshot saw the unchanged view.
        assert observed and all(probe == ["base"] * 6 for probe in observed)
        reader.commit()  # release the pin
        assert stack.fs.txn_manager.oldest_snapshot() is None
        # A fresh (current) read now sees writer 0's final updates.
        rows = reader.execute("SELECT a, b FROM t ORDER BY a")
        assert [b for _a, b in rows] == ["v0", "v1", "v2", "v3", "v4", "v5"]
        stack.ftl.check_invariants()


# ----------------------------------------------- trim-then-crash regression


class TestTrimCrashRecovery:
    def test_stale_persisted_mapping_of_trimmed_lpn_is_dropped(self):
        """Regression: a barrier persists lpn->ppn, the lpn is trimmed, GC
        erases the old page, then power fails before another barrier.  The
        remount must not re-adopt the erased page from the stale persisted
        mapping (it used to claim it as owned-but-unprogrammed)."""
        geo = FlashGeometry(page_size=512, pages_per_block=8, num_blocks=24)
        ftl = PageMappingFTL(
            FlashChip(geo),
            FtlConfig(
                overprovision=0.25, map_entries_per_page=16, barrier_meta_pages=1
            ),
        )
        span = min(ftl.exported_pages, 48)
        for lpn in range(span):
            ftl.write(lpn, ("base", lpn))
        ftl.barrier()  # persists the mapping, lpn 0 included
        ftl.trim(0)
        # Churn every other lpn until GC has certainly erased lpn 0's old
        # block; no barrier, so the persisted mapping still names it.
        for round_ in range(4):
            for lpn in range(1, span):
                ftl.write(lpn, ("churn", round_, lpn))
        assert ftl.stats.block_erases > 0
        ftl.power_fail()
        ftl.remount()
        ftl.check_invariants()
        # The trim itself was not durable; the lpn may resurface only as
        # its last barriered content, never as garbage or a crash.
        assert ftl.read(0) in (None, ("base", 0))
        for lpn in range(1, span):
            assert ftl.read(lpn) == ("churn", 3, lpn)
