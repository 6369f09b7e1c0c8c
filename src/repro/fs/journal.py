"""JBD2-style block journal (ordered and full-data journaling).

The journal occupies a fixed region of logical pages.  Each file-system
transaction is framed as::

    [descriptor page] [block image page]* [commit page]

A transaction is only valid at replay if both its descriptor and its commit
page are present — the commit page is an *ordered write* (frame body before
it, everything later after it), which is what makes the frame atomic.  The
journal states that intent and nothing more; what the order costs is the
device's business: two flush barriers on a drain device (§3.2, §6.3.4:
ordered journaling costs two barriers per fsync), none on a barrier-enabled
one, where the commit page rides a BARRIER_WRITE.

Checkpointing writes the journaled images to their home locations and
retires the transactions; the retire point is recorded, again as an ordered
write, in a ping-pong pair of journal-superblock pages so that a torn
journal-superblock write can never lose both copies.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Any, Callable

from repro.errors import CorruptionError, FsError
from repro.obs import DEFAULT_SIZE_BOUNDS, NULL_OBS, Observability

JSB_SLOTS = 2  # ping-pong journal superblocks at region offsets 0 and 1


class Jbd2Journal:
    """Circular page journal over a device lpn range.

    ``write_page(lpn, image)`` and ``write_ordered(lpn, image)`` are
    injected so the journal charges I/O through the file system's
    accounting.  ``write_ordered`` must order every earlier write before
    the page and every later write after it
    (:meth:`StorageDevice.write_barrier <repro.device.ssd.StorageDevice.write_barrier>`);
    commit pages and journal superblocks go through it.
    """

    def __init__(
        self,
        region_start: int,
        region_pages: int,
        write_page: Callable[[int, Any], None],
        read_page: Callable[[int], Any],
        write_ordered: Callable[[int, Any], None],
        write_home: Callable[[int, Any], None],
        obs: Observability = NULL_OBS,
    ) -> None:
        if region_pages < JSB_SLOTS + 4:
            raise FsError(f"journal region too small: {region_pages} pages")
        self.region_start = region_start
        self.region_pages = region_pages
        self._write_page = write_page
        self._read_page = read_page
        self._write_ordered = write_ordered
        self._write_home = write_home
        self._obs = obs
        self._obs_frame_pages = obs.histogram("fs.journal.frame_pages", DEFAULT_SIZE_BOUNDS)

        self._log_start = region_start + JSB_SLOTS
        self._log_pages = region_pages - JSB_SLOTS
        self._head = 0  # offset into the log area
        self._next_txid = 1
        self._retired_txid = 0
        self._jsb_version = 0
        # Home-location images awaiting checkpoint (latest image wins).
        self._pending: "OrderedDict[int, Any]" = OrderedDict()
        self.transactions_committed = 0
        self.checkpoints = 0
        obs.registry.bind(
            self,
            {
                "fs.journal.commits": "transactions_committed",
                "fs.journal.checkpoints": "checkpoints",
            },
        )

    # ----------------------------------------------------------------- API

    @property
    def pending_count(self) -> int:
        return len(self._pending)

    def pending_image(self, lpn: int) -> Any | None:
        """Journaled-but-not-checkpointed image for a home lpn, if any."""
        return self._pending.get(lpn)

    def free_log_pages(self) -> int:
        return self._log_pages - self._head

    def commit(self, records: list[tuple[int, Any]]) -> int:
        """Journal one transaction: descriptor, images, ordered commit page.

        ``records`` is a list of ``(home_lpn, image)``.  Returns the txid.
        Triggers a checkpoint first if the log lacks room for the frame.
        """
        frame_pages = len(records) + 2
        if frame_pages > self._log_pages:
            raise FsError(f"transaction of {len(records)} blocks exceeds journal size")
        if self.free_log_pages() < frame_pages:
            self.checkpoint()

        txid = self._next_txid
        self._next_txid += 1
        with self._obs.tracer.span("journal_commit", "fs", tid=txid):
            targets = tuple(lpn for lpn, _image in records)
            self._append(self._write_page, ("jdesc", txid, targets))
            for lpn, image in records:
                self._append(self._write_page, ("jblock", txid, lpn, image))
            self._append(self._write_ordered, ("jcommit", txid))
        for lpn, image in records:
            self._pending.pop(lpn, None)
            self._pending[lpn] = image
        self.transactions_committed += 1
        self._obs_frame_pages.observe(float(frame_pages))
        return txid

    def checkpoint(self) -> None:
        """Write pending images home, retire all transactions, reset the log."""
        for lpn, image in self._pending.items():
            self._write_home(lpn, image)
        self._pending.clear()
        self._retired_txid = self._next_txid - 1
        self._head = 0
        self._write_jsb()
        self.checkpoints += 1

    def restore_position(self, retired_txid: int, max_txid: int) -> None:
        """Resume txid numbering after a mount-time replay."""
        self._retired_txid = retired_txid
        self._next_txid = max_txid + 1

    # ------------------------------------------------------------ internals

    def _append(self, write: Callable[[int, Any], None], image: Any) -> None:
        if self._head >= self._log_pages:
            raise FsError("journal log overflow")
        write(self._log_start + self._head, image)
        self._head += 1

    def _write_jsb(self) -> None:
        """Ping-pong journal superblock: a torn write can't lose both.

        Ordered: the home writes land before the retire record, and the
        record before anything that reuses the log.
        """
        self._jsb_version += 1
        slot = self._jsb_version % JSB_SLOTS
        image = ("jsb", self._jsb_version, self._retired_txid)
        self._write_ordered(self.region_start + slot, image)

    # ------------------------------------------------------------- recovery

    @classmethod
    def replay(
        cls,
        region_start: int,
        region_pages: int,
        read_page: Callable[[int], Any],
    ) -> tuple[int, int, list[tuple[int, Any]]]:
        """Scan a journal region, return ``(retired_txid, max_txid, home_writes)``.

        ``home_writes`` lists the ``(lpn, image)`` pairs of every *complete*
        unretired transaction, in commit order — the caller writes them to
        their home locations.  Incomplete frames are ignored (their effects
        never happened).
        """
        retired_txid = 0
        best_version = -1
        for slot in range(JSB_SLOTS):
            try:
                image = read_page(region_start + slot)
            except CorruptionError:
                continue  # torn jsb: the other slot is intact
            if not image or image[0] != "jsb":
                continue
            _tag, version, retired = image
            if version > best_version:
                best_version = version
                retired_txid = retired

        frames: dict[int, dict[str, Any]] = {}
        for offset in range(JSB_SLOTS, region_pages):
            try:
                image = read_page(region_start + offset)
            except CorruptionError:
                continue  # torn journal page: its frame can't be complete
            if not image:
                continue
            tag = image[0]
            if tag == "jdesc":
                frames.setdefault(image[1], {})["desc"] = image[2]
            elif tag == "jblock":
                frames.setdefault(image[1], {}).setdefault("blocks", []).append(
                    (image[2], image[3])
                )
            elif tag == "jcommit":
                frames.setdefault(image[1], {})["committed"] = True

        home_writes: list[tuple[int, Any]] = []
        max_txid = retired_txid
        for txid in sorted(frames):
            if txid > max_txid:
                max_txid = txid
            if txid <= retired_txid:
                continue
            frame = frames[txid]
            if "desc" not in frame or not frame.get("committed"):
                continue
            blocks = frame.get("blocks", [])
            if len(blocks) != len(frame["desc"]):
                continue  # partially written body: treat as uncommitted
            home_writes.extend(blocks)
        return retired_txid, max_txid, home_writes
