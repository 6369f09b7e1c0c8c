"""The record codec runs for a spilled row and for nothing else.

A leaf cell keeps a row whose record fits ``max_local`` as the tuple it is
(``repro.sqlite.btree``, cell layout), so ``encode_record`` runs once per
write of a row that spills into overflow pages, ``decode_record`` once per
read of one, and neither runs otherwise: not at bind, not to size a key, not
for a row a cell keeps.  Counted here over the TPC-C loader and a short
write-intensive window, then the synthetic update generator, in RBJ, WAL and
X-FTL.  On 512-byte pages (``max_local`` 112) catalog rows and partsupply rows
spill, so both counts are busy; on the default page size, the one the
benchmark runs, nothing spills and the codec never runs.

The spilled rows are counted at the B-tree, apart from the codec: a write of
one is a cell whose chain ``_spill`` builds, a read of one a cell whose chain
``_load_payload`` follows.
"""

from __future__ import annotations

import pytest

from repro.sqlite import btree, records
from repro.sqlite.btree import BTree
from repro.stack import Mode, StackConfig, build_stack
from repro.workloads import SyntheticWorkload, TpccConfig, TpccDriver, TpccLoader


class Traffic:
    """Codec calls and spilled-row writes and reads, counted."""

    def __init__(self, monkeypatch):
        self.counts = dict.fromkeys(("encodes", "decodes", "spilled_writes", "spilled_reads"), 0)
        encode, decode = records.encode_record, records.decode_record
        spill, load = BTree._spill, BTree._load_payload

        def encoding(values):
            self.counts["encodes"] += 1
            return encode(values)

        def decoding(data):
            self.counts["decodes"] += 1
            return decode(data)

        def spilling(tree, cell):
            self.counts["spilled_writes"] += cell[2] > tree.max_local
            return spill(tree, cell)

        def loading(tree, cell):
            self.counts["spilled_reads"] += cell[1] is not None
            return load(tree, cell)

        monkeypatch.setattr(records, "encode_record", encoding)
        monkeypatch.setattr(btree, "encode_record", encoding)
        monkeypatch.setattr(records, "decode_record", decoding)
        monkeypatch.setattr(BTree, "_spill", spilling)
        monkeypatch.setattr(BTree, "_load_payload", loading)


def run_workloads(mode, page_size):
    stack = build_stack(
        StackConfig(mode=mode, num_blocks=512, pages_per_block=32, page_size=page_size)
    )
    tpcc = stack.open_database("tpcc.db")
    config = TpccConfig(warehouses=1, customers_per_district=10, items=50)
    TpccLoader(tpcc, config).load()
    TpccDriver(tpcc, config).run("write-intensive", 60)
    synthetic = SyntheticWorkload(stack.open_database("synthetic.db"), rows=200)
    synthetic.load()
    synthetic.run(transactions=20, updates_per_txn=5)


@pytest.mark.parametrize("mode", [Mode.RBJ, Mode.WAL, Mode.XFTL])
class TestCodecRunsOnlyForSpilledRows:
    def test_small_pages_once_per_spilled_write_and_read(self, mode, monkeypatch):
        traffic = Traffic(monkeypatch)
        run_workloads(mode, page_size=512)
        counts = traffic.counts
        assert counts["spilled_writes"] > 200 and counts["spilled_reads"] >= 100
        assert counts["encodes"] == counts["spilled_writes"]
        assert counts["decodes"] == counts["spilled_reads"]

    def test_default_pages_never(self, mode, monkeypatch):
        traffic = Traffic(monkeypatch)
        run_workloads(mode, page_size=StackConfig.page_size)
        assert traffic.counts == dict.fromkeys(traffic.counts, 0)
