"""The paper's life-span claim, read off the flash counters."""

from repro.bench.aging import age_device
from repro.stack import Mode, StackConfig, build_stack
from repro.ftl.base import FtlConfig
from repro.workloads.synthetic import SyntheticWorkload


class TestPaperLifespanClaim:
    def test_xftl_extends_lifespan_vs_wal(self):
        """Conclusion §7: X-FTL ~doubles the life span vs host journaling.

        Endurance is consumed by erases, so for the same logical work the
        ratio of block erases is the life-span ratio."""
        erases = {}
        waf = {}
        for mode in (Mode.WAL, Mode.XFTL):
            stack = build_stack(
                StackConfig(mode=mode, num_blocks=512, pages_per_block=128,
                            ftl=FtlConfig(gc_policy="fifo"))
            )
            db = stack.open_database("life.db")
            workload = SyntheticWorkload(db, rows=6_000)
            workload.load()
            age_device(stack, 0.5)
            snap = stack.ftl.stats.snapshot()
            workload.run(transactions=100, updates_per_txn=5)
            delta = stack.ftl.stats.delta(snap)
            erases[mode] = delta.block_erases
            waf[mode] = delta.page_programs / delta.host_page_writes
        assert erases[Mode.XFTL] > 0
        assert erases[Mode.WAL] / erases[Mode.XFTL] >= 1.8  # "doubles the life span"
        # X-FTL's WAF is also lower: no journal pages, no map flush per fsync.
        assert waf[Mode.XFTL] < waf[Mode.WAL]
