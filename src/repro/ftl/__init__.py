"""Flash translation layers: one page-mapped FTL and its transactional form.

- :class:`~repro.ftl.pagemap.PageMappingFTL` — the baseline page-mapped FTL
  of the OpenSSD board: L2P table, mapping-table persistence on write
  barriers.
- :class:`~repro.ftl.xftl.XFTL` — the paper's contribution: a transactional
  FTL layering an X-L2P table over the page-mapped FTL (tagged reads/writes,
  commit/abort commands, GC pinning, cheap crash recovery).  A transaction
  spans any number of calls, so SQLite's steal policy needs no per-call
  atomic write (§3.3).
- :class:`~repro.ftl.gc.Collector` — the space manager the FTL owns (free
  pools, active blocks, victim selection, copyback, erase).
  ``FtlConfig.gc_mode`` picks its schedule: ``"inline"`` reclaims
  synchronously under the host write that runs short, ``"background"`` adds
  the watermark state machine, paced jobs on channel idle windows, hot/cold
  write streams and wear leveling.
"""

from repro.ftl.base import FtlConfig
from repro.ftl.pagemap import PageMappingFTL
from repro.ftl.xftl import XFTL
from repro.ftl.xl2p import TxStatus, XL2PEntry, XL2PTable
from repro.ftl.gc import Collector, GcJob, GcState

__all__ = [
    "FtlConfig",
    "PageMappingFTL",
    "XFTL",
    "TxStatus",
    "XL2PEntry",
    "XL2PTable",
    "Collector",
    "GcJob",
    "GcState",
]
