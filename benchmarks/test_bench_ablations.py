"""Ablations for the design choices DESIGN.md calls out.

Not paper figures — these isolate individual mechanisms:

- X-L2P table size (paper §5.3: 500 entries / 8 KB vs 1000 entries / 16 KB)
  changes the per-commit flush cost;
- mapping-chunk granularity changes the stock FTL's barrier cost (the
  quantity X-FTL avoids paying);
- GC victim policy (greedy vs FIFO rotation) under an aged device.
"""

from conftest import report

from repro.bench.aging import age_device
from repro.bench.reporting import format_table
from repro.stack import Mode, StackConfig, build_stack
from repro.ftl import FtlConfig
from repro.workloads.synthetic import SyntheticWorkload


def _commit_cost(xl2p_capacity: int) -> float:
    stack = build_stack(
        StackConfig(mode=Mode.XFTL, num_blocks=256, ftl=FtlConfig(xl2p_capacity=xl2p_capacity))
    )
    ftl = stack.ftl
    t0 = stack.clock.now_us
    for tid in range(1, 101):
        for page in range(5):
            ftl.write_tx(tid, page, ("payload",))
        ftl.commit(tid)
    return (stack.clock.now_us - t0) / 100.0


def test_ablation_xl2p_size(benchmark):
    def run():
        return [(capacity, _commit_cost(capacity)) for capacity in (500, 1000, 2000)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["X-L2P capacity (entries)", "avg commit cost (us)"],
        [[c, round(us, 1)] for c, us in rows],
        title="Ablation: X-L2P table size vs commit cost (5-page txns)",
    )
    report("ablation_xl2p_size", text)
    # A 500-entry table fits one flash page; 1000 takes two (paper 8/16 KB).
    assert rows[0][1] < rows[1][1]


def _barrier_cost(map_entries_per_page: int) -> float:
    stack = build_stack(
        StackConfig(
            mode=Mode.FS_ORDERED,
            num_blocks=256,
            ftl=FtlConfig(map_entries_per_page=map_entries_per_page),
        )
    )
    ftl = stack.ftl
    # Dirty a clustered run of logical pages (a database file's working
    # set is contiguous on disk), then measure one barrier.
    for lpn in range(0, 2_048):
        ftl.write(lpn, ("data",))
    t0 = stack.clock.now_us
    ftl.barrier()
    return stack.clock.now_us - t0


def test_ablation_map_chunk_granularity(benchmark):
    def run():
        return [(chunk, _barrier_cost(chunk)) for chunk in (64, 256, 1024)]

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["map entries per chunk", "barrier cost (us)"],
        [[c, round(us, 1)] for c, us in rows],
        title="Ablation: mapping-chunk granularity vs barrier (fsync) cost",
    )
    report("ablation_map_chunk", text)
    # Finer chunks -> more map pages persisted per barrier -> higher cost.
    assert rows[0][1] > rows[2][1]


def test_ablation_gc_policy(benchmark):
    def run():
        out = []
        for policy in ("greedy", "fifo"):
            stack = build_stack(
                StackConfig(mode=Mode.XFTL, num_blocks=512, ftl=FtlConfig(gc_policy=policy))
            )
            db = stack.open_database("test.db")
            workload = SyntheticWorkload(db, rows=6_000)
            workload.load()
            age_device(stack, 0.5)
            t0 = stack.clock.now_s
            workload.run(transactions=100, updates_per_txn=5)
            out.append(
                [policy, round(stack.clock.now_s - t0, 2),
                 f"{stack.ftl.gc_mean_valid_ratio():.0%}"]
            )
        return out

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    text = format_table(
        ["GC policy", "elapsed (s)", "mean GC validity"],
        rows,
        title="Ablation: GC victim policy on an aged (50%) device",
    )
    report("ablation_gc_policy", text)
    by_policy = {row[0]: row for row in rows}
    # Greedy cherry-picks empty blocks (cheaper); FIFO carries the aged
    # validity ratio — the behaviour the paper's aging knob controls.
    assert float(by_policy["greedy"][1]) <= float(by_policy["fifo"][1])
