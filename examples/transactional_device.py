#!/usr/bin/env python3
"""Program the transactional device directly (the §4.2 command set).

Shows the extended SATA vocabulary X-FTL adds — write(t,p), read(t,p),
commit(t), abort(t) — plus the two properties that distinguish it from
per-call atomic-write FTLs: snapshot reads for concurrent transactions,
and steal-friendliness (a transaction's pages can hit flash at any time
and still commit or roll back atomically).
"""

from repro.stack import Mode, StackConfig, build_device


def main() -> None:
    device = build_device(StackConfig(mode=Mode.XFTL, num_blocks=128, pages_per_block=64))

    # Committed base state.
    for lpn in range(4):
        device.write(lpn, f"v0-page{lpn}".encode())
    device.flush()

    # Transaction 1 rewrites pages 0-2; transaction 2 reads concurrently.
    for lpn in range(3):
        device.write_tx(tid=1, lpn=lpn, data=f"t1-page{lpn}".encode())
    print("t1 sees its own write:  ", device.read_tx(1, 0))
    print("t2 still sees committed:", device.read_tx(2, 0))
    print("plain read is committed:", device.read(0))

    # Commit is one tiny copy-on-write flush of the X-L2P table.
    before = device.ftl.stats.snapshot()
    device.commit(1)
    commit_cost = device.ftl.stats.delta(before)
    print(f"commit cost: {commit_cost.page_programs} page program(s)")
    print("now everyone sees:      ", device.read(0))

    # Abort: nothing to undo on the host, the device forgets the pages.
    device.write_tx(tid=3, lpn=3, data=b"t3-doomed")
    device.abort(3)
    print("after abort:            ", device.read(3))

    # Crash safety: a transaction in flight at power-off simply vanishes.
    device.write_tx(tid=4, lpn=1, data=b"t4-in-flight")
    device.power_off()
    device.power_on()
    print("after power cycle:      ", device.read(1))

    stats = device.ftl.stats
    print(
        f"\nftl stats: {stats.page_programs} programs, {stats.commits} commits, "
        f"{stats.aborts} aborts, {stats.xl2p_page_writes} X-L2P flush pages"
    )


if __name__ == "__main__":
    main()
