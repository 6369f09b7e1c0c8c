#!/usr/bin/env python3
"""Smartphone workloads: the paper's motivating scenario (§1, §6.3.2).

Generates statistical twins of the four Android app traces (RL Benchmark,
Gmail, Facebook, web browser) and replays them **as four tenants sharing
one device** — the actual smartphone shape: every app hammers the same
flash under its own path prefix.  Each mode (WAL on the stock FTL, OFF on
X-FTL) runs all four traces interleaved under the tenant scheduler, then
prints per-app simulated time plus the device's per-tenant attribution
(writes, commits, GC copybacks, p-tail commit latency).
"""

from repro.stack import Mode, StackConfig, TenantScheduler, build_stack
from repro.ftl.base import FtlConfig
from repro.workloads.android import ALL_PROFILES, AndroidTraceGenerator, TraceReplayer

TRACE_SCALE = 0.02  # fraction of the published trace sizes (fast demo)


def replay_as_tenants(mode: Mode) -> tuple[float, dict]:
    """All four app traces interleaved on one device, one tenant each."""
    stack = build_stack(
        StackConfig(
            mode=mode, num_blocks=512, max_inodes=64, ftl=FtlConfig(gc_policy="fifo")
        )
    )
    scheduler = TenantScheduler(stack, fairness="deficit", group_commit=False)
    for profile in ALL_PROFILES:
        name = profile.name.lower().replace(" ", "")
        tenant = stack.open_tenant(name)
        ops, _stats = AndroidTraceGenerator(profile, scale=TRACE_SCALE).generate()
        replayer = TraceReplayer(tenant)
        scheduler.add(tenant, [replayer.replay_task(ops)])
    scheduler.run()
    return stack.clock.now_s, stack.chip.tenants.as_dict()


def main() -> None:
    elapsed = {}
    registries = {}
    for mode in (Mode.WAL, Mode.XFTL):
        elapsed[mode], registries[mode] = replay_as_tenants(mode)
    speedup = elapsed[Mode.WAL] / elapsed[Mode.XFTL]
    print(
        f"4 app tenants, one device: WAL {elapsed[Mode.WAL]:.2f}s  "
        f"X-FTL {elapsed[Mode.XFTL]:.2f}s  ({speedup:.2f}x)"
    )
    print("\nper-tenant attribution (X-FTL run):")
    print(
        f"{'tenant':14s} {'writes':>8s} {'commits':>8s} "
        f"{'gc copyb':>9s} {'mean commit (us)':>17s}"
    )
    for name, account in registries[Mode.XFTL]["tenants"].items():
        print(
            f"{name:14s} {account['writes']:8d} {account['commits']:8d} "
            f"{account['gc_copybacks']:9d} {account['commit_latency_mean_us']:17.1f}"
        )
    collisions = registries[Mode.XFTL]["cross_collisions"]
    print(f"\ncross-tenant GC victim collisions: {collisions}")
    print("(paper: X-FTL 2.4x-3.0x faster than WAL across all four traces)")


if __name__ == "__main__":
    main()
