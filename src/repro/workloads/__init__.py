"""Workload generators: synthetic partsupply, Android traces, TPC-C, FIO."""

from repro.workloads.synthetic import SyntheticWorkload, SyntheticResult
from repro.workloads.fio import FioBenchmark, FioResult
from repro.workloads.android import (
    ALL_PROFILES,
    AndroidTraceGenerator,
    TraceReplayer,
)
from repro.workloads.tpcc import MIXES, TpccConfig, TpccDriver, TpccLoader

__all__ = [
    "SyntheticWorkload",
    "SyntheticResult",
    "FioBenchmark",
    "FioResult",
    "ALL_PROFILES",
    "AndroidTraceGenerator",
    "TraceReplayer",
    "MIXES",
    "TpccConfig",
    "TpccDriver",
    "TpccLoader",
]
