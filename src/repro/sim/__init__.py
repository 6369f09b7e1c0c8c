"""Simulation substrate: clock, event scheduler, latency, RNG, crash points."""

from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler, ResourceTimeline
from repro.sim.crash import (
    CrashPlan,
    CrashPoint,
    CrashPointSpec,
    register_crash_point,
    registered_crash_points,
)
from repro.sim.latency import (
    LatencyProfile,
    OPENSSD_PROFILE,
    S830_PROFILE,
    effective_channel_parallelism,
    effective_channel_profile,
)

__all__ = [
    "SimClock",
    "EventScheduler",
    "ResourceTimeline",
    "CrashPlan",
    "CrashPoint",
    "CrashPointSpec",
    "register_crash_point",
    "registered_crash_points",
    "LatencyProfile",
    "OPENSSD_PROFILE",
    "S830_PROFILE",
    "effective_channel_parallelism",
    "effective_channel_profile",
]
