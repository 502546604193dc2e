"""Discrete-event simulation substrate (clock, processes, resources, RNG)."""

from .collector import collector_quiet
from .core import Event, Gather, Process, SimulationError, Simulator, Timeout
from .equeue import selected_queue_kind
from .faults import CrashEvent, FaultEvent, FaultPlan, FaultSpec, FaultTrace
from .link import BatchingLink, SerialLink
from .resources import Resource, Semaphore
from .rng import HotspotGenerator, RngStream, ZipfGenerator
from .stats import Counter, LatencyRecorder, LogHistogram, OnlineStats

__all__ = [
    "Simulator",
    "Event",
    "Timeout",
    "Process",
    "Gather",
    "SimulationError",
    "collector_quiet",
    "selected_queue_kind",
    "Resource",
    "Semaphore",
    "SerialLink",
    "BatchingLink",
    "RngStream",
    "ZipfGenerator",
    "HotspotGenerator",
    "OnlineStats",
    "LogHistogram",
    "LatencyRecorder",
    "Counter",
    "FaultSpec",
    "FaultPlan",
    "FaultTrace",
    "FaultEvent",
    "CrashEvent",
]
