"""Simulated GPU cluster: devices, memory accounting, and topology.

This substrate replaces the paper's physical testbed (16 machines x 8
A100-80GB).  Placement and parallelism decisions in HybridFlow depend only on
device counts, per-device memory, and the intra/inter-machine bandwidth
hierarchy, all of which are modelled here.
"""

from repro.cluster.device import (
    DeviceMemory,
    OutOfDeviceMemory,
    SimDevice,
)
from repro.cluster.cluster import DeviceSet, SimCluster

__all__ = [
    "DeviceMemory",
    "DeviceSet",
    "OutOfDeviceMemory",
    "SimCluster",
    "SimDevice",
]
