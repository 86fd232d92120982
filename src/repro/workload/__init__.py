"""Workload model: Table 4 parameters, transaction generation and clients."""

from .clients import OpenLoopClientPool
from .generator import WorkloadGenerator
from .params import SimulationParameters

__all__ = [
    "SimulationParameters",
    "WorkloadGenerator",
    "OpenLoopClientPool",
]
