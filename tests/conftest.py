"""Shared fixtures for the test suite."""

from __future__ import annotations

import pytest

from repro.db import TransactionProgram, read, write
from repro.network import Lan, Node
from repro.replication import ReplicatedDatabaseCluster
from repro.sim import Simulator
from repro.workload import SimulationParameters


@pytest.fixture
def sim() -> Simulator:
    """A fresh deterministic simulator."""
    return Simulator(seed=1234)


@pytest.fixture
def small_params() -> SimulationParameters:
    """A scaled-down Table 4 configuration for fast tests."""
    return SimulationParameters.small(server_count=3, item_count=100)


@pytest.fixture
def lan_with_nodes(sim):
    """A LAN with three attached nodes named s1, s2, s3."""
    lan = Lan(sim)
    nodes = [lan.attach(Node(sim, f"s{i}")) for i in range(1, 4)]
    return lan, nodes


def build_cluster(technique: str, seed: int = 7,
                  params: SimulationParameters | None = None,
                  **overrides) -> ReplicatedDatabaseCluster:
    """Helper used by many tests: a started small cluster of one technique."""
    parameters = params or SimulationParameters.small(server_count=3,
                                                      item_count=100)
    if overrides:
        parameters = parameters.with_overrides(**overrides)
    cluster = ReplicatedDatabaseCluster(technique, params=parameters, seed=seed)
    cluster.start()
    return cluster


@pytest.fixture
def cluster_factory():
    """Factory fixture returning :func:`build_cluster`."""
    return build_cluster


def make_program(spec, client: str = "client") -> TransactionProgram:
    """Build a program from a compact spec like ``[("r", "x"), ("w", "y", 1)]``."""
    operations = []
    for entry in spec:
        kind, key = entry[0], entry[1]
        value = entry[2] if len(entry) > 2 else None
        if kind in ("r", "read"):
            operations.append(read(key))
        elif kind in ("w", "write"):
            operations.append(write(key, value))
        else:
            raise ValueError(f"unknown operation kind {kind!r}")
    return TransactionProgram(operations=tuple(operations), client=client)
