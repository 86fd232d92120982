"""Simulation parameters (Table 4 of the paper).

:class:`SimulationParameters` is the sixteen rows of the paper's Table 4 plus
the nine axes some experiment, benchmark, example or test sets (detector,
engine, partitioning, skew).  ``SimulationParameters.paper()`` returns
exactly the configuration of Table 4; experiments that deviate (smaller
database for unit tests, different network latencies for ablations) construct
their own instance.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict


@dataclass(frozen=True)
class SimulationParameters:
    """Table 4 (its values are the defaults) and the axes experiments sweep."""

    #: Number of items in the database (Table 4: 10'000).
    item_count: int = 10_000
    #: Number of servers (Table 4: 9).
    server_count: int = 9
    #: Number of clients attached to each server (Table 4: 4).
    clients_per_server: int = 4
    #: Disks per server (Table 4: 2).
    disks_per_server: int = 2
    #: CPUs per server (Table 4: 2).
    cpus_per_server: int = 2
    #: Minimum / maximum number of operations per transaction (Table 4: 10–20).
    transaction_length_min: int = 10
    transaction_length_max: int = 20
    #: Probability that an operation is a write (Table 4: 50 %).
    write_probability: float = 0.5
    #: Buffer hit ratio (Table 4: 20 %).
    buffer_hit_ratio: float = 0.2
    #: Disk read time range in ms (Table 4: 4–12 ms).
    read_time_min: float = 4.0
    read_time_max: float = 12.0
    #: Disk write time range in ms (Table 4: 4–12 ms).
    write_time_min: float = 4.0
    write_time_max: float = 12.0
    #: CPU time per I/O operation in ms (Table 4: 0.4 ms).
    cpu_time_per_io: float = 0.4
    #: Network latency for a message or broadcast in ms (Table 4: 0.07 ms).
    network_latency: float = 0.07
    #: CPU time per network operation in ms (Table 4: 0.07 ms).
    cpu_time_per_network_op: float = 0.07

    # -- group-communication axes (not in Table 4) -----------------------------------
    # A modelling value no experiment sets is not a field: it is a module
    # constant next to its one use (replication/base.py, cluster.py, lazy.py).
    #: Failure-detector mode: ``"perfect"`` (oracle-driven, the default) or
    #: ``"heartbeat"`` (timeout-based, driven by real heartbeat traffic —
    #: the only mode that can see network partitions).  Heartbeat mode adds
    #: messages to the schedule, so runs are NOT bit-identical to the
    #: default — it must stay off wherever a test pins a seeded trace.
    failure_detector_mode: str = "perfect"
    #: Heartbeat send interval of the heartbeat detector (ms).
    heartbeat_period: float = 10.0
    #: Silence threshold after which the heartbeat detector suspects a
    #: member (ms); must be >= the period.
    heartbeat_timeout: float = 50.0
    #: Total-order broadcast engine the group-based techniques run on, by
    #: registry name (see :mod:`repro.gcs.engines`).  The default is the
    #: seed's fixed-sequencer scheme; ``"multi-paxos"`` selects the
    #: per-slot Paxos engine.  Not a Table 4 knob — it is the comparison
    #: axis the paper never measured.
    broadcast_engine: str = "fixed-sequencer"

    # -- partitioned-replication knobs (not in the paper) ---------------------------
    #: Number of independent replica groups the keyspace is sharded across.
    #: 1 reproduces the paper's single-group system exactly.
    partition_count: int = 1
    #: Probability that a generated transaction spans more than one partition
    #: (routed through the cross-partition 2PC coordinator).
    cross_partition_probability: float = 0.0
    #: Number of partitions a cross-partition transaction touches.
    cross_partition_span: int = 2
    #: Zipf skew exponent of item access (0 = uniform, the paper's model;
    #: larger values concentrate accesses on a hot set of items).
    zipf_skew: float = 0.0

    # -- convenience constructors -----------------------------------------------------
    @classmethod
    def paper(cls) -> "SimulationParameters":
        """The exact configuration of Table 4."""
        return cls()

    @classmethod
    def small(cls, server_count: int = 3, item_count: int = 200,
              clients_per_server: int = 2) -> "SimulationParameters":
        """A scaled-down configuration for unit tests and quick examples."""
        return cls(item_count=item_count, server_count=server_count,
                   clients_per_server=clients_per_server)

    def with_overrides(self, **overrides) -> "SimulationParameters":
        """Return a copy with the given fields replaced."""
        return replace(self, **overrides)

    # -- derived quantities -------------------------------------------------------------
    def server_names(self) -> list:
        """The conventional server names ``s1 ... sN``."""
        return [f"s{i}" for i in range(1, self.server_count + 1)]

    def as_table(self) -> Dict[str, object]:
        """Render the parameter set in the shape of the paper's Table 4."""
        return {
            "Number of items in the database": self.item_count,
            "Number of Servers": self.server_count,
            "Number of Clients per Server": self.clients_per_server,
            "Disks per Server": self.disks_per_server,
            "CPUs per Server": self.cpus_per_server,
            "Transaction Length":
                f"{self.transaction_length_min} - {self.transaction_length_max} Operations",
            "Probability that an operation is a write":
                f"{self.write_probability:.0%}",
            "Probability that an operation is a query":
                f"{1 - self.write_probability:.0%}",
            "Buffer hit ratio": f"{self.buffer_hit_ratio:.0%}",
            "Time for a read": f"{self.read_time_min:g} - {self.read_time_max:g} ms",
            "Time for a write": f"{self.write_time_min:g} - {self.write_time_max:g} ms",
            "CPU Time used for an I/O operation": f"{self.cpu_time_per_io:g} ms",
            "Time for a message or a broadcast on the Network":
                f"{self.network_latency:g} ms",
            "CPU time for a network operation":
                f"{self.cpu_time_per_network_op:g} ms",
        }
