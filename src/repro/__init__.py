"""repro — a reproduction of "Beyond 1-Safety and 2-Safety for Replicated
Databases: Group-Safety" (Wiesmann & Schiper, EDBT 2004).

The library contains, in pure Python on a deterministic discrete-event
simulator:

* the safety-criteria framework of the paper (0-safe, 1-safe, group-safe,
  group-1-safe, 2-safe, very safe) in :mod:`repro.core`;
* classical and **end-to-end** atomic broadcast with view membership, failure
  detection, checkpoint state transfer and log-based message replay in
  :mod:`repro.gcs`;
* a local database engine (2PL, a WAL that is also the one record of each
  transaction's outcome — testable transactions —, buffer pool, crash
  recovery) in :mod:`repro.db`;
* the replication techniques — the database state machine at three safety
  levels plus the lazy and 0-safe baselines — in :mod:`repro.replication`;
* the Table 4 workload model in :mod:`repro.workload`;
* partitioned replication — the keyspace sharded across independent replica
  groups with a cross-partition 2PC coordinator — in :mod:`repro.partition`;
* harnesses regenerating every table and figure of the paper in
  :mod:`repro.experiments`.

Quick start::

    from repro.replication import ReplicatedDatabaseCluster
    from repro.workload import SimulationParameters

    cluster = ReplicatedDatabaseCluster("group-safe",
                                        params=SimulationParameters.small())
    cluster.start()
    result = cluster.run_transaction(cluster.workload.next_program())
    cluster.run(until=1_000)
    print(result.value)
"""

from . import (core, db, experiments, gcs, network, partition, replication,
               sim, workload)
from .partition import PartitionedCluster
from .replication import ReplicatedDatabaseCluster
from .workload import SimulationParameters

__version__ = "1.1.0"

__all__ = [
    "core",
    "db",
    "experiments",
    "gcs",
    "network",
    "partition",
    "replication",
    "sim",
    "workload",
    "ReplicatedDatabaseCluster",
    "PartitionedCluster",
    "SimulationParameters",
    "__version__",
]
