"""Transaction workload generation (Table 4 of the paper).

The :class:`WorkloadGenerator` produces
:class:`~repro.db.operations.TransactionProgram` objects matching the paper's
workload model: a uniform transaction length of 10–20 operations, each
operation being a write with probability 50 % and touching an item chosen
uniformly among the 10'000 items of the database.

All draws come from dedicated named random streams of the simulator, so two
techniques evaluated with the same seed receive exactly the same sequence of
transaction programs — the common-random-numbers discipline that makes the
Fig. 9 comparison fair.  The stream handles are resolved **once** at
construction time (``self._item_stream`` etc.) instead of re-interning an
f-string name per draw: stream seeds depend only on the name, so the hoisted
handles draw bit-identical values.

Beyond the paper's uniform access model, the generator supports a Zipf-skewed
item distribution (``zipf_skew`` in :class:`SimulationParameters`): with skew
``s > 0`` item ``item-i`` is accessed with probability proportional to
``1 / (i + 1) ** s``, producing the hot-spot workloads used by the
partitioned-replication experiments.  Skew 0 reproduces the original uniform
draws bit-for-bit.

Skewed draws are a binary search over the cumulative weight table
(O(log n) per draw).
"""

from __future__ import annotations

from bisect import bisect_left
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from ..db.items import item_keys as conventional_item_keys
from ..db.operations import Operation, OperationType, TransactionProgram
from ..sim.engine import Simulator
from .params import SimulationParameters


class WorkloadGenerator:
    """Generates Table 4 transactions from the simulator's random streams."""

    def __init__(self, sim: Simulator, params: SimulationParameters,
                 item_keys: Optional[Sequence[str]] = None,
                 stream_prefix: str = "workload",
                 skew: Optional[float] = None) -> None:
        self.sim = sim
        self.params = params
        self.stream_prefix = stream_prefix
        #: The keyspace; by default the item stores' own (shared) key tuple.
        self.item_keys: Sequence[str] = (
            list(item_keys) if item_keys is not None
            else conventional_item_keys(params.item_count))
        if not self.item_keys:
            raise ValueError("the workload needs at least one item")
        #: Zipf skew of item accesses (0 = the paper's uniform model).
        self.skew = params.zipf_skew if skew is None else skew
        if self.skew < 0:
            raise ValueError(f"zipf skew must be non-negative, got {self.skew!r}")
        if not 0.0 <= params.write_probability <= 1.0:
            raise ValueError(
                f"write probability out of range: {params.write_probability!r}")
        self._cumulative = (zipf_cumulative(len(self.item_keys), self.skew)
                            if self.skew > 0 else None)
        # Interned stream handles: resolve the f-string names once, not per
        # draw.  Stream seeds depend only on the name, so this is draw-exact.
        streams = sim.random
        self._item_stream = streams.stream(f"{stream_prefix}.item")
        self._length_stream = streams.stream(f"{stream_prefix}.length")
        self._write_stream = streams.stream(f"{stream_prefix}.write")
        self._arrival_stream = streams.stream(f"{stream_prefix}.arrival")
        #: Number of programs generated so far.
        self.generated_count = 0

    # -- item selection ----------------------------------------------------------------
    def choose_key(self, keys: Optional[Sequence[str]] = None,
                   cumulative: Optional[Sequence[float]] = None) -> str:
        """Draw one item key from the (possibly Zipf-skewed) access distribution.

        Without arguments the draw is over the generator's whole keyspace;
        subclasses pass a restricted ``keys`` population (with its matching
        ``cumulative`` weight table when skewed) to confine a transaction to
        one partition.  All draws consume the same named stream, so the
        common-random-numbers discipline is preserved.
        """
        stream = self._item_stream
        if keys is None:
            population: Sequence[str] = self.item_keys
            weights = self._cumulative
        else:
            population = keys
            weights = cumulative
        if weights is None:
            return stream.choice(population)
        position = stream.uniform(0.0, weights[-1])
        index = bisect_left(weights, position)
        if index >= len(population):
            index = len(population) - 1
        return population[index]

    # -- single transactions ---------------------------------------------------------
    def next_program(self, client: str = "client") -> TransactionProgram:
        """Generate the next transaction program for ``client``."""
        length = self._length_stream.randint(
            self.params.transaction_length_min,
            self.params.transaction_length_max)
        write_random = self._write_stream.random
        write_probability = self.params.write_probability
        choose_key = self.choose_key
        operations: List[Operation] = []
        append = operations.append
        for position in range(length):
            key = choose_key()
            if write_random() < write_probability:
                append(Operation(OperationType.WRITE, key,
                                 value=f"{client}@{position}"))
            else:
                append(Operation(OperationType.READ, key))
        # A transaction of only reads is fine; a transaction of only writes is
        # fine too — the mix emerges from the write probability, as in the
        # paper's simulator.
        self.generated_count += 1
        return TransactionProgram(operations=tuple(operations), client=client)

    def update_only_program(self, write_count: int,
                            client: str = "client") -> TransactionProgram:
        """Generate a program with exactly ``write_count`` writes (no reads).

        Used by failure-injection scenarios that need a deterministic update
        transaction on known items.
        """
        choose_key = self.choose_key
        operations = [Operation(OperationType.WRITE, choose_key(),
                                value=f"{client}@{position}")
                      for position in range(write_count)]
        self.generated_count += 1
        return TransactionProgram(operations=tuple(operations), client=client)

    # -- batches ------------------------------------------------------------------------
    def batch(self, count: int, client: str = "client") -> List[TransactionProgram]:
        """Generate ``count`` programs at once."""
        return [self.next_program(client=client) for _ in range(count)]

    def interarrival_time(self, load_tps: float) -> float:
        """Draw one exponential inter-arrival gap (ms) for a Poisson load.

        ``load_tps`` is the *system-wide* offered load in transactions per
        second, as plotted on the X axis of Fig. 9.
        """
        if load_tps <= 0:
            raise ValueError("load must be positive")
        return self._arrival_stream.expovariate(load_tps / 1000.0)


@lru_cache(maxsize=16)
def zipf_cumulative(population_size: int, skew: float) -> Tuple[float, ...]:
    """Cumulative (unnormalised) Zipf weights for ranks ``1..population_size``.

    Rank ``r`` carries weight ``r ** -skew``; drawing a uniform position in
    ``[0, total]`` and bisecting into this table samples the distribution.
    One immutable table per ``(population_size, skew)`` and process: every
    generator of a partitioned cluster draws from the same one.
    """
    if population_size <= 0:
        raise ValueError("population must be non-empty")
    cumulative: List[float] = []
    total = 0.0
    for rank in range(1, population_size + 1):
        total += rank ** -skew
        cumulative.append(total)
    return tuple(cumulative)
