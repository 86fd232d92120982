"""Buffer pool and disk timing model.

Table 4 of the paper models data access with three quantities: a buffer hit
ratio of 20 %, a read time of 4–12 ms, a write time of 4–12 ms, and 0.4 ms of
CPU per I/O operation.  The :class:`BufferPool` turns those numbers into
simulated time:

* :meth:`read_item` — charge CPU, then with probability ``1 - hit_ratio``
  occupy a disk for one read time;
* :meth:`write_item_sync` — same, for a synchronous (in-transaction) write;
* :meth:`write_item_async` — mark the item dirty and return immediately; the
  background write-behind flusher started with :meth:`start_write_behind`
  later performs the physical writes, outside any transaction boundary;
* :meth:`background_write` — the one path of every background page write
  (the write-behind flusher and lazy replication's remote apply): one CPU
  charge per batch of pages, one disk hold per page.

The asynchronous path is what the group-safe technique uses ("group-safe
replication basically allows all disk writes to be done asynchronously, thus
enabling optimisations like write caching", Sect. 5.1); the synchronous path
is what group-1-safe and lazy replication use on the delegate.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Callable, Dict, Optional

from ..network.node import Node
from ..sim.engine import Simulator
from ..sim.poll import Parked, Poller
from ..sim.resources import Gate

#: Most pages one background write charges to the CPU at once.  The paper
#: has "writes of adjacent pages ... scheduled together" (Sect. 5.1) but
#: gives no batch size; a batch pays its ``cpu_time_per_io`` per page as one
#: CPU charge, while each page keeps its own disk hold, so a read still
#: queues behind at most one background page.
WRITE_BEHIND_BATCH = 16


class BufferPool:
    """Probabilistic buffer model charging Table 4 I/O times.

    The pool holds at most ``max_dirty`` modified items waiting for their
    background write — a page leaves that count when the flusher takes it
    into a batch, before its disk write; once the limit is reached,
    :meth:`wait_for_space` blocks until the write-behind flusher has drained
    the backlog below the low watermark.  This back-pressure is what keeps
    the asynchronous-write optimisation of group-safe replication honest:
    deferring disk writes hides their latency, but it cannot create disk
    bandwidth — under overload, the apply stage stalls and response times
    grow, which is the high-load regime of the paper's Fig. 9.
    """

    def __init__(self, sim: Simulator, node: Node, hit_ratio: float = 0.2,
                 read_time_low: float = 4.0, read_time_high: float = 12.0,
                 write_time_low: float = 4.0, write_time_high: float = 12.0,
                 max_dirty: Optional[int] = None,
                 low_watermark: float = 0.75,
                 background_write_factor: float = 1.0,
                 name: str = "buffer") -> None:
        if not 0.0 <= hit_ratio <= 1.0:
            raise ValueError(f"hit ratio out of range: {hit_ratio}")
        if max_dirty is not None and max_dirty < 1:
            raise ValueError("max_dirty must be positive (or None)")
        if background_write_factor <= 0:
            raise ValueError("background_write_factor must be positive")
        self.sim = sim
        self.node = node
        self.name = name
        self.hit_ratio = hit_ratio
        self.read_time_low = read_time_low
        self.read_time_high = read_time_high
        self.write_time_low = write_time_low
        self.write_time_high = write_time_high
        self.max_dirty = max_dirty
        self.low_watermark = low_watermark
        #: Disk-time factor applied to write-behind (background) writes.  The
        #: flusher sorts and coalesces adjacent pages ("writes of adjacent
        #: pages would also be scheduled together to maximise disk
        #: throughput", Sect. 5.1 of the paper), so a background write is
        #: cheaper than a random in-transaction write.
        self.background_write_factor = background_write_factor
        # Insertion-ordered so the flusher drains oldest pages first and
        # the drain order is independent of string hashing (a plain set
        # would make runs depend on PYTHONHASHSEED).
        self._dirty: Dict[str, None] = {}
        #: Write-behind flushers parked on an empty ``_dirty``.
        self._parked = Parked()
        # Interned per-node stream handles (seeded by name only, so hoisting
        # them out of the per-I/O hot path is draw-exact).
        streams = sim.random
        self._hit_stream = streams.stream(f"{node.name}.buffer_hit")
        self._read_stream = streams.stream(f"{node.name}.disk_read")
        self._write_stream = streams.stream(f"{node.name}.disk_write")
        self._flusher_running = False
        self._space_gate = Gate(sim, opened=True, name=f"{name}.space")
        #: Statistics counters.
        self.read_hits = 0
        self.read_misses = 0
        self.sync_writes = 0
        self.async_writes = 0
        self.flushed_pages = 0
        self.throttle_events = 0

    # -- timing helpers ---------------------------------------------------------
    def _read_duration(self) -> float:
        return self._read_stream.uniform(self.read_time_low,
                                         self.read_time_high)

    def _write_duration(self) -> float:
        return self._write_stream.uniform(self.write_time_low,
                                          self.write_time_high)

    # -- reads ----------------------------------------------------------------------
    def read_item(self, key: str):
        """Generator: charge the cost of reading ``key``.

        ``LocalDatabase.read`` inlines this exact sequence on the
        transaction hot path; a change here must be mirrored there
        (``test_engine_read_matches_buffer_read_item`` pins the pair).
        """
        node = self.node
        obs = self.sim.obs
        span = None
        if obs is not None:
            span = obs.begin("buffer.read", category="disk",
                             track=f"server.{node.name}",
                             labels={"key": key})
        try:
            yield node.cpu.use(node.cpu_time_per_io)
            if self._hit_stream.random() < self.hit_ratio:
                self.read_hits += 1
                return
            self.read_misses += 1
            yield node.disk.use(self._read_duration())
        finally:
            if span is not None:
                obs.end(span)

    # -- writes ----------------------------------------------------------------------
    def write_item_sync(self, key: str):
        """Generator: charge the cost of writing ``key`` inside the transaction."""
        self.sync_writes += 1
        node = self.node
        obs = self.sim.obs
        span = None
        if obs is not None:
            span = obs.begin("buffer.write", category="disk",
                             track=f"server.{node.name}",
                             labels={"key": key})
        try:
            yield node.cpu.use(node.cpu_time_per_io)
            if self._hit_stream.random() < self.hit_ratio:
                # The page is resident: the modification stays in the buffer
                # and will reach disk with a later flush, off the critical
                # path.
                self._mark_dirty(key)
                return
            yield node.disk.use(self._write_duration())
        finally:
            if span is not None:
                obs.end(span)

    def write_item_async(self, key: str) -> None:
        """Mark ``key`` dirty; the physical write happens in the background."""
        self.async_writes += 1
        self._mark_dirty(key)

    def _mark_dirty(self, key: str) -> None:
        self._dirty[key] = None
        if self._parked:
            self._parked.notify()
        if self.max_dirty is not None and len(self._dirty) >= self.max_dirty:
            if self._space_gate.is_open:
                self.throttle_events += 1
            self._space_gate.close()

    # -- back-pressure ------------------------------------------------------------------
    # repro: allow(unused-surface): tests read the apply stage's back-pressure
    @property
    def has_space(self) -> bool:
        """True while the dirty backlog is below its limit."""
        return self.max_dirty is None or len(self._dirty) < self.max_dirty

    def wait_for_space(self):
        """Event that fires once the dirty backlog is below the low watermark."""
        return self._space_gate.wait()

    def _maybe_reopen(self) -> None:
        if self.max_dirty is None or self._space_gate.is_open:
            return
        if len(self._dirty) <= self.max_dirty * self.low_watermark:
            self._space_gate.open()

    # -- background flushing ---------------------------------------------------------
    # repro: allow(unused-surface): tests read the write-behind backlog
    @property
    def dirty_count(self) -> int:
        """Number of items waiting for a background write."""
        return len(self._dirty)

    def flush_some(self):
        """Generator: physically write every dirty item, oldest first.

        Each pass takes up to :data:`WRITE_BEHIND_BATCH` of the oldest dirty
        pages — they leave the dirty count as the batch is taken — and
        writes them with :meth:`background_write`, counting each page and
        re-checking the back-pressure gate as its disk hold ends.
        """
        dirty = self._dirty
        while dirty:
            batch = list(islice(dirty, WRITE_BEHIND_BATCH))
            for key in batch:
                del dirty[key]
            yield from self.background_write(len(batch),
                                             self.background_write_factor,
                                             self._write_stream,
                                             self._page_flushed)

    def _page_flushed(self) -> None:
        self.flushed_pages += 1
        self._maybe_reopen()

    def background_write(self, pages: int, factor: float,
                         stream: random.Random,
                         on_page: Optional[Callable[[], None]] = None):
        """Generator: write ``pages`` pages off any transaction's path.

        The pages go in batches of at most :data:`WRITE_BEHIND_BATCH`.  A
        batch of k pages takes one CPU charge of k × ``cpu_time_per_io``;
        then each page holds a disk on its own for ``factor`` × a write
        time drawn from ``stream`` as its disk request is made, and
        ``on_page`` (if given) runs as that hold ends.
        """
        node = self.node
        use_disk = node.disk.use
        low, high = self.write_time_low, self.write_time_high
        while pages > 0:
            batch = min(pages, WRITE_BEHIND_BATCH)
            pages -= batch
            yield node.cpu.use(batch * node.cpu_time_per_io)
            for _ in range(batch):
                yield use_disk(factor * stream.uniform(low, high))
                if on_page is not None:
                    on_page()

    def start_write_behind(self, interval: float = 50.0) -> None:
        """Start the background flusher processes on the hosting node.

        One flusher process per disk of the node ticks every ``interval``
        milliseconds and writes the dirty items to disk.  A flusher that
        would tick with nothing dirty parks instead and takes its next tick
        at the first instant of its grid after an item becomes dirty
        (:mod:`repro.sim.poll`).  The processes are volatile: they die with
        the node on a crash and must be restarted after recovery.
        """
        if self._flusher_running:
            return
        self._flusher_running = True

        def flusher():
            try:
                poll = Poller(self.sim, interval, self._parked)
                while True:
                    yield poll.next_tick(idle=not self._dirty)
                    yield from self.flush_some()
            finally:
                self._flusher_running = False

        for _index in range(self.node.disk.capacity):
            self.node.spawn(flusher(), name=f"{self.name}.write_behind")

    # -- crash handling ------------------------------------------------------------------
    def lose_volatile(self) -> None:
        """Forget dirty state (the buffer content dies with the node)."""
        self._dirty.clear()
        self._parked.clear()
        self._flusher_running = False
        self._space_gate.open()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return (f"<BufferPool {self.node.name} dirty={len(self._dirty)} "
                f"hits={self.read_hits} misses={self.read_misses}>")
