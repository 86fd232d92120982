"""Named, reproducible random-number streams.

Every stochastic decision in the simulator (transaction lengths, operation
mix, service times, client think times, crash instants) draws from a *named*
stream.  Each stream is an independent ``random.Random`` seeded from the
master seed and the stream name, so adding a new source of randomness to one
part of the model does not perturb the draws made elsewhere.  This is the
standard "common random numbers" discipline for simulation studies and it is
what makes the Fig. 9 curves comparable across replication techniques: all
three techniques see exactly the same transaction workload.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(master_seed: int, name: str) -> int:
    """Derive a 64-bit stream seed from the master seed and stream name."""
    digest = hashlib.sha256(f"{master_seed}:{name}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStreams:
    """A registry of independent named random streams.

    Stream seeds depend only on the master seed and the stream *name* —
    never on creation order — so callers *intern* their stream handle once
    (``stream = sim.random.stream(name)`` at construction time) and draw
    from it directly; :meth:`stream` is the registry's only entry point.
    """

    __slots__ = ("master_seed", "_streams")

    def __init__(self, master_seed: int = 0) -> None:
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return (creating on first use) the stream called ``name``."""
        stream = self._streams.get(name)
        if stream is None:
            stream = self._streams[name] = random.Random(
                _derive_seed(self.master_seed, name))
        return stream
