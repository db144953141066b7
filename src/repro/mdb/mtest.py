"""The Mtest workload (§IV-C).

"The workload inserts 1 million key/value pairs along with many
traversals and deletions.  In the entire execution, there are 65 558 123
persistent memory stores.  The number of durable FASEs is 100 516.  Each
has 652 persistent memory stores on average."

The scaled reproduction inserts ``pairs`` keys in batches of
``batch_size`` puts per write transaction, interleaves snapshot traversals, and
deletes a fraction of the keys.  With the default 512-byte pages a
write transaction copies ~10 leaf pages plus shared branch pages —
several hundred stores per FASE, the same order as the paper's 652.

Threading mirrors MDB's MVCC: thread 0 is the (single) writer; the
remaining threads are lock-free snapshot readers whose traversals
generate load traffic (hardware-cache contention) but no flushes —
"readers … run in parallel with writers".
"""

from __future__ import annotations

import numbers
from contextlib import contextmanager
from typing import Iterator, List

from repro.common.errors import ConfigurationError, require_int
from repro.common.events import BATCH_CHUNK, EventBatch, RunRecorder
from repro.common.rng import derive_seed, make_rng
from repro.mdb.kvstore import MdbStore
from repro.mdb.ops import RecordingOps
from repro.mdb.pages import SLOT_BYTES
from repro.workloads.base import Workload


class ChannelRecordingOps(RecordingOps):
    """A recording backend with one event channel per simulated thread.

    The store logic runs once, single-threaded; runs land in the
    channel's recorder selected at the time: writer transactions in
    channel 0, reader traversals in their reader's.  The machine then
    interleaves the channels by simulated time.
    """

    def __init__(self, channels: int, load_sample: int = 4) -> None:
        super().__init__(load_sample=load_sample)
        if channels < 1:
            raise ConfigurationError("need at least one channel")
        self.recordings: List[RunRecorder] = [self.recording] + [
            RunRecorder() for _ in range(channels - 1)
        ]

    @property
    def channels(self) -> List[EventBatch]:
        """Each channel's recording as one batch."""
        return [recording.batch() for recording in self.recordings]

    @contextmanager
    def on_channel(self, idx: int) -> Iterator[None]:
        """Route events to channel ``idx`` for the duration."""
        prev = self.recording
        self.recording = self.recordings[idx]
        try:
            yield
        finally:
            self.recording = prev


class MtestWorkload(Workload):
    """Scaled Mtest: batched inserts + snapshot traversals + deletions."""

    name = "mdb"

    def __init__(
        self,
        pairs: int = 20_000,
        batch_size: int = 24,
        delete_fraction: float = 0.1,
        traversals: int = 6,
        page_size: int = 512,
    ) -> None:
        require_int("pairs", pairs, 1)
        require_int("batch_size", batch_size, 1)
        require_int("traversals", traversals, 0)
        require_int("page_size", page_size, 3 * SLOT_BYTES)
        if isinstance(delete_fraction, bool) or not (
            isinstance(delete_fraction, numbers.Real) and 0 <= delete_fraction <= 1
        ):
            raise ConfigurationError(
                f"delete_fraction must be a number in [0, 1], got {delete_fraction!r}"
            )
        self.pairs = pairs
        self.batch_size = batch_size
        self.delete_fraction = delete_fraction
        self.traversals = traversals
        self.page_size = page_size

    def supports_threads(self, num_threads: int) -> bool:
        return num_threads >= 1

    def store_threads(self, num_threads: int) -> int:
        return 1   # MVCC: a single writer; readers never store

    def batch_streams(self, num_threads: int, seed: int) -> List[Iterator[EventBatch]]:
        """The program as the machine runs it: each channel's columns in
        ``BATCH_CHUNK`` slices (``streams`` is the inherited decoding)."""
        recordings = self._record(num_threads, seed).recordings
        return [recording.batch().split(BATCH_CHUNK) for recording in recordings]

    def _record(self, num_threads: int, seed: int) -> ChannelRecordingOps:
        """Run the whole store once, single-threaded, into per-thread
        channels; the machine only drains the finished columns."""
        ops = ChannelRecordingOps(num_threads)
        rng = make_rng(derive_seed(seed, "mtest"))
        store = MdbStore(ops, page_size=self.page_size)

        keys = rng.permutation(self.pairs * 4)[: self.pairs].tolist()
        n_batches = (len(keys) + self.batch_size - 1) // self.batch_size
        # Spread reader activity evenly through the insert phase.
        reader_every = max(1, n_batches // max(1, self.traversals))
        n_readers = max(0, num_threads - 1)

        def reader_pass(pass_idx: int) -> None:
            """Each reader thread: a snapshot scan plus point lookups."""
            for r in range(n_readers):
                with ops.on_channel(1 + r):
                    txn = store.read_txn()
                    seen = 0
                    for _ in txn.scan():
                        seen += 1
                    for _ in range(32):
                        txn.get(int(rng.integers(0, self.pairs * 4)))
                    ops.work(seen // 4)

        # Insert phase: batched write transactions in channel 0.
        for b in range(n_batches):
            batch = keys[b * self.batch_size : (b + 1) * self.batch_size]
            with store.write_txn() as txn:
                for k in batch:
                    txn.put(int(k), int(k) * 3 + 1)
            if n_readers and b % reader_every == reader_every - 1:
                reader_pass(b)

        # Delete phase: batched deletions of a random subset.
        n_delete = int(self.pairs * self.delete_fraction)
        doomed = rng.choice(len(keys), size=n_delete, replace=False)
        doomed_keys = [keys[i] for i in doomed]
        for b in range(0, n_delete, self.batch_size):
            batch = doomed_keys[b : b + self.batch_size]
            with store.write_txn() as txn:
                for k in batch:
                    txn.delete(int(k))

        # A final verification pass by the readers.
        if n_readers:
            reader_pass(n_batches)

        return ops
