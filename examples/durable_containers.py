"""The persistent "standard library": durable containers in NVRAM.

The introduction's promise — "only one format of data will suffice" —
as application code: ordinary-looking containers whose every mutation is
a failure-atomic section, managed by the adaptive software cache.  We
build a tiny task tracker out of them, pull the plug mid-operation, and
recover everything committed.

Usage::

    python examples/durable_containers.py
"""

from repro.atlas import AtlasRuntime, recover
from repro.pstructs import PersistentDict, PersistentQueue, PersistentVector


def main() -> None:
    rt = AtlasRuntime(technique="SC")

    log = PersistentVector(rt)        # append-only audit log
    users = PersistentDict(rt)        # user -> completed-task count
    inbox = PersistentQueue(rt)       # pending tasks, FIFO

    print("running the task tracker ...")
    for i in range(40):
        inbox.enqueue(f"task-{i}")
        log.append(("submitted", i))
    for i in range(25):
        task = inbox.dequeue()
        user = f"user-{i % 3}"
        users.put(user, (users.get(user) or 0) + 1)
        log.append(("done", task))

    print(f"  pending : {len(inbox)}")
    print(f"  users   : {dict(users.items())}")
    print(f"  log     : {len(log)} entries")

    # Power failure in the middle of one more operation.
    rt.fase_begin()
    rt.store(rt.alloc(8), value="half-finished mutation")
    state = rt.crash()
    print(f"\ncrash! ({len(state.lost_lines)} dirty lines lost)")

    report = recover(state, rt.layout())
    print(f"recovered: {len(report.committed_fases)} FASEs committed, "
          f"{len(report.rolled_back_fases)} rolled back")

    pending = PersistentQueue.read_back(report.read, inbox.header)
    counts = PersistentDict.read_back(report.read, users.header)
    entries = PersistentVector.read_back(report.read, log.header)

    assert len(pending) == 15
    assert sum(counts.values()) == 25
    assert len(entries) == 65
    assert pending[0] == "task-25"
    print("verified: queue order, per-user counts and the audit log all "
          "match the committed state exactly.")
    print(f"\nflush stats: {rt.stats.flushes} flushes for "
          f"{rt.stats.persistent_stores} stores "
          f"(ratio {rt.stats.flush_ratio:.3f})")


if __name__ == "__main__":
    main()
