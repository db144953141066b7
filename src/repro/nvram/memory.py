"""The simulated physical address space.

Addresses at or above :data:`NVRAM_BASE` form the *persistence domain* —
the byte-addressable non-volatile region the paper's tmpfs emulation
stands in for.  Addresses below it are ordinary volatile DRAM (where the
software cache itself lives; the paper places it "in the faster DRAM,
rather than NVRAM").

No durable image is kept here: a store becomes durable only when its
cache line is written back (evicted dirty or flushed), and a
value-tracking machine records that in its crash journal
(:class:`~repro.nvram.failure.CrashJournal`), which ``Machine.power_cut``
walks to read what a power failure leaves.
"""

#: Start of the persistence domain.  Everything at or above this byte
#: address survives a crash once written back.
NVRAM_BASE: int = 0x1000_0000
