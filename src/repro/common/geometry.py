"""Cache-line geometry.

The paper's platform (and essentially every x86 machine) uses 64-byte cache
lines; both the hardware cache model and the software write-combining cache
operate at cache-line granularity, exactly as Atlas does ("Atlas monitors
data writes at cache-line granularity", §II-A).

Addresses are plain integers (byte addresses).  A *line number* is the byte
address divided by the line size; a *line base* is the first byte address of
the line.  The software cache and all flush bookkeeping key on line numbers.
"""

from __future__ import annotations

from repro.common.errors import ConfigurationError

#: Cache-line (cache-block) size in bytes, matching the evaluation platform
#: ("a cache block has 64 bytes, i.e. 16 (4-byte) integers", §IV-B).
CACHE_LINE_SIZE: int = 64

_LINE_SHIFT: int = CACHE_LINE_SIZE.bit_length() - 1
_LINE_MASK: int = CACHE_LINE_SIZE - 1

assert (1 << _LINE_SHIFT) == CACHE_LINE_SIZE, "line size must be a power of two"


def line_of(addr: int) -> int:
    """Return the cache-line number containing byte address ``addr``."""
    return addr >> _LINE_SHIFT


def line_offset(addr: int) -> int:
    """Return the offset of ``addr`` within its cache line (0..63)."""
    return addr & _LINE_MASK


def line_base(addr: int) -> int:
    """Return the byte address of the first byte of ``addr``'s cache line."""
    return addr & ~_LINE_MASK


def negative_size(size: int) -> ConfigurationError:
    """The one refusal of an access of ``size`` < 0 bytes, wherever an
    access is made or decoded."""
    return ConfigurationError(f"negative access size: {size}")


def lines_spanned(addr: int, nbytes: int) -> range:
    """Return the range of line numbers touched by ``nbytes`` at ``addr``.

    A zero-length access touches no lines.
    """
    if nbytes < 0:
        raise negative_size(nbytes)
    if nbytes == 0:
        return range(0)
    first = line_of(addr)
    last = line_of(addr + nbytes - 1)
    return range(first, last + 1)


def align_up(addr: int, alignment: int = CACHE_LINE_SIZE) -> int:
    """Round ``addr`` up to the next multiple of ``alignment``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ConfigurationError(f"alignment must be a power of two: {alignment}")
    return (addr + alignment - 1) & ~(alignment - 1)


def align_down(addr: int, alignment: int = CACHE_LINE_SIZE) -> int:
    """Round ``addr`` down to a multiple of ``alignment``."""
    if alignment <= 0 or alignment & (alignment - 1):
        raise ConfigurationError(f"alignment must be a power of two: {alignment}")
    return addr & ~(alignment - 1)
