"""Exception hierarchy for the reproduction library."""

import math
import numbers


class ReproError(Exception):
    """Base class for all errors raised by :mod:`repro`."""


class ConfigurationError(ReproError):
    """An object was configured with invalid or inconsistent parameters."""


class SimulationError(ReproError):
    """The simulated machine was driven into an invalid state.

    Raised for protocol violations such as ending a FASE that was never
    begun, storing to unallocated persistent memory, or flushing an
    address outside the persistence domain.
    """


class RecoveryError(ReproError):
    """Post-crash recovery found NVRAM in an unrecoverable state."""


def require_int(name: str, value: object, minimum: int) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is an ``int``
    (not a ``bool``) of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigurationError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise ConfigurationError(f"{name} must be >= {minimum}, got {value}")


def require_positive(name: str, value: object) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is a finite real
    number (``int`` or ``float``, not a ``bool``) greater than zero."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{name} must be a number, got {value!r}")
    if not (0 < value < math.inf):
        raise ConfigurationError(f"{name} must be finite and > 0, got {value}")
