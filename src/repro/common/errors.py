"""Exception hierarchy for the reproduction library."""


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
