"""Exception hierarchy shared across the repro package."""

import math
import operator


class ReproError(Exception):
    """Base class for all errors raised by this package."""


class KernelConfigError(ReproError):
    """A kernel was invoked with an invalid or inconsistent configuration."""


class ScheduleError(ReproError):
    """A scheduling invariant (capacity, ordering, bubble lemma) was violated."""


class CapacityError(ScheduleError):
    """A sample or microbatch exceeds the configured token capacity."""


class SimulationError(ReproError):
    """The discrete-event simulator reached an inconsistent state."""


def require_finite(**values: float | None) -> None:
    """Raise :class:`ScheduleError` naming the first non-finite value.

    Range checks such as ``x < 0`` pass a NaN silently (every comparison
    with NaN is false), so public constructors call this first.  A value
    that is no real number at all (a string, say) is refused the same
    way, by name.  ``None`` is skipped: it means "off" wherever a knob
    is optional.
    """
    for name, value in values.items():
        if value is None:
            continue
        try:
            finite = math.isfinite(value)
        except TypeError:
            raise ScheduleError(
                f"{name} must be a real number, got {value!r}"
            ) from None
        if not finite:
            raise ScheduleError(f"{name} must be finite, got {value!r}")


def require_int(**values: object) -> None:
    """Raise :class:`ScheduleError` naming the first value that is no integer.

    Accepts what :func:`operator.index` accepts (``int``, ``bool``,
    numpy integers).  Range checks alone let a float such as ``2.5``
    through (``2.5 >= 1``) and fail on a string or ``None`` with a bare
    ``TypeError`` (``"2" < 1``), so public constructors call this first.
    ``None`` is refused too: a knob where it means "off" is checked only
    when set.
    """
    for name, value in values.items():
        try:
            operator.index(value)
        except TypeError:
            raise ScheduleError(f"{name} must be an integer, got {value!r}") from None
