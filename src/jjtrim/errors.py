"""Exception hierarchy shared across the toolkit, and the one range check
every config field, function argument and CLI flag goes through."""

import math


class JJTrimError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(JJTrimError, ValueError):
    """A model, config, or input value violates its contract."""


class FitError(JJTrimError, ValueError):
    """A regression cannot be performed on the given data."""


class SchemaError(JJTrimError, ValueError):
    """A file does not match its declared schema.

    ``details`` carries one human-readable message per offending
    line/field so callers can report every problem at once.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = tuple(details or ())


class ControllerError(JJTrimError, RuntimeError):
    """Closed-loop tuning aborted; carries the partial record."""

    def __init__(self, message, partial_record=None):
        super().__init__(message)
        self.partial_record = partial_record


class InfeasibleError(JJTrimError, RuntimeError):
    """A search (parking, unit-cell generation) found no solution."""


def check(name, value, gt=None, ge=None, lt=None):
    """``value`` if it is finite and within the given bounds, else a
    ValidationError naming ``name`` and the rule.

    A Python int is compared as it is, never converted to float, so a huge
    integer flag fails its bounds instead of overflowing.
    """
    if (
        (type(value) is int or math.isfinite(value))
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
    ):
        return value
    rule = " and ".join(
        f"{op} {bound}" for op, bound in ((">", gt), (">=", ge), ("<", lt)) if bound is not None
    )
    if type(value) is not int:
        rule = f"finite and {rule}" if rule else "finite"
    raise ValidationError(f"{name} must be {rule}, got {value}")


def check_window(name, window):
    """``window`` as a (lo, hi) pair if both edges are finite and lo < hi."""
    lo, hi = window
    if math.isfinite(lo) and math.isfinite(hi) and lo < hi:
        return lo, hi
    raise ValidationError(f"{name} must be finite with lo < hi, got {tuple(window)}")
