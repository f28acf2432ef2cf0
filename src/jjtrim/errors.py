"""The toolkit's two exceptions, one per non-zero exit code, and the one range
check every config field, function argument, CLI flag and file column goes through."""

import math

import numpy as np


class ValidationError(ValueError):
    """Invalid input: a model, config, file, fit or value breaks its contract (exit 2).

    ``details`` carries one human-readable message per offending line so
    callers can report every problem at once.
    """

    def __init__(self, message, details=()):
        super().__init__(message)
        self.details = tuple(details)


class InfeasibleError(RuntimeError):
    """A search (parking, unit cell) or a tuning loop found no solution in its bounds (exit 3)."""


def check(name, value, gt=None, ge=None, lt=None, le=None, integer=False):
    """``value`` if it is finite and within the given bounds, else a
    ValidationError naming ``name`` and the rule.

    A Python int is compared as it is, never converted to float, so a huge
    integer flag fails its bounds instead of overflowing; one too long for
    ``str`` is named by its size. With ``integer``, as for a seed or a count,
    a float or a bool is refused instead of being truncated.
    """
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if (
        (whole if integer else type(value) is int or math.isfinite(value))
        and (gt is None or value > gt)
        and (ge is None or value >= ge)
        and (lt is None or value < lt)
        and (le is None or value <= le)
    ):
        return value
    bounds = ((">", gt), (">=", ge), ("<", lt), ("<=", le))
    rule = " and ".join(f"{op} {bound}" for op, bound in bounds if bound is not None)
    if integer and not whole:
        rule = f"an integer {rule}".rstrip()
    elif type(value) is not int:
        rule = f"finite and {rule}" if rule else "finite"
    try:
        shown = str(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        shown = f"an integer of {value.bit_length()} bits"
    raise ValidationError(f"{name} must be {rule}, got {shown}")


def check_float(name, value) -> float:
    """``check(name, value)`` as a float; an int too large for a float is not finite."""
    try:
        return float(check(name, value))
    except OverflowError:
        raise ValidationError(f"{name} must be finite, got a {value.bit_length()}-bit int") from None


_COMPARE = {"gt": np.greater, "ge": np.greater_equal, "lt": np.less}


def check_rows(where, columns, bounds):
    """``check`` on every row of a column set at once; ``bounds`` maps a column
    to ``check``'s bounds. The first failing row raises ``check``'s error for
    its first failing column, named ``where[row].column``."""
    ok = True
    for name, rule in bounds.items():
        ok = ok & np.isfinite(columns[name])
        for op, bound in rule.items():
            ok = ok & _COMPARE[op](columns[name], bound)
    if not np.all(ok):
        row = int(np.argmin(ok))
        for name, rule in bounds.items():
            check(f"{where}[{row}].{name}", np.asarray(columns[name])[row].item(), **rule)


def check_window(name, window):
    """``window`` as a (lo, hi) pair if both edges are finite and lo < hi."""
    lo, hi = window
    if math.isfinite(lo) and math.isfinite(hi) and lo < hi:
        return lo, hi
    raise ValidationError(f"{name} must be finite with lo < hi, got {tuple(window)}")
