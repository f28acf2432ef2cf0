"""The toolkit's two exceptions, one per non-zero exit code, and the one rule
every config field, function argument, CLI flag and file column goes through:
a real number is an int or float that a float can hold, returned as a float,
and an integer field takes only an int, compared exactly."""

import operator
import sys

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


# Each bound's symbol and comparison (elementwise on an array), in message order.
_BOUNDS = {"gt": (">", operator.gt), "ge": (">=", operator.ge),
           "lt": ("<", operator.lt), "le": ("<=", operator.le)}


def is_real(value):
    """Whether a float holds ``value`` (elementwise on an array): NaN, +-inf
    and an int beyond the float range fail this comparison."""
    return abs(value) <= sys.float_info.max


# An int beyond the float range as NaN, any other element as it is.
_huge_int_as_nan = np.frompyfunc(lambda v: np.nan if type(v) is int and not is_real(v) else v, 1, 1)


def floats(values):
    """``values`` as a float array in which an int beyond the float range reads
    NaN, for the caller's finite test to refuse: numpy's own conversion raises
    a bare OverflowError on such an int, which only an object array can hold.
    Every other element converts as numpy converts it (None reads NaN)."""
    values = np.asarray(values)
    if values.dtype == object:
        values = _huge_int_as_nan(values)
    return np.asarray(values, float)


def item(values, i):
    """Element ``i`` of an array, for ``check`` to test and name: an int or a
    float as given, anything else (None reads NaN) as ``floats`` makes it."""
    value = values.tolist()[i]
    return value if type(value) in (int, float) else floats(values[i : i + 1])[0].item()


def _shown(value):
    try:
        return str(value)
    except ValueError:  # an int past sys.get_int_max_str_digits()
        return f"an integer of {value.bit_length()} bits"


def check(name, value, integer=False, **bounds):
    """``value`` as a float if it is real and within ``bounds`` (``gt``, ``ge``,
    ``lt``, ``le``; compared before any conversion), else a ValidationError
    naming ``name`` and the rule. With ``integer``, as for a seed or a count, it
    must be an int (a float or a bool is refused, never truncated), returned as is."""
    whole = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    inside = whole or not integer
    for op, bound in bounds.items():  # a numpy bound would convert a huge int value
        inside = inside and _BOUNDS[op][1](value, float(bound))
    if inside and (integer or is_real(value)):
        return value if integer else float(value)
    rule = " and ".join(f"{sym} {bounds[op]}" for op, (sym, _) in _BOUNDS.items() if op in bounds)
    if integer and not whole:
        rule = f"an integer {rule}".rstrip()
    elif type(value) is not int or inside:
        rule = f"finite and {rule}" if rule else "finite"
    shown = f"a {value.bit_length()}-bit int" if type(value) is int and inside else _shown(value)
    raise ValidationError(f"{name} must be {rule}, got {shown}")


def check_rows(where, columns, bounds):
    """``check`` on every row of a column set at once; ``bounds`` maps a column
    to ``check``'s bounds. The first failing row raises ``check``'s error for
    its first failing column, named ``where[row].column``."""
    ok, columns = True, {name: np.asarray(columns[name]) for name in bounds}
    for name, rule in bounds.items():
        values = floats(columns[name])
        ok = ok & is_real(values)
        for op, bound in rule.items():
            ok = ok & _BOUNDS[op][1](values, bound)
    if not np.all(ok):
        row = int(np.argmin(ok))
        for name, rule in bounds.items():
            check(f"{where}[{row}].{name}", item(columns[name], row), **rule)


def check_window(name, window):
    """``window`` as a (lo, hi) pair of floats if both edges are real and lo < hi."""
    lo, hi = window
    if is_real(lo) and is_real(hi) and lo < hi:
        return float(lo), float(hi)
    raise ValidationError(f"{name} must be finite with lo < hi, got ({_shown(lo)}, {_shown(hi)})")
