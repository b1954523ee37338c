"""The one rule for a number that comes from outside the program.

Config fields, manifest keys, checkpoint counters, command line flags and
the counts public functions take are checked here and nowhere else. A
bool is neither an integer nor a number, and a float or str is no
integer: each is rejected, never rounded or compared by value. A rule
raises the caller's error class with ``{name} must be {rule}, got
{value!r}``, or returns a Python int, tuple of ints or float.
"""

from numbers import Integral, Real

import numpy as np


def integer(name: str, value, error, least: int, most: int = None) -> int:
    """Rule ``an integer``, then ``at least N`` or ``in [a, b]``."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise error(f"{name} must be an integer, got {value!r}")
    if value < least or most is not None and value > most:
        rule = f"at least {least}" if most is None else f"in [{least}, {most}]"
        raise error(f"{name} must be {rule}, got {value!r}")
    return int(value)


def integers(name: str, value, error, least: int) -> tuple:
    """Rule ``a non-empty list of integers of at least N``."""
    items = tuple(value) if np.iterable(value) else ()
    if items and all(not isinstance(n, bool) and isinstance(n, Integral) and n >= least
                     for n in items):
        return tuple(int(n) for n in items)
    raise error(f"{name} must be a non-empty list of integers of at least {least}, got {value!r}")


def real(name: str, value, error, rule: str, holds) -> float:
    """Rule ``a number``, then ``rule``: the words for what ``holds`` tests."""
    if isinstance(value, bool) or not isinstance(value, Real):
        raise error(f"{name} must be a number, got {value!r}")
    try:
        if holds(float(value)):
            return float(value)
    except OverflowError:  # an int past the float range meets no rule
        pass
    raise error(f"{name} must be {rule}, got {value!r}")
