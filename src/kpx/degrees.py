"""Degree arithmetic for rank-k graphs.

A degree is a tuple of k non-negative integers, ordered componentwise.
Extended degrees additionally allow ``math.inf`` entries and are used for
eventually-periodic infinite paths.
"""

import math
import operator

from .errors import DegreeOutOfRange

INF = math.inf


def zero(k):
    return (0,) * k


def unit(k, i):
    """The i-th standard basis degree (colors are 1-based)."""
    if not 1 <= i <= k:
        raise DegreeOutOfRange(f"color {i} out of range 1..{k}")
    return tuple(1 if j == i - 1 else 0 for j in range(k))


def sub(m, n):
    """Componentwise difference m - n; requires n <= m."""
    if not le(n, m):
        raise DegreeOutOfRange(f"cannot subtract {n} from {m}")
    return tuple(map(operator.sub, m, n))


def diff(m, n):
    """Componentwise difference allowing negative entries (a Z^k element)."""
    return tuple(map(operator.sub, m, n))


def le(m, n):
    return all(map(operator.le, m, n))


def join(m, n):
    return tuple(map(max, m, n))
