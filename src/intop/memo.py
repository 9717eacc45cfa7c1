"""Bounded least-recently-used memos for the builds that repeated requests redo.

A memo keys each call on an exact key of its arguments and holds results
while their total size in bytes stays within a fixed budget, dropping the
least recently used first; a result larger than the whole budget is returned
but not held. Held results are shared between callers, so the builds make
their arrays read-only.
"""

from __future__ import annotations

import functools
from collections import OrderedDict

__all__ = ["lru_memo", "read_only"]


def read_only(array):
    """Mark `array` read-only and return it."""
    array.flags.writeable = False
    return array


def lru_memo(key, budget, size):
    """Decorator: memoize build(*args, **kwargs) under key(*args, **kwargs),
    holding results of total size(result) bytes up to budget.

    The wrapper gains cache_clear() and held_size(), the total bytes of the
    results it holds.
    """
    def decorate(build):
        held = OrderedDict()  # key -> (result, size), least recent first
        total = 0

        @functools.wraps(build)
        def memoized(*args, **kwargs):
            nonlocal total
            k = key(*args, **kwargs)
            if k in held:
                held.move_to_end(k)
                return held[k][0]
            value = build(*args, **kwargs)
            cost = size(value)
            if cost <= budget:
                held[k] = (value, cost)
                total += cost
                while total > budget:
                    total -= held.popitem(last=False)[1][1]
            return value

        def cache_clear():
            nonlocal total
            held.clear()
            total = 0

        memoized.cache_clear = cache_clear
        memoized.held_size = lambda: total
        return memoized
    return decorate
