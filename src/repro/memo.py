"""Memoization by operand identity.

Derived data — a transpose, a CSF conversion, the address streams of a
kernel over its operands — is a pure function of operands that are
never mutated once built, and the input suite memoizes the operands
themselves.  Keying on identity is then both sound and cheap: the
architecture sweeps ask for the same derived data once per machine
variant, and hashing multi-million-entry arrays to find it would cost
more than rebuilding it.
"""

from __future__ import annotations

import functools
import weakref


def identity_memo(fn):
    """Memoize ``fn(*operands)`` by the identity of its operands.

    An entry holds weak references to its operands and is dropped by
    :func:`weakref.finalize` as soon as any of them dies, so a fresh
    operand that reuses a freed one's ``id`` is never served the old
    result; every hit also re-checks each operand with ``is``.  The
    memoized value is shared by every caller: return immutable values
    (tuples, read-only arrays), or copy them before handing them out.
    Threads that miss at once each compute the value; they are equal,
    so whichever is stored last is as good as the first.
    ``wrapper.cache_clear()`` drops every entry.
    """
    memo: dict[tuple, tuple] = {}

    @functools.wraps(fn)
    def wrapper(*operands):
        key = tuple(map(id, operands))
        hit = memo.get(key)
        if hit is not None:
            refs, value = hit
            if all(ref() is x for ref, x in zip(refs, operands)):
                return value
        value = fn(*operands)
        memo[key] = (tuple(weakref.ref(x) for x in operands), value)
        for x in operands:
            weakref.finalize(x, memo.pop, key, None).atexit = False
        return value

    wrapper.cache_clear = memo.clear
    return wrapper
