"""The package's one memo layer: named tables with hit and miss counters, and
interned keys.

Every cached result lives in a `Table` made by `table(name)`.  `stats()`
reports hits, misses and size per table; `clear()` empties every table and
zeroes its counters.  Keys are built from small ints: a rep's structural
fingerprint and a lambda's coordinates are each interned once per object
by `intern`, so content-equal objects share a key and a lookup hashes a short
tuple of ints.  Interned ints survive `clear()`, because objects keep the
ints they were given.

Cached values are shared by every caller and must not be mutated.
"""

from __future__ import annotations

import itertools
import threading

_lock = threading.Lock()  # guards the counters and the intern table
_interned: dict = {}
_next_id = itertools.count()
_tables: dict = {}


def intern(value) -> int:
    """A small int standing for the hashable `value`; equal values share it."""
    try:
        return _interned[value]
    except KeyError:
        with _lock:
            return _interned.setdefault(value, next(_next_id))


class Table:
    """One named memo table: key -> value, with hit and miss counts."""

    def __init__(self, name: str):
        self.name = name
        self.data: dict = {}
        self.hits = 0
        self.misses = 0

    def get(self, key, build, *args):
        """The value stored under `key`, built as `build(*args)` on a miss."""
        try:
            value = self.data[key]
        except KeyError:
            with _lock:
                self.misses += 1
            # a thread racing on the same key keeps whichever value landed first
            return self.data.setdefault(key, build(*args))
        with _lock:
            self.hits += 1
        return value


def table(name: str) -> Table:
    """The table called `name`, created on first use."""
    with _lock:
        if name not in _tables:
            _tables[name] = Table(name)
        return _tables[name]


def stats() -> dict:
    """{table name: {"hits", "misses", "size"}}, tables sorted by name."""
    with _lock:
        return {name: {"hits": t.hits, "misses": t.misses, "size": len(t.data)}
                for name, t in sorted(_tables.items())}


def clear() -> None:
    """Empty every table and zero its counters."""
    with _lock:
        for t in _tables.values():
            t.data.clear()
            t.hits = t.misses = 0
