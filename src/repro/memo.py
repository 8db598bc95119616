"""The bounded, thread-safe LRU behind every process-global memo.

The solve memo (:func:`repro.core.search.solve_memo`), the movement-tables
memo (:mod:`repro.core.tables`), the compiled-schedule memo
(:mod:`repro.codegen.schedule`) and the lowered micro-kernel memo of each
registered replaceable kernel
(:meth:`repro.microkernel.ReplaceableMicroKernel.lower`) are each one
:class:`LRUMemo`.  This module imports nothing from the package, so
``core``, ``codegen`` and ``microkernel`` can use it without an import
cycle.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Generic, Hashable, Optional, TypeVar

V = TypeVar("V")


class LRUMemo(Generic[V]):
    """Bounded LRU with hit, miss and eviction counters.

    Every lookup that finds nothing counts one miss, so for
    :meth:`get_or_compute` ``misses`` is the number of values computed.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._entries: "OrderedDict[Hashable, V]" = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0

    def get(self, key: Hashable) -> Optional[V]:
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            return entry

    def put(self, key: Hashable, value: V) -> None:
        with self._lock:
            self._insert(key, value)

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """The cached value of ``key``, computing and caching it on a miss.

        ``compute`` runs outside the lock: it must be pure, and a rare
        duplicate computation beats serializing every miss.  When another
        thread cached the key meanwhile, its value wins.
        """
        entry = self.get(key)
        if entry is not None:
            return entry
        value = compute()
        with self._lock:
            existing = self._entries.get(key)
            if existing is not None:
                return existing
            self._insert(key, value)
        return value

    def _insert(self, key: Hashable, value: V) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._evictions += 1

    def forget(self, drop: Callable[[Hashable], bool]) -> None:
        """Remove every entry whose key ``drop`` selects (not an eviction)."""
        with self._lock:
            for key in [k for k in self._entries if drop(k)]:
                del self._entries[key]

    def clear(self) -> None:
        """Remove every entry and reset the counters."""
        with self._lock:
            self._entries.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, int]:
        with self._lock:
            return {
                "entries": len(self._entries),
                "capacity": self.capacity,
                "hits": self._hits,
                "misses": self._misses,
                "evictions": self._evictions,
            }
