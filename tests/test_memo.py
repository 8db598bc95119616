"""Tests for :class:`repro.memo.LRUMemo`, the LRU behind every
process-global memo."""

import sys
import threading

from repro.memo import LRUMemo


def test_counters_stay_consistent_across_threads():
    """Threads hit, miss and evict one small memo at once: every lookup
    counts exactly one hit or one miss, every value is its own key's, and
    the memo never holds more than its capacity."""
    memo = LRUMemo(capacity=8)
    workers, lookups = 6, 400
    errors = []

    def lookup(seed):
        for i in range(lookups):
            key = (seed * 7 + i) % 24
            value = memo.get_or_compute(key, lambda: key * 10)
            if value != key * 10:
                errors.append((key, value))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [
            threading.Thread(target=lookup, args=(seed,), daemon=True)
            for seed in range(workers)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        stuck = [thread for thread in threads if thread.is_alive()]
    finally:
        sys.setswitchinterval(interval)
    assert not stuck
    assert not errors, errors[:3]
    stats = memo.stats()
    assert stats["hits"] + stats["misses"] == workers * lookups
    assert stats["entries"] == len(memo) <= memo.capacity
    # Every entry and every eviction was inserted by one miss.
    assert stats["entries"] + stats["evictions"] <= stats["misses"]

