"""Unit tests for the file-system page cache."""

import pytest

from repro.fs.pagecache import PageCache


def make_cache(capacity=4):
    written = []

    def writeback(lpn, data, tid):
        written.append((lpn, data, tid))

    return PageCache(capacity, writeback), written


class TestBasics:
    def test_put_get(self):
        cache, _ = make_cache()
        cache.put(1, "a")
        assert cache.get(1).data == "a"

    def test_miss_returns_none(self):
        cache, _ = make_cache()
        assert cache.get(1) is None

    def test_hit_miss_counters(self):
        cache, _ = make_cache()
        cache.put(1, "a")
        cache.get(1)
        cache.get(2)
        assert cache.hits == 1
        assert cache.misses == 1

    def test_peek_does_not_count(self):
        cache, _ = make_cache()
        cache.put(1, "a")
        cache.peek(1)
        cache.peek(2)
        assert cache.hits == 0 and cache.misses == 0

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PageCache(0, lambda *a: None)

    def test_update_existing_page(self):
        cache, _ = make_cache()
        cache.put(1, "a")
        cache.put(1, "b", dirty=True, txn=9)
        page = cache.get(1)
        assert page.data == "b" and page.dirty and page.txn == 9

    def test_contains(self):
        cache, _ = make_cache()
        cache.put(1, "a")
        assert 1 in cache
        assert 2 not in cache


class TestEviction:
    def test_clean_pages_evicted_silently(self):
        cache, written = make_cache(capacity=2)
        cache.put(1, "a")
        cache.put(2, "b")
        cache.put(3, "c")
        assert len(cache) == 2
        assert written == []

    def test_dirty_eviction_writes_back_with_tid(self):
        cache, written = make_cache(capacity=2)
        cache.put(1, "a", dirty=True, txn=7)
        cache.put(2, "b", dirty=True, txn=8)
        cache.put(3, "c", dirty=True, txn=9)
        assert written == [(1, "a", 7)]
        assert cache.counts.dirty_evictions == 1

    def test_clean_preferred_over_dirty(self):
        cache, written = make_cache(capacity=2)
        cache.put(1, "dirty", dirty=True, txn=1)
        cache.put(2, "clean")
        cache.put(3, "new")
        assert written == []  # the clean page 2 was evicted
        assert 1 in cache and 3 in cache

    def test_lru_order_refreshed_by_get(self):
        cache, _ = make_cache(capacity=2)
        cache.put(1, "a")
        cache.put(2, "b")
        cache.get(1)  # 2 is now LRU
        cache.put(3, "c")
        assert 1 in cache and 2 not in cache


class TestTransactionSupport:
    def test_drop_txn_removes_only_that_txn(self):
        cache, _ = make_cache(capacity=8)
        cache.put(1, "a", dirty=True, txn=1)
        cache.put(2, "b", dirty=True, txn=2)
        cache.put(3, "c", dirty=True, txn=1)
        dropped = cache.drop_txn(1)
        assert sorted(dropped) == [1, 3]
        assert 2 in cache and 1 not in cache

    def test_drop_txn_ignores_clean_pages(self):
        cache, _ = make_cache(capacity=8)
        cache.put(1, "a", dirty=False, txn=None)
        assert cache.drop_txn(1) == []
        assert 1 in cache

    def test_mark_clean(self):
        cache, _ = make_cache()
        cache.put(1, "a", dirty=True, txn=5)
        cache.mark_clean(1)
        page = cache.peek(1)
        assert not page.dirty and page.txn is None
