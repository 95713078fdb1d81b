"""Set-associative LRU cache model."""

import pytest

from repro.arch.cache import SetAssociativeCache
from repro.config import CacheConfig


def tiny_cache(ways: int = 2, sets: int = 4, line: int = 64) -> SetAssociativeCache:
    return SetAssociativeCache(
        CacheConfig(
            size_bytes=ways * sets * line, line_bytes=line, ways=ways,
            access_latency=1,
        ),
        "tiny",
    )


class TestBasics:
    def test_cold_miss_then_hit(self):
        c = tiny_cache()
        assert not c.access(0x100).hit
        assert c.access(0x100).hit

    def test_same_line_shares_entry(self):
        c = tiny_cache(line=64)
        c.access(0x100)
        assert c.access(0x100 + 63).hit
        assert not c.access(0x100 + 64).hit

    def test_probe_does_not_touch(self):
        c = tiny_cache()
        assert not c.probe(0x40)
        assert c.misses == 0  # probe is stat-free
        c.access(0x40)
        assert c.probe(0x40)
        assert c.hits == 0 and c.misses == 1

    def test_counts(self):
        c = tiny_cache()
        for addr in (0, 0, 64, 0):
            c.access(addr)
        assert c.accesses == 4
        assert c.hits == 2 and c.misses == 2
        assert c.miss_rate == pytest.approx(0.5)


class TestLru:
    def test_eviction_order_is_lru(self):
        c = tiny_cache(ways=2, sets=1)
        a, b, d = 0, 64, 128  # one set only
        c.access(a)
        c.access(b)
        c.access(a)          # a is now MRU
        res = c.access(d)    # evicts b (LRU)
        assert res.victim_line == b // 64
        assert c.probe(a) and not c.probe(b)

    def test_victim_reported_only_when_full(self):
        c = tiny_cache(ways=2, sets=1)
        assert c.access(0).victim_line is None
        assert c.access(64).victim_line is None
        assert c.access(128).victim_line is not None

    def test_no_allocate_leaves_cache_unchanged(self):
        c = tiny_cache()
        res = c.access(0x200, allocate=False)
        assert not res.hit
        assert not c.probe(0x200)
        assert c.misses == 1

    def test_fill_without_access_stats(self):
        c = tiny_cache()
        c.fill(0x300)
        assert c.probe(0x300)
        assert c.accesses == 0

    def test_fill_touches_lru_when_present(self):
        c = tiny_cache(ways=2, sets=1)
        c.fill(0)
        c.fill(64)
        c.fill(0)       # 0 becomes MRU again
        c.fill(128)     # evicts 64
        assert c.probe(0) and not c.probe(64)


class TestInvalidate:
    def test_invalidate_present(self):
        c = tiny_cache()
        c.access(0)
        assert c.invalidate(0)
        assert not c.probe(0)

    def test_invalidate_absent(self):
        c = tiny_cache()
        assert not c.invalidate(0x1000)


class TestSetMapping:
    def test_different_sets_do_not_conflict(self):
        c = tiny_cache(ways=1, sets=4, line=64)
        # Lines 0 and 1 map to different sets: no eviction.
        c.access(0)
        c.access(64)
        assert c.probe(0) and c.probe(64)

    def test_same_set_conflicts_with_one_way(self):
        c = tiny_cache(ways=1, sets=4, line=64)
        c.access(0)
        c.access(4 * 64)  # same set, one way -> evicts
        assert not c.probe(0)

    def test_non_power_of_two_sets(self):
        cfg = CacheConfig(size_bytes=3 * 2 * 64, line_bytes=64, ways=2,
                          access_latency=1)
        c = SetAssociativeCache(cfg, "np2")
        assert cfg.num_sets == 3
        for a in range(0, 6 * 64, 64):
            c.access(a)
        assert c.occupancy == 6

    def test_occupancy_bounded_by_capacity(self):
        c = tiny_cache(ways=2, sets=4)
        for a in range(0, 64 * 64, 64):
            c.access(a)
        assert c.occupancy <= 8
        assert c.evictions > 0
