"""LRUMap: the cache tier's deterministic eviction mechanism."""

import random
from collections import OrderedDict

import pytest

from repro.cache import LRUMap
from repro.exceptions import SimulationError


class TestLRUMap:
    def test_capacity_must_be_positive(self):
        with pytest.raises(SimulationError):
            LRUMap(0)
        with pytest.raises(SimulationError):
            LRUMap(-3)

    def test_roundtrip_and_contains(self):
        lru = LRUMap(2)
        assert lru.put("a", 1) is None
        assert lru.get("a") == 1
        assert "a" in lru and "b" not in lru
        assert lru.get("b") is None
        assert len(lru) == 1

    def test_eviction_is_least_recently_used(self):
        lru = LRUMap(2)
        lru.put("a", 1)
        lru.put("b", 2)
        evicted = lru.put("c", 3)
        assert evicted == ("a", 1)
        assert list(lru) == ["b", "c"]
        assert lru.evictions == 1

    def test_get_refreshes_recency(self):
        lru = LRUMap(2)
        lru.put("a", 1)
        lru.put("b", 2)
        lru.get("a")  # a becomes most-recent; b is now the victim
        assert lru.put("c", 3) == ("b", 2)
        assert "a" in lru

    def test_put_existing_key_refreshes_without_evicting(self):
        lru = LRUMap(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.put("a", 10) is None  # update, not growth
        assert lru.get("a") == 10
        assert lru.put("c", 3) == ("b", 2)

    def test_remove_is_not_counted_as_eviction(self):
        lru = LRUMap(2)
        lru.put("a", 1)
        assert lru.remove("a") == 1
        assert lru.remove("ghost") is None
        assert lru.evictions == 0
        assert len(lru) == 0

    def test_iteration_orders_lru_first(self):
        lru = LRUMap(3)
        for key in ("a", "b", "c"):
            lru.put(key, key)
        lru.get("a")
        assert list(lru) == ["b", "c", "a"]

    def test_version_moves_on_every_change_of_membership_or_recency(self):
        lru = LRUMap(2)
        seen = [lru.version]

        def moved():
            assert lru.version > seen[-1]
            seen.append(lru.version)

        lru.put("a", 1)
        moved()
        lru.get("a")                 # a hit refreshes recency
        moved()
        lru.put("b", 2)
        moved()
        lru.put("c", 3)              # a put that evicts
        moved()
        lru.remove("b")
        moved()
        version = lru.version
        assert lru.get("ghost") is None and "c" in lru and len(lru) == 1
        assert list(lru) == ["c"]
        assert lru.version == version    # a miss, a test, a read: no move

    def test_the_order_matches_an_ordered_dict_under_churn(self):
        rng = random.Random(7)
        lru, model = LRUMap(5), OrderedDict()
        for _ in range(2000):
            key = rng.randrange(12)
            op = rng.random()
            if op < 0.4:
                got = lru.get(key)
                assert got == model.get(key)
                if got is not None:
                    model.move_to_end(key)
            elif op < 0.9:
                model[key] = op
                model.move_to_end(key)
                expected = (model.popitem(last=False)
                            if len(model) > 5 else None)
                assert lru.put(key, op) == expected
            else:
                assert lru.remove(key) == model.pop(key, None)
            assert list(lru) == list(model)
