"""The software cache's LRU order (§III-C's hash map + doubly linked
list, which ``WriteCombiningCache`` holds as an ``OrderedDict``)."""

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.cache.write_cache import WriteCombiningCache


def test_insert_and_membership():
    c = WriteCombiningCache(4)
    c.access(1)
    c.access(2)
    assert 1 in c and 2 in c and 3 not in c
    assert len(c) == 2


def test_eviction_order_is_lru():
    c = WriteCombiningCache(3)
    for k in (1, 2, 3):
        c.access(k)
    assert [c.access(k) for k in (4, 5, 6)] == [1, 2, 3]


def test_touch_moves_to_mru():
    c = WriteCombiningCache(3)
    for k in (1, 2, 3):
        c.access(k)
    assert c.access(1) is None          # a hit: combined, now most recent
    assert c.access(4) == 2
    assert c.drain() == [3, 1, 4]


def test_clear_returns_lru_order():
    c = WriteCombiningCache(8)
    for k in (5, 6, 7):
        c.access(k)
    c.access(5)
    assert c.drain() == [6, 7, 5]
    assert len(c) == 0
    assert c.drain() == []


class LruModel(RuleBasedStateMachine):
    """Every line the cache hands back — evicted on a miss, drained,
    evicted by a shrink — against a plain-list LRU model, in
    order, with ``snapshot()``'s identities holding after every step."""

    def __init__(self):
        super().__init__()
        self.cache = WriteCombiningCache(4)
        self.model = []  # LRU .. MRU

    @rule(line=st.integers(min_value=0, max_value=12))
    def access(self, line):
        expected = None
        if line in self.model:
            self.model.remove(line)
        elif len(self.model) == self.cache.capacity:
            expected = self.model.pop(0)
        self.model.append(line)
        assert self.cache.access(line) == expected

    @rule()
    def drain(self):
        assert self.cache.drain() == self.model
        self.model = []

    @rule(capacity=st.integers(min_value=1, max_value=6))
    def resize(self, capacity):
        cut = max(0, len(self.model) - capacity)
        assert self.cache.resize(capacity) == self.model[:cut]
        self.model = self.model[cut:]

    @invariant()
    def agrees_with_model(self):
        assert len(self.cache) == len(self.model)
        assert all(line in self.cache for line in self.model)
        self.cache.snapshot()


TestLruStateful = LruModel.TestCase
TestLruStateful.settings = settings(max_examples=40, deadline=None)
