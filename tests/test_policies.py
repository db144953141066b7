"""Unit behaviour of the six persistence techniques (§IV-A)."""

import pytest

from repro.cache.adaptive import AdaptiveConfig, AdaptiveController
from repro.cache.policies import (
    TECHNIQUES,
    AtlasTechnique,
    BestTechnique,
    EagerTechnique,
    LazyTechnique,
    PersistenceTechnique,
    SoftwareCacheTechnique,
    VictimCacheTechnique,
)
from repro.cache.spec import technique_factory
from repro.cache.table import AtlasTable
from repro.common.errors import ConfigurationError


class FakePort:
    """Records the flush calls a technique makes."""

    def __init__(self):
        self.async_calls = []     # (line, category)
        self.sync_calls = []      # (lines tuple, category)
        self.adaptation = 0
        self.sizes = []
        self.events = []          # (kind, a, b) structured trace events
        self.current_fase_id = 0
        self.thread_id = 0

    def flush_async(self, line, category="eviction"):
        self.async_calls.append((line, category))

    def flush_sync(self, lines, category="fase_end"):
        self.sync_calls.append((tuple(lines), category))

    def add_adaptation_cost(self, cycles):
        self.adaptation += cycles

    def record_selected_size(self, size):
        self.sizes.append(size)

    def record_event(self, kind, a=0, b=0):
        self.events.append((kind, a, b))


def bind(technique):
    port = FakePort()
    technique.bind(port)
    return port


def test_eager_flushes_every_store():
    t = EagerTechnique()
    port = bind(t)
    assert t.insert(7) == 7 and t.drain() == ()     # the line goes straight back
    for line in (1, 1, 2):
        t.on_store(line)
    assert port.async_calls == [(1, "eager"), (1, "eager"), (2, "eager")]
    t.on_fase_end()
    t.finish()
    assert port.sync_calls == []


def test_lazy_flushes_once_per_line_at_fase_end():
    t = LazyTechnique()
    port = bind(t)
    for line in (1, 2, 1, 3, 2):
        t.on_store(line)
    assert port.async_calls == []
    t.on_fase_end()
    assert port.sync_calls == [((1, 2, 3), "fase_end")]
    t.on_fase_end()                       # nothing pending: no drain
    assert len(port.sync_calls) == 1


def test_lazy_finish_flushes_leftovers():
    t = LazyTechnique()
    port = bind(t)
    t.on_store(9)
    t.finish()
    assert port.sync_calls == [((9,), "final")]


def test_atlas_conflict_and_drain():
    table = AtlasTable(4)
    assert table.access(1) is None
    assert table.access(5) == 1     # 5 % 4 == 1: conflict
    assert table.drain() == [5]
    t = AtlasTechnique()            # Atlas's eight entries
    port = bind(t)
    t.on_store(1)
    t.on_store(9)       # 9 % 8 == 1: conflict
    assert port.async_calls == [(1, "eviction")]
    t.on_fase_end()
    assert port.sync_calls == [((9,), "fase_end")]


def test_software_cache_eviction_and_drain():
    t = SoftwareCacheTechnique(initial_size=2)
    port = bind(t)
    t.on_store(1)
    t.on_store(2)
    t.on_store(1)       # combined
    t.on_store(3)       # evicts LRU (2)
    assert port.async_calls == [(2, "eviction")]
    t.on_fase_end()
    assert port.sync_calls == [((1, 3), "fase_end")]


def test_software_cache_adapts_and_resizes():
    cfg = AdaptiveConfig(burst_length=60)
    t = SoftwareCacheTechnique(initial_size=4, controller=AdaptiveController(config=cfg))
    port = bind(t)
    for _ in range(12):
        for line in range(6):
            t.on_store(line)
    assert port.sizes, "controller never decided"
    assert port.sizes[0] >= 6
    assert t.cache.capacity == port.sizes[0]
    assert port.adaptation > 0


def test_software_cache_shrink_resize_flushes_evicted():
    t = SoftwareCacheTechnique(initial_size=4)
    port = bind(t)
    for line in (1, 2, 3, 4):
        t.on_store(line)
    evicted = t.cache.resize(2)
    assert evicted == [1, 2]


def test_best_never_flushes():
    t = BestTechnique()
    port = bind(t)
    for line in range(10):
        t.on_store(line)
    t.on_fase_end()
    t.finish()
    assert port.async_calls == [] and port.sync_calls == []


#: What each technique's buffer says: the category of a line ``insert``
#: returns, and how many ``drain`` calls a commit makes.
BUFFERS = {
    EagerTechnique: ("eager", 1),
    LazyTechnique: ("eviction", 1),
    AtlasTechnique: ("eviction", 1),
    SoftwareCacheTechnique: ("eviction", 1),
    BestTechnique: (None, 1),
    VictimCacheTechnique: ("victim", 2),
}


@pytest.mark.parametrize("hook", ["on_store", "on_fase_begin", "on_fase_end", "finish"])
def test_every_technique_is_driven_through_its_buffer(hook):
    """No technique brings its own ``hook``: each is ``insert`` + ``drain``
    + one flush category, and the base class spells the hooks from them."""
    for cls, (category, levels) in BUFFERS.items():
        assert getattr(cls, hook) is getattr(PersistenceTechnique, hook), cls
        assert (cls.flush_category, cls.levels) == (category, levels), cls


def test_buffered_hooks_are_insert_and_drain():
    """``on_store``/``on_fase_end``/``finish`` as a caller with a port
    sees them: ``insert``'s victim is an eviction flush, ``drain`` a
    commit or final train."""
    t = SoftwareCacheTechnique(initial_size=1, name="SC-offline")
    port = bind(t)
    assert t.insert == t.cache.access
    for line in (1, 2):
        t.on_store(line)
    t.on_fase_end()
    t.on_store(3)
    t.finish()
    assert port.async_calls == [(1, "eviction")]
    assert port.sync_calls == [((2,), "fase_end"), ((3,), "final")]


def test_the_batched_loop_calls_the_instance_insert():
    """SC-offline's ``insert`` is its cache's bound ``access``; whatever an
    instance holds under ``insert`` is what a store enters."""
    from repro.common.events import FaseBegin, FaseEnd, Store, batches_from_events
    from repro.nvram.machine import Machine, MachineConfig
    from repro.nvram.memory import NVRAM_BASE
    from repro.workloads.base import Workload

    lines = [0, 1, 2, 0, 3, 3, 1]
    events = [FaseBegin(), *(Store(NVRAM_BASE + 64 * k, 8) for k in lines), FaseEnd()]

    class Stores(Workload):
        name = "stores"

        def streams(self, num_threads, seed):
            return [iter(events)]

        def batch_streams(self, num_threads, seed):
            return [batches_from_events(iter(events), 64)]

    def factory(tid):
        t = technique_factory("SC-offline", sc_fixed_size=2)(tid)
        access = t.insert

        def insert(line):
            entered.append(line - (NVRAM_BASE >> 6))
            return access(line)

        t.insert = insert
        return t

    for use_batches, want in ((False, lines), (True, [0, 1, 2, 0, 3, 1])):
        entered = []
        machine = Machine(MachineConfig())
        result = machine.run(Stores(), factory, use_batches=use_batches)
        assert entered == want      # batched: the repeat of 3 is absorbed
        assert result.threads[0].eviction_flushes == 4


def test_factory_known_names():
    for name in TECHNIQUES:
        kwargs = {"sc_fixed_size": 8} if name == "SC-offline" else {}
        technique = technique_factory(name, **kwargs)(0)
        assert technique.name in (name, "SC")


def test_factory_per_thread_instances_are_independent():
    factory = technique_factory("SC")
    a, b = factory(0), factory(1)
    assert a is not b
    assert a.cache is not b.cache
    assert a.controller is not b.controller


def test_factory_rejects_unknown_and_missing_args():
    with pytest.raises(ConfigurationError):
        technique_factory("nope")
    with pytest.raises(ConfigurationError):
        technique_factory("SC-offline")


def test_cost_ordering_matches_table4():
    """Instruction overhead ordering: BEST < ER < LA < AT < SC."""
    costs = [
        BestTechnique.cost_per_store,
        EagerTechnique.cost_per_store,
        LazyTechnique.cost_per_store,
        AtlasTechnique.cost_per_store,
        SoftwareCacheTechnique.cost_per_store,
    ]
    assert costs == sorted(costs)
    assert len(set(costs)) == len(costs)
