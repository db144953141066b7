"""The online adaptation controller (burst -> MRC -> knee -> resize)."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cache.adaptive import AdaptiveConfig, AdaptiveController
from repro.cache.policies import SoftwareCacheTechnique
from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.experiments.harness import Harness, HarnessConfig, sc_factory_kwargs
from repro.locality.sampling import BurstSampler
from repro.nvram.machine import FlushPort, Machine, MachineConfig
from repro.obs.trace import EV_BURST_START
from repro.workloads.base import BatchCachingWorkload
from repro.workloads.registry import get_workload
from tests.test_policies import bind


def feed_pattern(controller, lines, fase=0):
    """Feed writes until the controller decides; return the decision."""
    for line in lines:
        size = controller.observe(line, fase)
        if size is not None:
            return size
    return None


def test_decides_exactly_once_at_burst_end():
    c = AdaptiveController(config=AdaptiveConfig(burst_length=40))
    pattern = (list(range(5)) * 100)
    size = feed_pattern(c, pattern)
    assert size is not None
    assert c.analyses == 1
    # After the (infinite) hibernation no further decisions appear.
    assert feed_pattern(c, pattern) is None
    assert c.analyses == 1


def test_selects_loop_size_knee():
    c = AdaptiveController(config=AdaptiveConfig(burst_length=120))
    size = feed_pattern(c, list(range(10)) * 50)
    assert size in (10, 11)
    assert c.last_size == size
    assert c.last_mrc is not None


def test_sampling_flag_lifecycle():
    c = AdaptiveController(config=AdaptiveConfig(burst_length=4))
    assert c.sampling
    feed_pattern(c, [1, 2, 1, 2])
    assert not c.sampling


def test_analysis_cost_scales_with_burst():
    small = AdaptiveController(config=AdaptiveConfig(burst_length=100))
    large = AdaptiveController(config=AdaptiveConfig(burst_length=1000))
    assert large.analysis_cost() == 10 * small.analysis_cost()


def test_fase_ids_respected():
    """Writes split across many tiny FASEs cannot be combined, so the
    controller should fall back to the knee-less maximum size."""
    cfg = AdaptiveConfig(burst_length=60)
    c = AdaptiveController(config=cfg)
    decision = None
    for i in range(60):
        decision = c.observe(i % 3, fase_id=i) or decision  # one write per FASE
    assert decision == cfg.selection.max_size


def test_config_validation():
    with pytest.raises(ConfigurationError):
        AdaptiveConfig(sample_cost=-1)
    with pytest.raises(ConfigurationError):
        AdaptiveConfig(analysis_cost_per_write=-2)


@pytest.mark.parametrize(
    "field, bad",
    [
        ("initial_skip", 100.5),
        ("initial_skip", -1),
        ("initial_skip", True),
        ("sample_cost", 1.5),
        ("analysis_cost_per_write", 2.5),
        ("burst_length", 64.0),
    ],
)
def test_an_adaptive_parameter_is_an_int_checked_at_the_config(field, bad):
    """A float, bool or negative count is a ConfigurationError naming its
    field when the config is built — never a ``TypeError`` from the
    sampler mid-run or float ``cycles`` in a result."""
    with pytest.raises(ConfigurationError, match=field):
        AdaptiveConfig(**{field: bad})


def test_repeats_are_fed_in_one_step_only_strictly_inside_a_phase():
    """An adapting SC takes a run's repeats as one slice only when it
    crosses no phase edge — counted in the warm-up, recorded and charged a
    sample each in the burst.  The last skipped write, the one that opens
    the burst and the one that closes it arrive through ``insert``; once
    it has closed, the repeats are a hit count."""
    c = AdaptiveController(config=AdaptiveConfig(burst_length=6, initial_skip=4))
    t = SoftwareCacheTechnique(controller=c)
    port, s = bind(t), c.sampler
    assert t.insert(7) is None and s.skipping == 3
    assert t.absorb_repeats(7, 2) and s.skipping == 1 and port.adaptation == 0
    assert not t.absorb_repeats(7, 1) and s.skipping == 1    # its last write
    t.insert(7)
    assert c.sampling and port.adaptation == 2                # the pinned quirk
    assert not t.absorb_repeats(7, 2) and s.recorded == 0    # would open the burst
    t.insert(7)
    assert s.recorded == 1 and port.events == [(EV_BURST_START, 6, 0)]
    assert t.absorb_repeats(7, 4) and s.recorded == 5 and port.adaptation == 12
    assert not t.absorb_repeats(7, 1) and s.recorded == 5    # would close it
    assert t.settling
    t.insert(7)
    assert s.done and not t.settling and port.sizes
    assert port.adaptation == 14 + c.analysis_cost()
    assert t.insert == t.cache.access                         # settled
    assert t.absorb_repeats(7, 3) and port.adaptation == 14 + c.analysis_cost()
    assert t.cache.snapshot()["accesses"] == 4 + 2 + 4 + 3   # inserts, slices


def sc_state(t, port):
    """Everything an SC and its port show."""
    s = t.controller.sampler
    return (
        s.recorded, s.burst_complete, s.recording, s.done, s.skipping,
        s.lines, s.fids, t.settling, t.insert == t.cache.access,
        t.cache.snapshot(), list(t.cache._lines), port.adaptation, port.sizes,
        port.events, port.async_calls,
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.integers(min_value=2, max_value=12),
    st.integers(min_value=0, max_value=9),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=5),      # line
            st.integers(min_value=-1, max_value=2),     # FASE id
            st.integers(min_value=1, max_value=15),     # repeats
        ),
        max_size=14,
    ),
)
def test_absorbed_repeats_are_n_inserts(burst, skip, writes):
    """``on_store(line)`` then ``absorb_repeats(line, n)`` — or, declined,
    ``n`` more ``on_store`` calls — against ``n + 1`` × ``on_store(line)``
    on everything an adapting SC shows, through warm-up, the burst, the
    resize that closes it and the settled cache after."""
    config = AdaptiveConfig(burst_length=burst, initial_skip=skip)
    bulk = SoftwareCacheTechnique(controller=AdaptiveController(config=config))
    single = SoftwareCacheTechnique(controller=AdaptiveController(config=config))
    bulk_port, single_port = bind(bulk), bind(single)
    for line, fid, n in writes:
        bulk_port.current_fase_id = single_port.current_fase_id = fid
        bulk.on_store(line)
        if not bulk.absorb_repeats(line, n):
            for _ in range(n):
                bulk.on_store(line)
        for _ in range(n + 1):
            single.on_store(line)
        assert sc_state(bulk, bulk_port) == sc_state(single, single_port)


@pytest.mark.parametrize("use_batches", [False, True], ids=["per-event", "batched"])
def test_a_warm_up_costs_one_sample_more(use_batches):
    """Pinned, not fixed: the last skipped write already reads
    ``sampling`` as true, so a thread with a warm-up is charged
    ``sample_cost`` ``burst_length + 1`` times, one without
    ``burst_length`` times — on both engines, and every SC golden carries
    it (``adaptation_cycles`` would move by 2 per sampling thread)."""
    workload = BatchCachingWorkload(get_workload("barnes", scale=0.02))
    burst, charged = 400, {}
    for skip in (0, burst):
        config = AdaptiveConfig(burst_length=burst, initial_skip=skip)
        machine = Machine(MachineConfig())
        result = machine.run(
            workload,
            technique_factory("SC", adaptive_config=config),
            num_threads=1,
            seed=7,
            use_batches=use_batches,
        )
        analysis = config.analysis_cost_per_write * burst
        samples, rest = divmod(
            result.threads[0].adaptation_cycles - analysis, config.sample_cost
        )
        assert rest == 0 and result.threads[0].selected_sizes
        assert (machine.absorbed_stores > 0) == use_batches
        charged[skip] = samples
    assert charged == {0: burst, burst: burst + 1}


def test_a_sampling_sc_takes_its_runs():
    """A count, not a timing: SC absorbs line-touch runs while its sampler
    is open too.  Declining them for the skip and record phases (2 x burst
    writes per thread) read 17,909 and 14,362 here and cost ~1.2x on the
    report grids; SC-offline reads 20,359 and 20,017."""
    harness = Harness(HarnessConfig(scale=0.1, seed=7))
    for name, threads, absorbed in (("barnes", 1, 20337), ("water-spatial", 8, 19908)):
        workload = harness.workload(name)
        kwargs = sc_factory_kwargs(
            harness.config, workload, "SC", threads, harness.profile_summary(name)
        )
        machine = Machine(harness.config.machine_config())
        machine.run(
            workload, technique_factory("SC", **kwargs), num_threads=threads, seed=7
        )
        assert machine.absorbed_stores == absorbed, name


def test_a_settled_sc_is_its_cache():
    """Once a thread's burst has closed, a store of that thread is one
    call into its cache: on ocean SC@8 no ``SoftwareCacheTechnique.insert``,
    ``AdaptiveController``, ``BurstSampler`` or ``FlushPort.current_fase_id``
    frame runs for it again, on either engine, and its ``insert`` is its
    cache's ``access``.  A run still takes the settled cache's hit count
    (``absorb_repeats``, one frame, as SC-offline's)."""
    harness = Harness(HarnessConfig(scale=0.1, seed=7))
    workload = harness.workload("ocean")
    kwargs = sc_factory_kwargs(
        harness.config, workload, "SC", 8, harness.profile_summary("ocean")
    )
    inner = technique_factory("SC", **kwargs)
    watched = {
        (member.fget if isinstance(member, property) else member).__code__: "adaptive"
        for cls in (AdaptiveController, BurstSampler)
        for name, member in vars(cls).items()
        if name != "__init__" and (isinstance(member, property) or callable(member))
    }
    watched[SoftwareCacheTechnique.insert.__code__] = "insert"
    watched[FlushPort.current_fase_id.fget.__code__] = "port"
    for use_batches in (True, False):
        made, owner, settled, seen = [], {}, set(), []

        def factory(tid):
            t = inner(tid)
            made.append(t)
            owner.update({id(t): tid, id(t.controller): tid, id(t.sampler): tid})
            return t

        def spy(frame, event, arg):
            kind = watched.get(frame.f_code) if event in ("call", "return") else None
            if kind is None:
                return
            me = frame.f_locals["self"]
            if kind == "port":
                tid = next(i for i, t in enumerate(made) if t.port is me)
            else:
                tid = owner[id(me)]
            if event == "call":
                seen.append((tid, kind, tid in settled))
            elif kind == "insert" and not me.settling:
                settled.add(tid)     # the store that closed the burst returns

        machine = Machine(harness.config.machine_config())
        sys.setprofile(spy)
        try:
            machine.run(
                workload, factory, num_threads=8, seed=7, use_batches=use_batches
            )
        finally:
            sys.setprofile(None)
        assert settled == set(range(8))
        for t in made:
            assert t.sampler.done and not t.settling
            assert t.insert == t.cache.access
        for tid in range(8):
            before = {kind for i, kind, after in seen if i == tid and not after}
            assert before == {"insert", "port", "adaptive"}   # the spy is live
        assert [(tid, kind) for tid, kind, after in seen if after] == []
