"""The online adaptation controller (burst -> MRC -> knee -> resize)."""

import pytest

from repro.cache.adaptive import AdaptiveConfig, AdaptiveController
from repro.cache.spec import technique_factory
from repro.common.errors import ConfigurationError
from repro.nvram.machine import Machine, MachineConfig
from repro.workloads.base import BatchCachingWorkload
from repro.workloads.registry import get_workload


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


def test_repeats_are_fed_in_one_step_only_strictly_inside_a_phase():
    """``observe_repeats`` takes a slice that crosses no phase edge and
    says how many of it owe a sample; the last skipped write, the one
    that opens the burst and the one that closes it go through
    ``observe``."""
    c = AdaptiveController(config=AdaptiveConfig(burst_length=6, initial_skip=4))
    s = c.sampler
    assert c.observe_repeats(7, 0, 3) == 0 and s.skipping == 1     # warm-up
    assert c.observe_repeats(7, 0, 1) is None and s.skipping == 1  # its last write
    assert c.observe(7, 0) is None and c.sampling
    assert c.observe_repeats(7, 0, 2) is None and s.recorded == 0  # would open the burst
    assert c.observe(7, 0) is None and s.recorded == 1
    assert c.observe_repeats(7, 0, 4) == 4 and s.recorded == 5     # recording
    assert c.observe_repeats(7, 0, 1) is None and s.recorded == 5  # would close it
    assert c.observe(7, 0) is not None and s.done
    assert c.observe_repeats(7, 0, 1) is None                      # the technique's gate, restated


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
