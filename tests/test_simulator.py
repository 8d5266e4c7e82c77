"""Tests for the simulation engine (system builder, simulator, results)."""

import gc
import inspect

import pytest

from repro.campaign import DEFAULT_REGISTRY
from repro.coherence.memory_system import MemorySystem
from repro.config import ConsistencyModel, SpeculationConfig, SpeculationMode
from repro.consistency.base import ConsistencyController
from repro.cpu.core import Core
from repro.engine.events import EventQueue
from repro.engine.results import aggregate_breakdown
from repro.engine.simulator import Simulator, simulate
from repro.engine.system import ENGINE_KINDS, build_system
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.common import ExperimentSettings, make_config
from repro.obs import TraceRecorder
from repro.trace.ops import atomic, compute, fence, load, store
from repro.trace.trace import MultiThreadedTrace, Trace
from repro.workloads.registry import build_trace
from tests.conftest import block_addr, tiny_config


def small_trace(num_threads=2, ops=20):
    traces = []
    for t in range(num_threads):
        thread_ops = []
        for i in range(ops):
            thread_ops.append(load(block_addr(1000 + t * 100 + i)))
            thread_ops.append(compute(3))
        traces.append(Trace(thread_ops, thread_id=t))
    return MultiThreadedTrace(traces, name="small", seed=7)


class TestBuildSystem:
    def test_builds_one_core_per_config_core(self):
        system = build_system(tiny_config(num_cores=2), small_trace(2))
        assert len(system.cores) == 2
        assert system.workload_name == "small"

    def test_rejects_too_few_threads(self):
        with pytest.raises(ConfigurationError):
            build_system(tiny_config(num_cores=2), small_trace(1))

    def test_extra_threads_ignored(self):
        system = build_system(tiny_config(num_cores=2), small_trace(4))
        assert len(system.cores) == 2

    def test_rejects_bad_warmup_fraction(self):
        with pytest.raises(ConfigurationError):
            build_system(tiny_config(num_cores=2), small_trace(2), warmup_fraction=1.0)

    def test_controller_selection(self):
        cases = {
            SpeculationMode.NONE: "Conventional",
            SpeculationMode.SELECTIVE: "InvisiFenceSelective",
            SpeculationMode.CONTINUOUS: "InvisiFenceContinuous",
            SpeculationMode.ASO: "ASOController",
        }
        for mode, name_fragment in cases.items():
            kwargs = {"num_checkpoints": 2} if mode in (SpeculationMode.CONTINUOUS,) else {}
            config = tiny_config(ConsistencyModel.SC,
                                 SpeculationConfig(mode=mode, **kwargs))
            system = build_system(config, small_trace(2))
            assert name_fragment in type(system.cores[0].controller).__name__


class TestSimulator:
    def test_run_completes_and_reports(self):
        result = simulate(tiny_config(num_cores=2), small_trace(2))
        assert result.runtime > 0
        assert len(result.core_stats) == 2
        assert result.workload == "small"
        assert result.seed == 7

    def test_determinism(self):
        first = simulate(tiny_config(num_cores=2), small_trace(2))
        second = simulate(tiny_config(num_cores=2), small_trace(2))
        assert first.runtime == second.runtime
        assert first.breakdown() == second.breakdown()

    def test_event_cap_raises(self):
        with pytest.raises(SimulationError):
            simulate(tiny_config(num_cores=2), small_trace(2), max_events=3)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_forever_waiting_controller_hits_the_backstop(self, engine):
        """A controller that waits at trace end forever must raise, not hang.

        Regression for the batched fast path: the inline trace-end wait
        must periodically return to the event loop so the ``max_events``
        runaway backstop stays effective.
        """
        system = build_system(tiny_config(num_cores=1), small_trace(1),
                              engine=engine)
        core = system.cores[0]
        core.controller.at_trace_end = lambda now: ("wait", now + 10)
        with pytest.raises(SimulationError, match="stalled"):
            Simulator(system).run(max_events=20_000)

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_instruction_weights_match_core_accounting(self, engine):
        """A core retires each op's ``cycles``: a compute bundle's count, else 1."""
        ops = [load(block_addr(1)), compute(7), store(block_addr(2)),
               atomic(block_addr(3)), fence(), compute(1), load(block_addr(1))]
        trace = MultiThreadedTrace(
            [Trace(ops, thread_id=0), Trace(ops[:3], thread_id=1)], name="w")
        result = simulate(tiny_config(num_cores=2), trace, engine=engine)
        assert [stats.instructions for stats in result.core_stats] == [13, 9]
        assert [stats.instructions for stats in result.core_stats] == \
            [thread.instruction_weight() for thread in trace]

    @pytest.mark.parametrize("engine", ["fast", "reference"])
    def test_empty_thread_trace_finishes(self, engine):
        """A core whose op list is empty finishes at once; the others run."""
        trace = MultiThreadedTrace(
            [Trace(thread_id=0), small_trace(1)[0]], name="w")
        result = simulate(tiny_config(num_cores=2), trace, engine=engine)
        idle, busy = result.core_stats
        assert idle.instructions == 0 and idle.finish_time == 0
        assert busy.instructions == 80 and busy.finish_time > 0
        assert result.runtime == busy.finish_time

    def test_warmup_reduces_measured_cycles(self):
        full = simulate(tiny_config(num_cores=2), small_trace(2))
        warmed = simulate(tiny_config(num_cores=2), small_trace(2),
                          warmup_fraction=0.5)
        assert warmed.cycles_per_core() < full.cycles_per_core()

    def test_accounting_identity_without_warmup(self):
        result = simulate(tiny_config(num_cores=2), small_trace(2))
        for stats in result.core_stats:
            assert stats.total_accounted() == stats.finish_time


@pytest.fixture()
def collector_off():
    """The cyclic collector disabled for one test, then restored."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


def contended_cell(config_name):
    """A contended 4-core cell: false sharing, 400 ops a thread."""
    settings = ExperimentSettings(num_cores=4, ops_per_thread=400, seeds=(1,))
    trace = build_trace("false-sharing-storm", num_threads=4,
                        ops_per_thread=400, seed=1)
    return make_config(config_name, settings), trace


@pytest.mark.usefixtures("collector_off")
class TestMachineLifetime:
    """``simulate`` frees its machine by reference counting (DESIGN §10)."""

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    @pytest.mark.parametrize("config_name", DEFAULT_REGISTRY.names())
    def test_cell_leaves_no_cyclic_garbage(self, config_name, engine):
        config, trace = contended_cell(config_name)
        gc.collect()
        simulate(config, trace, engine=engine)
        del trace
        assert gc.collect() == 0

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    def test_recorded_cell_leaves_no_cyclic_garbage(self, engine):
        config, trace = contended_cell("invisi_cont")
        recorder = TraceRecorder()
        gc.collect()
        simulate(config, trace, engine=engine, recorder=recorder)
        del trace
        assert gc.collect() == 0
        assert recorder.counters

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    @pytest.mark.parametrize("config_name", ["sc", "invisi_sc", "invisi_cont"])
    def test_stalled_run_frees_its_machine(self, config_name, engine):
        """A run stopped by the backstop leaves no machine behind.

        Only blocks in a cache array's speculative registry may still
        need the collector on this error path.
        """
        config, trace = contended_cell(config_name)
        gc.collect()
        try:
            simulate(config, trace, engine=engine, max_events=300)
        except SimulationError:
            pass
        else:
            pytest.fail("the backstop did not stop the run")
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            leaked = [type(obj).__name__ for obj in gc.garbage
                      if isinstance(obj, (Core, ConsistencyController,
                                          MemorySystem, EventQueue))]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
        assert leaked == []

    def test_simulator_run_leaves_the_system_intact(self):
        """Only ``simulate`` releases; a caller's machine stays wired."""
        config, trace = contended_cell("invisi_sc")
        system = build_system(config, trace)
        Simulator(system).run()
        for core in system.cores:
            assert core.controller is not None
            assert core.controller.core is core


class TestControllerCallbacks:
    @pytest.mark.parametrize("engine", ["fast", "reference"])
    @pytest.mark.parametrize("config", ["invisi_sc", "invisi_cont"])
    def test_callbacks_are_bound_controller_methods(self, config, engine,
                                                    monkeypatch):
        """Controllers schedule their own bound methods, never closures."""
        scheduled = []
        real_schedule = EventQueue.schedule

        def schedule(queue, time, fn, arg=None):
            scheduled.append(fn)
            real_schedule(queue, time, fn, arg)

        monkeypatch.setattr(EventQueue, "schedule", schedule)
        # the `scenario run false-sharing-storm --small` cell
        settings = ExperimentSettings(num_cores=2, ops_per_thread=600,
                                      seeds=(1,), warmup_fraction=0.2)
        trace = build_trace("false-sharing-storm", num_threads=2,
                            ops_per_thread=600, seed=1)
        system = build_system(make_config(config, settings), trace,
                              warmup_fraction=0.2, engine=engine)
        Simulator(system).run()
        controllers = [core.controller for core in system.cores]
        assert scheduled
        for fn in scheduled:
            assert inspect.ismethod(fn), fn
            assert any(fn.__self__ is c for c in controllers), fn


class TestRunResult:
    def _result(self):
        return simulate(tiny_config(num_cores=2), small_trace(2))

    def test_aggregate_sums_cores(self):
        result = self._result()
        total = result.aggregate()
        assert total.busy == sum(s.busy for s in result.core_stats)
        assert total.loads == sum(s.loads for s in result.core_stats)

    def test_breakdown_normalised_sums_to_one(self):
        values = self._result().breakdown(normalize=True)
        assert abs(sum(values.values()) - 1.0) < 1e-9

    def test_speedup_over_self_is_one(self):
        result = self._result()
        assert result.speedup_over(result) == pytest.approx(1.0)

    def test_ordering_and_speculation_fractions_bounded(self):
        result = self._result()
        assert 0.0 <= result.ordering_stall_fraction() <= 1.0
        assert 0.0 <= result.speculation_fraction() <= 1.0

    def test_summary_keys(self):
        summary = self._result().summary()
        for key in ("runtime", "cycles_per_core", "busy", "other", "violation",
                    "ordering_stall_fraction", "commits", "aborts"):
            assert key in summary

    def test_aggregate_breakdown_over_runs(self):
        result = self._result()
        combined = aggregate_breakdown([result, result])
        assert abs(sum(combined.values()) - 1.0) < 1e-9
        normalised = aggregate_breakdown([result], normalize_to=result)
        assert abs(sum(normalised.values()) - 1.0) < 1e-9

    def test_empty_aggregate_breakdown(self):
        assert sum(aggregate_breakdown([]).values()) == 0.0
