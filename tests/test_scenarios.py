"""Tests for the phase-structured scenario engine.

Covers the sharing-pattern primitives' characteristic coherence behaviour,
phase splicing determinism, per-phase stall attribution, the scenario
registry, and the campaign/CLI integration (including serial-vs-parallel
equivalence of scenario cells).
"""

import pytest

from repro.cli import main
from repro.campaign import DirectoryBackend
from repro.coherence.memory_system import MemorySystem
from repro.config import ConsistencyModel
from repro.cpu.stats import COUNTER_FIELDS, CoreStats
from repro.engine.simulator import simulate
from repro.errors import ScenarioError, TraceError, WorkloadError
from repro.experiments.common import ExperimentSettings
from repro.obs import TraceRecorder
from repro.scenarios import (
    PhaseSpec,
    ScenarioRegistry,
    ScenarioSpec,
    generate_scenario,
    pattern_names,
    scenario_names,
    scenario_spec,
)
from repro.scenarios.patterns import WORDS_PER_BLOCK
from repro.stats.phases import (
    format_phase_breakdown,
    phase_breakdown,
    phase_labels,
)
from repro.studies import StudyCell, StudyRunner
from repro.trace.ops import OpKind
from repro.trace.trace import MultiThreadedTrace, Trace
from repro.workloads.generator import BLOCK_BYTES
from repro.workloads.presets import preset
from repro.workloads.registry import build_trace, resolve_spec
from tests.conftest import dir_transactions, selective_config, tiny_config


def pattern_trace(name, num_threads=2, count=300, seed=1, **params):
    """A single-phase scenario trace for one primitive."""
    spec = ScenarioSpec(name=f"unit-{name}",
                        phases=(PhaseSpec(name, count, pattern=name,
                                          params=params),))
    return generate_scenario(spec, num_threads=num_threads, seed=seed)


def writes_by_thread(trace):
    """{thread: set of written word addresses}."""
    return {t.thread_id: {op.address for op in t if op.writes} for t in trace}


def blocks(addresses):
    return {addr // BLOCK_BYTES for addr in addresses}


def replay_round_robin(trace, config):
    """Feed a trace's memory ops through a recorded MemorySystem.

    Interleaves threads round-robin at one op per turn, which is enough to
    observe the pattern's coherence transactions without the full timing
    model.  Returns the transactions, as :func:`dir_transactions` reads
    them.
    """
    recorder = TraceRecorder()
    mem = MemorySystem(config, recorder=recorder)
    cursors = [iter(t) for t in trace]
    now = 0
    live = set(range(len(cursors)))
    while live:
        for tid in sorted(live):
            op = next(cursors[tid], None)
            if op is None:
                live.discard(tid)
                continue
            if op.is_memory:
                outcome = mem.access(tid, op.address, is_write=op.writes, now=now)
                now = max(now, outcome.completion_time)
            now += 1
    return dir_transactions(recorder)


class TestPhaseSpecValidation:
    def test_requires_exactly_one_of_workload_or_pattern(self):
        with pytest.raises(ScenarioError):
            PhaseSpec("p", 100)
        with pytest.raises(ScenarioError):
            PhaseSpec("p", 100, workload=preset("apache"), pattern="barrier")

    def test_rejects_unknown_pattern(self):
        with pytest.raises(ScenarioError):
            PhaseSpec("p", 100, pattern="quantum_entanglement")

    def test_rejects_params_without_pattern(self):
        with pytest.raises(ScenarioError):
            PhaseSpec("p", 100, workload=preset("apache"), params={"x": 1})

    def test_rejects_nonpositive_length(self):
        with pytest.raises(ScenarioError):
            PhaseSpec("p", 0, pattern="barrier")

    def test_scenario_needs_phases(self):
        with pytest.raises(ScenarioError):
            ScenarioSpec(name="empty")


class TestScenarioScaling:
    def make(self):
        return ScenarioSpec(name="s", phases=(
            PhaseSpec("a", 1000, pattern="barrier"),
            PhaseSpec("b", 500, pattern="false_sharing"),
            PhaseSpec("c", 1500, pattern="rw_lock"),
        ))

    def test_scaled_total_is_exact(self):
        for total in (3, 7, 100, 999, 3000, 4001):
            scaled = self.make().scaled(total)
            assert scaled.total_ops_per_thread == total
            assert all(p.ops_per_thread >= 1 for p in scaled.phases)

    def test_scaled_preserves_proportions(self):
        scaled = self.make().scaled(600)
        lengths = [p.ops_per_thread for p in scaled.phases]
        assert lengths == [200, 100, 300]

    def test_scaling_below_phase_count_rejected(self):
        with pytest.raises(ScenarioError):
            self.make().scaled(2)


class TestProducerConsumer:
    def test_migratory_handoff_blocks(self):
        """Blocks a producer writes are read by exactly its ring successor."""
        trace = pattern_trace("producer_consumer", num_threads=3, count=400)
        written = writes_by_thread(trace)
        for tid in range(3):
            successor = (tid + 1) % 3
            other = (tid + 2) % 3
            fills = blocks({op.address for op in trace[tid]
                            if op.label == "queue_fill"})
            takes_succ = blocks({op.address for op in trace[successor]
                                 if op.label == "queue_take"})
            takes_other = blocks({op.address for op in trace[other]
                                  if op.label == "queue_take"})
            assert fills and fills <= takes_succ
            assert not (fills & takes_other)

    def test_consumer_gets_dirty_forwards(self):
        """Replaying the pattern produces owner-forwarded transfers."""
        trace = pattern_trace("producer_consumer", num_threads=2, count=200)
        transactions = replay_round_robin(trace, tiny_config(num_cores=2))
        forwards = [t for t in transactions if t["owner"] is not None]
        assert forwards, "producer-consumer should trigger migratory forwards"


class TestBarrier:
    def test_all_threads_share_the_arrival_counter(self):
        trace = pattern_trace("barrier", num_threads=4, count=300, interval=20)
        counters = [blocks({op.address for op in t if op.label == "barrier_arrive"})
                    for t in trace]
        assert all(c == counters[0] and len(c) == 1 for c in counters)

    def test_episodes_emit_atomic_fence_spin(self):
        trace = pattern_trace("barrier", num_threads=2, count=300, interval=20)
        ops = list(trace[0])
        arrivals = [i for i, op in enumerate(ops) if op.label == "barrier_arrive"]
        assert arrivals
        for i in arrivals[:-1]:
            assert ops[i].kind is OpKind.ATOMIC
            assert ops[i + 1].kind is OpKind.FENCE
            assert ops[i + 2].label == "barrier_spin"

    def test_local_scratch_disjoint_across_threads(self):
        trace = pattern_trace("barrier", num_threads=2, count=300)
        locals_ = [blocks({op.address for op in t if op.label == "barrier_local"})
                   for t in trace]
        assert not (locals_[0] & locals_[1])


class TestFalseSharing:
    def test_distinct_words_same_blocks(self):
        """No word-level race, full block-level sharing."""
        trace = pattern_trace("false_sharing", num_threads=4, count=300,
                              hot_blocks=2)
        written = writes_by_thread(trace)
        for a in range(4):
            for b in range(a + 1, 4):
                assert not (written[a] & written[b]), "no two threads share a word"
                assert blocks(written[a]) == blocks(written[b]), \
                    "every thread pounds the same blocks"

    def test_causes_invalidations(self):
        trace = pattern_trace("false_sharing", num_threads=2, count=200,
                              hot_blocks=1, write_fraction=0.6)
        transactions = replay_round_robin(trace, tiny_config(num_cores=2))
        # Reader copies are invalidated by the other thread's writes ...
        invalidations = [t for t in transactions if t["invalidated"]]
        assert invalidations, "false sharing should invalidate reader copies"
        # ... and block ownership ping-pongs between the writers.
        stolen = {t["core"] for t in transactions
                  if t["name"] == "dir.getm" and t["owner"] is not None}
        assert stolen == {0, 1}, "ownership should migrate both ways"

    def test_many_threads_spill_to_more_blocks(self):
        trace = pattern_trace("false_sharing", num_threads=WORDS_PER_BLOCK + 1,
                              count=80)
        written = writes_by_thread(trace)
        assert not (written[0] & written[WORDS_PER_BLOCK])
        assert not (blocks(written[0]) & blocks(written[WORDS_PER_BLOCK]))


class TestRwLock:
    def test_data_blocks_read_shared_and_writer_invalidates(self):
        trace = pattern_trace("rw_lock", num_threads=3, count=400,
                              write_fraction=0.3, data_blocks=4)
        reads = [blocks({op.address for op in t if op.label == "rw_read"})
                 for t in trace]
        writes = [blocks({op.address for op in t if op.label == "rw_write"})
                  for t in trace]
        shared_reads = reads[0] & reads[1] & reads[2]
        assert shared_reads, "data blocks are read by every thread"
        all_writes = writes[0] | writes[1] | writes[2]
        assert all_writes & shared_reads, "writer hits the read-shared blocks"

    def test_reader_count_is_one_shared_atomic_block(self):
        trace = pattern_trace("rw_lock", num_threads=2, count=300,
                              write_fraction=0.0)
        acquires = [blocks({op.address for op in t
                            if op.label == "rw_reader_acquire"}) for t in trace]
        assert acquires[0] == acquires[1] and len(acquires[0]) == 1


class TestWorkStealing:
    def test_mostly_local_with_remote_steals(self):
        trace = pattern_trace("work_stealing", num_threads=2, count=500,
                              steal_fraction=0.3)
        for t in trace:
            local = [op for op in t if op.label in ("deque_push", "deque_pop",
                                                    "deque_bottom")]
            steals = [op for op in t if op.label == "steal_cas"]
            assert len(local) > len(steals) > 0

    def test_steals_cas_the_victims_control_block(self):
        trace = pattern_trace("work_stealing", num_threads=2, count=500,
                              steal_fraction=0.5)
        own_ctrl = [blocks({op.address for op in t if op.label == "deque_bottom"})
                    for t in trace]
        steal_ctrl = [blocks({op.address for op in t if op.label == "steal_cas"})
                      for t in trace]
        assert steal_ctrl[0] and steal_ctrl[0].isdisjoint(own_ctrl[0])
        assert steal_ctrl[0] == own_ctrl[1], "steals CAS the victim's deque"
        for t in trace:
            for op in t:
                if op.label == "steal_cas":
                    assert op.kind is OpKind.ATOMIC


class TestPatternRegions:
    """Each pattern's blocks stay inside the 20,000 from its region base."""

    #: per pattern: sizes that overrun the region at 16 threads, and the
    #: largest that fit.
    SIZES = {
        "producer_consumer": ({"slots": 1000, "payload_blocks": 4},
                              {"slots": 1249, "payload_blocks": 1}),
        "barrier": ({"local_blocks": 1250}, {"local_blocks": 1249}),
        "false_sharing": ({"hot_blocks": 10_001}, {"hot_blocks": 10_000}),
        "rw_lock": ({"data_blocks": 19_999}, {"data_blocks": 19_998}),
        "work_stealing": ({"deque_blocks": 1250}, {"deque_blocks": 1249}),
    }

    def test_producer_consumer_overrun_rejected(self):
        self._assert_rejected("producer_consumer")

    def test_barrier_overrun_rejected(self):
        self._assert_rejected("barrier")

    def test_false_sharing_overrun_rejected(self):
        self._assert_rejected("false_sharing")

    def test_rw_lock_overrun_rejected(self):
        self._assert_rejected("rw_lock")

    def test_work_stealing_overrun_rejected(self):
        self._assert_rejected("work_stealing")

    def _assert_rejected(self, name):
        too_big, _ = self.SIZES[name]
        named = ", ".join(f"{key}={value}" for key, value in too_big.items())
        with pytest.raises(ScenarioError, match=f"'{name}' with {named} at 16 threads"):
            pattern_trace(name, num_threads=16, count=20, **too_big)

    @pytest.mark.parametrize("name", sorted(SIZES))
    def test_largest_fitting_sizes_build(self, name):
        _, fits = self.SIZES[name]
        trace = pattern_trace(name, num_threads=16, count=20, **fits)
        assert all(len(t) == 20 for t in trace)


class TestPhaseSplicing:
    def scenario(self):
        return ScenarioSpec(name="splice", phases=(
            PhaseSpec("mix", 200, workload=preset("apache")),
            PhaseSpec("fs", 150, pattern="false_sharing"),
            PhaseSpec("bar", 250, pattern="barrier"),
        ))

    def test_exact_lengths_and_metadata(self):
        trace = generate_scenario(self.scenario(), num_threads=3, seed=7)
        assert all(len(t) == 600 for t in trace)
        assert trace.phases == (("mix", 200), ("fs", 150), ("bar", 250))
        assert trace.phase_bounds == (200, 350, 600)
        assert trace.phase_names == ("mix", "fs", "bar")

    def test_deterministic_across_invocations(self):
        a = generate_scenario(self.scenario(), num_threads=3, seed=7)
        b = generate_scenario(self.scenario(), num_threads=3, seed=7)
        for ta, tb in zip(a, b):
            assert list(ta) == list(tb)

    def test_seeds_and_threads_differ(self):
        a = generate_scenario(self.scenario(), num_threads=2, seed=1)
        b = generate_scenario(self.scenario(), num_threads=2, seed=2)
        assert list(a[0]) != list(b[0])
        assert list(a[0]) != list(a[1])

    def test_editing_one_phase_leaves_others_bitwise_unchanged(self):
        base = self.scenario()
        edited = ScenarioSpec(name="splice", phases=(
            base.phases[0],
            PhaseSpec("fs", 150, pattern="false_sharing",
                      params={"hot_blocks": 7}),
            base.phases[2],
        ))
        a = generate_scenario(base, num_threads=2, seed=5)
        b = generate_scenario(edited, num_threads=2, seed=5)
        for ta, tb in zip(a, b):
            ops_a, ops_b = list(ta), list(tb)
            assert ops_a[:200] == ops_b[:200], "phase 1 unchanged"
            assert ops_a[350:] == ops_b[350:], "phase 3 unchanged"
            assert ops_a[200:350] != ops_b[200:350], "phase 2 changed"

    def test_trace_phase_layout_validated(self):
        with pytest.raises(TraceError):
            MultiThreadedTrace([Trace([], thread_id=0)], phases=[("p", 10)])


class TestPhaseAttribution:
    def run_scenario(self, config, warmup=0.0, seed=3):
        spec = scenario_spec("pattern-tour").scaled(1000)
        trace = generate_scenario(spec, num_threads=2, seed=seed)
        return simulate(config, trace, warmup_fraction=warmup)

    def assert_sums_match(self, result):
        agg = result.aggregate()
        total = CoreStats()
        for per_core in result.phase_stats:
            for stats in per_core:
                total.merge(stats)
        for name in COUNTER_FIELDS:
            assert getattr(total, name) == getattr(agg, name), name

    def test_phases_partition_the_aggregate_conventional(self):
        result = self.run_scenario(tiny_config(ConsistencyModel.SC))
        assert len(result.phase_stats) == 5
        self.assert_sums_match(result)

    def test_phases_partition_the_aggregate_speculative(self):
        result = self.run_scenario(selective_config(ConsistencyModel.SC))
        assert result.aggregate().speculations > 0
        self.assert_sums_match(result)

    def test_phases_partition_with_warmup(self):
        result = self.run_scenario(tiny_config(ConsistencyModel.SC), warmup=0.3)
        self.assert_sums_match(result)
        first = CoreStats()
        for stats in result.phase_stats[0]:
            first.merge(stats)
        full = self.run_scenario(tiny_config(ConsistencyModel.SC), warmup=0.0)
        first_full = CoreStats()
        for stats in full.phase_stats[0]:
            first_full.merge(stats)
        assert first.total_accounted() < first_full.total_accounted()

    def test_no_negative_phase_counters(self):
        result = self.run_scenario(selective_config(ConsistencyModel.SC))
        for per_core in result.phase_stats:
            for stats in per_core:
                for name in COUNTER_FIELDS:
                    assert getattr(stats, name) >= 0, name

    def test_breakdown_and_labels(self):
        result = self.run_scenario(tiny_config(ConsistencyModel.SC))
        labels = phase_labels(result)
        assert labels[0].startswith("1:") and len(labels) == 5
        breakdown = phase_breakdown(result)
        for values in breakdown.values():
            assert sum(values.values()) == pytest.approx(100.0, abs=1e-6)
        text = format_phase_breakdown(result)
        assert "per-phase" in text.lower() or "phase" in text

    def test_plain_workload_runs_have_no_phase_stats(self):
        trace = build_trace("apache", num_threads=2, ops_per_thread=300, seed=1)
        result = simulate(tiny_config(ConsistencyModel.SC), trace)
        assert result.phase_stats is None and result.phase_names is None
        assert phase_labels(result) == []

    def test_result_round_trip_preserves_phase_stats(self):
        result = self.run_scenario(tiny_config(ConsistencyModel.SC))
        restored = type(result).from_json(result.to_json())
        assert restored.to_json() == result.to_json()
        assert restored.phase_names == result.phase_names


class TestScenarioRegistry:
    def test_builtins_have_at_least_three_phases(self):
        assert len(scenario_names()) >= 6
        for name in scenario_names():
            assert len(scenario_spec(name).phases) >= 3

    def test_every_primitive_is_used_by_some_builtin(self):
        used = {p.pattern for name in scenario_names()
                for p in scenario_spec(name).phases if p.pattern}
        assert used == set(pattern_names())

    def test_register_unregister(self):
        registry = ScenarioRegistry()
        spec = ScenarioSpec(name="tmp", phases=(
            PhaseSpec("a", 10, pattern="barrier"),))
        registry.register(spec)
        assert "tmp" in registry and registry.get("tmp") is spec
        with pytest.raises(ScenarioError):
            registry.register(spec)
        registry.unregister("tmp")
        assert "tmp" not in registry
        with pytest.raises(ScenarioError):
            registry.unregister("tmp")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_spec("doom")

    def test_preset_shadowing_names_rejected(self):
        registry = ScenarioRegistry()
        shadow = ScenarioSpec(name="apache", phases=(
            PhaseSpec("a", 10, pattern="barrier"),))
        with pytest.raises(ScenarioError, match="collides"):
            registry.register(shadow)

    def test_names_do_not_collide_with_workload_presets(self):
        from repro.workloads.presets import WORKLOAD_PRESETS
        assert not set(scenario_names()) & set(WORKLOAD_PRESETS)


class TestCampaignIntegration:
    def test_build_trace_accepts_scenario_names(self):
        trace = build_trace("bsp-compute", num_threads=2, ops_per_thread=300,
                            seed=1)
        assert trace.name == "bsp-compute"
        assert all(len(t) == 300 for t in trace)
        assert trace.phases is not None

    def test_resolve_spec_distinguishes_kinds(self):
        from repro.workloads.spec import WorkloadSpec
        workload = resolve_spec("apache", 100)
        assert isinstance(workload, WorkloadSpec)
        assert workload.ops_per_thread == 100
        scenario = resolve_spec("task-pool", 120)
        assert isinstance(scenario, ScenarioSpec)
        assert scenario.total_ops_per_thread == 120

    def test_unknown_name_lists_both_kinds(self):
        with pytest.raises(WorkloadError, match="scenarios:"):
            resolve_spec("doom")

    def test_worker_payload_ships_resolved_spec_not_name(self):
        """Runtime-registered scenarios must survive spawn-based pools.

        Workers re-import the registries from scratch under the 'spawn'
        start method, so the payload must carry the resolved spec object
        rather than a name for the worker to look up.
        """
        from repro.scenarios.registry import DEFAULT_SCENARIO_REGISTRY

        runtime = ScenarioSpec(name="runtime-only", phases=(
            PhaseSpec("a", 100, pattern="barrier"),
            PhaseSpec("b", 100, pattern="false_sharing"),
            PhaseSpec("c", 100, pattern="rw_lock"),
        ))
        DEFAULT_SCENARIO_REGISTRY.register(runtime)
        try:
            settings = ExperimentSettings(num_cores=2, ops_per_thread=300,
                                          seeds=(1,),
                                          workloads=("runtime-only",))
            runner = StudyRunner(settings, jobs=2)
            cell = StudyCell(2, "sc", "runtime-only", 1)
            payload = runner.payload_for(cell)
            assert isinstance(payload[1], ScenarioSpec)
            assert payload[1].total_ops_per_thread == 300
            assert runner.result(cell).phase_names == ("a", "b", "c")
        finally:
            DEFAULT_SCENARIO_REGISTRY.unregister("runtime-only")

    def test_serial_and_parallel_scenario_cells_identical(self, tmp_path):
        settings = ExperimentSettings(num_cores=2, ops_per_thread=400,
                                      seeds=(1,), workloads=("task-pool",))
        cells = [StudyCell(2, "sc", "task-pool", 1),
                 StudyCell(2, "invisi_sc", "task-pool", 1)]

        def run(jobs, cache=None):
            runner = StudyRunner(settings, jobs=jobs, cache=cache)
            report = runner.run_cells(cells)
            return report, [runner.result(cell) for cell in cells]

        _, serial = run(1)
        parallel_cache = DirectoryBackend(tmp_path / "cache")
        _, parallel = run(2, parallel_cache)
        for a, b in zip(serial, parallel):
            assert a.to_json() == b.to_json()

        # Cached cells round-trip the per-phase stats bitwise.
        report, cached = run(1, parallel_cache)
        assert report.cache_hits == 2
        for a, b in zip(parallel, cached):
            assert a.to_json() == b.to_json()
            assert b.phase_stats is not None


class TestScenarioCli:
    def test_scenario_list(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in scenario_names():
            assert name in out

    def test_workloads_list(self, capsys):
        assert main(["workloads", "list"]) == 0
        out = capsys.readouterr().out
        assert "apache" in out and "TPC-C" in out

    def test_scenario_run_small(self, capsys, tmp_path):
        code = main(["scenario", "run", "false-sharing-storm", "--small",
                     "--cache", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "per-phase stall breakdown" in out
        assert "1:serve" in out and "2:storm" in out and "3:recover" in out
        assert "[campaign]" in out

    def test_scenario_run_unknown_name(self, capsys):
        assert main(["scenario", "run", "doom", "--small", "--no-cache"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_sweep_accepts_scenario_names(self, capsys, tmp_path):
        code = main(["sweep", "--configs", "sc", "--workloads",
                     "bsp-compute,apache", "--cores", "2", "--ops", "300",
                     "--cache", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "bsp-compute" in out and "apache" in out

    def test_simulate_scenario_prints_phase_table(self, capsys):
        code = main(["simulate", "--workload", "pattern-tour", "--cores", "2",
                     "--ops", "400", "--seed", "2", "--no-cache"])
        out = capsys.readouterr().out
        assert code == 0
        assert "Per-phase stall breakdown" in out

    def test_figure_scenarios(self, capsys, tmp_path):
        code = main(["figure", "scenarios", "--cores", "2", "--ops", "400",
                     "--workloads", "bsp-compute",
                     "--cache", str(tmp_path / "cache")])
        out = capsys.readouterr().out
        assert code == 0
        assert "Scenario phases" in out
        assert "bsp-compute/1:compute-a" in out
