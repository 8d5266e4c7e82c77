"""Differential equivalence: the two engines must agree byte for byte.

The whole-stack kernel refactor (batched steps, tuple events, flat
controller kernels, allocation-free coherence hit path) is gated by one
guarantee: ``simulate(..., engine="fast")`` and
``simulate(..., engine="reference")`` produce *byte-identical*
``RunResult`` JSON -- every counter and every per-phase breakdown.  A
result holds simulated observables only; the engines' heap traffic
differs and is telemetry (``tests/test_obs.py::TestEngineCounters``).
The reference engine is the retained one-event-per-op path, kept as the
ground truth this suite compares against.  It asserts the guarantee across every built-in
workload preset, every registered scenario, and the three controller
kinds, at two and four cores, plus warmup and rollback-heavy corners,
and that campaign cache keys/entries are engine-independent.
``TestBenchmarkedGeometries`` adds the benchmarked kernel cell at full
size and machines of 8 and 16 cores.
``TestEveryRegisteredConfig`` widens the comparison to every registered
configuration on the engine grid (``tests/conftest.py``) and to the
telemetry both engines record.
"""

import pytest

from repro.campaign import DirectoryBackend
from repro.campaign.cache import cache_key
from repro.config import InterconnectConfig, torus_geometry
from repro.engine.simulator import simulate
from repro.engine.system import ENGINE_KINDS, build_system
from repro.errors import ConfigurationError
from repro.experiments.common import ExperimentSettings, make_config
from repro.scenarios.registry import scenario_names
from repro.studies import StudyCell, StudyRunner
from repro.workloads.presets import workload_names
from repro.workloads.registry import build_trace, resolve_spec
from tests.conftest import (GRID_CORES, GRID_OPS, GRID_SEED, GRID_WORKLOADS,
                            grid_configs)

#: one configuration per controller kind (conventional / selective /
#: continuous speculation).
CONTROLLER_CONFIGS = ("sc", "invisi_sc", "invisi_cont")

_CORES = 2
_OPS = 300

ALL_WORKLOADS = tuple(workload_names()) + tuple(scenario_names())


def _settings(ops: int = _OPS, warmup: float = 0.0) -> ExperimentSettings:
    return ExperimentSettings(num_cores=_CORES, ops_per_thread=ops,
                              seeds=(3,), warmup_fraction=warmup)


def _run_both(config, trace, warmup: float = 0.0):
    fast = simulate(config, trace, warmup_fraction=warmup, engine="fast")
    ref = simulate(config, trace, warmup_fraction=warmup, engine="reference")
    return fast, ref


class TestEngineSelection:
    def test_unknown_engine_rejected(self):
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        with pytest.raises(ConfigurationError):
            build_system(config, trace, engine="turbo")

    @pytest.mark.parametrize("engine", ("turbo", "batch"))
    def test_unknown_engine_message_names_the_valid_kinds(self, engine):
        """The error must tell the user what *is* accepted.

        ``batch`` (a retired engine) fails exactly like any other unknown
        name, at every entry point that accepts an engine.
        """
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        for entry_point in (
                lambda: simulate(config, trace, engine=engine),
                lambda: build_system(config, trace, engine=engine)):
            with pytest.raises(ConfigurationError) as excinfo:
                entry_point()
            message = str(excinfo.value)
            assert repr(engine) in message
            assert message.endswith("expected one of fast|reference")

    def test_simulate_rejects_unknown_engine_before_building(self):
        """Validation is eager: no partially wired system, no simulation."""
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        with pytest.raises(ConfigurationError):
            simulate(config, trace, engine="FAST")  # names are exact

    def test_fast_engine_batches_and_reference_does_not(self):
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=20, seed=1)
        config = make_config("sc", _settings())
        fast_system = build_system(config, trace, engine="fast")
        ref_system = build_system(config, trace, engine="reference")
        assert all(core.batching for core in fast_system.cores)
        assert not any(core.batching for core in ref_system.cores)
        assert fast_system.memory.fast
        assert not ref_system.memory.fast


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
@pytest.mark.parametrize("workload", ALL_WORKLOADS)
class TestByteIdenticalResults:
    def test_run_results_byte_identical(self, config_name, workload):
        """Every preset and scenario, every controller kind."""
        trace = build_trace(workload, num_threads=_CORES,
                            ops_per_thread=_OPS, seed=3)
        config = make_config(config_name, _settings())
        fast, ref = _run_both(config, trace)
        assert fast.to_json() == ref.to_json()


GRID_CONFIGS = grid_configs()


def _simulated_telemetry(recorder):
    """What a recorder saw of the simulation, engine bookkeeping left out.

    ``engine.*`` counters describe how the engine ran (heap pops versus
    inline ops) and differ by design; everything else -- counters,
    histograms, simulated-time spans and instants, in recording order --
    is part of what was simulated.
    """
    from repro.obs.recorder import PID_SIM

    counters = {name: value for name, value in recorder.counters.items()
                if not name.startswith("engine.")}
    histograms = {name: dict(hist)
                  for name, hist in recorder.histograms.items()}
    spans = [(s.tid, s.name, s.ts, s.dur, s.args) for s in recorder.spans
             if s.pid == PID_SIM]
    instants = [(i.tid, i.name, i.ts, i.args) for i in recorder.instants
                if i.pid == PID_SIM]
    return counters, histograms, spans, instants


@pytest.mark.parametrize("workload", GRID_WORKLOADS)
@pytest.mark.parametrize("config_name", tuple(GRID_CONFIGS))
class TestEveryRegisteredConfig:
    """Every registered config, and 1-entry store buffers, on both engines.

    The fast engine specialises per controller kind: the TSO and RMO
    fence and atomic rules, FIFO versus coalescing store buffers, two
    checkpoints, commit-on-violate and ASO's store buffer each take
    their own branch, and a 1-entry buffer stalls for a slot on nearly
    every store.  Results must be byte-identical and the recorded
    telemetry identical apart from ``engine.*``.
    """

    def test_results_and_telemetry_identical(self, config_name, workload):
        from repro.obs import TraceRecorder

        trace = build_trace(workload, num_threads=GRID_CORES,
                            ops_per_thread=GRID_OPS, seed=GRID_SEED)
        config = GRID_CONFIGS[config_name]
        runs = {}
        for engine in ENGINE_KINDS:
            recorder = TraceRecorder()
            result = simulate(config, trace, engine=engine, recorder=recorder)
            runs[engine] = (result.to_json(), _simulated_telemetry(recorder))
        assert runs["fast"][0] == runs["reference"][0]
        assert runs["fast"][1] == runs["reference"][1]


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
class TestEquivalenceCorners:
    def test_with_warmup_fraction(self, config_name):
        """Warmup resets counters mid-run; both paths must agree."""
        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=7)
        config = make_config(config_name, _settings(warmup=0.25))
        fast, ref = _run_both(config, trace, warmup=0.25)
        assert fast.to_json() == ref.to_json()

    def test_contended_scenario_with_warmup(self, config_name):
        """Rollback-heavy false sharing exercises abort/replay batching."""
        trace = build_trace("false-sharing-storm", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=11)
        config = make_config(config_name, _settings(warmup=0.2))
        fast, ref = _run_both(config, trace, warmup=0.2)
        assert fast.to_json() == ref.to_json()

    def test_multiple_seeds(self, config_name):
        config = make_config(config_name, _settings())
        for seed in (1, 2, 5):
            trace = build_trace("ocean", num_threads=_CORES,
                                ops_per_thread=200, seed=seed)
            fast, ref = _run_both(config, trace)
            assert fast.to_json() == ref.to_json()


class TestSpeculativeCountersMatch:
    def test_aborts_and_commits_identical_under_contention(self):
        """The equivalence covers speculation activity, not just runtime."""
        trace = build_trace("false-sharing-storm", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=13)
        config = make_config("invisi_cont", _settings())
        fast, ref = _run_both(config, trace)
        fast_total, ref_total = fast.aggregate(), ref.aggregate()
        assert fast_total.aborts == ref_total.aborts
        assert fast_total.commits == ref_total.commits
        assert fast_total.replayed_ops == ref_total.replayed_ops
        assert fast_total.aborts > 0, "scenario expected to cause rollbacks"


class TestCacheKeyStability:
    def test_cache_key_is_engine_independent(self):
        """The engine is an implementation detail, never a cache dimension."""
        settings = _settings()
        config = make_config("invisi_sc", settings)
        spec = resolve_spec("apache", _OPS)
        key = cache_key(config, spec, seed=3,
                        warmup_fraction=settings.warmup_fraction)
        assert key == cache_key(config, spec, seed=3,
                                warmup_fraction=settings.warmup_fraction)

    def test_cached_entry_bytes_match_reference_result(self, tmp_path):
        """A cache warmed by the fast path serves byte-identical results."""
        settings = _settings()
        cache = DirectoryBackend(tmp_path / "cache")
        runner = StudyRunner(settings, jobs=1, cache=cache)
        cell = StudyCell(settings.num_cores, "invisi_sc", "apache", 3)
        fast_result = runner.result(cell)

        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=3)
        ref = simulate(make_config("invisi_sc", settings), trace,
                       warmup_fraction=settings.warmup_fraction,
                       engine="reference")
        stored = cache.path_for(runner.key_for(cell)).read_text(
            encoding="utf-8")
        assert fast_result.to_json() == ref.to_json()
        # On-disk cache bytes equal what a reference-path run would store.
        assert stored == ref.to_json()


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
class TestInterconnectVariantEquivalence:
    """Both engines read one latency matrix, so they agree on any torus.

    Every registered configuration lays out the resolver's torus; these
    cases swap in a ring and a free network on the same four cores.
    """

    @staticmethod
    def _run_on(config_name, interconnect):
        trace = build_trace("false-sharing-storm", num_threads=4,
                            ops_per_thread=_OPS, seed=5)
        base = make_config(config_name, ExperimentSettings(
            num_cores=4, ops_per_thread=_OPS, seeds=(5,),
            warmup_fraction=0.0))
        return _run_both(base.replace(interconnect=interconnect), trace)

    def test_byte_identical_on_a_ring(self, config_name):
        fast, ref = self._run_on(config_name, InterconnectConfig(
            mesh_width=1, mesh_height=4, hop_latency=20))
        assert fast.to_json() == ref.to_json()

    def test_byte_identical_on_a_free_network(self, config_name):
        fast, ref = self._run_on(config_name, InterconnectConfig(
            mesh_width=2, mesh_height=2, hop_latency=0))
        assert fast.to_json() == ref.to_json()

    def test_registered_configs_lay_out_the_resolved_torus(self, config_name):
        for cores in (2, 4, 8, 16):
            config = make_config(config_name, ExperimentSettings(
                num_cores=cores, ops_per_thread=_OPS, seeds=(3,),
                warmup_fraction=0.0))
            net = config.interconnect
            assert (net.mesh_width, net.mesh_height) == torus_geometry(cores)


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
@pytest.mark.parametrize("workload", tuple(scenario_names()))
class TestMulticoreByteIdentical:
    """Every scenario at four cores (``TestByteIdenticalResults`` runs two).

    Scenarios are the contended corner (phase-spliced storms, handoffs,
    migratory sharing); a wider machine puts more cores' coherence
    traffic and inline-batch decisions between any two of one core's
    steps, which is where the fast kernel's run-until-interesting
    condition would desynchronize from the reference path.
    """

    def test_fast_vs_reference_four_cores(self, config_name, workload):
        trace = build_trace(workload, num_threads=4,
                            ops_per_thread=_OPS, seed=3)
        settings = ExperimentSettings(num_cores=4, ops_per_thread=_OPS,
                                      seeds=(3,), warmup_fraction=0.0)
        config = make_config(config_name, settings)
        fast, ref = _run_both(config, trace)
        assert fast.to_json() == ref.to_json()


@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
@pytest.mark.parametrize("workload, cores, ops", (
    ("apache", 4, 2000),
    ("false-sharing-storm", 8, 500),
    ("task-pool", 8, 500),
    ("false-sharing-storm", 16, 500),
    ("task-pool", 16, 500),
    ("oltp-oracle", 16, 500),
))
class TestBenchmarkedGeometries:
    """The cells the repository benchmark times, on both engines.

    apache at 4 cores x 2000 ops is the kernel cell at full size; the
    scaling study's scenarios at 8 and 16 cores and the miss-heavy
    oltp-oracle preset at 16 cores are the wide machines (every other
    class here runs two or four cores).  The repository benchmark
    (``perfbench/``) times the fast engine on these geometries; this
    pins that what it times still computes what the reference engine
    specifies.
    """

    def test_fast_vs_reference(self, config_name, workload, cores, ops):
        trace = build_trace(workload, num_threads=cores,
                            ops_per_thread=ops, seed=3)
        settings = ExperimentSettings(num_cores=cores, ops_per_thread=ops,
                                      seeds=(3,), warmup_fraction=0.0)
        fast, ref = _run_both(make_config(config_name, settings), trace)
        assert fast.to_json() == ref.to_json()


@pytest.mark.parametrize("engine", ("fast", "reference"))
@pytest.mark.parametrize("config_name", CONTROLLER_CONFIGS)
class TestTelemetryInvariance:
    """Recording telemetry must never change what is simulated.

    Recorders only observe -- they never schedule events or advance
    clocks -- so a run with a live :class:`TraceRecorder` attached must be
    byte-identical to the same run with telemetry off, on every engine and
    controller kind.  The contended scenario is the interesting case: the
    abort/rollback hooks sit on the exact paths speculation exercises.
    """

    def test_traced_run_byte_identical_to_untraced(self, engine, config_name):
        from repro.obs import TraceRecorder

        trace = build_trace("false-sharing-storm", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=3)
        config = make_config(config_name, _settings(warmup=0.2))
        plain = simulate(config, trace, warmup_fraction=0.2, engine=engine)
        recorder = TraceRecorder()
        traced = simulate(config, trace, warmup_fraction=0.2, engine=engine,
                          recorder=recorder)
        assert plain.to_json() == traced.to_json()
        # The recorder saw the run: at minimum the end-of-run gauges.
        assert recorder.counters

    def test_null_recorder_byte_identical_to_off(self, engine, config_name):
        """The disabled recorder is normalized away at build time."""
        from repro.obs import NullRecorder

        trace = build_trace("apache", num_threads=_CORES,
                            ops_per_thread=_OPS, seed=7)
        config = make_config(config_name, _settings())
        plain = simulate(config, trace, engine=engine)
        nulled = simulate(config, trace, engine=engine,
                          recorder=NullRecorder())
        assert plain.to_json() == nulled.to_json()
