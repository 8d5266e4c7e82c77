"""The observability subsystem: recorders, exporters, hooks, and the CLI.

Covers the recorder protocol (``active`` normalization), the wiring that
makes a disabled recorder free (it never reaches a hook site), the
Chrome trace-event export shape (``ph``/``ts``/``pid``/``tid``/``name``
on every event, the metadata track names, abort spans carrying their
rollback cause), the schema-versioned ``telemetry.json`` payload, the
``campaign.*`` counters, and the ``repro profile`` / ``--telemetry`` CLI
surface.
"""

import json

import pytest

from repro.campaign import DirectoryBackend
from repro.cli import main
from repro.engine.simulator import Simulator, simulate
from repro.engine.system import ENGINE_KINDS, build_system
from repro.experiments.common import ExperimentSettings, make_config
from repro.obs import (
    COHERENCE_TID_BASE,
    NullRecorder,
    PID_CAMPAIGN,
    PID_SIM,
    TELEMETRY_SCHEMA_VERSION,
    TraceRecorder,
    active,
    chrome_trace,
    format_profile,
    telemetry_payload,
    write_chrome_trace,
)
from repro.studies import StudyCell, StudyRunner
from repro.workloads.registry import build_trace
from tests.conftest import dir_transactions

#: a small contended cell that reliably aborts under selective speculation.
_CONTENDED = dict(config="invisi_sc", workload="false-sharing-storm",
                  cores=4, ops=800, seed=3)


def _traced_contended_run(engine="fast"):
    """One traced rollback-heavy run (module-scope cache would hide bugs)."""
    settings = ExperimentSettings(num_cores=_CONTENDED["cores"],
                                  ops_per_thread=_CONTENDED["ops"],
                                  seeds=(_CONTENDED["seed"],),
                                  warmup_fraction=0.0)
    trace = build_trace(_CONTENDED["workload"],
                        num_threads=_CONTENDED["cores"],
                        ops_per_thread=_CONTENDED["ops"],
                        seed=_CONTENDED["seed"])
    recorder = TraceRecorder()
    result = simulate(make_config(_CONTENDED["config"], settings), trace,
                      engine=engine, recorder=recorder)
    return recorder, result


class TestRecorderProtocol:
    def test_base_recorder_is_disabled_noop(self):
        rec = NullRecorder()
        assert not rec.enabled
        # Every protocol method is callable and silently does nothing.
        rec.count("x")
        rec.observe("x", 3)
        rec.sim_span(0, "s", 0, 5)
        rec.sim_instant(0, "i", 0)
        rec.wall_span(0, "s", 0.0, 1.0)

    def test_active_strips_none_and_disabled(self):
        assert active(None) is None
        assert active(NullRecorder()) is None
        rec = TraceRecorder()
        assert active(rec) is rec

    def test_counters_accumulate(self):
        rec = TraceRecorder()
        rec.count("a")
        rec.count("a", 4)
        assert rec.counters["a"] == 5

    def test_histograms_bucket_by_value(self):
        rec = TraceRecorder()
        for value in (3, 3, 7):
            rec.observe("len", value)
        assert rec.histograms["len"] == {3: 2, 7: 1}

    def test_sim_span_clamps_negative_duration(self):
        rec = TraceRecorder()
        rec.sim_span(0, "s", 10, 4)
        assert rec.spans[0].dur == 0

    def test_wall_span_is_relative_microseconds(self):
        rec = TraceRecorder()
        rec.wall_span(1, "job", rec.wall_origin + 1.0, rec.wall_origin + 3.0)
        span = rec.spans[0]
        assert span.pid == PID_CAMPAIGN
        assert span.ts == pytest.approx(1_000_000, abs=2)
        assert span.dur == pytest.approx(2_000_000, abs=2)


class TestRecorderWiring:
    """A disabled recorder costs nothing because no hook site ever sees it.

    Every hook site guards on ``is not None``, so telemetry that is off
    costs one pointer comparison per site -- provided ``build_system``
    turns a disabled recorder into ``None`` before wiring it.  Results
    cannot show a break here (a ``NullRecorder``'s methods do nothing), so
    the slots themselves are checked.
    """

    CONFIGS = ("sc", "invisi_sc", "invisi_cont", "aso_sc")

    @staticmethod
    def _slots(config, engine, recorder):
        settings = ExperimentSettings(num_cores=2, ops_per_thread=50,
                                      seeds=(3,), warmup_fraction=0.0)
        trace = build_trace("apache", num_threads=2, ops_per_thread=50, seed=3)
        system = build_system(make_config(config, settings), trace,
                              engine=engine, recorder=recorder)
        slots = {"system.recorder": system.recorder,
                 "memory._obs": system.memory._obs}
        for core in system.cores:
            slots[f"core{core.core_id}.obs"] = core.obs
            slots[f"core{core.core_id}.controller._obs"] = core.controller._obs
        return slots

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_disabled_recorder_reaches_no_slot(self, config, engine):
        slots = self._slots(config, engine, NullRecorder())
        assert {name: rec for name, rec in slots.items() if rec is not None} == {}

    @pytest.mark.parametrize("engine", ENGINE_KINDS)
    @pytest.mark.parametrize("config", CONFIGS)
    def test_enabled_recorder_reaches_every_slot(self, config, engine):
        recorder = TraceRecorder()
        slots = self._slots(config, engine, recorder)
        assert [name for name, rec in slots.items() if rec is not recorder] == []


class TestChromeTraceExport:
    def test_every_event_has_required_keys(self):
        recorder, _ = _traced_contended_run()
        events = chrome_trace(recorder)["traceEvents"]
        assert events
        for event in events:
            for key in ("name", "ph", "pid", "tid"):
                assert key in event, event
            if event["ph"] != "M":
                assert "ts" in event
            if event["ph"] == "X":
                assert event["dur"] >= 0 and event["ts"] >= 0
            if event["ph"] == "i":
                assert event["s"] == "t"

    def test_metadata_names_processes_and_threads(self):
        recorder, _ = _traced_contended_run()
        events = chrome_trace(recorder)["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        names = {(e["name"], e["pid"], e["tid"]): e["args"]["name"]
                 for e in meta}
        assert names[("process_name", PID_SIM, 0)].startswith("simulation")
        assert names[("thread_name", PID_SIM, 0)] == "core 0"
        dir_tid = COHERENCE_TID_BASE + 0
        assert names[("thread_name", PID_SIM, dir_tid)] == "directory/core 0"
        # Metadata precedes data events so viewers name tracks up front.
        first_data = next(i for i, e in enumerate(events) if e["ph"] != "M")
        assert all(e["ph"] == "M" for e in events[:first_data])

    def test_contended_run_emits_abort_span_with_cause(self):
        """The headline hook: rollbacks are visible, labeled, and sized."""
        recorder, result = _traced_contended_run()
        aborts = [span for span in recorder.spans
                  if span.name == "spec.episode" and span.args
                  and span.args.get("outcome") == "abort"]
        assert len(aborts) >= 1
        for span in aborts:
            assert span.args["cause"] in ("external-write", "external-read",
                                          "cov-timeout", "conflict")
            assert span.args["rolled_back"] >= 0
        assert result.aggregate().aborts > 0

    def test_spans_stay_within_the_run_and_nest_on_their_track(self):
        recorder, result = _traced_contended_run()
        episodes = [span for span in recorder.spans
                    if span.name == "spec.episode" and span.pid == PID_SIM]
        assert episodes
        by_track = {}
        for span in episodes:
            by_track.setdefault(span.tid, []).append(span)
        for spans in by_track.values():
            spans.sort(key=lambda s: (s.ts, s.ts + s.dur))
            for earlier, later in zip(spans, spans[1:]):
                # Episodes on one core never interleave: each closes
                # (commit or abort) before the next opens.
                assert earlier.ts + earlier.dur <= later.ts
            for span in spans:
                assert span.ts + span.dur <= result.runtime

    def test_dir_instants_hold_each_transactions_history(self):
        """The ``dir.*`` instant is the one record of a transaction, and
        both engines record the same history."""
        recorder, _ = _traced_contended_run()
        transactions = dir_transactions(recorder)
        counters = recorder.counters
        assert len(transactions) == counters["coherence.transactions"]
        assert sum(len(t["invalidated"]) for t in transactions) == \
            counters["coherence.invalidations"]
        assert any(t["owner"] is not None for t in transactions)
        assert any(t["invalidated"] for t in transactions)
        for t in transactions:
            assert t["name"] in ("dir.gets", "dir.getm", "dir.upgrade")
            assert t["issue"] <= t["start"] and t["issue"] < t["done"]
            assert t["invalidated"] == sorted(set(t["invalidated"]))
            assert t["core"] not in t["invalidated"]
            assert t["owner"] != t["core"]
            if t["owner"] is not None:
                assert t["l2_hit"]
            if t["name"] == "dir.gets":
                assert t["invalidated"] == []
        reference, _ = _traced_contended_run(engine="reference")
        assert dir_transactions(reference) == transactions

    def test_written_trace_is_loadable_json(self, tmp_path):
        recorder, _ = _traced_contended_run()
        recorder.meta["config"] = _CONTENDED["config"]
        path = write_chrome_trace(recorder, tmp_path / "trace.json")
        payload = json.loads(path.read_text())
        assert isinstance(payload["traceEvents"], list)
        other = payload["otherData"]
        assert other["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert other["config"] == _CONTENDED["config"]
        assert other["counters"]


class TestTelemetryPayload:
    def test_schema_and_sections(self):
        recorder, _ = _traced_contended_run()
        recorder.meta["engine"] = "fast"
        payload = telemetry_payload(recorder)
        assert payload["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert payload["meta"] == {"engine": "fast"}
        assert payload["counters"]["coherence.transactions"] > 0
        assert payload["spans"]["spec.episode"]["count"] > 0
        assert payload["instants"]
        assert json.dumps(payload)  # JSON-serializable end to end

    def test_histogram_summary_math(self):
        rec = TraceRecorder()
        for value in (2, 2, 8):
            rec.observe("x", value)
        summary = telemetry_payload(rec)["histograms"]["x"]
        assert summary == {"samples": 3, "min": 2, "max": 8,
                           "mean": pytest.approx(4.0),
                           "buckets": {"2": 2, "8": 1}}

    def test_format_profile_lists_all_sections(self):
        recorder, _ = _traced_contended_run()
        recorder.meta["config"] = "invisi_sc"
        text = format_profile(recorder)
        assert "profile: config=invisi_sc" in text
        assert "spans" in text and "spec.episode" in text
        assert "counters:" in text and "coherence.l1_hits" in text
        assert "histograms:" in text

    def test_format_profile_empty_recorder(self):
        assert "no telemetry" in format_profile(TraceRecorder())


class TestEngineCounters:
    """Heap traffic by kind on the kernel cells (apache, 4 cores x 2000 ops).

    One cell per controller kind: conventional, selective and continuous
    speculation each take their own fast-engine kernel.
    """

    #: (steps, callbacks, heap pops, inline ops).  Heap pops plus inline
    #: ops are the queue's ``processed`` count, which on the fast engine
    #: equals the reference engine's heap pops.
    EXPECTED = {
        ("fast", "sc"): (1542, 0, 1542, 6464),
        ("fast", "invisi_sc"): (2190, 602, 2792, 5909),
        ("fast", "invisi_cont"): (1783, 111, 1894, 6513),
        ("reference", "sc"): (8006, 0, 8006, 0),
        ("reference", "invisi_sc"): (8099, 602, 8701, 0),
        ("reference", "invisi_cont"): (8296, 111, 8407, 0),
    }

    @pytest.fixture(scope="class")
    def kernel_trace(self):
        return build_trace("apache", num_threads=4, ops_per_thread=2000, seed=3)

    @pytest.mark.parametrize("engine, config", sorted(EXPECTED))
    def test_counts_split_events_processed(self, kernel_trace, engine, config):
        settings = ExperimentSettings(num_cores=4, ops_per_thread=2000,
                                      seeds=(3,), warmup_fraction=0.0)
        recorder = TraceRecorder()
        system = build_system(make_config(config, settings), kernel_trace,
                              engine=engine, recorder=recorder)
        Simulator(system).run()
        counters = recorder.counters
        names = ("steps_scheduled", "callbacks_scheduled", "heap_pops",
                 "inline_ops")
        got = tuple(counters[f"engine.{name}"] for name in names)
        assert got == self.EXPECTED[engine, config]
        assert got[2] + got[3] == system.events.processed
        reference_pops = self.EXPECTED["reference", config][2]
        assert system.events.processed == reference_pops


class TestCampaignCounters:
    def test_cold_then_warm_run_counted_once(self, tmp_path):
        """The campaign tallies are the only cache counters recorded."""
        settings = ExperimentSettings(num_cores=2, ops_per_thread=120,
                                      seeds=(3,), warmup_fraction=0.0)
        cache = DirectoryBackend(tmp_path / "cache")
        recorder = TraceRecorder()
        cells = [StudyCell(2, "sc", "apache", 3)]
        reports = []
        for _ in range(2):
            runner = StudyRunner(settings, jobs=1, cache=cache,
                                 recorder=recorder)
            reports.append(runner.run_cells(cells))
            # A memoized cell is neither looked up nor counted again.
            runner.run_cells(cells)
        assert [(r.simulated, r.cache_hits) for r in reports] == \
            [(1, 0), (0, 1)]
        assert len(cache) == 1
        counters = recorder.counters
        assert counters["campaign.jobs"] == 2
        assert counters["campaign.simulated"] == 1
        assert counters["campaign.cache_hits"] == 1
        assert not [name for name in counters if name.startswith("cache.")]


class TestCLIProfile:
    def test_profile_writes_parseable_trace(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.json"
        telemetry_path = tmp_path / "telemetry.json"
        code = main(["profile", "invisi_sc", "false-sharing-storm", "--small",
                     "--trace-out", str(trace_path),
                     "--telemetry-out", str(telemetry_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "[profile] wrote Chrome trace" in out
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        telemetry = json.loads(telemetry_path.read_text())
        assert telemetry["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert telemetry["meta"]["workload"] == "false-sharing-storm"
        for name in ("steps_scheduled", "callbacks_scheduled", "heap_pops",
                     "inline_ops"):
            assert f"engine.{name}" in out
            assert f"engine.{name}" in telemetry["counters"]

    def test_quiet_suppresses_progress_but_not_results(self, capsys):
        code = main(["-q", "profile", "sc", "apache", "--small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "counters:" in out
        assert "[profile]" not in out

    def test_verbose_adds_event_tallies(self, capsys):
        code = main(["-v", "profile", "sc", "apache", "--small"])
        assert code == 0
        out = capsys.readouterr().out
        assert "spans," in out and "instants," in out

    def test_profile_rejects_unknown_config(self, capsys):
        with pytest.raises(SystemExit):
            main(["profile", "warp-drive", "apache"])


class TestCLITelemetryFlag:
    def test_scenario_run_writes_telemetry_json(self, tmp_path, monkeypatch,
                                                capsys):
        monkeypatch.chdir(tmp_path)
        code = main(["scenario", "run", "false-sharing-storm", "--small",
                     "--configs", "sc", "--no-cache", "--telemetry"])
        assert code == 0
        payload = json.loads((tmp_path / "telemetry.json").read_text())
        assert payload["schema_version"] == TELEMETRY_SCHEMA_VERSION
        assert payload["counters"]["campaign.jobs"] == 1
        assert payload["spans"]["job"]["count"] == 1
        assert "[telemetry] wrote telemetry.json" in capsys.readouterr().out

    def test_study_run_writes_telemetry_next_to_artifacts(self, tmp_path,
                                                          monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["-q", "study", "run", "figure8", "--quick", "--no-cache",
                     "--out-dir", str(tmp_path / "out"), "--telemetry"])
        assert code == 0
        payload = json.loads((tmp_path / "out" / "telemetry.json").read_text())
        assert payload["meta"]["studies"] == "figure8"
        assert payload["counters"]["campaign.simulated"] > 0
