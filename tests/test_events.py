"""Tests for the discrete-event queue."""

import pytest

from repro.engine.events import EventQueue
from repro.errors import SimulationError


def record(fired):
    """A callback appending ``(now, arg)`` to ``fired``."""
    return lambda now, arg: fired.append((now, arg))


def noop(now, arg):
    pass


class TestScheduling:
    def test_events_fire_in_time_order(self):
        queue = EventQueue()
        fired = []
        queue.schedule(30, record(fired), "c")
        queue.schedule(10, record(fired), "a")
        queue.schedule(20, record(fired), "b")
        queue.run()
        assert fired == [(10, "a"), (20, "b"), (30, "c")]

    def test_ties_broken_by_insertion_order(self):
        queue = EventQueue()
        fired = []
        for name in "abc":
            queue.schedule(5, record(fired), name)
        queue.run()
        assert fired == [(5, "a"), (5, "b"), (5, "c")]

    def test_unorderable_args_at_equal_times_pop_in_insertion_order(self):
        """(time, sequence) is unique, so neither fn nor arg is ever compared."""
        queue = EventQueue()
        fired = []
        args = [{}, {"x": 1}, {}]
        for arg in args:
            queue.schedule(5, record(fired), arg)
        queue.schedule_step(5, record(fired), 0)
        queue.run()
        assert [arg for _, arg in fired] == args + [0]
        assert all(a is b for (_, a), b in zip(fired, args))

    def test_arg_defaults_to_none(self):
        queue = EventQueue()
        fired = []
        queue.schedule(3, record(fired))
        queue.run()
        assert fired == [(3, None)]

    def test_now_tracks_last_popped_event(self):
        queue = EventQueue()
        queue.schedule(42, noop)
        queue.run()
        assert queue.now == 42

    def test_cannot_schedule_in_the_past(self):
        queue = EventQueue()
        queue.schedule(10, noop)
        queue.run()
        with pytest.raises(SimulationError):
            queue.schedule(5, noop)
        with pytest.raises(SimulationError):
            queue.schedule_step(5, noop, 0)

    def test_events_scheduled_during_run_are_processed(self):
        queue = EventQueue()
        fired = []

        def chain(now, depth):
            fired.append((now, depth))
            if now < 30:
                queue.schedule(now + 10, chain, depth + 1)

        queue.schedule(10, chain, 0)
        queue.run()
        assert fired == [(10, 0), (20, 1), (30, 2)]


class TestQueueSize:
    def test_len_counts_pending_entries(self):
        queue = EventQueue()
        queue.schedule(10, noop)
        queue.schedule_step(20, noop, 0)
        assert len(queue) == 2
        queue.pop()
        assert len(queue) == 1

    def test_empty(self):
        queue = EventQueue()
        assert queue.empty()
        queue.schedule(5, noop)
        assert not queue.empty()
        queue.run()
        assert queue.empty()


class TestBoundedRun:
    def test_max_events_bound(self):
        queue = EventQueue()
        fired = []
        for t in (10, 20, 30):
            queue.schedule(t, record(fired))
        queue.run(max_events=1)
        assert fired == [(10, None)]

    def test_processed_counter(self):
        queue = EventQueue()
        for t in (1, 2, 3):
            queue.schedule(t, noop)
        queue.run()
        assert queue.processed == 3

    def test_pop_returns_none_when_empty(self):
        assert EventQueue().pop() is None

    def test_pop_returns_the_entry_tuple(self):
        queue = EventQueue()
        queue.schedule(7, noop, "x")
        assert queue.pop() == (7, 0, noop, "x")
        assert queue.now == 7


class TestSteps:
    def test_step_dispatch_passes_the_generation(self):
        calls = []
        queue = EventQueue()
        queue.schedule_step(7, lambda now, generation: calls.append((now, generation)), 3)
        queue.run()
        assert calls == [(7, 3)]

    def test_steps_interleave_with_callbacks_deterministically(self):
        order = []
        queue = EventQueue()
        queue.schedule(10, lambda now, arg: order.append(("call", now)))
        queue.schedule_step(10, lambda now, generation: order.append(("step", now)), 0)
        queue.schedule(5, lambda now, arg: order.append(("call", now)))
        queue.run()
        assert order == [("call", 5), ("call", 10), ("step", 10)]

    def test_stale_generation_step_is_a_noop_fire(self):
        fired = []

        class FakeCore:
            _generation = 1

            def step(self, now, generation):
                if generation == self._generation:
                    fired.append(now)

        core = FakeCore()
        queue = EventQueue()
        queue.schedule_step(5, core.step, 0)  # stale generation
        queue.schedule_step(6, core.step, 1)
        assert queue.run() == 2
        assert fired == [6]


class TestInlineAccounting:
    def test_note_inline_advances_clock_and_count(self):
        queue = EventQueue()
        queue.schedule(10, noop)
        queue.run()
        queue.note_inline(25)
        assert queue.now == 25
        assert queue.processed == 2
        with pytest.raises(SimulationError):
            queue.schedule(20, noop)  # now in the past

    def test_run_count_includes_inline_ops(self):
        queue = EventQueue()

        def batched(now, arg):
            queue.note_inline(now + 1)
            queue.note_inline(now + 2)

        queue.schedule(10, batched)
        assert queue.run() == 3

    def test_tally_splits_pushes_and_processed_by_kind(self):
        queue = EventQueue()

        def batched(now, arg):
            queue.note_inline(now + 1)

        queue.schedule(10, batched)
        queue.schedule_step(11, noop, 0)
        queue.schedule_step(12, noop, 0)
        queue.schedule(40, noop)
        assert queue.run(max_events=4) == 4  # the inline op counts too
        assert queue.processed == 4
        assert queue.tally() == {"steps_scheduled": 2, "callbacks_scheduled": 2,
                                 "heap_pops": 3, "inline_ops": 1}
        assert queue.pop()[0] == 40  # the bound left the last entry queued
