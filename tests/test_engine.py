import random

import pytest

from minins.engine import EventEngine
from minins.errors import SimulationError

from net_helpers import seconds


def recorder(log, label):
    return lambda: log.append(label)


def test_dispatch_in_time_order():
    eng = EventEngine()
    log = []
    eng.schedule(0, recorder(log, "exp_start"))
    eng.schedule(seconds(1), recorder(log, "cbr_start"))
    eng.run_until(seconds(2))
    assert log == ["exp_start", "cbr_start"]


def test_reverse_insertion_still_time_ordered():
    eng = EventEngine()
    log = []
    eng.schedule(seconds(1.0), recorder(log, "late"))
    eng.schedule(seconds(0.5), recorder(log, "early"))
    eng.run_until(seconds(2))
    assert log == ["early", "late"]


def test_equal_times_dispatch_in_insertion_order():
    eng = EventEngine()
    log = []
    for label in ("a", "b", "c"):
        eng.schedule(500, recorder(log, label))
    eng.run_until(1000)
    assert log == ["a", "b", "c"]


def test_scheduling_in_the_past_rejected():
    eng = EventEngine()
    eng.schedule(100, lambda: None)
    eng.run_until(100)
    with pytest.raises(SimulationError):
        eng.schedule(99, lambda: None)
    eng.schedule(100, lambda: None)  # at the current instant is fine


def test_reserved_number_keeps_its_fifo_place_at_equal_times():
    eng = EventEngine()
    log = []
    eng.schedule(500, recorder(log, "a"))
    seq = eng.reserve()
    eng.schedule(500, recorder(log, "b"))
    eng.schedule(500, recorder(log, "reserved"), seq)  # pushed last, runs second
    eng.reserve()  # a number never used leaves no gap in the order
    eng.schedule(500, recorder(log, "c"))
    eng.run_until(1000)
    assert log == ["a", "reserved", "b", "c"]


def test_reserved_key_must_come_after_the_dispatched_event():
    eng = EventEngine()
    outcomes = []
    early = eng.reserve()

    def at_100():
        # the event being dispatched holds (100, eng.seq)
        for seq in (early, eng.seq):
            with pytest.raises(SimulationError):
                eng.schedule(100, lambda: None, seq)
        eng.schedule(101, recorder(outcomes, "later time"), early)
        eng.schedule(100, recorder(outcomes, "later number"), eng.reserve())

    eng.schedule(100, at_100)
    eng.run_until(200)
    assert outcomes == ["later number", "later time"]


def test_run_until_empty_queue_leaves_clock_at_zero():
    eng = EventEngine()
    assert eng.run_until(seconds(500)) == 0
    assert eng.now == 0


def test_limit_excludes_later_events():
    eng = EventEngine()
    log = []
    eng.schedule(10, recorder(log, "in"))
    eng.schedule(30, recorder(log, "out"))
    assert eng.run_until(20) == 10
    assert log == ["in"]
    assert eng.run_until(30) == 30
    assert log == ["in", "out"]


def test_events_scheduled_during_dispatch_participate():
    eng = EventEngine()
    log = []

    def first():
        log.append("first")
        eng.schedule(eng.now, lambda: log.append("chained-now"))
        eng.schedule(eng.now + 5, lambda: log.append("chained-later"))

    eng.schedule(10, first)
    eng.run_until(100)
    assert log == ["first", "chained-now", "chained-later"]


def test_paper_style_schedule_reaches_full_duration():
    eng = EventEngine()
    observed = {}
    eng.schedule(0, lambda: None)  # generator start
    eng.schedule(seconds(1), lambda: None)  # second start
    eng.schedule(seconds(499), lambda: None)  # stops
    eng.schedule(seconds(499), lambda: None)
    eng.schedule(seconds(500), lambda: observed.setdefault("now", eng.now))
    final = eng.run_until(seconds(500))
    assert observed["now"] == seconds(500)
    assert final == seconds(500)


def test_now_inside_event_matches_event_time():
    eng = EventEngine()
    seen = []
    eng.schedule(12345, lambda: seen.append(eng.now))
    eng.run_until(99999)
    assert seen == [12345]
    assert eng.now == 12345


def test_random_workload_is_deterministic_and_ordered():
    # Property: dispatch order is (time, insertion) lexicographic, every
    # event within the limit runs exactly once, later ones wait, and
    # reruns are identical. Some events schedule a follow-up while
    # dispatching, so the heap also grows mid-run.
    def one_run(op_seed):
        rng = random.Random(op_seed)
        eng = EventEngine()
        dispatched = []

        def event(i, t, child):
            dispatched.append((t, i))
            if child is not None:
                ct, ci = child
                eng.schedule(ct, lambda: dispatched.append((ct, ci)))

        expected = set()
        for i in range(400):
            t = rng.randrange(0, 1000)
            child = None
            if rng.random() < 0.25:
                child = (t + rng.randrange(0, 300), 400 + i)
                if child[0] <= 1000:
                    expected.add(child[1])
            eng.schedule(t, lambda i=i, t=t, child=child: event(i, t, child))
            expected.add(i)
        eng.run_until(1000)
        return dispatched, expected

    for op_seed in range(5):
        dispatched, expected = one_run(op_seed)
        again, _ = one_run(op_seed)
        assert dispatched == again
        ids = [i for _, i in dispatched]
        assert len(ids) == len(set(ids))
        assert set(ids) == expected
        times = [t for t, _ in dispatched]
        assert times == sorted(times)
        # equal times keep insertion order: top-level events were all
        # scheduled before any follow-up, and in index order
        for (t1, i1), (t2, i2) in zip(dispatched, dispatched[1:]):
            if t1 == t2 and i1 < 400 and i2 < 400:
                assert i1 < i2
            if t1 == t2 and (i1 < 400) != (i2 < 400):
                assert i1 < 400
