"""Unit tests for the DES kernel (repro.sim.core)."""

import gc

import pytest

from repro.sim import Environment, Event, Interrupt, SimulationError
from repro.sim.core import URGENT, Timeout, tie_scramble
from repro.sim.queues import FifoServer, PooledServer
from tests.reference import AnyOf


def test_clock_starts_at_zero():
    env = Environment()
    assert env.now == 0.0


def test_timeout_advances_clock():
    env = Environment()
    done = []

    def proc(env):
        yield env.timeout(2.5)
        done.append(env.now)

    env.process(proc(env))
    env.run()
    assert done == [2.5]


def test_timeout_value_passthrough():
    env = Environment()
    got = []

    def proc(env):
        v = yield env.timeout(1.0, value="payload")
        got.append(v)

    env.process(proc(env))
    env.run()
    assert got == ["payload"]


def test_negative_timeout_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay, tag):
        yield env.timeout(delay)
        order.append(tag)

    for delay, tag in [(3, "c"), (1, "a"), (2, "b")]:
        env.process(waiter(env, delay, tag))
    env.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    for tag in "abcd":
        env.process(waiter(env, tag))
    env.run()
    assert order == list("abcd")


def test_call_at_runs_at_the_exact_instant_in_fifo_order():
    env = Environment()
    order = []
    when = 0.1 + 1e-7 + 3e-13  # not representable as now+delay rounding

    def sleeper(env):
        yield env.timeout_until(when)
        order.append(("sleep", env.now))

    env.call_at(when, lambda event: order.append(("timer", env.now)))
    env.process(sleeper(env))
    env.run()
    assert order == [("timer", when), ("sleep", when)]
    with pytest.raises(ValueError, match="in the past"):
        env.call_at(0.1, lambda event: None)


def test_cancelled_call_at_runs_nothing_and_is_not_counted():
    env = Environment()
    ran = []
    dropped = env.call_at(1.0, lambda event: ran.append("dropped"))
    env.call_at(2.0, lambda event: ran.append(("kept", env.now)))
    env.cancel(dropped)
    env.run()
    assert ran == [("kept", 2.0)]
    assert env.events_processed == 1


def test_cancelled_last_timer_leaves_the_clock_at_the_last_dispatch():
    env = Environment()
    env.call_at(1.0, lambda event: None)
    env.cancel(env.call_at(5.0, lambda event: None))
    env.run()
    assert env.now == 1.0
    assert env.events_processed == 1


def test_cancelling_one_of_two_same_instant_timers_keeps_the_others_order():
    def run(arm_first):
        env = Environment()
        order = []

        def sleeper(env):
            value = yield env.timeout_until(1.0, "slept")
            order.append((value, env.now))

        if arm_first:
            first = env.call_at(1.0, lambda event: order.append("first"))
        env.call_at(1.0, lambda event: order.append(("second", env.now)))
        env.process(sleeper(env))
        if arm_first:
            env.cancel(first)
        env.run()
        return order, env.events_processed

    assert run(True) == run(False)
    assert run(True)[0] == [("second", 1.0), ("slept", 1.0)]


def test_cancel_after_the_timer_fired_is_a_noop():
    env = Environment()
    ran = []
    timer = env.call_at(1.0, lambda event: ran.append(env.now))
    env.run()
    env.cancel(timer)
    env.call_at(2.0, lambda event: ran.append(env.now))
    env.run()
    assert ran == [1.0, 2.0]
    assert env.events_processed == 2


def _push_through_every_site(env):
    """Push one event through each heap-push site; the keys in push order."""
    def idle(env):
        yield env.timeout(1)

    started = env.process(idle(env))
    sites = [
        lambda: env.event().succeed(),
        lambda: env.event().fail(ValueError("unused")),
        lambda: env.timeout(1),
        lambda: env.timeout_until(2),
        lambda: env.call_at(3, lambda event: None),
        lambda: env.schedule(env.event(), 4),
        lambda: env.process(idle(env)),
        started.interrupt,
        lambda: FifoServer(env).serve(1),
        lambda: PooledServer(env, 2).execute(1),
    ]
    keys = [entry[2] for entry in env._queue]
    for push in sites:
        seen = set(keys)
        push()
        new = [entry[2] for entry in env._queue if entry[2] not in seen]
        assert len(new) == 1, push
        keys += new
    return keys


def test_every_push_site_takes_the_next_key():
    keys = _push_through_every_site(Environment())
    assert keys == list(range(1, len(keys) + 1))


@pytest.mark.parametrize("seed", [1, 12345])
def test_every_push_site_takes_the_next_scrambled_key(seed):
    scramble = tie_scramble(seed)
    keys = _push_through_every_site(Environment(tie_seed=seed))
    assert keys == [scramble(k) for k in range(1, len(keys) + 1)]


@pytest.mark.parametrize("priority, expected", [(0, "sab"), (1, "abs")])
def test_process_start_priority(priority, expected):
    """URGENT (0, default) starts ahead of events already due; NORMAL after."""
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1.0)
        order.append(tag)

    def started(env):
        order.append("s")
        yield env.timeout(0)

    def starter(env):
        yield env.timeout(1.0)
        env.process(started(env), priority=priority)

    env.process(starter(env))
    for tag in "ab":
        env.process(waiter(env, tag))
    env.run()
    assert "".join(order) == expected


def test_process_return_value():
    env = Environment()

    def child(env):
        yield env.timeout(1)
        return 42

    def parent(env, out):
        result = yield env.process(child(env))
        out.append(result)

    out = []
    env.process(parent(env, out))
    env.run()
    assert out == [42]


def test_run_until_event_returns_value():
    env = Environment()

    def child(env):
        yield env.timeout(3)
        return "done"

    proc = env.process(child(env))
    assert env.run(until=proc) == "done"
    assert env.now == 3


def test_run_until_time_stops_clock_exactly():
    env = Environment()

    def ticker(env, hits):
        while True:
            yield env.timeout(1)
            hits.append(env.now)

    hits = []
    env.process(ticker(env, hits))
    env.run(until=3.5)
    assert env.now == 3.5
    assert hits == [1, 2, 3]


def test_run_until_past_raises():
    env = Environment()
    env.run(until=5)
    with pytest.raises(ValueError):
        env.run(until=1)


def test_event_succeed_wakes_waiter():
    env = Environment()
    ev = env.event()
    got = []

    def waiter(env, ev):
        got.append((yield ev))

    def firer(env, ev):
        yield env.timeout(2)
        ev.succeed("hello")

    env.process(waiter(env, ev))
    env.process(firer(env, ev))
    env.run()
    assert got == ["hello"]


def test_event_double_trigger_raises():
    env = Environment()
    ev = env.event()
    ev.succeed(1)
    with pytest.raises(SimulationError):
        ev.succeed(2)


def test_event_value_before_trigger_raises():
    env = Environment()
    ev = env.event()
    with pytest.raises(SimulationError):
        _ = ev.value


def test_failed_event_raises_in_waiter():
    env = Environment()
    ev = env.event()
    caught = []

    def waiter(env, ev):
        try:
            yield ev
        except RuntimeError as exc:
            caught.append(str(exc))

    env.process(waiter(env, ev))

    def firer(env, ev):
        yield env.timeout(1)
        ev.fail(RuntimeError("boom"))

    env.process(firer(env, ev))
    env.run()
    assert caught == ["boom"]


def test_unhandled_process_failure_propagates():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("bad process")

    env.process(bad(env))
    with pytest.raises(ValueError, match="bad process"):
        env.run()


def test_fail_requires_exception():
    env = Environment()
    with pytest.raises(TypeError):
        env.event().fail("not an exception")  # type: ignore[arg-type]


def test_yield_non_event_raises():
    env = Environment()

    def bad(env):
        yield 17

    env.process(bad(env))
    with pytest.raises(SimulationError, match="non-event"):
        env.run()


def test_yield_foreign_event_raises():
    env1, env2 = Environment(), Environment()

    def bad(env, other):
        yield other.timeout(1)

    env1.process(bad(env1, env2))
    with pytest.raises(SimulationError, match="another environment"):
        env1.run()


def test_yield_already_processed_event_resumes_immediately():
    env = Environment()
    trace = []

    def proc(env):
        t = env.timeout(1)
        yield env.timeout(5)  # t fires and is processed long before this
        v = yield t  # must resume without deadlock at the same time
        trace.append((env.now, v))

    env.process(proc(env))
    env.run()
    assert trace == [(5, None)]


def test_interrupt_wakes_waiting_process():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
            log.append("no-interrupt")
        except Interrupt:
            log.append(("interrupted", env.now))

    def interrupter(env, victim):
        yield env.timeout(3)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [("interrupted", 3)]


def test_interrupt_then_continue():
    env = Environment()
    log = []

    def sleeper(env):
        try:
            yield env.timeout(100)
        except Interrupt:
            pass
        yield env.timeout(1)
        log.append(env.now)

    def interrupter(env, victim):
        yield env.timeout(2)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert log == [3]


def test_interrupt_terminated_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(SimulationError):
        p.interrupt()


def test_self_interrupt_rejected():
    env = Environment()

    def suicidal(env, handle):
        yield env.timeout(0)
        handle[0].interrupt()

    handle = [None]
    handle[0] = env.process(suicidal(env, handle))
    with pytest.raises(SimulationError, match="cannot interrupt itself"):
        env.run()


def test_all_of_waits_for_everything():
    env = Environment()
    got = []

    def proc(env):
        t1, t2 = env.timeout(1, "a"), env.timeout(4, "b")
        result = yield env.all_of([t1, t2])
        got.append((env.now, sorted(result.values())))

    env.process(proc(env))
    env.run()
    assert got == [(4, ["a", "b"])]


def test_any_of_fires_on_first():
    env = Environment()
    got = []

    def proc(env):
        t1, t2 = env.timeout(1, "fast"), env.timeout(4, "slow")
        result = yield AnyOf(env, [t1, t2])
        got.append((env.now, list(result.values())))

    env.process(proc(env))
    env.run()
    assert got == [(1, ["fast"])]


def test_all_of_empty_fires_immediately():
    env = Environment()
    got = []

    def proc(env):
        result = yield env.all_of([])
        got.append((env.now, result))

    env.process(proc(env))
    env.run()
    assert got == [(0, {})]


def _unawaited_process_end_is_dispatched(env):
    def proc(env):
        yield env.timeout(1)
        yield env.timeout(1)
        return "done"

    assert env.run(until=env.process(proc(env))) == "done"
    # Initialize + two timeouts + the end event: the sentinel counts as a
    # waiter, so the process end is scheduled rather than inlined.
    assert (env.now, env.events_processed) == (2, 4)


def _drained_heap_before_sentinel_raises(env):
    ev = env.event()
    env.timeout(1)
    with pytest.raises(SimulationError, match="never fired"):
        env.run(until=ev)
    assert (env.now, env.events_processed) == (1, 1)


def _failed_sentinel_raises_its_exception(env):
    def bad(env):
        yield env.timeout(1)
        raise ValueError("sentinel failed")

    with pytest.raises(ValueError, match="sentinel failed"):
        env.run(until=env.process(bad(env)))


def _defused_failed_sentinel_still_raises(env):
    ev = env.event()

    def waiter(env):
        try:
            yield ev
        except ValueError:
            pass  # defuses ev

    env.process(waiter(env))
    ev.fail(ValueError("sentinel failed"))
    with pytest.raises(ValueError, match="sentinel failed"):
        env.run(until=ev)


def _horizon_on_empty_heap_moves_clock(env):
    env.run(until=5.0)
    assert (env.now, env.events_processed) == (5.0, 0)


@pytest.mark.parametrize("case", [
    _unawaited_process_end_is_dispatched,
    _drained_heap_before_sentinel_raises,
    _failed_sentinel_raises_its_exception,
    _defused_failed_sentinel_still_raises,
    _horizon_on_empty_heap_moves_clock,
], ids=lambda case: case.__name__.strip("_"))
def test_run_contract(case):
    case(Environment())


def test_many_processes_complete():
    env = Environment()
    done = []

    def proc(env, i):
        yield env.timeout(i % 10 + 1)
        done.append(i)

    for i in range(500):
        env.process(proc(env, i))
    env.run()
    assert len(done) == 500


def test_process_name_defaults():
    env = Environment()

    def my_generator(env):
        yield env.timeout(1)

    p = env.process(my_generator(env), name="worker-1")
    assert p.name == "worker-1"
    env.run()


# -- a finished process frees itself -----------------------------------------
# Each case starts processes that all finish.  With the collector off,
# nothing they leave may need it, and none of the Timeouts they awaited
# may outlive the run.

def _returns(env):
    def proc(env):
        yield env.timeout(1)
        return "done"

    p = env.process(proc(env))
    env.process(proc(env))
    env.run()
    assert p.value == "done"


def _raises_into_a_waiter(env):
    caught = []

    def bad(env):
        yield env.timeout(1)
        raise ValueError("bad")

    def waiter(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            caught.append(str(exc))

    env.process(waiter(env))
    env.run()
    assert caught == ["bad"]


def _interrupted_then_returns(env):
    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt:
            yield env.timeout(1)
        return env.now

    def interrupter(env, victim):
        yield env.timeout(1)
        victim.interrupt()

    victim = env.process(sleeper(env))
    env.process(interrupter(env, victim))
    env.run()
    assert victim.value == 2


def _interrupted_then_raises(env):
    # Only ``victims`` reaches the sleeper's process, and it is empty by
    # the end: a local holding it would make a cycle of this case's own
    # through the frames in the exception's traceback.
    caught = []
    victims = []

    def sleeper(env):
        try:
            yield env.timeout(10)
        except Interrupt:
            raise ValueError("interrupted")

    def waiter(env):
        victims.append(env.process(sleeper(env)))
        try:
            yield victims[0]
        except ValueError as exc:
            caught.append(str(exc))

    def interrupter(env):
        yield env.timeout(1)
        victims.pop().interrupt()

    env.process(waiter(env))
    env.process(interrupter(env))
    env.run()
    assert caught == ["interrupted"]


def _nobody_awaits(env):
    def proc(env):
        yield env.timeout(1)

    procs = [env.process(proc(env)) for _ in range(3)]
    env.run()
    assert all(p.processed for p in procs)


@pytest.mark.parametrize("case", [
    _returns, _raises_into_a_waiter, _interrupted_then_returns,
    _interrupted_then_raises, _nobody_awaits,
], ids=lambda case: case.__name__.strip("_"))
def test_a_finished_process_leaves_nothing_for_the_collector(case):
    env = Environment()
    # A collection can free what only an earlier one finalized: collect
    # until nothing is left, so the count below is this case's alone.
    while gc.collect():
        pass
    gc.disable()
    try:
        case(env)
        assert gc.collect() == 0
    finally:
        gc.enable()
    assert not [o for o in gc.get_objects()
                if type(o) is Timeout and o.env is env]


def test_yield_on_a_finished_process_gets_its_outcome():
    env = Environment()
    got = []

    def ok(env):
        yield env.timeout(1)
        return "value"

    def bad(env):
        yield env.timeout(1)
        raise ValueError("late")

    def defuse(env, failed):
        try:
            yield failed
        except ValueError:
            pass

    def late(env, done, failed):
        yield env.timeout(5)
        got.append((env.now, (yield done)))
        try:
            yield failed
        except ValueError as exc:
            got.append((env.now, str(exc)))

    failed = env.process(bad(env))
    env.process(defuse(env, failed))
    env.process(late(env, env.process(ok(env)), failed))
    env.run()
    assert got == [(5, "value"), (5, "late")]


def test_an_interrupt_pending_when_its_process_finishes_is_dropped():
    env = Environment()
    wake = env.event()
    log = []

    def victim(env):
        yield wake
        log.append(("returned", env.now))

    def interrupter(env, p):
        yield env.timeout(1)
        wake.succeed(priority=URGENT)  # delivered before the interrupt
        p.interrupt()

    p = env.process(victim(env))
    env.process(interrupter(env, p))
    env.run()
    assert log == [("returned", 1)]
    with pytest.raises(SimulationError, match="cannot be interrupted"):
        p.interrupt()
