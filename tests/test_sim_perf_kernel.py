"""Tests for the event-lean kernel work (DESIGN.md §9).

Pins the perf-critical invariants added by the kernel optimisation pass:

* :class:`BandwidthPipe`'s analytic scheduler is *bit-identical* to the
  classic chunk-per-event reference (:class:`tests.reference.ChunkLoopPipe`)
  — uncontended,
  under randomized contention (an arrival moves the projected finish and
  the timer armed there), for reads mid-run and for owners cut
  mid-transfer — while spending a small, size-independent number of
  kernel events on each transfer, and no timer that wakes nobody; and
  under a wait tracer it books every chunk the reference books, on the
  same span, at the same instant.
* ``Environment.events_processed`` counts what it claims;
  ``timeout_until`` fires at the exact float requested.
* :class:`Resource` keeps FIFO grant order through swap-remove releases.
"""

import random

from repro.sim.core import Environment
from repro.sim.queues import BandwidthPipe
from repro.sim.resources import Resource
from repro.sim.spans import SpanCollector
from repro.sim.waits import WaitTracer
from tests.reference import AnyOf, ChunkLoopPipe


# ---------------------------------------------------------------------------
# BandwidthPipe coalescing equivalence
# ---------------------------------------------------------------------------

def _pipe(env, reference, *args, **kwargs):
    """A pipe; ``reference`` makes it run every transfer down the
    chunk-per-event reference loop."""
    return (ChunkLoopPipe if reference else BandwidthPipe)(env, *args, **kwargs)


def _run_schedule(jobs, reference, bandwidth=10e9, latency=2e-6,
                  chunk_bytes=64 * 1024):
    """Run ``[(start, nbytes), ...]`` through one pipe; return outcomes."""
    env = Environment()
    pipe = _pipe(env, reference, bandwidth=bandwidth, latency=latency,
                 chunk_bytes=chunk_bytes)
    done = {}

    def mover(env, i, start, nbytes):
        yield env.timeout(start)
        yield from pipe.transfer(nbytes)
        done[i] = env.now

    for i, (start, nbytes) in enumerate(jobs):
        env.process(mover(env, i, start, nbytes))
    env.run()
    return {
        "done": done,
        "bytes_moved": pipe.bytes_moved,
        "busy_time": pipe.busy_time,
        "utilization": pipe.utilization(env.now),
        "events": env.events_processed,
    }


def test_coalesced_uncontended_bit_identical_to_chunked():
    # Strictly sequential transfers: every one coalesces, and every
    # observable — completion times, byte/busy accounting — must equal
    # the chunk-per-event reference bit for bit.
    jobs = [(i * 1e-3, n) for i, n in enumerate(
        [1, 4096, 64 * 1024, 64 * 1024 + 1, 1024 * 1024, 3 * 1024 * 1024])]
    a = _run_schedule(jobs, reference=False)
    b = _run_schedule(jobs, reference=True)
    assert a["done"] == b["done"]          # bit-identical, no tolerance
    assert a["bytes_moved"] == b["bytes_moved"]
    assert a["busy_time"] == b["busy_time"]
    assert a["utilization"] == b["utilization"]
    # ...in fewer kernel events than the chunk loop spends.
    assert a["events"] < b["events"]


def test_coalesced_contended_bit_identical_to_chunked():
    # Randomized overlapping schedules: revocation at the chunk boundary
    # restores exact chunked interleaving, so outcomes stay bit-identical
    # even when transfers collide mid-coalesce.
    for seed in range(12):
        rng = random.Random(seed)
        jobs = [(rng.uniform(0.0, 5e-4), rng.randrange(1, 4 * 1024 * 1024))
                for _ in range(16)]
        a = _run_schedule(jobs, reference=False)
        b = _run_schedule(jobs, reference=True)
        assert a["done"] == b["done"], f"seed {seed}"
        assert a["bytes_moved"] == b["bytes_moved"]
        assert a["busy_time"] == b["busy_time"]
        assert a["utilization"] == b["utilization"]


def _watch_revocations(monkeypatch):
    """The instants at which a timer is withdrawn: an arrival moved the
    finish a pipe had armed it at."""
    revoked = []
    cancel = Environment.cancel

    def spy(env, timer):
        revoked.append(env.now)
        cancel(env, timer)

    monkeypatch.setattr(Environment, "cancel", spy)
    return revoked


def _watch_timers(monkeypatch):
    """How many transfers each dispatch of a pipe's timer woke."""
    woken = []
    on_timer = BandwidthPipe._on_timer

    def spy(pipe, timer):
        waiting = [*pipe._requests, *pipe._finishing]
        on_timer(pipe, timer)
        woken.append(sum(1 for x in waiting if x.processed))

    monkeypatch.setattr(BandwidthPipe, "_on_timer", spy)
    return woken


def test_coalesced_contention_triggers_revocation_sometimes(monkeypatch):
    # Sanity that the contended test above actually exercises revocation:
    # two big transfers launched close together move the first one's
    # finish once, and its timer with it.
    revoked = _watch_revocations(monkeypatch)
    jobs = [(0.0, 8 * 1024 * 1024), (1e-5, 8 * 1024 * 1024)]
    a = _run_schedule(jobs, reference=False)
    assert revoked
    b = _run_schedule(jobs, reference=True)
    assert a["done"] == b["done"]


def test_coalesced_event_cost_is_size_independent():
    # One uncontended transfer costs O(1) kernel events regardless of
    # size; the chunked reference costs O(size / chunk).  The >=4x
    # reduction on a 1 MiB transfer is an acceptance criterion.
    def events_for(nbytes, reference):
        r = _run_schedule([(0.0, nbytes)], reference=reference)
        return r["events"]

    small_co = events_for(64 * 1024, False)
    big_co = events_for(16 * 1024 * 1024, False)
    assert big_co == small_co  # size-independent

    mib = 1024 * 1024
    co, ch = events_for(mib, False), events_for(mib, True)
    assert ch >= 4 * co, (co, ch)


def test_chunk_burst_fairness_bound_when_overlapping():
    # A transfer arriving mid-coalesce starts transmitting after at most
    # the chunk in flight: its first byte lands within latency +
    # chunk_time of its arrival at the data phase.
    bandwidth, latency, chunk = 10e9, 2e-6, 64 * 1024
    chunk_time = chunk / bandwidth
    small = 4096
    arrival = 1e-5
    a = _run_schedule([(0.0, 32 * 1024 * 1024), (arrival, small)],
                      reference=False, bandwidth=bandwidth, latency=latency,
                      chunk_bytes=chunk)
    small_done = a["done"][1]
    worst = arrival + latency + chunk_time + small / bandwidth
    assert small_done <= worst + 1e-12, (small_done, worst)


# ---------------------------------------------------------------------------
# BandwidthPipe scheduler properties (each against the chunk-per-event
# reference)
# ---------------------------------------------------------------------------

CHUNK = 64 * 1024


def _mixed_size(rng):
    """Sub-chunk, exact chunk multiples, off-by-one and multi-MiB sizes."""
    kind = rng.randrange(4)
    if kind == 0:
        return rng.randrange(1, CHUNK + 1)
    if kind == 1:
        return CHUNK * rng.randrange(1, 40)
    if kind == 2:
        return CHUNK * rng.randrange(1, 20) + rng.choice((-1, 1))
    return rng.randrange(1 << 20, 6 << 20)


def _run_and_read(jobs, reference, samples=(), cuts=None, latency=2e-6,
                  traced=False):
    """Run ``[(start, nbytes), ...]``; read the pipe at each of ``samples``.

    ``cuts`` maps a job index to ``(instant, how)``: ``"interrupt"``
    interrupts the owner, ``"close"`` makes it close the transfer
    generator it drives by hand.  ``traced`` installs a wait tracer and
    has every other job transfer inside a span of its own; the tracer is
    read at each sample as well.  Returns every observable outcome: the
    pipe's own ``busy_time``, ``ops`` and ``bytes_moved`` count every
    job's slots, the tracer the sampled jobs' alone.
    """
    from repro.sim.core import Interrupt

    cuts = cuts or {}
    env = Environment()
    tracer = WaitTracer(env).install() if traced else None
    collector = SpanCollector(env)
    pipe = _pipe(env, reference, bandwidth=10e9, latency=latency,
                 chunk_bytes=CHUNK, name="pipe")
    done, cut_at, reads = {}, {}, []

    def traced_job(i, body):
        # A span per even job, open while its transfer runs.
        if tracer is None or i % 2:
            yield from body
            return
        span = collector.trace(f"job{i}").root
        try:
            yield from body
        finally:
            span.finish()

    def mover(env, i, start, nbytes):
        yield env.timeout(start)
        try:
            yield from traced_job(i, pipe.transfer(nbytes))
            done[i] = env.now
        except Interrupt:
            cut_at[i] = env.now

    def closer(env, i, start, nbytes, deadline):
        # Drives the transfer by hand and abandons it at ``deadline``.
        yield env.timeout(start)
        gen = traced_job(i, pipe.transfer(nbytes))
        alarm = env.timeout(deadline - start)
        try:
            step = next(gen)
            while True:
                yield AnyOf(env, [step, alarm])
                if step.processed:
                    step = gen.send(None)
                else:
                    gen.close()
                    cut_at[i] = env.now
                    return
        except StopIteration:
            done[i] = env.now

    def interrupter(env, proc, at):
        yield env.timeout(at)
        if proc.is_alive:
            proc.interrupt()

    def reader(env):
        for t in samples:
            yield env.timeout(t - env.now)
            if tracer is not None:
                # Before the pipe's own readings, which sync it.
                reads.append(_tracer_view(tracer))
            reads.append((env.now, pipe.busy_time, pipe.ops,
                          pipe.utilization()))

    for i, (start, nbytes) in enumerate(jobs):
        at, how = cuts.get(i, (None, None))
        if how == "close":
            env.process(closer(env, i, start, nbytes, at))
            continue
        proc = env.process(mover(env, i, start, nbytes))
        if how == "interrupt":
            env.process(interrupter(env, proc, at))
    if samples:
        env.process(reader(env))
    env.run()
    outcome = {"tracer": _tracer_view(tracer)} if tracer is not None else {}
    outcome.update(done=done, cut_at=cut_at, reads=reads,
                   bytes_moved=pipe.bytes_moved, busy_time=pipe.busy_time,
                   ops=pipe.ops, utilization=pipe.utilization(env.now))
    return outcome, pipe


def _tracer_view(tracer):
    """What a wait tracer booked: records and wait series."""
    return (
        [(r.resource, r.kind, r.wait, r.service, r.latency, r.t, r.stage)
         for r in tracer.records],
        [(ts.name, ts.points()) for ts in tracer.wait_series()],
    )


def test_scheduler_matches_reference_on_random_contended_schedules(
        monkeypatch):
    # ...and a pipe's timer fires only where a transfer finishes.
    revoked = _watch_revocations(monkeypatch)
    woken = _watch_timers(monkeypatch)
    for seed in range(40):
        rng = random.Random(seed)
        n = rng.randrange(2, 24)
        spread = rng.choice((1e-5, 2e-4, 2e-3))
        jobs = [(rng.uniform(0.0, spread), _mixed_size(rng))
                for _ in range(n)]
        got, _ = _run_and_read(jobs, reference=False)
        want, _ = _run_and_read(jobs, reference=True)
        assert got == want, f"seed {seed}"
    assert revoked
    assert woken and min(woken) >= 1


def test_scheduler_books_what_the_chunk_loop_books(monkeypatch):
    # Under a wait tracer the scheduler books every chunk the reference
    # loop books, on the owner's span, at the chunk's request instant, in
    # slot order; a tracer read mid-run sees the chunks requested by then.
    # Same transfers, instants and pipe readings as without a tracer, and
    # every timer the pipe dispatches wakes a transfer.
    revoked = _watch_revocations(monkeypatch)
    woken = _watch_timers(monkeypatch)
    for seed in range(30):
        rng = random.Random(400 + seed)
        jobs = [(rng.uniform(0.0, rng.choice((1e-5, 2e-4, 2e-3))),
                 _mixed_size(rng)) for _ in range(rng.randrange(1, 16))]
        cuts = {i: (start + rng.uniform(0.0, 1e-3),
                    rng.choice(("interrupt", "close")))
                for i, (start, _n) in enumerate(jobs) if rng.random() < 0.2}
        samples = sorted(rng.uniform(0.0, 3e-3) for _ in range(10))
        latency = rng.choice((0.0, 2e-6))
        got, _ = _run_and_read(jobs, False, samples, cuts, latency,
                               traced=True)
        want, _ = _run_and_read(jobs, True, samples, cuts, latency,
                                traced=True)
        assert got == want, f"seed {seed}"
        plain, _ = _run_and_read(jobs, False, samples, cuts, latency)
        assert {k: v for k, v in got.items() if k not in ("tracer", "reads")} \
            == {k: v for k, v in plain.items() if k != "reads"}
        assert got["tracer"][0], f"seed {seed}: no span records"
    assert revoked
    assert woken and min(woken) >= 1


def test_scheduler_stepping_request_by_request_is_exact(monkeypatch):
    # Past the span where the closed form is exact, a pipe arms its timer
    # at the next request instead of the projected finish: the slots and
    # wake-ups stay the chunk loop's.
    import repro.sim.queues as queues

    monkeypatch.setattr(queues, "_EXACT_SPAN", 0.0)
    woken = _watch_timers(monkeypatch)
    for seed in range(8):
        rng = random.Random(600 + seed)
        jobs = [(rng.uniform(0.0, 2e-4), _mixed_size(rng))
                for _ in range(rng.randrange(2, 10))]
        cuts = {i: (start + rng.uniform(0.0, 1e-3), "interrupt")
                for i, (start, _n) in enumerate(jobs) if rng.random() < 0.2}
        samples = sorted(rng.uniform(0.0, 3e-3) for _ in range(5))
        got, _ = _run_and_read(jobs, False, samples, cuts, traced=True)
        want, _ = _run_and_read(jobs, True, samples, cuts, traced=True)
        assert got == want, f"seed {seed}"
    assert 0 in woken


def test_scheduler_reads_match_reference_mid_run():
    # busy_time, ops and utilization() read what the chunk loop holds at
    # that instant, never the slots the scheduler reserved ahead of it.
    for seed in range(20):
        rng = random.Random(100 + seed)
        jobs = [(rng.uniform(0.0, 5e-4), _mixed_size(rng))
                for _ in range(rng.randrange(1, 16))]
        samples = sorted(rng.uniform(0.0, 3e-3) for _ in range(30))
        got, _ = _run_and_read(jobs, reference=False, samples=samples)
        want, _ = _run_and_read(jobs, reference=True, samples=samples)
        assert got["reads"] == want["reads"], f"seed {seed}"
        assert got == want, f"seed {seed}"


def test_scheduler_owners_cut_mid_transfer_match_reference():
    # An interrupted or closed owner keeps the chunk in flight and gives
    # back the rest, as the chunk loop simply stops asking.
    cut_any = 0
    for seed in range(30):
        rng = random.Random(200 + seed)
        jobs = [(rng.uniform(0.0, 2e-4), _mixed_size(rng))
                for _ in range(rng.randrange(2, 14))]
        cuts = {i: (start + rng.uniform(0.0, 1e-3),
                    rng.choice(("interrupt", "close")))
                for i, (start, _n) in enumerate(jobs) if rng.random() < 0.4}
        samples = sorted(rng.uniform(0.0, 3e-3) for _ in range(10))
        got, _ = _run_and_read(jobs, False, samples=samples, cuts=cuts)
        want, _ = _run_and_read(jobs, True, samples=samples, cuts=cuts)
        assert got == want, f"seed {seed}"
        cut_any += len(got["cut_at"])
    assert cut_any > 0


def _run_with_hops(jobs, reference, merged):
    """``[(start, nbytes, delays), ...]`` through one pipe: one-chunk jobs
    with ``delays`` then sleep them, merged into the crossing or not."""
    env = Environment()
    pipe = _pipe(env, reference, bandwidth=10e9, chunk_bytes=CHUNK)
    done = {}

    def mover(env, i, start, nbytes, delays):
        yield env.timeout(start)
        if delays and merged:
            yield pipe.transfer_and_sleep(nbytes, *delays)
        else:
            yield from pipe.transfer(nbytes)
            for d in delays:
                yield env.timeout(d)
        done[i] = env.now

    for i, job in enumerate(jobs):
        env.process(mover(env, i, *job))
    env.run()
    return {"done": done, "bytes_moved": pipe.bytes_moved,
            "busy_time": pipe.busy_time, "ops": pipe.ops,
            "free_at": pipe._server._free_at}, pipe, env.events_processed


def test_one_chunk_transfer_and_sleep_matches_the_chained_hop():
    # One-chunk crossings merged with the sleeps after them, among
    # multi-chunk transfers the scheduler places ahead of the clock: each
    # wakes at the chained instant and the pipe holds the same slots,
    # one event per delay cheaper.
    merged = 0
    for seed in range(40):
        rng = random.Random(300 + seed)
        jobs = []
        for _ in range(rng.randrange(2, 16)):
            start = rng.uniform(0.0, rng.choice((1e-5, 2e-4)))
            if rng.random() < 0.5:
                jobs.append((start, _mixed_size(rng), ()))
            else:
                delays = tuple(rng.choice((0.0, 1.3e-6, 2.5e-7))
                               for _ in range(rng.randrange(1, 3)))
                jobs.append((start, rng.randrange(1, CHUNK + 1), delays))
        hops = sum(1 for _s, _n, d in jobs if d)
        want, _, chained_events = _run_with_hops(jobs, True, False)
        for reference in (False, True):
            got, _, events = _run_with_hops(jobs, reference, True)
            assert got == want, f"seed {seed} reference={reference}"
            if reference:
                assert events == chained_events - sum(
                    len(d) for _s, _n, d in jobs)
        merged += hops
    assert merged > 40


def test_transfer_and_sleep_refuses_more_than_one_chunk_or_a_latency():
    env = Environment()
    for pipe, nbytes in ((BandwidthPipe(env, 1e9, chunk_bytes=CHUNK), CHUNK + 1),
                         (BandwidthPipe(env, 1e9, chunk_bytes=CHUNK), 0),
                         (BandwidthPipe(env, 1e9, latency=1e-6), 100)):
        try:
            pipe.transfer_and_sleep(nbytes, 1e-6)
        except ValueError:
            assert pipe.bytes_moved == 0 and pipe.ops == 0
        else:
            raise AssertionError(f"accepted {nbytes} bytes")


def test_scheduler_pending_request_goes_first_at_a_chunk_boundary():
    # A's second chunk is requested at the very instant B arrives.  The
    # request made by A's finishing chunk goes first, as it does in the
    # reference when A's chunk event was scheduled before B's arrival.
    chunk_time = 2.0 ** -10
    for b_bytes in (512, 3 * 1024):
        runs = {}
        for reference in (False, True):
            env = Environment()
            pipe = _pipe(env, reference, bandwidth=2.0 ** 20, chunk_bytes=1024)
            done = {}

            def mover(env, tag, start, nbytes):
                if start:
                    yield env.timeout(start)
                yield from pipe.transfer(nbytes)
                done[tag] = env.now

            env.process(mover(env, "a", 0.0, 3 * 1024))
            env.process(mover(env, "b", chunk_time, b_bytes))
            env.run()
            runs[reference] = (done, pipe.busy_time, pipe.ops)
        assert runs[False] == runs[True]
        done = runs[False][0]
        # In chunk times: A holds [0, 1) and [1, 2), B's first slot
        # starts at 2 and A's last one follows it.
        if b_bytes == 512:
            assert done == {"a": 3.5 * chunk_time, "b": 2.5 * chunk_time}
        else:
            assert done == {"a": 4 * chunk_time, "b": 6 * chunk_time}


def test_scheduler_compares_chunk_boundaries_exactly():
    # B arrives exactly when A's ninth chunk is requested: eight chunk
    # times after A started, summed one by one, as the chunk loop sums
    # them.  Dividing the elapsed time by the chunk time gives
    # 7.999999999998484 here, so a scheduler that counted chunks by
    # division would hand A's ninth chunk to B.  (Numbers from a Fig. 5
    # prefill on the 100 Gbps link.)
    bandwidth, chunk = 12.5e9, 64 * 1024
    chunk_time = chunk / bandwidth
    start = 0.061301140258052146
    boundary = start
    for _ in range(8):
        boundary += chunk_time
    assert (boundary - start) / chunk_time < 8
    runs = {}
    for reference in (False, True):
        env = Environment()
        pipe = _pipe(env, reference, bandwidth=bandwidth, chunk_bytes=chunk)
        done = {}

        def a(env):
            yield env.timeout_until(start)
            yield from pipe.transfer(10 * chunk)
            done["a"] = env.now

        def b(env):
            # Scheduled after A's eighth chunk, so the chunk loop also
            # serves A's request first.
            yield env.timeout_until(start + 7.5 * chunk_time)
            yield env.timeout_until(boundary)
            yield from pipe.transfer(305)
            done["b"] = env.now

        env.process(a(env))
        env.process(b(env))
        env.run()
        runs[reference] = (done, pipe.busy_time, pipe.ops)
    assert runs[False] == runs[True]
    assert runs[False][0]["b"] > boundary + chunk_time


def test_repeat_add_is_the_loop_it_replaces():
    # The closed form the projection sums slot ends with: bit for bit the
    # float ``x += step`` reaches, across binade edges and on ties (a step
    # half-way between two grid points of ``x``'s binade).
    from math import ldexp

    from repro.sim.queues import _repeat_add

    rng = random.Random(5)
    cases = [(0.0, CHUNK / 12.5e9, 5000), (0.0, CHUNK / 10e9, 3)]
    for _ in range(300):
        e = rng.randrange(-20, -6)
        u = ldexp(1.0, e - 52)
        x = ldexp(rng.uniform(1.0, 2.0), e)
        step = rng.choice((
            rng.uniform(1e-9, 1e-5),
            (rng.randrange(1, 1 << 20) + 0.5) * u,
            (rng.randrange(1, 1 << 20) + rng.choice((0.25, 0.75))) * 2 * u))
        cases.append((x, step, rng.choice((rng.randrange(40),
                                           rng.randrange(20000)))))
    for x, step, k in cases:
        want = x
        for _ in range(k):
            want += step
        assert _repeat_add(x, step, k) == want, (x, step, k)


def test_scheduler_timer_fires_only_at_finishes_under_heavy_contention(
        monkeypatch):
    # Dozens of movers, each running back-to-back transfers: the
    # reference's instants, and no events but the movers' own and one
    # timer dispatch per finishing instant.
    woken = _watch_timers(monkeypatch)
    rng = random.Random(9)
    starts = [rng.uniform(0.0, 1e-4) for _ in range(40)]
    sizes = [rng.choice((1 << 20, 3 * CHUNK + 7, 2 << 20)) for _ in starts]
    runs = {}
    for reference in (False, True):
        env = Environment()
        pipe = _pipe(env, reference, bandwidth=12.5e9, chunk_bytes=CHUNK)
        done = {}

        def mover(env, i):
            yield env.timeout(starts[i])
            for k in range(3):
                yield from pipe.transfer(sizes[i])
                done[i, k] = env.now

        for i in range(len(starts)):
            env.process(mover(env, i))
        env.run()
        runs[reference] = (done, pipe.busy_time, pipe.ops, env.events_processed)
    assert runs[False][:3] == runs[True][:3]
    assert sum(woken) == 3 * len(starts) and min(woken) >= 1
    assert len(woken) == len(set(runs[False][0].values()))
    assert runs[False][3] == 2 * len(starts) + len(woken)


# ---------------------------------------------------------------------------
# Kernel counters, timeout_until exactness
# ---------------------------------------------------------------------------

def test_events_processed_counts_dispatches():
    env = Environment()

    def ticker(env):
        for _ in range(10):
            yield env.timeout(1.0)

    env.process(ticker(env))
    env.run()
    # Initialize + 10 timeouts = 11 dispatched events.
    assert env.events_processed == 11


def test_timeout_until_is_exact():
    env = Environment()
    times = []

    def proc(env):
        # The timeout_until must fire at the exact float requested.
        yield env.timeout(0.1)
        when = 0.1 + 1e-7 + 3e-13  # not representable as now+delay rounding
        yield env.timeout_until(when)
        times.append((env.now, when))

    env.process(proc(env))
    env.run()
    now, when = times[0]
    assert now == when  # exact, no delay re-rounding


def test_timeout_until_rejects_past():
    env = Environment()

    def proc(env):
        yield env.timeout(1.0)
        try:
            env.timeout_until(0.5)
        except ValueError:
            return "raised"
        return "no"

    p = env.process(proc(env))
    env.run()
    assert p.value == "raised"


# ---------------------------------------------------------------------------
# Resource grant order under swap-remove
# ---------------------------------------------------------------------------

def test_resource_fifo_order_survives_random_release_order():
    # Swap-remove permutes ``users`` internally; the *grant* order of
    # queued waiters must stay strictly FIFO regardless of which holder
    # releases first.
    rng = random.Random(42)
    env = Environment()
    res = Resource(env, capacity=3)
    granted = []

    def worker(env, i):
        with res.request() as req:
            yield req
            granted.append(i)
            yield env.timeout(rng.uniform(0.1, 2.0))

    for i in range(20):
        env.process(worker(env, i))
    env.run()
    assert granted == list(range(20))
