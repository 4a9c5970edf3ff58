"""Golden for the request paths that fork processes.

No ledger cell forks a process on the request path, so the campaign
check cannot see how a sampled request's span reaches a forked process.
Six requests here do, each run alone with a wait tracer and 1-in-1
sampling:

* a DFS write and a DFS read that each span two chunks (a process per
  chunk piece);
* an RP2 update (a ``vos.update`` process per replica);
* an EC2P1 update and an EC2P1 fetch (a process per cell target, which
  the request's span does not reach);
* a VOS fetch over two extents (a process per extent, likewise).

Each is reduced to its span tree (name, node, parent's name, start,
end, in finish order) and its wait records (span name, resource, kind,
wait, service, latency, instant), and compared byte for byte with a
committed golden.

Regenerate after an intentional behaviour change with::

    PYTHONPATH=src python tests/test_span_forks.py
"""

import json
import os

from repro.daos import DaosClient, DaosEngine, DfsNamespace
from repro.daos.types import ObjectClass
from repro.hw import make_paper_testbed
from repro.hw.specs import KIB
from repro.net import Fabric
from repro.sim import Environment
from repro.sim.spans import SpanCollector
from repro.sim.waits import WaitTracer

GOLDEN = os.path.join(os.path.dirname(__file__), "data",
                      "span_fork_golden.json")

#: DFS chunk size for the two-chunk file I/Os.
_CHUNK = 64 * KIB


def _setup():
    env = Environment()
    top = make_paper_testbed(env, n_ssds=2)
    fab = Fabric(env)
    engine = DaosEngine(top.server)
    pool = engine.create_pool()
    ch = fab.connect(top.client, top.server, "ucx+rc")
    engine.serve(ch)
    daos = DaosClient(top.client, ch)
    ctx = daos.new_context()

    def mount(env):
        ph = yield from daos.connect_pool(ctx, pool)
        cont = yield from ph.create_container(ctx)
        ns = DfsNamespace(daos, cont)
        yield from ns.format(ctx)
        return ns

    p = env.process(mount(env))
    env.run(until=p)
    return env, ctx, p.value


def _run(env, gen):
    p = env.process(gen)
    env.run(until=p)
    return p.value


def _sampled(env, ctx, request):
    """Run ``request()`` as one sampled request; reduce its spans and wait
    records."""
    collector = SpanCollector(env, sample_every=1)
    tracer = WaitTracer(env).install()

    def go(env):
        tr = collector.trace("req")
        yield from request()
        tr.finish()

    _run(env, go(env))
    tracer.uninstall()
    names = {s.span_id: s.name for s in collector.spans}
    return {
        "spans": [[s.name, s.node, names.get(s.parent_id), s.t_start,
                   s.t_end] for s in collector.spans],
        "waits": [[names[r.span_id], r.resource, r.kind, r.wait, r.service,
                   r.latency, r.t] for r in tracer.records],
    }


def _dfs(write):
    env, ctx, ns = _setup()

    def create(env):
        f = yield from ns.create(ctx, "/f", chunk_size=_CHUNK)
        yield from f.write(ctx, 0, nbytes=2 * _CHUNK)
        return f

    f = _run(env, create(env))
    off, n = _CHUNK - 16 * KIB, 32 * KIB
    if write:
        return _sampled(env, ctx, lambda: f.write(ctx, off, nbytes=n))
    return _sampled(env, ctx, lambda: f.read(ctx, off, n))


def _object(oclass, prefill=()):
    env, ctx, ns = _setup()

    def alloc(env):
        oids = yield from ns.cont.alloc_oid(ctx, oclass, 1)
        obj = ns.cont.obj(oids[0])
        for off, n in prefill:
            yield from obj.update(ctx, b"d", b"a", off, nbytes=n)
        return obj

    return env, ctx, _run(env, alloc(env))


def _rp2_update():
    env, ctx, obj = _object(ObjectClass.RP2)
    return _sampled(env, ctx, lambda: obj.update(
        ctx, b"d", b"a", 0, nbytes=16 * KIB))


def _ec_update():
    env, ctx, obj = _object(ObjectClass.EC2P1)
    return _sampled(env, ctx, lambda: obj.update(
        ctx, b"d", b"a", 0, nbytes=64 * KIB))


def _ec_fetch():
    env, ctx, obj = _object(ObjectClass.EC2P1, [(0, 64 * KIB)])
    return _sampled(env, ctx, lambda: obj.fetch(
        ctx, b"d", b"a", 0, 64 * KIB))


def _vos_two_extents():
    env, ctx, obj = _object(ObjectClass.S1, [(0, 16 * KIB),
                                             (16 * KIB, 16 * KIB)])
    return _sampled(env, ctx, lambda: obj.fetch(
        ctx, b"d", b"a", 0, 32 * KIB))


def build_golden_doc() -> dict:
    return {
        "dfs_write_2_chunks": _dfs(write=True),
        "dfs_read_2_chunks": _dfs(write=False),
        "rp2_update": _rp2_update(),
        "ec2p1_update": _ec_update(),
        "ec2p1_fetch": _ec_fetch(),
        "vos_fetch_2_extents": _vos_two_extents(),
    }


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=1) + "\n"


def test_forked_request_spans_match_golden():
    with open(GOLDEN) as fh:
        committed = fh.read()
    assert _dump(build_golden_doc()) == committed


def test_the_golden_sees_every_fork():
    """Each request forks: two pieces, two replicas, three or two cell
    targets, two extents.  Only the pieces and the replicas carry the
    request's span, so only they open spans of their own."""
    doc = build_golden_doc()

    def count(case, name):
        return sum(1 for s in doc[case]["spans"] if s[0] == name)

    assert count("dfs_write_2_chunks", "client_submit") == 2
    assert count("dfs_read_2_chunks", "client_submit") == 2
    assert count("rp2_update", "media.nvme") == 2
    for case in ("ec2p1_update", "ec2p1_fetch"):
        assert not any(s[0].startswith("media.") for s in doc[case]["spans"])
    # The extents' processes wait inside the fetch's one media span.
    assert count("vos_fetch_2_extents", "media.nvme") == 1
    assert not any(w[1].startswith("nvme.")
                   for w in doc["vos_fetch_2_extents"]["waits"])


if __name__ == "__main__":
    with open(GOLDEN, "w") as fh:
        fh.write(_dump(build_golden_doc()))
    print(f"wrote {GOLDEN}")
