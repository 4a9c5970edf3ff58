"""Fixture: SIM014 — a span threaded through calls as ``trace``."""


def fetch(self, ctx, nbytes, trace=None):  # SIM014: takes trace
    span = trace.child("client_submit") if trace is not None else None
    yield ctx.enter(nbytes)
    if span is not None:
        span.finish()
    yield from self.rpc.call("obj_fetch", {}, trace=trace)  # SIM014
