"""Fixture: SIM009 — observation selecting a slower path."""


def send(self, msg, trace=None):
    if trace is None:  # SIM009: a plain run takes another path
        return self.merged_hop(msg)
    return self.hop_by_hop(msg, trace)


def serve(self, duration):
    if self._wait_tracer is None:  # SIM009: tracer-absent branch
        return self.fast(duration)
    return self.slow(duration)


def submit(self, env, pieces, trace=None):
    if self._faults is not None or trace:  # SIM009: faulted runs split
        procs = [env.process(self.piece(p)) for p in pieces]  # SIM009
        yield env.all_of(procs)  # SIM009: a process per piece
