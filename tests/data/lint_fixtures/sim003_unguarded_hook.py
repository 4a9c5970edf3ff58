"""Fixture: SIM003 — observer hook invoked without the None guard."""


class Pipe:
    def __init__(self):
        self._faults = None
        self._wait_tracer = None

    def push(self, item):
        self._faults.on_push(item)  # SIM003: unguarded hook call
        return item

    def block(self, name, now):
        wt = self._wait_tracer
        wt.begin_block(name, now)  # SIM003: unguarded alias call
