"""Fixture: SIM011 — a superseded timer told apart by identity."""


class Pipe:
    def __init__(self):
        self._timer = None

    def _on_timer(self, timer):
        if timer is not self._timer:  # SIM011: cancel the old one instead
            return
        self._timer = None
