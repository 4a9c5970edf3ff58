"""Fixture: SIM010 — a station with a recorder of its own."""


class Station:
    __slots__ = ("_stats",)  # SIM010: a recorder slot

    def attach_stats(self, stats):  # SIM010: a recorder hook
        self._stats = stats  # SIM010
