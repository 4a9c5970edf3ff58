"""Fixture: SIM007 — a station reserved outside sim/queues.py."""


def reserve(srv, now, duration):
    free = srv._free_at  # SIM007: reads a server's free-at instant
    done = max(now, free) + duration
    srv._free_at = done  # SIM007: writes it
    return done
