"""Fixture: SIM008 — a station's private server used by another module."""


def stall(section, duration):
    return section._server.serve(duration)  # SIM008: not its owner
