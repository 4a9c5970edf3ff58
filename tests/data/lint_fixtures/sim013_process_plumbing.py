"""Fixture: SIM013 — an analysis module starting processes itself."""

import subprocess  # SIM013


def spawn(argv):
    return subprocess.Popen(argv)  # SIM013
