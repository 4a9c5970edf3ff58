"""Fixture: SIM012 — a heap key built by hand, and a Timeout free-list."""

from heapq import heappush


def push(env, when, event):
    env._eid += 1  # SIM012: count the key by hand
    heappush(env._queue, (when, 1, env._eid, event))  # SIM012


def recycle(env, timeout):
    env._tfree.append(timeout)  # SIM012: a free-list
