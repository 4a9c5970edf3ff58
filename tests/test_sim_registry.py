"""Unit tests for the component registry (sim/registry.py)."""

from repro.sim import Environment
from repro.sim.registry import Registry


def test_views_keep_registration_order():
    reg = Registry()
    reg.add("dpu", "node", object(), node="dpu")
    reg.add("dpu.cpu", "cpu", object(), node="dpu", capacity=16)
    reg.add("dpu.qp", "qp", "session0", node="dpu")
    reg.add("dpu.tcp_stack", "section", object(), node="dpu",
            bucket="dpu.arm_rx")
    reg.add("dpu.qp", "qp", "session1", node="dpu")
    assert [c.name for c in reg.of_kind("cpu", "section")] == [
        "dpu.cpu", "dpu.tcp_stack"]
    assert [c.obj for c in reg.get("dpu.qp")] == ["session0", "session1"]
    assert reg.get("nvme0") == []
    assert reg.names("qp") == ["dpu.qp"]
    (section,) = reg.of_kind("section")
    assert (section.bucket, section.capacity) == ("dpu.arm_rx", 1)
    assert next(reg.of_kind("cpu")).bucket == "dpu.cpu"


def test_subscribe_sees_present_and_future_components():
    reg = Registry()
    reg.add("a", "node", None)
    seen = []
    reg.subscribe(lambda c: seen.append(c.name))
    reg.add("b", "node", None)
    assert seen == ["a", "b"]
    assert [c.name for c in reg] == ["a", "b"]


def test_every_environment_owns_a_registry():
    a, b = Environment(), Environment()
    a.components.add("x", "node", None)
    assert [c.name for c in a.components] == ["x"]
    assert list(b.components) == []
