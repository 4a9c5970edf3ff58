"""Unit tests for message framing and wire-size accounting."""

import numpy as np
import pytest

from repro.net.message import Message, payload_nbytes


def test_payload_nbytes_bytes_like():
    assert payload_nbytes(b"12345") == 5
    assert payload_nbytes(bytearray(7)) == 7
    assert payload_nbytes(memoryview(b"123")) == 3


def test_payload_nbytes_numpy():
    assert payload_nbytes(np.zeros(10, dtype=np.uint8)) == 10
    assert payload_nbytes(np.zeros(4, dtype=np.float64)) == 32


def test_payload_nbytes_scalars_and_none():
    assert payload_nbytes(None) == 0
    assert payload_nbytes(42) == 8
    assert payload_nbytes(3.14) == 8
    assert payload_nbytes(True) == 8


def test_payload_nbytes_string():
    assert payload_nbytes("abc") == 3
    assert payload_nbytes("héllo") == len("héllo".encode())


def test_payload_nbytes_containers():
    assert payload_nbytes([b"ab", b"cd"]) == 4 + 8
    assert payload_nbytes({"k": b"1234"}) == 1 + 4 + 8


def test_payload_nbytes_opaque_object():
    class Opaque:
        pass

    assert payload_nbytes(Opaque()) == 96


def test_message_defaults_to_payload_size():
    m = Message(src="a", dst="b", payload=b"xyz")
    assert m.nbytes == 3


def test_message_explicit_virtual_size():
    m = Message(src="a", dst="b", payload=None, nbytes=1 << 20)
    assert m.nbytes == 1 << 20


def test_message_negative_size_rejected():
    with pytest.raises(ValueError):
        Message(src="a", dst="b", nbytes=-1)


def test_reply_to_swaps_endpoints_and_keeps_tag():
    m = Message(src="client", dst="server", kind="req", tag=42, nbytes=100)
    r = m.reply_to(payload={"ok": True}, kind="rep")
    assert (r.src, r.dst) == ("server", "client")
    assert r.tag == 42
    assert r.kind == "rep"


def test_reply_to_inherits_kind_by_default():
    m = Message(src="a", dst="b", kind="echo", nbytes=1)
    assert m.reply_to().kind == "echo"
