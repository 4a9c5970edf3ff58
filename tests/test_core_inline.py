"""Unit tests for ChaCha20 and the inline crypto service."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.inline import ChaCha20, InlineCrypto
from repro.hw import make_paper_testbed
from repro.hw.specs import MIB
from repro.sim import Environment, FifoServer


# ---------------------------------------------------------------------------
# RFC 8439 test vectors
# ---------------------------------------------------------------------------

RFC_KEY = bytes(range(32))


def test_rfc8439_keystream_block():
    """RFC 8439 section 2.3.2 block-function test vector."""
    nonce = bytes.fromhex("000000090000004a00000000")
    ks = ChaCha20(RFC_KEY, nonce).keystream(1, 64)
    expected = bytes.fromhex(
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e"
        "d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    )
    assert ks == expected


def test_rfc8439_encryption():
    """RFC 8439 section 2.4.2 sunscreen test vector (first block)."""
    nonce = bytes.fromhex("000000000000004a00000000")
    pt = (
        b"Ladies and Gentlemen of the class of '99: If I could offer you o"
        b"nly one tip for the future, sunscreen would be it."
    )
    ct = ChaCha20(RFC_KEY, nonce).crypt(1, pt)
    assert ct[:16] == bytes.fromhex("6e2e359a2568f98041ba0728dd0d6981")
    assert ChaCha20(RFC_KEY, nonce).crypt(1, ct) == pt


def test_key_nonce_validation():
    with pytest.raises(ValueError):
        ChaCha20(b"short", bytes(12))
    with pytest.raises(ValueError):
        ChaCha20(bytes(32), b"short")
    c = ChaCha20(bytes(32), bytes(12))
    with pytest.raises(ValueError):
        c.keystream(0, 0)
    with pytest.raises(ValueError):
        c.crypt_at(-1, b"x")


def test_empty_payload():
    c = ChaCha20(bytes(32), bytes(12))
    assert c.crypt(1, b"") == b""
    assert c.crypt_at(100, b"") == b""


def test_crypt_at_seekable():
    """Encrypting a whole stream equals encrypting its pieces at offsets."""
    c = ChaCha20(RFC_KEY, bytes(12))
    data = bytes(range(256)) * 8  # 2048 bytes
    whole = c.crypt_at(0, data)
    # Odd split points exercise intra-block offsets.
    for split in [1, 63, 64, 65, 777, 2047]:
        first = c.crypt_at(0, data[:split])
        second = c.crypt_at(split, data[split:])
        assert first + second == whole, f"split at {split}"


@settings(max_examples=40, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=10_000),
    data=st.binary(min_size=1, max_size=1024),
)
def test_crypt_at_roundtrip_property(offset, data):
    c = ChaCha20(RFC_KEY, bytes(12))
    assert c.crypt_at(offset, c.crypt_at(offset, data)) == data


@settings(max_examples=20, deadline=None)
@given(data=st.binary(min_size=1, max_size=512))
def test_different_keys_differ(data):
    a = ChaCha20(bytes(32), bytes(12)).crypt_at(0, data)
    b = ChaCha20(bytes([1]) + bytes(31), bytes(12)).crypt_at(0, data)
    assert a != b or len(data) == 0


# ---------------------------------------------------------------------------
# InlineCrypto timing
# ---------------------------------------------------------------------------

def test_dpu_accelerated_by_default():
    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    crypto = InlineCrypto(top.client, bytes(32))
    assert crypto.accelerated
    host_crypto = InlineCrypto(top.launcher, bytes(32))
    assert not host_crypto.accelerated


def test_accelerated_crypto_cheaper_than_software():
    def run(client, accelerated):
        env = Environment()
        top = make_paper_testbed(env, client=client)
        crypto = InlineCrypto(top.client, bytes(32), accelerated=accelerated)
        ctx = FifoServer(env, "t", factor=top.client.spec.cycle_factor)

        def proc(env):
            for _ in range(8):
                yield from crypto.crypt(ctx, 0, nbytes=MIB)

        env.process(proc(env))
        env.run()
        return env.now

    assert run("dpu", True) < run("host", False)


def test_crypto_functional_and_timed():
    env = Environment()
    top = make_paper_testbed(env, client="dpu")
    crypto = InlineCrypto(top.client, RFC_KEY)
    ctx = FifoServer(env, "t")
    got = []

    def proc(env):
        ct = yield from crypto.crypt(ctx, 0, data=b"secret words")
        pt = yield from crypto.crypt(ctx, 0, data=ct)
        got.append((ct, pt))

    env.process(proc(env))
    env.run()
    ct, pt = got[0]
    assert ct != b"secret words"
    assert pt == b"secret words"
    assert env.now > 0
    assert crypto.bytes_processed == 24


def test_crypt_requires_size_or_data():
    env = Environment()
    top = make_paper_testbed(env)
    crypto = InlineCrypto(top.client, bytes(32))
    ctx = FifoServer(env, "t")
    with pytest.raises(ValueError):
        list(crypto.crypt(ctx, 0))
