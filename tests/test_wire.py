"""Wire codec: round trips, exact size laws, decode as the validity gate."""

import functools
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import BOTH, build_ring, build_window
from ringadapt import (PreSignature, Signature, gen_r, keygen, presign,
                       schnorr, wire)


def _random_sig_objects(ctx, rng, n, t):
    """Shape-valid (pre)signature with random fields; no need to verify."""
    z = ctx.random_scalar_nonzero(rng)
    challenges = tuple(rng.randrange(ctx.order) for _ in range(n))
    tags = tuple(ctx.exp(ctx.generator_h, ctx.random_scalar_nonzero(rng))
                 for _ in range(t))
    return PreSignature(z, challenges, tags), Signature(z, challenges, tags)


class TestRoundTrips:
    def test_elements_and_scalars(self, toy, prod, rng):
        for ctx in (toy, prod):
            a = ctx.exp(ctx.generator_g, ctx.random_scalar_nonzero(rng))
            assert wire.decode_element(ctx, wire.encode_element(ctx, a)) == a
            k = ctx.random_scalar_nonzero(rng)
            assert wire.decode_scalar(ctx, wire.encode_scalar(ctx, k)) == k

    def test_ring_and_statement(self, toy, prod, rng):
        for ctx in (toy, prod):
            ring, _ = build_ring(ctx, 5, rng)
            again = wire.decode_ring(ctx, wire.encode_ring(ctx, ring))
            assert again.keys == ring.keys
            assert again.d == ring.d
            statement, _ = gen_r(ctx, rng)
            assert wire.decode_statement(
                ctx, wire.encode_statement(ctx, statement)) == statement

    def test_signature_objects(self, toy, prod, rng):
        for ctx in (toy, prod):
            psig, sig = _random_sig_objects(ctx, rng, 7, 3)
            data = wire.encode_presignature(ctx, psig)
            assert wire.decode_presignature(ctx, data, 7, 3) == psig
            data = wire.encode_signature(ctx, sig)
            assert wire.decode_signature(ctx, data, 7, 3) == sig

    def test_many_random_presignatures(self, toy):
        rng = random.Random(17)
        for trial in range(1000):
            n = 1 + rng.randrange(10)
            t = 1 + rng.randrange(n)
            psig, _ = _random_sig_objects(toy, rng, n, t)
            data = wire.encode_presignature(toy, psig)
            assert wire.decode_presignature(toy, data, n, t) == psig

    def test_plain_objects(self, toy, rng):
        psig = schnorr.PlainPreSignature(5, 77)
        data = wire.encode_plain_presignature(toy, psig)
        assert wire.decode_plain_presignature(toy, data) == psig
        sig = schnorr.PlainSignature(5, 81)
        data = wire.encode_plain_signature(toy, sig)
        assert wire.decode_plain_signature(toy, data) == sig

    def test_transactions(self, toy, rng):
        ring, _ = build_ring(toy, 3, rng)
        kp = keygen(toy, rng)
        tx_a = wire.SwapTransaction("A", b"alice", 5, 123, payer_key=kp.pk)
        assert wire.decode_transaction(
            toy, wire.encode_transaction(toy, tx_a)) == tx_a
        tx_b = wire.SwapTransaction("B", b"bob", 9, 42, ring_keys=ring.keys,
                                    threshold=2)
        assert wire.decode_transaction(
            toy, wire.encode_transaction(toy, tx_b)) == tx_b


def _every_decoding(ctx, rng):
    """(decoder name, bytes, extra arguments) covering each wire.decode_*."""
    ring, _ = build_ring(ctx, 3, rng)
    psig, sig = _random_sig_objects(ctx, rng, 4, 2)
    statement, _ = gen_r(ctx, rng)
    tx_a = wire.SwapTransaction("A", b"alice", 5, 123,
                                payer_key=ring.keys[0])
    tx_b = wire.SwapTransaction("B", b"bob", 9, 42, ring_keys=ring.keys,
                                threshold=2)
    return [
        ("decode_element", wire.encode_element(ctx, ring.keys[1])),
        ("decode_scalar", wire.encode_scalar(ctx, 5)),
        ("decode_ring", wire.encode_ring(ctx, ring)),
        ("decode_statement", wire.encode_statement(ctx, statement)),
        ("decode_presignature", wire.encode_presignature(ctx, psig), 4, 2),
        ("decode_signature", wire.encode_signature(ctx, sig), 4, 2),
        ("decode_plain_presignature", wire.encode_plain_presignature(
            ctx, schnorr.PlainPreSignature(5, 77))),
        ("decode_plain_signature", wire.encode_plain_signature(
            ctx, schnorr.PlainSignature(5, 81))),
        ("decode_transaction", wire.encode_transaction(ctx, tx_a)),
        ("decode_transaction", wire.encode_transaction(ctx, tx_b)),
    ]


@pytest.mark.parametrize("kind", [bytearray, memoryview])
@BOTH
def test_every_decoder_takes_any_bytes_like(ctx, kind):
    # Both backends decode a bytearray or memoryview to what the same
    # bytes decode to, and raise nothing but WireError on one.
    cases = _every_decoding(ctx, random.Random(4))
    assert {case[0] for case in cases} == \
        {name for name in dir(wire) if name.startswith("decode_")}
    for name, data, *args in cases:
        decode = getattr(wire, name)
        expected = decode(ctx, data, *args)
        value = decode(ctx, kind(data), *args)
        assert (type(value), value) == (type(expected), expected), name


@functools.lru_cache(maxsize=None)
def _valid_encodings(ctx):
    return _every_decoding(ctx, random.Random(5))


@BOTH
@settings(max_examples=300, derandomize=True, deadline=None)
@given(data=st.data())
def test_accepted_bit_flips_reencode_to_themselves(ctx, data):
    # A valid encoding with 1-3 bits flipped is refused, or it decodes to
    # a value whose encoding is those very bytes.  An element is its own
    # encoding, so element aliases are test_ristretto255.py's to catch.
    name, encoding, *args = data.draw(
        st.sampled_from(_valid_encodings(ctx)))
    flipped = bytearray(encoding)
    for bit in data.draw(st.sets(st.integers(0, 8 * len(encoding) - 1),
                                 min_size=1, max_size=3)):
        flipped[bit // 8] ^= 1 << bit % 8
    try:
        value = getattr(wire, name)(ctx, bytes(flipped), *args)
    except wire.WireError:
        return
    encode = getattr(wire, name.replace("decode_", "encode_"))
    assert encode(ctx, value) == flipped, name


class TestSizeLaw:
    @BOTH
    def test_signature_payload_formula(self, ctx):
        rng = random.Random(3)
        for n in range(10, 101, 10):
            t = n // 2
            psig, sig = _random_sig_objects(ctx, rng, n, t)
            expected = (n + 1) * ctx.scalar_size + t * ctx.element_size
            assert len(wire.encode_presignature(ctx, psig)) \
                == expected + wire.HEADER_SIZE
            assert len(wire.encode_signature(ctx, sig)) \
                == expected + wire.HEADER_SIZE
            assert wire.signature_payload_size(ctx, n, t) == expected

    @BOTH
    def test_signature_threshold_inverts_the_size_law(self, ctx):
        rng = random.Random(4)
        n = 6
        for t in range(1, n + 1):
            psig, sig = _random_sig_objects(ctx, rng, n, t)
            for data in (wire.encode_presignature(ctx, psig),
                         wire.encode_signature(ctx, sig)):
                assert wire.signature_threshold(ctx, data, n) == t
                # One byte short reads as t - 1 and a trailing byte.
                assert wire.signature_threshold(ctx, data[:-1], n) \
                    == max(t - 1, 1)
        # A length no t fits is clamped, so the decoder names the fault.
        assert wire.signature_threshold(ctx, b"", n) == 1
        assert wire.signature_threshold(ctx, bytes(4096), n) == n
        short = wire.encode_signature(ctx, sig)[:-1]
        with pytest.raises(wire.WireError, match="trailing bytes"):
            wire.decode_signature(ctx, short, n,
                                  wire.signature_threshold(ctx, short, n))

    def test_prod_reference_point(self, prod, rng):
        # 32-byte scalars and elements: n=10, t=5 gives 11*32 + 5*32 = 512.
        psig, _ = _random_sig_objects(prod, rng, 10, 5)
        assert len(wire.encode_presignature(prod, psig)) - wire.HEADER_SIZE \
            == 512

    def test_statement_size(self, toy, prod, rng):
        for ctx in (toy, prod):
            statement, _ = gen_r(ctx, rng)
            data = wire.encode_statement(ctx, statement)
            assert len(data) - wire.HEADER_SIZE == 2 * ctx.element_size

    def test_honest_presignature_size(self, toy):
        rng = random.Random(9)
        ring, members = build_ring(toy, 6, rng)
        window = build_window(toy, ring, members, 1, 3)
        statement, _ = gen_r(toy, rng)
        psig = presign(toy, ring, window, b"m", statement, rng)
        assert len(wire.encode_presignature(toy, psig)) - wire.HEADER_SIZE \
            == 7 * toy.scalar_size + 3 * toy.element_size


class TestRejection:
    def test_header_checks(self, toy, rng):
        data = wire.encode_scalar(toy, 5)
        with pytest.raises(wire.WireError):
            wire.decode_scalar(toy, bytes([9]) + data[1:])  # bad version
        with pytest.raises(wire.WireError):
            wire.decode_element(toy, data)  # tag mismatch
        with pytest.raises(wire.WireError):
            wire.decode_scalar(toy, b"")  # truncated header

    def test_trailing_bytes(self, toy, rng):
        data = wire.encode_scalar(toy, 5) + b"\x00"
        with pytest.raises(wire.WireError):
            wire.decode_scalar(toy, data)
        ring, _ = build_ring(toy, 3, rng)
        data = wire.encode_ring(toy, ring) + b"\x00"
        with pytest.raises(wire.WireError):
            wire.decode_ring(toy, data)

    def test_non_canonical_fields(self, toy):
        bad_scalar = wire._header(wire.TAG_SCALAR) + (101).to_bytes(2, "little")
        with pytest.raises(wire.WireError):
            wire.decode_scalar(toy, bad_scalar)
        bad_element = wire._header(wire.TAG_ELEMENT) + (2).to_bytes(2, "big")
        with pytest.raises(wire.WireError):
            wire.decode_element(toy, bad_element)

    def test_ring_constraints(self, toy):
        dup = wire._header(wire.TAG_RING) + (49).to_bytes(2, "big") * 2
        with pytest.raises(wire.WireError):
            wire.decode_ring(toy, dup)
        empty = wire._header(wire.TAG_RING)
        with pytest.raises(wire.WireError):
            wire.decode_ring(toy, empty)
        ragged = wire._header(wire.TAG_RING) + b"\x00"
        with pytest.raises(wire.WireError):
            wire.decode_ring(toy, ragged)

    def test_signature_dimension_checks(self, toy, rng):
        psig, _ = _random_sig_objects(toy, rng, 4, 2)
        data = wire.encode_presignature(toy, psig)
        with pytest.raises(wire.WireError):
            wire.decode_presignature(toy, data, 5, 2)
        with pytest.raises(wire.WireError):
            wire.decode_presignature(toy, data, 4, 3)
        with pytest.raises(wire.WireError):
            wire.decode_presignature(toy, data, 4, 0)

    def test_transaction_constraints(self, toy, prod, rng):
        ring, _ = build_ring(toy, 3, rng)
        tx = wire.SwapTransaction("B", b"bob", 9, 42, ring_keys=ring.keys,
                                  threshold=2)
        data = bytearray(wire.encode_transaction(toy, tx))
        data[2] = ord("C")
        with pytest.raises(wire.WireError):
            wire.decode_transaction(toy, bytes(data))
        data[2] = ord("B")
        at = wire.HEADER_SIZE + 3 + 3 * toy.element_size     # threshold
        for threshold in (0, 4):
            data[at:at + 2] = threshold.to_bytes(2, "big")
            with pytest.raises(wire.WireError, match="threshold"):
                wire.decode_transaction(toy, bytes(data))
        with pytest.raises(ValueError):
            wire.SwapTransaction("B", b"x", 1, 1, ring_keys=ring.keys,
                                 threshold=4)
        with pytest.raises(ValueError):
            wire.SwapTransaction("A", b"x", 1, 1)
        # Fields the chain-A encoding leaves out would give unequal
        # transactions the same signed bytes.
        pk = ring.keys[0]
        for bad in (dict(threshold=1), dict(ring_keys=ring.keys),
                    dict(threshold=1, ring_keys=ring.keys)):
            with pytest.raises(ValueError):
                wire.SwapTransaction("A", b"x", 1, 1, payer_key=pk, **bad)
        with pytest.raises(ValueError):
            wire.SwapTransaction("B", b"x", 1, 1,
                                 ring_keys=ring.keys[:1] * 0x10000,
                                 threshold=1)
        with pytest.raises(ValueError, match="payee identifier too long"):
            wire.SwapTransaction("A", bytes(0x10000), 1, 1, payer_key=pk)
        with pytest.raises(ValueError, match="unknown chain id"):
            wire.SwapTransaction("C", b"x", 1, 1, payer_key=pk)
        # Integer fields must be real ints, or encoding raises struct.error.
        for bad in (dict(amount=3.0), dict(nonce=1.0), dict(amount=True),
                    dict(nonce=False), dict(amount="3")):
            fields = dict(amount=1, nonce=1) | bad
            with pytest.raises(ValueError):
                wire.SwapTransaction("A", b"x", payer_key=pk, **fields)
        for threshold in (2.0, True, "2"):
            with pytest.raises(ValueError):
                wire.SwapTransaction("B", b"x", 1, 1, ring_keys=ring.keys,
                                     threshold=threshold)
        # The payee must be bytes-like: bytes(3) would give b"\0\0\0".
        for payee in (3, "x", None, [1]):
            with pytest.raises(ValueError):
                wire.SwapTransaction("A", payee, 1, 1, payer_key=pk)
        for payee in (bytearray(b"x"), memoryview(b"x")):
            tx = wire.SwapTransaction("A", payee, 1, 1, payer_key=pk)
            assert type(tx.payee) is bytes and tx.payee == b"x"
        # Keys must be exactly bytes: a look-alike equals a key yet fails
        # its checks.
        prod_ring, _ = build_ring(prod, 3, rng)
        for keys, lookalike in ((prod_ring.keys, memoryview),
                                (ring.keys, bytearray)):
            forged = (lookalike(keys[0]), *keys[1:])
            with pytest.raises(ValueError):
                wire.SwapTransaction("B", b"x", 1, 1, ring_keys=forged,
                                     threshold=1)
            with pytest.raises(ValueError):
                wire.SwapTransaction("A", b"x", 1, 1, payer_key=forged[0])
            tx = wire.SwapTransaction("B", b"x", 1, 1, ring_keys=keys,
                                      threshold=1)
            assert tx.ring_keys == keys
            tx = wire.SwapTransaction("A", b"x", 1, 1, payer_key=keys[0])
            assert tx.payer_key == keys[0]
        with pytest.raises(ValueError):
            wire.SwapTransaction("A", b"x", 1, 1, payer_key=True)

        class Chain(str):
            pass

        with pytest.raises(ValueError):
            wire.SwapTransaction(Chain("A"), b"x", 1, 1, payer_key=pk)

    @settings(max_examples=150)
    @given(st.binary(max_size=64))
    def test_fuzzed_bytes_never_decode_invalid(self, toy, data):
        # Decode either raises WireError or returns an object that
        # satisfies the type invariants.
        try:
            ring = wire.decode_ring(toy, data)
        except wire.WireError:
            pass
        else:
            assert len(ring.keys) >= 1
            assert all(toy.is_element(pk) for pk in ring.keys)
        try:
            psig = wire.decode_presignature(toy, data, 3, 2)
        except wire.WireError:
            pass
        else:
            assert 0 <= psig.z_tilde < toy.order
            assert len(psig.challenges) == 3 and len(psig.tags) == 2
        try:
            tx = wire.decode_transaction(toy, data)
        except wire.WireError:
            pass
        else:
            assert tx.chain_id in ("A", "B")


@BOTH
def test_claimed_sizes_cost_only_the_bytes_held(ctx):
    # A decoder walks the bytes it holds: a ring size or n read from
    # context that the payload cannot back is refused at its first
    # missing field, without first naming every field the claim implies.
    tx = wire._header(wire.TAG_TRANSACTION) + b"B\xff\xff"
    sig = wire._header(wire.TAG_SIGNATURE)
    cases = (
        (lambda: wire.decode_transaction(ctx, tx), "^truncated ring keys$"),
        (lambda: wire.decode_signature(ctx, sig, 0xFFFF, 1),
         "^truncated leading scalar$"),
    )
    for decode, error in cases:
        tracemalloc.start()
        try:
            with pytest.raises(wire.WireError, match=error):
                decode()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024, (error, peak)
