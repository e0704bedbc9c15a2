"""Canonical byte formats for every exchanged object.

Layout: a 2-byte header (version, object tag) followed by the payload.
Payloads contain nothing but fixed-width fields, so the communication
cost of each object is exactly its algebraic size: a pre-signature or
signature payload is (n+1)*S_z + t*S_g bytes, a statement pair 2*S_g,
where S_z and S_g are the backend's scalar and element widths.  The
header is bookkeeping and excluded from those counts.

Scalars are little-endian fixed width; elements use the backend's
canonical encoding.  Decoding is the validity gate: wrong version or
tag, non-canonical field encodings, and trailing bytes all raise
WireError naming the first violated constraint.

Pre-signatures and signatures carry no dimension fields (that is what
keeps the size law exact), so their decoders take the ring size and
threshold from context.
"""

from __future__ import annotations

import struct
from typing import Optional

from . import schnorr
from .groups import Element, GroupContext, Record
from .scheme import PreSignature, Ring, Signature, StatementPair

VERSION = 1

TAG_ELEMENT = 0x01
TAG_SCALAR = 0x02
TAG_RING = 0x03
TAG_STATEMENT = 0x04
TAG_PRESIGNATURE = 0x05
TAG_SIGNATURE = 0x06
TAG_PLAIN_PRESIGNATURE = 0x07
TAG_PLAIN_SIGNATURE = 0x08
TAG_TRANSACTION = 0x09

HEADER_SIZE = 2

CHAIN_PLAIN = "A"   # single-key adaptor chain
CHAIN_RING = "B"    # threshold-ring chain


class WireError(ValueError):
    """Malformed wire bytes; the message names the violated constraint."""


def _header(tag: int) -> bytes:
    return bytes((VERSION, tag))


def _payload(data: bytes, tag: int) -> bytes:
    if len(data) < HEADER_SIZE:
        raise WireError("truncated header")
    if data[0] != VERSION:
        raise WireError(f"unsupported version {data[0]}")
    if data[1] != tag:
        raise WireError(f"object tag {data[1]:#04x} does not match "
                        f"expected {tag:#04x}")
    return data[HEADER_SIZE:]


class _Reader:
    """Cursor over a payload that rejects short reads and leftovers."""

    def __init__(self, data: bytes):
        self._data = data
        self._pos = 0

    def take(self, size: int, what: str) -> bytes:
        end = self._pos + size
        if end > len(self._data):
            raise WireError(f"truncated {what}")
        out = self._data[self._pos:end]
        self._pos = end
        return out

    def u16(self, what: str) -> int:
        return struct.unpack(">H", self.take(2, what))[0]

    def u64(self, what: str) -> int:
        return struct.unpack(">Q", self.take(8, what))[0]

    def done(self):
        if self._pos != len(self._data):
            raise WireError("trailing bytes after payload")


def _element(ctx: GroupContext, reader: _Reader, what: str) -> Element:
    raw = reader.take(ctx.element_size, what)
    try:
        return ctx.decode_element(raw)
    except ValueError as exc:
        raise WireError(f"{what}: {exc}") from None


def _scalar(ctx: GroupContext, reader: _Reader, what: str) -> int:
    raw = reader.take(ctx.scalar_size, what)
    try:
        return ctx.decode_scalar(raw)
    except ValueError as exc:
        raise WireError(f"{what}: {exc}") from None


# --- element / scalar -------------------------------------------------------

def encode_element(ctx: GroupContext, a: Element) -> bytes:
    return _header(TAG_ELEMENT) + ctx.encode_element(a)

def decode_element(ctx: GroupContext, data: bytes) -> Element:
    reader = _Reader(_payload(data, TAG_ELEMENT))
    a = _element(ctx, reader, "element")
    reader.done()
    return a

def encode_scalar(ctx: GroupContext, k: int) -> bytes:
    return _header(TAG_SCALAR) + ctx.encode_scalar(k)

def decode_scalar(ctx: GroupContext, data: bytes) -> int:
    reader = _Reader(_payload(data, TAG_SCALAR))
    k = _scalar(ctx, reader, "scalar")
    reader.done()
    return k


# --- ring / statement -------------------------------------------------------

def encode_ring(ctx: GroupContext, ring: Ring) -> bytes:
    return _header(TAG_RING) + b"".join(ring.encodings)

def decode_ring(ctx: GroupContext, data: bytes) -> Ring:
    payload = _payload(data, TAG_RING)
    if not payload or len(payload) % ctx.element_size != 0:
        raise WireError("ring payload is not a whole number of elements")
    reader = _Reader(payload)
    keys = [_element(ctx, reader, "ring key")
            for _ in range(len(payload) // ctx.element_size)]
    reader.done()
    try:
        return Ring(ctx, keys)
    except ValueError as exc:
        raise WireError(str(exc)) from None

def encode_statement(ctx: GroupContext, statement: StatementPair) -> bytes:
    return (_header(TAG_STATEMENT)
            + ctx.encode_element(statement.w1)
            + ctx.encode_element(statement.w2))

def decode_statement(ctx: GroupContext, data: bytes) -> StatementPair:
    reader = _Reader(_payload(data, TAG_STATEMENT))
    w1 = _element(ctx, reader, "statement W1")
    w2 = _element(ctx, reader, "statement W2")
    reader.done()
    return StatementPair(w1, w2)


# --- pre-signatures / signatures --------------------------------------------

def signature_payload_size(ctx: GroupContext, n: int, t: int) -> int:
    """(n+1)*S_z + t*S_g; also the pre-signature payload size."""
    return (n + 1) * ctx.scalar_size + t * ctx.element_size


def _encode_sig_body(ctx: GroupContext, z: int, challenges, tags) -> bytes:
    out = [ctx.encode_scalar(z)]
    out.extend(ctx.encode_scalar(c) for c in challenges)
    out.extend(ctx.encode_element(tag) for tag in tags)
    return b"".join(out)


def _decode_sig_body(ctx: GroupContext, payload: bytes, n: int, t: int):
    if n < 1 or not 1 <= t <= n:
        raise WireError("ring size and threshold out of range")
    if len(payload) != signature_payload_size(ctx, n, t):
        raise WireError("payload length does not match ring size and threshold")
    reader = _Reader(payload)
    z = _scalar(ctx, reader, "leading scalar")
    challenges = tuple(_scalar(ctx, reader, f"challenge {i}") for i in range(n))
    tags = tuple(_element(ctx, reader, f"link tag {i}") for i in range(t))
    reader.done()
    return z, challenges, tags


def encode_presignature(ctx: GroupContext, psig: PreSignature) -> bytes:
    return _header(TAG_PRESIGNATURE) + _encode_sig_body(
        ctx, psig.z_tilde, psig.challenges, psig.tags)

def decode_presignature(ctx: GroupContext, data: bytes, n: int,
                        t: int) -> PreSignature:
    z, challenges, tags = _decode_sig_body(
        ctx, _payload(data, TAG_PRESIGNATURE), n, t)
    return PreSignature(z, challenges, tags)

def encode_signature(ctx: GroupContext, sig: Signature) -> bytes:
    return _header(TAG_SIGNATURE) + _encode_sig_body(
        ctx, sig.z, sig.challenges, sig.tags)

def decode_signature(ctx: GroupContext, data: bytes, n: int,
                     t: int) -> Signature:
    z, challenges, tags = _decode_sig_body(
        ctx, _payload(data, TAG_SIGNATURE), n, t)
    return Signature(z, challenges, tags)


# --- plain (single-key) objects ---------------------------------------------

def encode_plain_presignature(ctx: GroupContext,
                              psig: schnorr.PlainPreSignature) -> bytes:
    return (_header(TAG_PLAIN_PRESIGNATURE)
            + ctx.encode_scalar(psig.challenge)
            + ctx.encode_scalar(psig.masked_response))

def decode_plain_presignature(ctx: GroupContext,
                              data: bytes) -> schnorr.PlainPreSignature:
    reader = _Reader(_payload(data, TAG_PLAIN_PRESIGNATURE))
    c = _scalar(ctx, reader, "challenge")
    s = _scalar(ctx, reader, "masked response")
    reader.done()
    return schnorr.PlainPreSignature(c, s)

def encode_plain_signature(ctx: GroupContext,
                           sig: schnorr.PlainSignature) -> bytes:
    return (_header(TAG_PLAIN_SIGNATURE)
            + ctx.encode_scalar(sig.challenge)
            + ctx.encode_scalar(sig.response))

def decode_plain_signature(ctx: GroupContext,
                           data: bytes) -> schnorr.PlainSignature:
    reader = _Reader(_payload(data, TAG_PLAIN_SIGNATURE))
    c = _scalar(ctx, reader, "challenge")
    s = _scalar(ctx, reader, "response")
    reader.done()
    return schnorr.PlainSignature(c, s)


# --- swap transactions -------------------------------------------------------

class SwapTransaction(Record):
    """Mock-ledger transfer; its canonical encoding is the signed message.

    Chain A transactions name a single payer key; chain B transactions
    name a payer ring plus threshold.
    """

    chain_id: str
    payee: bytes
    amount: int
    nonce: int
    payer_key: Optional[Element] = None        # chain A
    ring_keys: Optional[tuple] = None          # chain B
    threshold: Optional[int] = None            # chain B

    def __post_init__(self):
        if self.ring_keys is not None:
            object.__setattr__(self, "ring_keys", tuple(self.ring_keys))
        object.__setattr__(self, "payee", bytes(self.payee))
        # Fields the encoding leaves out stay empty: equal iff same bytes.
        if self.chain_id == CHAIN_PLAIN:
            if (self.payer_key is None or self.ring_keys is not None
                    or self.threshold is not None):
                raise ValueError("chain-A transaction needs only a payer key")
        elif self.chain_id == CHAIN_RING:
            if self.payer_key is not None or not self.ring_keys:
                raise ValueError("chain-B transaction needs a payer ring")
            if len(self.ring_keys) > 0xFFFF:
                raise ValueError("payer ring too large")
            if not (type(self.threshold) is int
                    and 1 <= self.threshold <= len(self.ring_keys)):
                raise ValueError("chain-B threshold must be an int in range")
        else:
            raise ValueError(f"unknown chain id {self.chain_id!r}")
        if not all(type(v) is int and 0 <= v < 2**64
                   for v in (self.amount, self.nonce)):
            raise ValueError("amount and nonce must be 64-bit ints")
        if len(self.payee) > 0xFFFF:
            raise ValueError("payee identifier too long")


def encode_transaction(ctx: GroupContext, tx: SwapTransaction) -> bytes:
    out = [_header(TAG_TRANSACTION), tx.chain_id.encode("ascii")]
    if tx.chain_id == CHAIN_PLAIN:
        out.append(ctx.encode_element(tx.payer_key))
    else:
        out.append(struct.pack(">H", len(tx.ring_keys)))
        out.extend(ctx.encode_element(pk) for pk in tx.ring_keys)
        out.append(struct.pack(">H", tx.threshold))
    out.append(struct.pack(">H", len(tx.payee)))
    out.append(tx.payee)
    out.append(struct.pack(">Q", tx.amount))
    out.append(struct.pack(">Q", tx.nonce))
    return b"".join(out)


def decode_transaction(ctx: GroupContext, data: bytes) -> SwapTransaction:
    reader = _Reader(_payload(data, TAG_TRANSACTION))
    chain = reader.take(1, "chain id").decode("ascii", errors="replace")
    payer_key = None
    ring_keys = None
    threshold = None
    if chain == CHAIN_PLAIN:
        payer_key = _element(ctx, reader, "payer key")
    elif chain == CHAIN_RING:
        n = reader.u16("ring size")
        if n < 1:
            raise WireError("empty payer ring")
        ring_keys = tuple(_element(ctx, reader, f"ring key {i}")
                          for i in range(n))
        threshold = reader.u16("threshold")
        if not 1 <= threshold <= n:
            raise WireError("threshold out of range")
    else:
        raise WireError(f"unknown chain id {chain!r}")
    payee = reader.take(reader.u16("payee length"), "payee")
    amount = reader.u64("amount")
    nonce = reader.u64("nonce")
    reader.done()
    try:
        return SwapTransaction(chain, payee, amount, nonce,
                               payer_key=payer_key, ring_keys=ring_keys,
                               threshold=threshold)
    except ValueError as exc:
        raise WireError(str(exc)) from None
