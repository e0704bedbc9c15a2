"""Canonical byte formats for every exchanged object.

Layout: a 2-byte header (version, object tag) followed by the payload.
Payloads contain nothing but fixed-width fields, so the communication
cost of each object is exactly its algebraic size: a pre-signature or
signature payload is (n+1)*S_z + t*S_g bytes, a statement pair 2*S_g,
where S_z and S_g are the backend's scalar and element widths.  The
header is bookkeeping and excluded from those counts.

Scalars are little-endian fixed width; an element is its own canonical
encoding, written as it is.  Every object but the transaction is a run
of scalars followed by a run of elements, and one encoder and one
decoder serve them all.  Decoding is the validity gate: wrong version or
tag, a payload of the wrong length, non-canonical field encodings and
trailing bytes all raise WireError naming the first violated constraint.
Decoders take any bytes-like payload, and a decoder's work and memory
are bounded by the bytes it holds, not by the sizes it is told.

Decoders check every element but a ring file's keys, which ``Ring``
checks.  A transaction's ring keys are checked by its decoder, and again
by ``Ring`` when a ledger first builds that ring.  Pre-signatures and
signatures carry no dimension fields (so the size law is exact): n and
t come from context, and ``signature_threshold`` reads t back from a
payload's length once n is known.
"""

from __future__ import annotations

import struct
from typing import Optional

from . import schnorr
from .groups import Element, GroupContext, Record, require_exact
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
MAX_RING_SIZE = 1024   # the most keys a chain-B transaction's ring holds


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
    return bytes(data[HEADER_SIZE:])


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


def _field(decode, raw: bytes, what: str):
    try:
        return decode(raw)
    except ValueError as exc:
        raise WireError(f"{what}: {exc}") from None


def _encode(ctx: GroupContext, tag: int, scalars=(), elements=()) -> bytes:
    return b"".join([_header(tag), *map(ctx.encode_scalar, scalars),
                     *elements])


def _decode(ctx: GroupContext, data: bytes, tag: int, scalars=(),
            elements=(), decode_element=None) -> tuple[list, list]:
    """Decode a run of scalars, then a run of elements, each field named
    as the reader reaches it.  Every field is sliced, and the length
    checked, before any is decoded.  Elements go through
    ``decode_element`` if given, else ``ctx.decode_element``."""
    reader = _Reader(_payload(data, tag))
    sz, sg = ctx.scalar_size, ctx.element_size
    raw_scalars = [(reader.take(sz, what), what) for what in scalars]
    raw_elements = [(reader.take(sg, what), what) for what in elements]
    reader.done()
    return ([_field(ctx.decode_scalar, *raw) for raw in raw_scalars],
            [_field(decode_element or ctx.decode_element, *raw)
             for raw in raw_elements])


# --- element / scalar -------------------------------------------------------

def encode_element(ctx: GroupContext, a: Element) -> bytes:
    return _encode(ctx, TAG_ELEMENT, elements=(a,))

def decode_element(ctx: GroupContext, data: bytes) -> Element:
    return _decode(ctx, data, TAG_ELEMENT, elements=("element",))[1][0]

def encode_scalar(ctx: GroupContext, k: int) -> bytes:
    return _encode(ctx, TAG_SCALAR, (k,))

def decode_scalar(ctx: GroupContext, data: bytes) -> int:
    return _decode(ctx, data, TAG_SCALAR, ("scalar",))[0][0]


# --- ring / statement -------------------------------------------------------

def encode_ring(ctx: GroupContext, ring: Ring) -> bytes:
    return _header(TAG_RING) + b"".join(ring.keys)

def decode_ring(ctx: GroupContext, data: bytes) -> Ring:
    # n comes from the length.  Each key is kept as the bytes read, and
    # Ring checks it, once, and rejects an empty ring and duplicates.
    n = (len(data) - HEADER_SIZE) // ctx.element_size
    keys = _decode(ctx, data, TAG_RING, decode_element=bytes,
                   elements=("ring key" for _ in range(n)))[1]
    try:
        return Ring(ctx, keys)
    except ValueError as exc:
        raise WireError(str(exc)) from None

def encode_statement(ctx: GroupContext, statement: StatementPair) -> bytes:
    return _encode(ctx, TAG_STATEMENT, elements=(statement.w1, statement.w2))

def decode_statement(ctx: GroupContext, data: bytes) -> StatementPair:
    return StatementPair(*_decode(ctx, data, TAG_STATEMENT, elements=(
        "statement W1", "statement W2"))[1])


# --- pre-signatures / signatures --------------------------------------------

def signature_payload_size(ctx: GroupContext, n: int, t: int) -> int:
    """(n+1)*S_z + t*S_g; also the pre-signature payload size."""
    return (n + 1) * ctx.scalar_size + t * ctx.element_size


def signature_threshold(ctx: GroupContext, data: bytes, n: int) -> int:
    """The t whose payload size fits ``len(data)``, clamped to 1..n so
    that the decoder names what is wrong with bytes no t fits."""
    t = ((len(data) - HEADER_SIZE - signature_payload_size(ctx, n, 0))
         // ctx.element_size)
    return min(max(t, 1), n)


def _decode_sig(ctx: GroupContext, data: bytes, tag: int, n: int, t: int):
    if n < 1 or not 1 <= t <= n:
        raise WireError("ring size and threshold out of range")
    scalars, tags = _decode(
        ctx, data, tag,
        (f"challenge {i}" if i >= 0 else "leading scalar"
         for i in range(-1, n)),
        (f"link tag {i}" for i in range(t)))
    return scalars[0], tuple(scalars[1:]), tuple(tags)


def encode_presignature(ctx: GroupContext, psig: PreSignature) -> bytes:
    return _encode(ctx, TAG_PRESIGNATURE, (psig.z_tilde, *psig.challenges),
                   psig.tags)

def decode_presignature(ctx: GroupContext, data: bytes, n: int,
                        t: int) -> PreSignature:
    return PreSignature(*_decode_sig(ctx, data, TAG_PRESIGNATURE, n, t))

def encode_signature(ctx: GroupContext, sig: Signature) -> bytes:
    return _encode(ctx, TAG_SIGNATURE, (sig.z, *sig.challenges), sig.tags)

def decode_signature(ctx: GroupContext, data: bytes, n: int,
                     t: int) -> Signature:
    return Signature(*_decode_sig(ctx, data, TAG_SIGNATURE, n, t))


# --- plain (single-key) objects ---------------------------------------------

def encode_plain_presignature(ctx: GroupContext,
                              psig: schnorr.PlainPreSignature) -> bytes:
    return _encode(ctx, TAG_PLAIN_PRESIGNATURE,
                   (psig.challenge, psig.masked_response))

def decode_plain_presignature(ctx: GroupContext,
                              data: bytes) -> schnorr.PlainPreSignature:
    return schnorr.PlainPreSignature(*_decode(
        ctx, data, TAG_PLAIN_PRESIGNATURE, ("challenge", "masked response"))[0])

def encode_plain_signature(ctx: GroupContext,
                           sig: schnorr.PlainSignature) -> bytes:
    return _encode(ctx, TAG_PLAIN_SIGNATURE, (sig.challenge, sig.response))

def decode_plain_signature(ctx: GroupContext,
                           data: bytes) -> schnorr.PlainSignature:
    return schnorr.PlainSignature(*_decode(
        ctx, data, TAG_PLAIN_SIGNATURE, ("challenge", "response"))[0])


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
        if not isinstance(self.payee, (bytes, bytearray, memoryview)):
            raise ValueError("payee must be bytes")
        object.__setattr__(self, "payee", bytes(self.payee))
        require_exact("chain id", (self.chain_id,), (str,))
        # Fields the encoding leaves out stay empty: equal iff same bytes.
        if self.chain_id == CHAIN_PLAIN:
            if (self.payer_key is None or self.ring_keys is not None
                    or self.threshold is not None):
                raise ValueError("chain-A transaction needs only a payer key")
            require_exact("payer key", (self.payer_key,))
        elif self.chain_id == CHAIN_RING:
            if self.payer_key is not None or not self.ring_keys:
                raise ValueError("chain-B transaction needs a payer ring")
            if len(self.ring_keys) > MAX_RING_SIZE:
                raise ValueError(f"payer ring above {MAX_RING_SIZE} keys")
            require_exact("ring key", self.ring_keys)
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
        out.append(tx.payer_key)
    else:
        out.append(struct.pack(">H", len(tx.ring_keys)))
        out.extend(tx.ring_keys)
        out.append(struct.pack(">H", tx.threshold))
    out.append(struct.pack(">H", len(tx.payee)))
    out.append(tx.payee)
    out.append(struct.pack(">Q", tx.amount))
    out.append(struct.pack(">Q", tx.nonce))
    return b"".join(out)


def decode_transaction(ctx: GroupContext, data: bytes) -> SwapTransaction:
    # Every field is sliced, the length and then the ring size checked,
    # before any key is named and decoded; SwapTransaction rejects the rest.
    reader = _Reader(_payload(data, TAG_TRANSACTION))
    chain = reader.take(1, "chain id").decode("ascii", errors="replace")
    sg = ctx.element_size
    threshold = None
    if chain == CHAIN_PLAIN:
        raw = reader.take(sg, "payer key")
    elif chain == CHAIN_RING:
        raw = reader.take(reader.u16("ring size") * sg, "ring keys")
        threshold = reader.u16("threshold")
    else:
        raise WireError(f"unknown chain id {chain!r}")
    payee = reader.take(reader.u16("payee length"), "payee")
    amount = reader.u64("amount")
    nonce = reader.u64("nonce")
    reader.done()
    if len(raw) > MAX_RING_SIZE * sg:
        raise WireError(f"payer ring above {MAX_RING_SIZE} keys")
    keys = tuple(_field(ctx.decode_element, raw[i:i + sg], "payer key"
                        if chain == CHAIN_PLAIN else f"ring key {i // sg}")
                 for i in range(0, len(raw), sg))
    try:
        return SwapTransaction(
            chain, payee, amount, nonce,
            payer_key=keys[0] if chain == CHAIN_PLAIN else None,
            ring_keys=keys if chain == CHAIN_RING else None,
            threshold=threshold)
    except ValueError as exc:
        raise WireError(str(exc)) from None
