"""Exact group-operation counts of the scheme algorithms.

Unlike the timed scaling criterion, these counts are deterministic, so
they pin the cost model exactly: presign, preverify and verify make n+3
scalar multiplications (g^s, h^s, one per ring key, one for the tag
product) and no inversion.  verify makes n+t point adds (n-1 folding the
ring-key powers, t-1 the tags, one per h^s and g^s), and presign and
preverify two more for the statement.  adapt/ext/link do not depend on n.
An element is validated only where it enters (ring, tags, statement,
payer key), never when the program writes a value it computed.
"""

import copy
import itertools
import random
from collections import Counter
from types import SimpleNamespace

import pytest

from conftest import build_ring, build_window, plain_spend, ring_spend
from ringadapt import (PreSignature, Ring, Signature, SignerWindow, adapt, ext,
                       gen_r, keygen, link, presign, preverify, schnorr,
                       verify, wire)
from ringadapt.groups import RistrettoGroup
from ringadapt.swap import MockLedger, ledger_submit
from toygroup import ToyGroup


class Counting:
    """A group backend with every operation counted by name."""

    def __init__(self):
        super().__init__()
        self.counts = Counter()

    def take(self) -> dict:
        counts, self.counts = dict(self.counts), Counter()
        return counts

    def mul(self, a, b):
        self.counts["mul"] += 1
        return super().mul(a, b)

    def exp(self, a, k):
        self.counts["exp"] += 1
        return super().exp(a, k)

    def is_element(self, a):
        self.counts["is_element"] += 1
        return super().is_element(a)

    def hash_to_scalar(self, domain_tag, parts):
        self.counts["hash"] += 1
        return super().hash_to_scalar(domain_tag, parts)


class CountingToy(Counting, ToyGroup):
    pass


class CountingRistretto(Counting, RistrettoGroup):
    pass


def _cells():
    for n in range(1, 9):
        for t in range(1, n + 1):
            for j in range(n):
                yield n, t, j


def test_exact_counts_for_every_cell():
    ctx = CountingToy()
    flat = {"adapt": set(), "ext": set(), "link": set()}
    for n, t, j in _cells():
        rng = random.Random(100 * n + 10 * t + j)
        ring, members = build_ring(ctx, n, rng)
        window = build_window(ctx, ring, members, j, t)
        statement, w = gen_r(ctx, rng)
        ctx.take()

        psig = presign(ctx, ring, window, b"m", statement, rng)
        # Computed values (R, T, the tags) are encoded without a check.
        assert ctx.take() == {"exp": n + 3, "mul": n + t + 2,
                              "hash": 1}, (n, t, j)
        assert preverify(ctx, ring, psig, t, b"m", statement)
        # Shape check: t tags and the two statement components.
        assert ctx.take() == {"exp": n + 3, "mul": n + t + 2,
                              "is_element": t + 2, "hash": 1}, (n, t, j)
        sig = adapt(ctx, psig, w)
        flat["adapt"].add(tuple(sorted(ctx.take().items())))
        assert verify(ctx, ring, sig, t, b"m")
        assert ctx.take() == {"exp": n + 3, "mul": n + t,
                              "is_element": t, "hash": 1}, (n, t, j)
        assert ext(ctx, statement, psig, sig) == w
        flat["ext"].add(tuple(sorted(ctx.take().items())))
        assert link(sig, psig)
        flat["link"].add(tuple(sorted(ctx.take().items())))
    # One count per algorithm across every (n, t, j) cell.
    assert flat == {"adapt": {()}, "ext": {(("exp", 2),)}, "link": {()}}




LEDGER_CELLS = [(1, 1), (3, 2), (5, 1), (6, 3), (8, 8)]


def _ring_spend(ctx, n, t):
    """A chain-B transaction signed by the first t of n ring keys."""
    rng = random.Random(10 * n + t)
    ring, members = build_ring(ctx, n, rng)
    window = build_window(ctx, ring, members, 0, t)
    tx, _, sig = ring_spend(ctx, ring, window, b"bob", 2, rng)
    return tx, sig


def _plain_spend(ctx):
    """A chain-A transaction and its signature."""
    rng = random.Random(5)
    tx, _, sig = plain_spend(ctx, keygen(ctx, rng), b"alice", 2, rng)
    return tx, sig


def _decoded(ctx, tx):
    """An equal copy of tx as a miner decodes it from the wire."""
    return wire.decode_transaction(ctx, wire.encode_transaction(ctx, tx))


@pytest.mark.parametrize("n,t", LEDGER_CELLS)
def test_exact_ring_ledger_submit_counts(n, t):
    ctx = CountingToy()
    tx, sig = _ring_spend(ctx, n, t)
    ctx.take()
    assert ledger_submit(MockLedger(ctx, "B"), tx, sig).accepted
    # Ring(...) checks the n keys and verify the t tags; the ring digest
    # and the challenge are the two hashes.
    assert ctx.take() == {"exp": n + 3, "mul": n + t,
                          "is_element": n + t, "hash": 2}


def test_exact_plain_ledger_submit_counts():
    ctx = CountingToy()
    tx, sig = _plain_spend(ctx)
    ctx.take()
    assert ledger_submit(MockLedger(ctx, "A"), tx, sig).accepted
    # The payer key is the one element checked: by the ledger, whose
    # verdict for a non-element is malformed, then by schnorr.verify,
    # which a library caller may reach directly.
    assert ctx.take() == {"exp": 2, "mul": 1, "is_element": 2, "hash": 1}


@pytest.mark.parametrize("n,t", LEDGER_CELLS)
def test_exact_warm_ring_ledger_submit_counts(n, t):
    ctx = CountingToy()
    tx, sig = _ring_spend(ctx, n, t)
    forged = Signature((sig.z + 1) % ctx.order, sig.challenges, sig.tags)
    copies = [_decoded(ctx, tx) for _ in range(2)]
    ledger = MockLedger(ctx, "B")
    assert ledger_submit(ledger, tx, forged).reason == "bad-signature"
    ctx.take()
    assert ledger_submit(ledger, copies[0], sig).accepted
    # The ring comes from the ledger's cache: verify's counts alone.
    assert ctx.take() == {"exp": n + 3, "mul": n + t,
                          "is_element": t, "hash": 1}
    result = ledger_submit(ledger, copies[1], sig)
    assert result.reason == "double-spend-link"
    # An exact replay is answered before any group operation.
    assert ctx.take() == {}


@pytest.mark.parametrize("counting", [CountingToy, CountingRistretto])
def test_exact_duplicate_key_ring_counts_nothing(counting):
    ctx = counting()
    ring, _ = build_ring(ctx, 4, random.Random(4))
    keys = (*ring.keys, ring.keys[1])
    tx = wire.SwapTransaction("B", b"bob", 1, 2, ring_keys=keys, threshold=2)
    sig = Signature(1, (0,) * len(keys), ring.keys[:2])   # of the right shape
    ctx.take()
    with pytest.raises(ValueError, match="^duplicate ring keys 1 and 4$"):
        Ring(ctx, keys)
    assert ledger_submit(MockLedger(ctx, "B"), tx, sig).reason == "malformed"
    # The repeat is found by comparing bytes, before any key is checked.
    assert ctx.take() == {}


@pytest.mark.parametrize("counting", [CountingToy, CountingRistretto])
def test_exact_bad_ring_key_counts_stop_at_it(counting):
    ctx = counting()
    ring, _ = build_ring(ctx, 4, random.Random(4))
    keys = (ring.keys[0], ctx.identity, *ring.keys[2:])
    ctx.take()
    with pytest.raises(ValueError, match="^ring key 1 is not a group "
                       "element other than the identity$"):
        Ring(ctx, keys)
    # Key 0 is checked, key 1 refused, and keys 2 and 3 never looked at.
    assert ctx.take() == {"is_element": 2}


def test_exact_forced_field_counts_nothing():
    ctx = CountingToy()
    tx, sig = _ring_spend(ctx, 6, 3)
    forced = copy.copy(tx)
    object.__setattr__(forced, "amount", 1.0)
    ctx.take()
    result = ledger_submit(MockLedger(ctx, "B"), forced, sig)
    assert result.reason == "malformed"
    # The constructor refuses the field before the ring is built.
    assert ctx.take() == {}


def test_exact_misshaped_signature_counts_nothing():
    ctx = CountingToy()
    tx, sig = _ring_spend(ctx, 8, 3)
    ctx.take()
    for short in (Signature(sig.z, sig.challenges, sig.tags[:-1]),
                  Signature(sig.z, sig.challenges[:-1], sig.tags)):
        result = ledger_submit(MockLedger(ctx, "B"), tx, short)
        assert result.reason == "bad-signature"
        # The lengths are compared before the cold ring is built.
        assert ctx.take() == {}


@pytest.mark.parametrize("chain", ["A", "B"])
def test_exact_presignature_counts_nothing(chain):
    ctx = CountingToy()
    if chain == "A":
        tx, sig = _plain_spend(ctx)
        psig = schnorr.PlainPreSignature(sig.challenge, sig.response)
    else:
        tx, sig = _ring_spend(ctx, 6, 3)
        psig = PreSignature(sig.z, sig.challenges, sig.tags)
    ctx.take()
    result = ledger_submit(MockLedger(ctx, chain), tx, psig)
    assert result.reason == "malformed"
    # The signature is rebuilt as the chain's type before the keys are
    # checked, and a pre-signature has no z or response.
    assert ctx.take() == {}


def test_exact_misframed_transaction_counts_nothing():
    ctx = CountingToy()
    tx, _ = _ring_spend(ctx, 4, 2)
    data = wire.encode_transaction(ctx, tx)
    keys_end = wire.HEADER_SIZE + 3 + 4 * ctx.element_size
    ctx.take()
    for bad, error in ((data[:-1], "truncated nonce"),
                       (data + b"\x00", "trailing bytes"),
                       (data[:keys_end - 1], "truncated ring keys")):
        with pytest.raises(wire.WireError, match=error):
            wire.decode_transaction(ctx, bad)
    # The length is checked before any ring key is validated.
    assert ctx.take() == {}


def test_exact_truncated_field_counts_nothing():
    ctx = CountingToy()
    _, sig = _ring_spend(ctx, 4, 2)
    psig = PreSignature(sig.z, sig.challenges, sig.tags)
    statement, _ = gen_r(ctx, random.Random(3))
    signed = ["leading scalar", *(f"challenge {i}" for i in range(4)),
              "link tag 0", "link tag 1"]
    cases = [
        (wire.encode_signature(ctx, sig), signed,
         lambda data: wire.decode_signature(ctx, data, 4, 2)),
        (wire.encode_presignature(ctx, psig), signed,
         lambda data: wire.decode_presignature(ctx, data, 4, 2)),
        (wire.encode_statement(ctx, statement),
         ["statement W1", "statement W2"],
         lambda data: wire.decode_statement(ctx, data)),
    ]
    width = ctx.scalar_size
    assert ctx.element_size == width
    ctx.take()
    for data, fields, decode in cases:
        for i, field in enumerate(fields):
            # Cut one byte into the field: the error names it.
            cut = data[:wire.HEADER_SIZE + i * width + 1]
            with pytest.raises(wire.WireError, match=f"^truncated {field}$"):
                decode(cut)
        with pytest.raises(wire.WireError,
                           match="^trailing bytes after payload$"):
            decode(data + b"\x00")
    # Every field is sliced, and the length checked, before any decodes.
    assert ctx.take() == {}


def test_exact_oversized_ring_counts_nothing():
    # g, g^2, ...: distinct valid keys, one more than a chain-B ring holds.
    ctx = CountingRistretto()
    keys = tuple(itertools.accumulate(
        [ctx.generator_g] * (wire.MAX_RING_SIZE + 1), ctx.mul))
    tx = wire.SwapTransaction("B", b"bob", 1, 2, ring_keys=keys[:-1],
                              threshold=1)
    oversized = SimpleNamespace(**vars(tx) | {"ring_keys": keys})
    data = wire.encode_transaction(ctx, oversized)
    sig = Signature(1, (0,) * len(keys), keys[:1])   # of the right shape
    ctx.take()
    assert wire.decode_transaction(ctx, wire.encode_transaction(ctx, tx)) == tx
    assert ctx.take() == {"is_element": wire.MAX_RING_SIZE}
    with pytest.raises(wire.WireError, match="^payer ring above 1024 keys$"):
        wire.decode_transaction(ctx, data)
    assert ledger_submit(MockLedger(ctx, "B"), oversized,
                         sig).reason == "malformed"
    # The ring size is compared before any key is checked.
    assert ctx.take() == {}


@pytest.mark.parametrize("t", [1, wire.MAX_RING_SIZE])
def test_exact_largest_ring_ledger_submit_counts(t):
    # The largest ring a chain-B ledger admits, cold: g, g^2, ..., whose
    # window at 0 holds the secrets 1..t.
    ctx = CountingRistretto()
    n = wire.MAX_RING_SIZE
    ring = Ring(ctx, itertools.accumulate([ctx.generator_g] * n, ctx.mul))
    window = SignerWindow(ctx, ring, 0, range(1, t + 1))
    tx, _, sig = ring_spend(ctx, ring, window, b"bob", 2, random.Random(t))
    ctx.take()
    assert ledger_submit(MockLedger(ctx, "B"), tx, sig).accepted
    assert ctx.take() == {"exp": n + 3, "mul": n + t,
                          "is_element": n + t, "hash": 2}


@pytest.mark.parametrize("n", [1, 4, 8])
def test_exact_decode_ring_counts(n):
    ctx = CountingToy()
    ring, _ = build_ring(ctx, n, random.Random(n))
    data = wire.encode_ring(ctx, ring)
    ctx.take()
    assert wire.decode_ring(ctx, data) == ring
    # The decoder only parses the keys; Ring checks each once and hashes
    # the digest.
    assert ctx.take() == {"is_element": n, "hash": 1}


def test_exact_plain_replay_counts_nothing():
    ctx = CountingToy()
    tx, sig = _plain_spend(ctx)
    copy = _decoded(ctx, tx)
    ledger = MockLedger(ctx, "A")
    assert ledger_submit(ledger, tx, sig).accepted
    ctx.take()
    assert ledger_submit(ledger, copy, sig).reason == "double-spend-link"
    assert ctx.take() == {}
