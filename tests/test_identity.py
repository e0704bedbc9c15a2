"""The identity element as a ring key, link tag, statement or payer key.

The identity is g^0 and h^0: a key whose secret everyone knows.  Each
test below builds an input that uses it, on both backends, and checks
that the entry checks refuse it while an honest spend still passes.
"""

import random

import pytest

from conftest import BOTH, build_ring, build_window
from ringadapt import (PreSignature, Signature, StatementPair, gen_r, presign,
                       preverify, schnorr, verify, wire)
from ringadapt.scheme import DOMAIN_CHALLENGE, DOMAIN_RING_DIGEST, Ring
from ringadapt.swap import MockLedger, ledger_submit


@BOTH
def test_ring_rejects_identity_key(ctx):
    ring, _ = build_ring(ctx, 3, random.Random(1))
    keys = [ring.keys[0], ctx.identity, ring.keys[2]]
    error = "^ring key 1 is not a group element other than the identity$"
    with pytest.raises(ValueError, match=error):
        Ring(ctx, keys)
    data = wire.encode_ring(ctx, ring)
    start = wire.HEADER_SIZE + ctx.element_size     # ring key 1
    end = start + ctx.element_size
    data = data[:start] + ctx.identity + data[end:]
    with pytest.raises(wire.WireError, match=error):
        wire.decode_ring(ctx, data)


@BOTH
def test_identity_ring_key_spend_is_malformed(ctx):
    """A t=1 spend by the identity's window: z = r and tag = identity
    open it with no secret, so only the ring check stops it."""
    rng = random.Random(2)
    ring, _ = build_ring(ctx, 3, rng)
    keys = (ring.keys[0], ctx.identity, ring.keys[2])
    tx = wire.SwapTransaction("B", b"mallory", 1, 1, ring_keys=keys,
                              threshold=1)
    message = wire.encode_transaction(ctx, tx)
    d = ctx.hash_to_scalar(DOMAIN_RING_DIGEST, keys)
    r = ctx.random_scalar_nonzero(rng)
    challenges = [rng.randrange(ctx.order), 0, rng.randrange(ctx.order)]
    commit_g = ctx.exp(ctx.generator_g, r)
    for pk, c in zip(keys, challenges):    # window i's key is pk_i^d
        commit_g = ctx.mul(commit_g, ctx.exp(pk, d * c))
    commit_h = ctx.exp(ctx.generator_h, r)  # the tag product is the identity
    c = ctx.hash_to_scalar(DOMAIN_CHALLENGE,
                           [*keys, commit_g, commit_h, message])
    challenges[1] = (c - sum(challenges)) % ctx.order
    forged = Signature(r, challenges, (ctx.identity,))
    result = ledger_submit(MockLedger(ctx, "B"), tx, forged)
    assert (result.accepted, result.reason) == (False, "malformed")


@BOTH
def test_identity_tag_and_statement_are_rejected(ctx):
    """Moving one tag's value onto the other keeps the tag product, the
    one thing the equation over T checks, so only the tag check stops a
    split that leaves the identity behind."""
    rng = random.Random(3)
    ring, members = build_ring(ctx, 4, rng)
    window = build_window(ctx, ring, members, 3, 2)
    statement, w = gen_r(ctx, rng)
    tx = wire.SwapTransaction("B", b"bob", 1, 1, ring_keys=ring.keys,
                              threshold=2)
    message = wire.encode_transaction(ctx, tx)
    psig = presign(ctx, ring, window, message, statement, rng)
    split = (ctx.identity, ctx.mul(*psig.tags))
    z = (psig.z_tilde + w) % ctx.order
    honest = Signature(z, psig.challenges, psig.tags)
    assert verify(ctx, ring, honest, 2, message)
    assert not preverify(ctx, ring, PreSignature(
        psig.z_tilde, psig.challenges, split), 2, message, statement)
    forged = Signature(z, psig.challenges, split)
    assert not verify(ctx, ring, forged, 2, message)
    result = ledger_submit(MockLedger(ctx, "B"), tx, forged)
    assert (result.accepted, result.reason) == (False, "bad-signature")
    assert ledger_submit(MockLedger(ctx, "B"), tx, honest).accepted

    # W = (g^0, h^0) has the known witness 0.
    identity_pair = StatementPair(ctx.identity, ctx.identity)
    psig = presign(ctx, ring, window, message, identity_pair, rng)
    assert not preverify(ctx, ring, psig, 2, message, identity_pair)


@BOTH
def test_identity_payer_key_is_rejected(ctx):
    """With pk = identity, any s and c = H(pk, g^s, m) verify: a chain-A
    spend signed with no secret."""
    rng = random.Random(4)
    tx = wire.SwapTransaction("A", b"mallory", 1, 1, payer_key=ctx.identity)
    message = wire.encode_transaction(ctx, tx)
    s = ctx.random_scalar_nonzero(rng)
    c = schnorr._challenge(ctx, ctx.identity, ctx.exp(ctx.generator_g, s),
                           message)
    forged = schnorr.PlainSignature(c, s)
    assert not schnorr.verify(ctx, ctx.identity, forged, message)
    statement, _ = gen_r(ctx, rng)
    commit = ctx.mul(ctx.exp(ctx.generator_g, s), statement.w1)
    c = schnorr._challenge(ctx, ctx.identity, commit, message)
    assert not schnorr.preverify(ctx, ctx.identity,
                                 schnorr.PlainPreSignature(c, s), message,
                                 statement.w1)
    result = ledger_submit(MockLedger(ctx, "A"), tx, forged)
    assert (result.accepted, result.reason) == (False, "malformed")
