"""Adversaries against the scheme, each a function that returns what it
would submit to a ledger.

These tests pin holes the scheme has today as passing assertions: the
verification equation raises every ring key to the same digest d, so an
attacker can put a key in the ring that cancels a victim's.  When the
keys and tags are bound by hashed weights, each count here drops to 0.
"""

import random

import pytest

from conftest import group
from ringadapt import Ring, SignerWindow, adapt, gen_r
from ringadapt.scheme import _presign_body, distinct_keypairs
from ringadapt.swap import MockLedger, SwapTransaction, ledger_submit
from ringadapt.wire import encode_transaction


def rogue_key_forgery(ctx, rng):
    """A chain-B spend at t = 2 signed without any ring key's secret.

    With honest keys h1..h3 and a victim key pk_v, the attacker adds
    pk_adv = g^x / pk_v.  The window (pk_v, pk_adv) at ring position 1
    then aggregates to g^(x d), which the attacker opens with the secrets
    (x, 0) and tags whose product is h^x.  Returns (transaction,
    signature).
    """
    h1, h2, h3, victim = distinct_keypairs(ctx, 4, rng)
    x = ctx.random_scalar_nonzero(rng)
    rogue = ctx.mul(ctx.exp(ctx.generator_g, x),
                    ctx.exp(victim.pk, ctx.order - 1))
    ring = Ring(ctx, [h1.pk, victim.pk, rogue, h2.pk, h3.pk])
    window = object.__new__(SignerWindow)   # its secrets open no ring key
    r = ctx.random_scalar_nonzero(rng)
    window.ring, window.start, window.width = ring, 1, 2
    window.secrets = (x, 0)
    window.tags = (ctx.exp(ctx.generator_h, r),
                   ctx.exp(ctx.generator_h, x - r))
    tx = SwapTransaction("B", b"attacker", 1, 0, ring_keys=ring.keys,
                         threshold=2)
    statement, w = gen_r(ctx, rng)
    nonce = ctx.random_scalar_nonzero(rng)
    decoys = {i: rng.randrange(ctx.order) for i in range(len(ring)) if i != 1}
    psig = _presign_body(ctx, ring, window, encode_transaction(ctx, tx),
                         statement, nonce, decoys)
    return tx, adapt(ctx, psig, w)


@pytest.mark.parametrize("backend", ["toy", "prod"])
def test_rogue_key_forgery_is_admitted(backend):
    # A hole: each forged spend is admitted by a fresh chain-B ledger.
    ctx = group(backend)
    admitted = [
        ledger_submit(MockLedger(ctx, "B"), *rogue_key_forgery(
            ctx, random.Random(5 + s))).accepted
        for s in range(6)]
    assert admitted.count(True) == 6
