"""Adversaries against the scheme, each a function that returns what it
would submit to a ledger.

These tests pin holes the scheme has today as passing assertions: the
verification equation raises every ring key to the same digest d, so an
attacker can put a key in the ring that cancels a victim's, and it
checks only the product of the link tags, so tags that keep the product
verify.  When the keys and tags are bound by hashed weights, each count
here drops to 0 on prod, and to a chance count on toy.
"""

import random

from conftest import (BOTH, TOY, build_ring, build_window, ring_spend,
                      unfolded_presign)
from ringadapt import (Ring, Signature, SignerWindow, StatementPair, adapt,
                       ext, gen_r, verify)
from ringadapt.scheme import distinct_keypairs
from ringadapt.swap import MockLedger, SwapTransaction, ledger_submit
from ringadapt.wire import encode_transaction


def _shifted(ctx, tags, r):
    """t = 2 tags times (h^r, h^-r): the same product."""
    return (ctx.mul(tags[0], ctx.exp(ctx.generator_h, r)),
            ctx.mul(tags[1], ctx.exp(ctx.generator_h, ctx.order - r)))


def rogue_key_forgery(ctx, rng):
    """A chain-B spend at t = 2 signed without any ring key's secret.

    With honest keys h1..h3 and a victim key pk_v, the attacker adds
    pk_adv = g^x / pk_v.  The window (pk_v, pk_adv) at ring position 1
    then aggregates to g^(x d), which the attacker opens with the secrets
    (x, 0) and tags whose product is h^x.  It signs by the verifier's
    equation (``unfolded_presign``): ``presign`` folds each window key's
    secret into g's exponent, which (x, 0) cannot do.  Returns
    (transaction, signature).
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
    psig = unfolded_presign(ctx, ring, window, encode_transaction(ctx, tx),
                            statement, nonce, decoys)
    return tx, adapt(ctx, psig, w)


@BOTH
def test_rogue_key_forgery_is_admitted(ctx):
    # A hole: each forged spend is admitted by a fresh chain-B ledger.
    admitted = [
        ledger_submit(MockLedger(ctx, "B"), *rogue_key_forgery(
            ctx, random.Random(5 + s))).accepted
        for s in range(6)]
    assert admitted.count(True) == 6


def third_party_mauling(ctx, tx, sig, r):
    """Anyone's copy of a broadcast t = 2 spend, its tags shifted by r.
    No secret is needed, and the copy no longer matches the
    pre-signature, so the payee's ``ext`` finds no witness.  Returns
    (transaction, signature)."""
    return tx, Signature(sig.z, sig.challenges, _shifted(ctx, sig.tags, r))


def signer_tag_split(ctx, ring, window, rng):
    """A second spend by a t = 2 window that has spent once, through a
    window whose tags are shifted by a drawn r: neither tag is one the
    ledger published for the first spend.  Returns (transaction,
    signature)."""
    split = object.__new__(SignerWindow)   # its tags are not h^sk
    split.ring, split.start, split.width = ring, window.start, window.width
    split.secrets = window.secrets
    split.tags = _shifted(ctx, window.tags, ctx.random_scalar_nonzero(rng))
    tx, _, sig = ring_spend(ctx, ring, split, b"again", 2, rng)
    return tx, sig


@BOTH
def test_third_party_mauling_is_admitted(ctx):
    # A hole: on toy every nonzero offset but the two that make a tag
    # the identity verifies and is admitted, and on prod each of six
    # drawn offsets is; the payee extracts from none.
    rng = random.Random(7)
    ring, members = build_ring(ctx, 4, rng)
    tx, psig, sig = ring_spend(ctx, ring, build_window(ctx, ring, members,
                                                       1, 2), b"bob", 1, rng)
    w = (sig.z - psig.z_tilde) % ctx.order
    statement = StatementPair(ctx.exp(ctx.generator_g, w),
                              ctx.exp(ctx.generator_h, w))
    assert ext(ctx, statement, psig, sig) == w
    offsets = (range(1, ctx.order) if ctx is TOY
               else [ctx.random_scalar_nonzero(rng) for _ in range(6)])
    verified = admitted = extracted = 0
    for r in offsets:
        mauled_tx, mauled = third_party_mauling(ctx, tx, sig, r)
        verified += verify(ctx, ring, mauled, 2, encode_transaction(ctx, tx))
        admitted += ledger_submit(MockLedger(ctx, "B"), mauled_tx,
                                  mauled).accepted
        extracted += ext(ctx, statement, psig, mauled) is not None
    assert (len(offsets), verified, admitted, extracted) == (
        (100, 98, 98, 0) if ctx is TOY else (6, 6, 6, 0))


@BOTH
def test_signer_tag_split_is_admitted(ctx):
    # A hole: a window's second spend is admitted beside its first,
    # unless a shifted tag equals a published one by chance.  On toy at
    # seed 44 the drawn r swaps the two tags.
    verdicts = []
    for seed in range(40, 46):
        rng = random.Random(seed)
        ring, members = build_ring(ctx, 4, rng)
        window = build_window(ctx, ring, members, 1, 2)
        ledger = MockLedger(ctx, "B")
        tx, _, sig = ring_spend(ctx, ring, window, b"bob", 1, rng)
        assert ledger_submit(ledger, tx, sig).accepted
        result = ledger_submit(ledger, *signer_tag_split(ctx, ring, window,
                                                         rng))
        verdicts.append(result.reason or "accepted")
    assert verdicts == (["accepted"] * 4 + ["double-spend-link", "accepted"]
                        if ctx is TOY else ["accepted"] * 6)
