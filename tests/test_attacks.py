"""Adversaries against the scheme, each a function that returns what it
would submit to a ledger.  An adversary whose secrets open no ring key
signs through the straight-line oracle (``conftest.oracle_spend``).

These tests pin holes the scheme has today as passing assertions: the
verification equation raises every ring key to the same digest d, so an
attacker can put a key in the ring that cancels a victim's, and it
checks only the product of the link tags, so tags that keep the product
verify, whoever's tags they are.  When the keys and tags are bound by
hashed weights, each count here drops to 0 on prod, and to a chance
count on toy.
"""

import random

from conftest import (BOTH, TOY, build_ring, build_window, oracle_spend,
                      ring_spend)
from ringadapt import Signature, StatementPair, ext, verify
from ringadapt.scheme import distinct_keypairs
from ringadapt.swap import MockLedger, ledger_submit
from ringadapt.wire import encode_transaction


def rogue_key_forgery(ctx, rng):
    """A chain-B spend at t = 2 signed without any ring key's secret.

    With honest keys h1..h3 and a victim key pk_v, the attacker adds
    pk_adv = g^x / pk_v.  The window (pk_v, pk_adv) at ring position 1
    then aggregates to g^(x d), which the attacker opens with the secrets
    (r, x - r): they sum to x, and their tags multiply to h^x.  Neither
    opens its ring key, so the oracle signs (``oracle_spend``).  Returns
    (transaction, signature).
    """
    h1, h2, h3, victim = distinct_keypairs(ctx, 4, rng)
    x = ctx.random_scalar_nonzero(rng)
    rogue = ctx.mul(ctx.exp(ctx.generator_g, x),
                    ctx.exp(victim.pk, ctx.order - 1))
    keys = [h1.pk, victim.pk, rogue, h2.pk, h3.pk]
    r = ctx.random_scalar_nonzero(rng)
    return oracle_spend(ctx, keys, 1, (r, x - r), b"attacker", 0, rng)


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
    tags = (ctx.mul(sig.tags[0], ctx.exp(ctx.generator_h, r)),
            ctx.mul(sig.tags[1], ctx.exp(ctx.generator_h, ctx.order - r)))
    return tx, Signature(sig.z, sig.challenges, tags)


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


def signer_tag_split(ctx, window, rng):
    """A second spend by a t = 2 window that has spent once, signed with
    its secrets shifted by a drawn r, (sk_0 + r, sk_1 - r): the same sum,
    so the same tag product, and neither tag is one the ledger published
    for the first spend.  Returns (transaction, signature)."""
    r = ctx.random_scalar_nonzero(rng)
    sk0, sk1 = window.secrets
    return oracle_spend(ctx, window.ring.keys, window.start,
                        (sk0 + r, sk1 - r), b"again", 2, rng)


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
        result = ledger_submit(ledger, *signer_tag_split(ctx, window, rng))
        verdicts.append(result.reason or "accepted")
    assert verdicts == (["accepted"] * 4 + ["double-spend-link", "accepted"]
                        if ctx is TOY else ["accepted"] * 6)


def framing(ctx, ring, window, victim_tag, rng):
    """The attacker's own honest t = 2 spend, its tags swapped for
    (T_v, tag_0 * tag_1 / T_v), where T_v is a tag of a victim's it has
    seen: a swap counterparty sees Alice's in her step-3 pre-signature.
    The tag product is kept, so the spend verifies, and it publishes T_v.
    Returns (transaction, signature)."""
    tx, _, sig = ring_spend(ctx, ring, window, b"framer", 3, rng)
    rest = ctx.mul(ctx.mul(*sig.tags), ctx.exp(victim_tag, ctx.order - 1))
    return tx, Signature(sig.z, sig.challenges, (victim_tag, rest))


@BOTH
def test_framing_is_admitted(ctx):
    # A hole: the framed spend is admitted, and the victim's honest
    # spend, its first, is then refused as a double spend.
    verdicts = []
    for seed in range(50, 56):
        rng = random.Random(seed)
        ring, members = build_ring(ctx, 6, rng)
        victim_tx, victim_psig, victim_sig = ring_spend(
            ctx, ring, build_window(ctx, ring, members, 3, 1), b"victim", 1,
            rng)
        framed = framing(ctx, ring, build_window(ctx, ring, members, 0, 2),
                         victim_psig.tags[0], rng)
        ledger = MockLedger(ctx, "B")
        verdicts += [ledger_submit(ledger, *framed).reason,
                     ledger_submit(ledger, victim_tx, victim_sig).reason]
    assert verdicts == [None, "double-spend-link"] * 6
