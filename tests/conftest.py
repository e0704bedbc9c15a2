"""Shared scaffolding: the two groups as objects (``TOY``, ``PROD`` and the
``BOTH`` mark) with the oracle's matching groups (``ORACLE``), builders of
rings, windows and honest spends, and the oracle's spends, which sign with
any secrets."""

import random

import pytest

import straightline as oracle
from ringadapt import (Ring, Signature, SignerWindow, adapt, gen_r, presign,
                       schnorr, setup_group)
from ringadapt.scheme import _commit, distinct_keypairs
from ringadapt.wire import SwapTransaction, encode_transaction
from toygroup import ToyGroup

TOY = ToyGroup()
PROD = setup_group("prod")
# A test that runs on both groups takes ``ctx``, one of these objects.
BOTH = pytest.mark.parametrize("ctx", [TOY, PROD], ids=["toy", "prod"])
# The straight-line oracle's group for each of them.
ORACLE = {TOY: oracle.TOY, PROD: oracle.RISTRETTO}


@pytest.fixture(scope="session")
def toy():
    return TOY


@pytest.fixture(scope="session")
def prod():
    return PROD


@pytest.fixture
def rng():
    return random.Random(12345)


def ristretto_alias(a):
    """The ristretto255 encoding a with bit 255 set: libsodium 1.0.18 reads
    it as a, and RFC 9496 refuses it."""
    return a[:31] + bytes([a[31] | 0x80])


def build_ring(ctx, n, rng):
    """Ring of n distinct members; returns (ring, list of keypairs)."""
    members = distinct_keypairs(ctx, n, rng)
    return Ring(ctx, [kp.pk for kp in members]), members


def build_window(ctx, ring, members, start, width):
    secrets = [members[(start + i) % len(members)].sk for i in range(width)]
    return SignerWindow(ctx, ring, start, secrets)


def ring_spend(ctx, ring, window, payee, nonce, rng):
    """An honest chain-B spend by ``window`` to ``payee``: the
    transaction, its pre-signature and the adapted signature.  Draws the
    statement, then the pre-signature, from ``rng``."""
    tx = SwapTransaction("B", payee, 1, nonce, ring_keys=ring.keys,
                         threshold=window.width)
    statement, witness = gen_r(ctx, rng)
    psig = presign(ctx, ring, window, encode_transaction(ctx, tx), statement,
                   rng)
    return tx, psig, adapt(ctx, psig, witness)


def plain_spend(ctx, payer, payee, nonce, rng):
    """An honest chain-A spend by the key pair ``payer`` to ``payee``,
    drawn as ``ring_spend`` draws: the transaction, its pre-signature and
    the adapted Schnorr signature."""
    tx = SwapTransaction("A", payee, 1, nonce, payer_key=payer.pk)
    statement, witness = gen_r(ctx, rng)
    psig = schnorr.presign(ctx, payer, encode_transaction(ctx, tx),
                           statement.w1, rng)
    return tx, psig, schnorr.adapt(ctx, psig, witness)


def presign_intermediates(ctx, ring, window, message, statement, nonce,
                          decoys):
    """(R, T, c, c_j) of the presign run with this nonce and these decoys,
    recomputed through the scheme's commitment with c_j = 0."""
    j = window.start
    challenges = [0 if i == j else decoys[i] for i in range(len(ring))]
    commit_g, commit_h, c = _commit(ctx, ring, nonce, challenges,
                                    window.tags, statement, message)
    return commit_g, commit_h, c, (c - sum(challenges)) % ctx.order


def oracle_spend(ctx, keys, start, secrets, payee, nonce, rng):
    """A chain-B spend to ``payee`` over ``keys``, signed by the oracle
    for the window at ``start`` with ``secrets``, which need not open the
    window's keys; its tags are h^secret.  Draws the statement, the
    presign nonce and the decoys as ``ring_spend`` draws them.  Returns
    (transaction, signature)."""
    tx = SwapTransaction("B", payee, 1, nonce, ring_keys=tuple(keys),
                         threshold=len(secrets))
    statement, witness = gen_r(ctx, rng)
    r = ctx.random_scalar_nonzero(rng)
    decoys = {i: rng.randrange(ctx.order)
              for i in range(len(keys)) if i != start}
    trace = oracle.presign(ORACLE[ctx], keys, start, secrets,
                           encode_transaction(ctx, tx), statement.w1,
                           statement.w2, r, decoys)
    return tx, Signature((trace["z_tilde"] + witness) % ctx.order,
                         trace["challenges"], trace["tags"])
