import random

import pytest

from ringadapt import Ring, SignerWindow, setup_group
from ringadapt.bench import run_bench
from ringadapt.scheme import _commit, distinct_keypairs


@pytest.fixture(scope="session")
def toy():
    return setup_group("toy")


@pytest.fixture(scope="session")
def prod():
    return setup_group("prod")


@pytest.fixture(scope="session")
def prod_sweep():
    """One prod bench sweep over n = 10, 20, ..., 100, shared by the tests
    that read the scaling shape."""
    return run_bench(sizes=range(10, 101, 10))


@pytest.fixture
def rng():
    return random.Random(12345)


def toy_element(residue):
    """The toy group's element for a residue mod 607: 2 big-endian bytes."""
    return residue.to_bytes(2, "big")


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


def presign_intermediates(ctx, ring, window, message, statement, nonce,
                          decoys):
    """(R, T, c, c_j) of the presign run with this nonce and these decoys,
    recomputed through the scheme's commitment with c_j = 0."""
    j = window.start
    challenges = [0 if i == j else decoys[i] for i in range(len(ring))]
    commit_g, commit_h, c = _commit(ctx, ring, nonce, challenges,
                                    window.tags, statement, message)
    return commit_g, commit_h, c, (c - sum(challenges)) % ctx.order
