"""Main implementation vs the straight-line oracle: the verdicts on
rejected and mutated input.  Acceptance criterion 2 compares honest
traces intermediate by intermediate."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import straightline as oracle
from conftest import BOTH, ORACLE, build_ring, build_window
from ringadapt import (PreSignature, Signature, gen_r, presign, preverify,
                       verify)


# Inputs both sides must reject, each made from an honest (z~, c, tags)
# at n = 3, t = 2.  The differential test below reaches the last two only
# when a random draw happens to.
REJECTIONS = {
    "bad-z": lambda group, z, c, tags: ((z + 1) % group.order, c, tags),
    # A random-tags draw whose first exponent is 0.
    "identity-tag": lambda group, z, c, tags: (
        z, c, (oracle.identity(group), *tags[1:])),
    # One tag moved onto the other: the product holds, the identity is left.
    "split-to-identity": lambda group, z, c, tags: (z, c, (group.encode(
        group.mul(*map(group.decode, tags))), oracle.identity(group))),
}


@pytest.mark.parametrize("name", REJECTIONS)
@BOTH
def test_oracle_agrees_on_rejections(ctx, name):
    group = ORACLE[ctx]
    rng = random.Random(55)
    ring, members = build_ring(ctx, 3, rng)
    window = build_window(ctx, ring, members, rng.randrange(3), 2)
    statement, w = gen_r(ctx, rng)
    psig = presign(ctx, ring, window, b"reject", statement, rng)
    z_tilde, challenges, tags = REJECTIONS[name](
        group, psig.z_tilde, psig.challenges, psig.tags)
    z = (z_tilde + w) % ctx.order
    ours = (preverify(ctx, ring, PreSignature(z_tilde, challenges, tags), 2,
                      b"reject", statement),
            verify(ctx, ring, Signature(z, challenges, tags), 2, b"reject"))
    theirs = (oracle.preverify(group, ring.keys, z_tilde, challenges, tags,
                               2, b"reject", statement.w1, statement.w2),
              oracle.verify(group, ring.keys, z, challenges, tags, 2,
                            b"reject"))
    assert ours == theirs == (False, False)


# How the differential test builds its input from an honest signature.
MUTATIONS = ("honest", "random-challenges", "random-tags", "split-tags",
             "zero-challenge-sum")


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8), st.data())
def test_folded_verification_agrees_with_oracle(toy, n, data):
    """Folded verify/preverify against the per-window oracle: the verdicts
    agree on every input, honest or adversarial."""
    t = data.draw(st.integers(1, n))
    start = data.draw(st.integers(0, n - 1))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    rng = random.Random(data.draw(st.integers(0, 2**32)))
    ring, members = build_ring(toy, n, rng)
    window = build_window(toy, ring, members, start, t)
    statement, w = gen_r(toy, rng)
    psig = presign(toy, ring, window, b"diff", statement, rng)
    z_tilde, challenges, tags = psig.z_tilde, list(psig.challenges), \
        list(psig.tags)
    group = oracle.TOY
    scalar = st.integers(0, group.order - 1)
    if mutation == "random-challenges":
        challenges = data.draw(st.lists(scalar, min_size=n, max_size=n))
    elif mutation == "random-tags":
        tags = [group.encode(group.pow(group.h, k))
                for k in data.draw(st.lists(scalar, min_size=t,
                                            max_size=t))]
    elif mutation == "split-tags":
        # Offsets h^r_k that cancel keep the tag product, the only thing
        # the equation over T checks.
        offsets = data.draw(st.lists(scalar, min_size=t, max_size=t))
        offsets[-1] = -sum(offsets[:-1]) % group.order
        tags = [group.encode(group.mul(group.decode(tag),
                                       group.pow(group.h, r)))
                for tag, r in zip(tags, offsets)]
    elif mutation == "zero-challenge-sum":
        challenges = data.draw(st.lists(scalar, min_size=n, max_size=n))
        challenges[-1] = -sum(challenges[:-1]) % group.order
        z_tilde = data.draw(scalar)
    z = (z_tilde + w) % group.order
    ours = (preverify(toy, ring, PreSignature(z_tilde, tuple(challenges),
                                              tuple(tags)),
                      t, b"diff", statement),
            verify(toy, ring, Signature(z, tuple(challenges), tuple(tags)),
                   t, b"diff"))
    theirs = (oracle.preverify(group, ring.keys, z_tilde, challenges, tags,
                               t, b"diff", statement.w1, statement.w2),
              oracle.verify(group, ring.keys, z, challenges, tags, t,
                            b"diff"))
    assert ours == theirs
    if mutation == "honest":
        assert ours == (True, True)
