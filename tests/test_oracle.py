"""Main implementation vs the straight-line oracle, intermediate by
intermediate."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import straightline as oracle
from conftest import build_ring, build_window, presign_intermediates
from ringadapt import (PreSignature, SeededRandomness, Signature, adapt, ext,
                       gen_r, presign, preverify, verify)
from ringadapt.scheme import _presign_body


def random_case(toy, rng):
    n = 1 + rng.randbelow(8)
    t = 1 + rng.randbelow(n)
    start = rng.randbelow(n)
    ring, members = build_ring(toy, n, rng)
    window = build_window(toy, ring, members, start, t)
    statement, w = gen_r(toy, rng)
    message = bytes(rng.randbelow(256) for _ in range(8))
    nonce = toy.random_scalar_nonzero(rng)
    # Decoys come from all of Z_p, as presign draws them.
    decoys = {i: rng.randbelow(toy.order) for i in range(n) if i != start}
    return ring, window, statement, w, message, nonce, decoys


def random_cases(toy, rng, trials):
    """``trials`` random cases, then one whose decoys include a forced 0."""
    for _ in range(trials):
        yield random_case(toy, rng)
    while True:
        case = random_case(toy, rng)
        decoys = case[-1]
        if decoys:
            decoys[min(decoys)] = 0
            yield case
            return


def assert_matches_oracle(toy, case):
    """Every intermediate of one case's presign, adapt and ext equals the
    oracle's; returns the pre-signature and the adapted signature."""
    ring, window, statement, w, message, nonce, decoys = case
    psig = _presign_body(toy, ring, window, message, statement, nonce, decoys)
    commit_g, commit_h, challenge, window_challenge = presign_intermediates(
        toy, ring, window, message, statement, nonce, decoys)
    expected = oracle.presign(ring.keys, window.start, window.secrets,
                              message, statement.w1, statement.w2, nonce,
                              decoys)
    assert ring.d == expected["d"]
    assert list(window.tags) == expected["tags"]
    assert commit_g == expected["commit_g"]
    assert commit_h == expected["commit_h"]
    assert challenge == expected["challenge"]
    assert window_challenge == expected["window_challenge"]
    assert psig.challenges[window.start] == window_challenge
    assert psig.z_tilde == expected["z_tilde"]
    assert list(psig.challenges) == expected["challenges"]

    sig = adapt(toy, psig, w)
    assert sig.z == (expected["z_tilde"] + w) % oracle.ORDER
    assert ext(toy, statement, psig, sig) == w
    return psig, sig


def test_every_intermediate_matches(toy):
    rng = SeededRandomness(2024)
    for case in random_cases(toy, rng, 120):
        psig, sig = assert_matches_oracle(toy, case)
        ring, window, statement, _, message, _, _ = case
        assert oracle.preverify(ring.keys, psig.z_tilde,
                                list(psig.challenges), list(psig.tags),
                                window.width, message, statement.w1,
                                statement.w2)
        assert oracle.verify(ring.keys, sig.z, list(sig.challenges),
                             list(sig.tags), window.width, message)


IDENTITY = oracle.element(pow(oracle.H, 0, oracle.MODULUS))

# Inputs both sides must reject, each made from an honest (z~, c, tags)
# at n = 3, t = 2.  The differential test below reaches the last two only
# when a random draw happens to.
REJECTIONS = {
    "bad-z": lambda z, c, tags: ((z + 1) % oracle.ORDER, c, tags),
    # A random-tags draw whose first exponent is 0.
    "identity-tag": lambda z, c, tags: (z, c, (IDENTITY, *tags[1:])),
    # One tag moved onto the other: the product holds, the identity is left.
    "split-to-identity": lambda z, c, tags: (z, c, (oracle.element(
        oracle.residue(tags[0]) * oracle.residue(tags[1]) % oracle.MODULUS),
        IDENTITY)),
}


@pytest.mark.parametrize("name", REJECTIONS)
def test_oracle_agrees_on_rejections(toy, name):
    rng = SeededRandomness(55)
    ring, members = build_ring(toy, 3, rng)
    window = build_window(toy, ring, members, rng.randbelow(3), 2)
    statement, w = gen_r(toy, rng)
    psig = presign(toy, ring, window, b"reject", statement, rng)
    z_tilde, challenges, tags = REJECTIONS[name](
        psig.z_tilde, psig.challenges, psig.tags)
    z = (z_tilde + w) % oracle.ORDER
    ours = (preverify(toy, ring, PreSignature(z_tilde, challenges, tags), 2,
                      b"reject", statement),
            verify(toy, ring, Signature(z, challenges, tags), 2, b"reject"))
    theirs = (oracle.preverify(ring.keys, z_tilde, list(challenges),
                               list(tags), 2, b"reject", statement.w1,
                               statement.w2),
              oracle.verify(ring.keys, z, list(challenges), list(tags), 2,
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
    rng = SeededRandomness(data.draw(st.integers(0, 2**32)))
    ring, members = build_ring(toy, n, rng)
    window = build_window(toy, ring, members, start, t)
    statement, w = gen_r(toy, rng)
    psig = presign(toy, ring, window, b"diff", statement, rng)
    z_tilde, challenges, tags = psig.z_tilde, list(psig.challenges), \
        list(psig.tags)
    scalar = st.integers(0, oracle.ORDER - 1)
    if mutation == "random-challenges":
        challenges = data.draw(st.lists(scalar, min_size=n, max_size=n))
    elif mutation == "random-tags":
        tags = [oracle.element(pow(oracle.H, k, oracle.MODULUS))
                for k in data.draw(st.lists(scalar, min_size=t,
                                            max_size=t))]
    elif mutation == "split-tags":
        # Offsets h^r_k that cancel keep the tag product, the only thing
        # the equation over T checks.
        offsets = data.draw(st.lists(scalar, min_size=t, max_size=t))
        offsets[-1] = -sum(offsets[:-1]) % oracle.ORDER
        tags = [oracle.element(oracle.residue(tag)
                               * pow(oracle.H, r, oracle.MODULUS)
                               % oracle.MODULUS)
                for tag, r in zip(tags, offsets)]
    elif mutation == "zero-challenge-sum":
        challenges = data.draw(st.lists(scalar, min_size=n, max_size=n))
        challenges[-1] = -sum(challenges[:-1]) % oracle.ORDER
        z_tilde = data.draw(scalar)
    z = (z_tilde + w) % oracle.ORDER
    ours = (preverify(toy, ring, PreSignature(z_tilde, tuple(challenges),
                                              tuple(tags)),
                      t, b"diff", statement),
            verify(toy, ring, Signature(z, tuple(challenges), tuple(tags)),
                   t, b"diff"))
    theirs = (oracle.preverify(ring.keys, z_tilde, challenges, tags, t,
                               b"diff", statement.w1, statement.w2),
              oracle.verify(ring.keys, z, challenges, tags, t, b"diff"))
    assert ours == theirs
    if mutation == "honest":
        assert ours == (True, True)
