"""Core scheme behavior over the toy group, with frozen oracle values.

Expected numbers were computed with the straight-line oracle in
straightline.py (raw modular arithmetic, no shared code).  The round-trip
grid, adaptability, the tamper sweep and linkability are acceptance
criteria 1, 3, 4 and 5 in test_acceptance.py.
"""

import random

import pytest

from conftest import BOTH, build_ring, build_window, presign_intermediates
from ringadapt import (KeyMismatchError, PreSignature, Ring, Signature,
                       SignerWindow, StatementPair, adapt, ext, gen_r, keygen,
                       presign, preverify, verify, verify_relation)
from ringadapt.bench import run_bench
from ringadapt.scheme import _presign_body, distinct_keypairs
from ringadapt.swap import swap_demo
from toygroup import toy_element

# Ring used by the frozen vectors: secrets (2, 3, 7) under g = 7 mod 607.
VEC_SKS = (2, 3, 7)
VEC_PKS = tuple(map(toy_element, (49, 343, 451)))


def _vector_ring(toy):
    return Ring(toy, VEC_PKS)


def _vector_window(toy, ring, start, width):
    secrets = [VEC_SKS[(start + i) % 3] for i in range(width)]
    return SignerWindow(toy, ring, start, secrets)


class TestKeygenAndRelation:
    def test_keygen_frozen(self, toy):
        class Fixed:
            def __init__(self, v):
                self.v = v

            def randrange(self, n):
                return self.v

        assert keygen(toy, Fixed(5)).pk == toy_element(418)  # 7^5 mod 607
        assert keygen(toy, Fixed(1)).pk == toy.generator_g

    def test_keygen_samples_nonzero(self, toy):
        rng = random.Random(4)
        for _ in range(50):
            kp = keygen(toy, rng)
            assert 1 <= kp.sk < toy.order
            assert kp.pk == toy.exp(toy.generator_g, kp.sk)

    def test_distinct_keypairs_stops_at_the_group_size(self, toy):
        # The toy group has 100 keys g^sk, sk != 0: all of them can be
        # drawn, and a 101st is refused before any draw, also when the
        # swap demo or a bench cell asks for a 101-key ring.
        members = distinct_keypairs(toy, toy.order - 1, random.Random(3))
        assert sorted(kp.sk for kp in members) == list(range(1, toy.order))

        class NoDraws:
            def randrange(self, n):
                raise AssertionError("a key was drawn")

        for refused in (lambda: distinct_keypairs(toy, toy.order, NoDraws()),
                        lambda: swap_demo(toy, ring_size=101),
                        lambda: run_bench(toy, [101])):
            with pytest.raises(ValueError, match="101 keys asked; the group "
                                                 "has 100"):
                refused()

    def test_gen_r_frozen(self, toy):
        class Fixed:
            def randrange(self, n):
                return 42

        statement, w = gen_r(toy, Fixed())
        assert w == 42
        assert (statement.w1, statement.w2) == \
            (toy_element(193), toy_element(201))  # (7^42, 8^42)

    def test_gen_r_unit_witness(self, toy):
        class One:
            def randrange(self, n):
                return 1

        statement, w = gen_r(toy, One())
        assert (statement.w1, statement.w2) == (toy.generator_g,
                                                toy.generator_h)

    def test_gen_r_always_satisfies_relation(self, toy, rng):
        for _ in range(30):
            statement, w = gen_r(toy, rng)
            assert verify_relation(toy, statement, w)

    def test_verify_relation_cases(self, toy):
        g, h = toy.generator_g, toy.generator_h
        assert verify_relation(toy, StatementPair(toy.exp(g, 7),
                                                  toy.exp(h, 7)), 7)
        assert not verify_relation(toy, StatementPair(toy.exp(g, 7),
                                                      toy.exp(h, 8)), 7)
        # (g^13, h^13) against w = 14
        assert not verify_relation(
            toy, StatementPair(toy_element(8), toy_element(212)), 14)


class TestPresignFrozen:
    MESSAGE = b"toy message"

    def _run(self, toy, start, decoys, nonce, witness=17,
             message=MESSAGE, width=2):
        """The pre-signature and its (R, T, c, c_j)."""
        ring = _vector_ring(toy)
        window = _vector_window(toy, ring, start, width)
        statement = StatementPair(toy.exp(toy.generator_g, witness),
                                  toy.exp(toy.generator_h, witness))
        inputs = (toy, ring, window, message, statement, nonce, decoys)
        return _presign_body(*inputs), presign_intermediates(*inputs)

    def test_trace_with_zero_window_challenge(self, toy):
        # c_j comes out 0 for these inputs; the scheme accepts that.
        psig, (commit_g, commit_h, c, c_j) = self._run(toy, 0, {1: 4, 2: 9},
                                                       nonce=11)
        assert _vector_ring(toy).d == 40
        assert (commit_g, commit_h) == (toy_element(573), toy_element(64))
        assert c == 13
        assert c_j == 0
        assert psig.z_tilde == 11
        assert psig.challenges == (0, 4, 9)
        assert psig.tags == (toy_element(64), toy_element(512))

    def test_trace_vector_b(self, toy):
        psig, (commit_g, commit_h, c, c_j) = self._run(toy, 0, {1: 5, 2: 9},
                                                       nonce=11)
        assert (commit_g, commit_h) == (toy_element(316), toy_element(1))
        assert (c, c_j) == (75, 61)
        assert psig.challenges[0] == c_j
        assert psig.z_tilde == 32

    def test_trace_vector_c_middle_window(self, toy):
        psig, (commit_g, commit_h, c, c_j) = self._run(
            toy, 1, {0: 8, 2: 31}, nonce=23, message=b"toy message 2")
        assert psig.tags == (toy_element(512), toy_element(574))  # h^3, h^7
        assert (commit_g, commit_h) == (toy_element(565), toy_element(451))
        assert (c, c_j) == (10, 72)
        assert psig.challenges[1] == c_j
        assert psig.z_tilde == 8

    def test_frozen_adapt_ext(self, toy):
        ring = _vector_ring(toy)
        statement = StatementPair(toy.exp(toy.generator_g, 17),
                                  toy.exp(toy.generator_h, 17))
        psig, _ = self._run(toy, 0, {1: 4, 2: 9}, nonce=11)
        sig = adapt(toy, psig, 17)
        assert sig.z == 28
        assert verify(toy, ring, sig, 2, self.MESSAGE)
        assert ext(toy, statement, psig, sig) == 17


class TestRoundTrip:
    def test_prod_randomized_cells(self, prod):
        rng = random.Random(6)
        for _ in range(6):
            n = 1 + rng.randrange(8)
            t = 1 + rng.randrange(n)
            start = rng.randrange(n)
            ring, members = build_ring(prod, n, rng)
            window = build_window(prod, ring, members, start, t)
            statement, w = gen_r(prod, rng)
            message = bytes([n, t, start])
            psig = presign(prod, ring, window, message, statement, rng)
            assert preverify(prod, ring, psig, t, message, statement)
            sig = adapt(prod, psig, w)
            assert verify(prod, ring, sig, t, message)
            assert ext(prod, statement, psig, sig) == w


class TestAdaptability:
    def test_wrong_witness_fails_verification(self, toy, rng):
        ring, members = build_ring(toy, 4, rng)
        window = build_window(toy, ring, members, 0, 2)
        statement, w = gen_r(toy, rng)
        psig = presign(toy, ring, window, b"msg", statement, rng)
        wrong = (w + 1) % toy.order or 1
        assert not verify(toy, ring, adapt(toy, psig, wrong), 2, b"msg")


class TestTamper:
    def test_reordered_ring_rejected(self, toy, rng):
        ring, members = build_ring(toy, 4, rng)
        window = build_window(toy, ring, members, 0, 2)
        statement, w = gen_r(toy, rng)
        sig = adapt(toy, presign(toy, ring, window, b"m", statement, rng), w)
        assert verify(toy, ring, sig, 2, b"m")
        shuffled = Ring(toy, ring.keys[::-1])
        assert not verify(toy, shuffled, sig, 2, b"m")

    def test_preverify_binds_message_and_challenges(self, toy, rng):
        ring, members = build_ring(toy, 4, rng)
        window = build_window(toy, ring, members, 1, 2)
        statement, _ = gen_r(toy, rng)
        psig = presign(toy, ring, window, b"m", statement, rng)
        assert not preverify(toy, ring, psig, 2, b"m'", statement)
        challenges = list(psig.challenges)
        challenges[2] = (challenges[2] + 1) % toy.order
        assert not preverify(
            toy, ring,
            PreSignature(psig.z_tilde, tuple(challenges), psig.tags),
            2, b"m", statement)

    def test_malformed_shapes_return_false(self, toy, rng):
        ring, members = build_ring(toy, 3, rng)
        window = build_window(toy, ring, members, 0, 2)
        statement, w = gen_r(toy, rng)
        psig = presign(toy, ring, window, b"m", statement, rng)
        sig = adapt(toy, psig, w)
        assert not preverify(toy, ring,
                             PreSignature(psig.z_tilde, psig.challenges[:2],
                                          psig.tags), 2, b"m", statement)
        assert not preverify(toy, ring,
                             PreSignature(psig.z_tilde, psig.challenges,
                                          psig.tags[:1]), 2, b"m", statement)
        assert not verify(toy, ring, sig, 4, b"m")  # t out of range
        assert not verify(toy, ring, sig, 0, b"m")
        assert not preverify(toy, ring, psig, 0, b"m", statement)
        assert not verify(toy, ring,
                          Signature(sig.z + toy.order, sig.challenges,
                                    sig.tags), 2, b"m")
        assert not verify(toy, ring,
                          Signature(sig.z, sig.challenges,
                                    (toy_element(2), toy_element(64))),
                          2, b"m")  # 2 is not in the subgroup

    def test_bool_scalar_returns_false(self, toy):
        # True == 1, so a z~ of 1 written as True would encode and hash
        # alike; the verifiers take exact ints, as the constructors do.
        ring = _vector_ring(toy)
        window = _vector_window(toy, ring, 0, 2)
        statement, _ = gen_r(toy, random.Random(6))
        psig = next(psig for psig in (
            _presign_body(toy, ring, window, b"m", statement, nonce,
                          {1: 4, 2: 9}) for nonce in range(1, toy.order))
            if psig.z_tilde == 1)
        assert preverify(toy, ring, psig, 2, b"m", statement)
        forged = PreSignature(True, psig.challenges, psig.tags)
        assert forged == psig
        assert not preverify(toy, ring, forged, 2, b"m", statement)

    def test_garbage_statement_returns_false(self, toy, prod):
        # A statement that is not even a group element must not raise.
        for ctx in (toy, prod):
            rng = random.Random(13)
            ring, members = build_ring(ctx, 3, rng)
            window = build_window(ctx, ring, members, 0, 2)
            statement, _ = gen_r(ctx, rng)
            psig = presign(ctx, ring, window, b"m", statement, rng)
            junk = StatementPair(b"\xff" * 33, statement.w2)
            assert not preverify(ctx, ring, psig, 2, b"m", junk)


class TestExtraction:
    def test_frozen_subtraction(self, toy):
        statement = StatementPair(toy_element(478),
                                  toy_element(562))  # (g^23, h^23)
        psig = PreSignature(10, (1, 2), (toy_element(64),))
        sig = Signature(33, (1, 2), (toy_element(64),))
        assert ext(toy, statement, psig, sig) == 23

    def test_unadapted_signature_fails(self, toy, rng):
        ring, members = build_ring(toy, 3, rng)
        window = build_window(toy, ring, members, 0, 1)
        statement, _ = gen_r(toy, rng)
        psig = presign(toy, ring, window, b"m", statement, rng)
        fake = Signature(psig.z_tilde, psig.challenges, psig.tags)
        assert ext(toy, statement, psig, fake) is None  # w = 0 never opens W

    def test_mismatched_pair_fails(self, toy, rng):
        ring, members = build_ring(toy, 3, rng)
        window = build_window(toy, ring, members, 0, 1)
        statement, w = gen_r(toy, rng)
        psig = presign(toy, ring, window, b"m", statement, rng)
        other = presign(toy, ring, window, b"m2", statement, rng)
        assert ext(toy, statement, other, adapt(toy, psig, w)) is None

    def test_list_built_presignature_adapts_to_a_signature(self, toy, prod):
        for ctx in (toy, prod):
            rng = random.Random(8)
            ring, members = build_ring(ctx, 4, rng)
            window = build_window(ctx, ring, members, 3, 2)
            statement, w = gen_r(ctx, rng)
            psig = presign(ctx, ring, window, b"m", statement, rng)
            listed = PreSignature(psig.z_tilde, list(psig.challenges),
                                  list(psig.tags))
            assert listed == psig
            assert preverify(ctx, ring, listed, 2, b"m", statement)
            sig, honest = adapt(ctx, listed, w), adapt(ctx, psig, w)
            assert sig == Signature(sig.z, psig.challenges, psig.tags)
            assert sig == honest and hash(sig) == hash(honest)
            assert ext(ctx, statement, listed, sig) == w
            assert ext(ctx, statement, listed, honest) == w
            floated = PreSignature(float(psig.z_tilde), psig.challenges,
                                   psig.tags)
            with pytest.raises(ValueError):
                adapt(ctx, floated, w)

    def test_adapt_then_ext_roundtrip(self, toy, rng):
        ring, members = build_ring(toy, 5, rng)
        window = build_window(toy, ring, members, 2, 3)
        statement, w = gen_r(toy, rng)
        psig = presign(toy, ring, window, b"m", statement, rng)
        assert ext(toy, statement, psig, adapt(toy, psig, w)) == w


class TestConstruction:
    def test_ring_checks_types_then_duplicates_then_keys(self, toy):
        a, b = toy_element(49), toy_element(343)
        # A list key is refused by type, before set() could raise
        # TypeError on it.
        with pytest.raises(ValueError, match="ring key must be exactly"):
            Ring(toy, (a, [1], a))
        # A ring with both a repeated key and the identity reports the
        # repetition, found without a group operation.
        with pytest.raises(ValueError, match="^duplicate ring keys 0 and 2$"):
            Ring(toy, (a, toy.identity, a))
        with pytest.raises(ValueError, match="^ring key 1 is not a group "
                           "element other than the identity$"):
            Ring(toy, (a, toy.identity, b))

    def test_empty_ring_rejected(self, toy):
        with pytest.raises(ValueError):
            Ring(toy, ())

    def test_window_secret_mismatch(self, toy, rng):
        ring, members = build_ring(toy, 3, rng)
        bad = (members[0].sk + 1) % toy.order or 1
        with pytest.raises(KeyMismatchError):
            SignerWindow(toy, ring, 0, [bad])

    def test_window_bounds(self, toy, prod, rng):
        for ctx in (toy, prod):
            ring, members = build_ring(ctx, 4, rng)
            for t in range(1, 5):   # every start, wrapping windows included
                for start in range(4):
                    window = build_window(ctx, ring, members, start, t)
                    assert (window.start, window.width) == (start, t)
            for start in (4, -1):
                with pytest.raises(ValueError):
                    SignerWindow(ctx, ring, start, [members[0].sk])
            with pytest.raises(ValueError):
                SignerWindow(ctx, ring, 0, [])
            with pytest.raises(ValueError):
                SignerWindow(ctx, ring, 0, [members[i % 4].sk
                                            for i in range(5)])
            with pytest.raises(KeyMismatchError):   # slot 1 holds key 0
                SignerWindow(ctx, ring, 3, [members[3].sk, members[1].sk])
            for sk in (0, ctx.order):
                with pytest.raises(ValueError, match="secret key out of range"):
                    SignerWindow(ctx, ring, 0, [sk])

    def test_presign_rejects_foreign_ring(self, toy, rng):
        ring, members = build_ring(toy, 3, rng)
        other_ring, _ = build_ring(toy, 3, rng)
        window = build_window(toy, ring, members, 0, 1)
        statement, _ = gen_r(toy, rng)
        with pytest.raises(ValueError):
            presign(toy, other_ring, window, b"m", statement, rng)

    def test_trace_matches_seeded_presign(self, toy):
        # presign draws the nonce from Z_p^* first, then decoy challenges
        # from Z_p in ring order; replaying the seed must reproduce it.
        rng_a = random.Random(77)
        ring, members = build_ring(toy, 4, rng_a)
        window = build_window(toy, ring, members, 1, 2)
        statement, _ = gen_r(toy, rng_a)
        psig = presign(toy, ring, window, b"m", statement,
                       random.Random(123))
        replay = random.Random(123)
        nonce = toy.random_scalar_nonzero(replay)
        decoys = {i: replay.randrange(toy.order) for i in range(4) if i != 1}
        expected = _presign_body(toy, ring, window, b"m", statement, nonce,
                                 decoys)
        assert psig == expected

    @BOTH
    def test_presign_without_rng(self, ctx):
        # No rng, as the CLI passes, draws from the OS; so does an
        # explicit random.SystemRandom().
        ring, members = build_ring(ctx, 4, random.Random(3))
        window = build_window(ctx, ring, members, 1, 2)
        for rng in ((), (random.SystemRandom(),)):
            statement, w = gen_r(ctx, *rng)
            psig = presign(ctx, ring, window, b"m", statement, *rng)
            assert preverify(ctx, ring, psig, 2, b"m", statement)
            assert verify(ctx, ring, adapt(ctx, psig, w), 2, b"m")


class TestSignerAmbiguity:
    def test_zero_challenges_do_not_mark_the_signer(self, toy):
        # Anonymity (Bender, Katz and Morselli, TCC 2006): no challenge
        # may depend on the signer's index.  c_j is a difference, so it is
        # 0 about once in 101 signings, and so must each decoy be.
        rng = random.Random(2001)
        ring, members = build_ring(toy, 3, rng)
        window = build_window(toy, ring, members, 1, 1)
        statement, _ = gen_r(toy, rng)
        zeros = [0] * 3
        for k in range(10100):
            psig = presign(toy, ring, window, k.to_bytes(2, "big"), statement,
                           rng)
            for i, c in enumerate(psig.challenges):
                zeros[i] += c == 0
        # About 100 at each index, the signer's included.
        assert zeros[1] > 0 and max(zeros) <= 2 * min(zeros), zeros
