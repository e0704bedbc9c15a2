"""Single-key adaptor scheme, including its coupling with the ring scheme."""

import random

import straightline as oracle
from conftest import BOTH, TOY, build_ring, build_window
from ringadapt import KeyPair, StatementPair, gen_r, keygen, schnorr
from ringadapt import adapt as ring_adapt
from ringadapt import ext as ring_ext
from ringadapt import presign as ring_presign
from ringadapt import verify as ring_verify
from toygroup import toy_element


class Fixed:
    def __init__(self, *values):
        self.values = list(values)

    def randrange(self, bound):
        return self.values.pop(0)


def test_frozen_trace(toy):
    # sk = 3, nonce = 9, witness = 4 over the toy group.
    keypair = KeyPair(3, toy.exp(toy.generator_g, 3))
    assert keypair.pk == toy_element(343)
    statement_g = toy.exp(toy.generator_g, 4)
    psig = schnorr.presign(toy, keypair, b"plain message", statement_g,
                           Fixed(9))
    assert (psig.challenge, psig.masked_response) == (83, 56)
    expected = oracle.plain_presign(oracle.TOY, 3, 9, b"plain message",
                                    statement_g)
    assert (psig.challenge, psig.masked_response) == expected


def test_round_trip(toy, rng):
    keypair = keygen(toy, rng)
    statement, w = gen_r(toy, rng)
    psig = schnorr.presign(toy, keypair, b"m", statement.w1, rng)
    assert schnorr.preverify(toy, keypair.pk, psig, b"m", statement.w1)
    sig = schnorr.adapt(toy, psig, w)
    assert schnorr.verify(toy, keypair.pk, sig, b"m")
    assert schnorr.ext(toy, statement.w1, psig, sig) == w


def test_prod_round_trip(prod):
    rng = random.Random(8)
    keypair = keygen(prod, rng)
    statement, w = gen_r(prod, rng)
    psig = schnorr.presign(prod, keypair, b"m", statement.w1, rng)
    assert schnorr.preverify(prod, keypair.pk, psig, b"m", statement.w1)
    sig = schnorr.adapt(prod, psig, w)
    assert schnorr.verify(prod, keypair.pk, sig, b"m")
    assert schnorr.ext(prod, statement.w1, psig, sig) == w


def test_wrong_witness_rejected(toy, rng):
    keypair = keygen(toy, rng)
    statement, w = gen_r(toy, rng)
    psig = schnorr.presign(toy, keypair, b"m", statement.w1, rng)
    wrong = (w + 1) % toy.order or 1
    assert not schnorr.verify(toy, keypair.pk, schnorr.adapt(toy, psig, wrong),
                              b"m")


def test_tamper_rejected(toy, rng):
    keypair = keygen(toy, rng)
    statement, w = gen_r(toy, rng)
    psig = schnorr.presign(toy, keypair, b"m", statement.w1, rng)
    sig = schnorr.adapt(toy, psig, w)
    bumped = schnorr.PlainSignature(sig.challenge,
                                    (sig.response + 1) % toy.order)
    assert not schnorr.verify(toy, keypair.pk, bumped, b"m")
    assert not schnorr.verify(toy, keypair.pk, sig, b"m2")
    off = schnorr.PlainPreSignature(psig.challenge,
                                    (psig.masked_response + 1) % toy.order)
    assert not schnorr.preverify(toy, keypair.pk, off, b"m", statement.w1)


@BOTH
def test_non_element_key_is_rejected(ctx):
    # Both verifiers check the key before using it, so both backends
    # return False for a key is_element rejects, even with an honest
    # signature.
    rng = random.Random(3)
    keypair = keygen(ctx, rng)
    statement, w = gen_r(ctx, rng)
    psig = schnorr.presign(ctx, keypair, b"m", statement.w1, rng)
    sig = schnorr.adapt(ctx, psig, w)
    g = ctx.generator_g
    bad_keys = ([toy_element(0), toy_element(2), toy_element(607), 7, None]
                if ctx is TOY
                else [5, b"\xff" * 32, g[:31], bytearray(g), None])
    for pk in bad_keys:
        assert not ctx.is_element(pk)
        assert schnorr.verify(ctx, pk, sig, b"m") is False
        assert schnorr.preverify(ctx, pk, psig, b"m", statement.w1) is False


def test_ext_failure_modes(toy, rng):
    keypair = keygen(toy, rng)
    statement, w = gen_r(toy, rng)
    psig = schnorr.presign(toy, keypair, b"m", statement.w1, rng)
    unadapted = schnorr.PlainSignature(psig.challenge, psig.masked_response)
    assert schnorr.ext(toy, statement.w1, psig, unadapted) is None
    other = schnorr.presign(toy, keypair, b"m2", statement.w1, rng)
    assert schnorr.ext(toy, statement.w1, other,
                       schnorr.adapt(toy, psig, w)) is None


def test_statement_zero_component_never_extracts(toy, rng):
    # w = 0 would mean W1 is the identity, which gen_r can never produce.
    keypair = keygen(toy, rng)
    statement, _ = gen_r(toy, rng)
    assert statement.w1 != toy.identity


def test_shared_witness_couples_both_schemes(toy, rng):
    # The algebraic heart of the swap: completing the ring pre-signature
    # reveals w, and that same w completes the plain pre-signature.
    ring, members = build_ring(toy, 4, rng)
    window = build_window(toy, ring, members, 0, 2)
    statement, w = gen_r(toy, rng)
    bob = keygen(toy, rng)

    plain_psig = schnorr.presign(toy, bob, b"chain-a tx", statement.w1, rng)
    ring_psig = ring_presign(toy, ring, window, b"chain-b tx", statement, rng)

    ring_sig = ring_adapt(toy, ring_psig, w)
    assert ring_verify(toy, ring, ring_sig, 2, b"chain-b tx")
    revealed = ring_ext(toy, statement, ring_psig, ring_sig)
    assert revealed == w

    plain_sig = schnorr.adapt(toy, plain_psig, revealed)
    assert schnorr.verify(toy, bob.pk, plain_sig, b"chain-a tx")
    assert schnorr.ext(toy, statement.w1, plain_psig, plain_sig) == w


def test_statement_pair_second_component_ignored(toy, rng):
    # The plain chain consumes only W1; a garbage W2 changes nothing.
    keypair = keygen(toy, rng)
    statement, w = gen_r(toy, rng)
    scrambled = StatementPair(statement.w1, toy.generator_g)
    psig = schnorr.presign(toy, keypair, b"m", scrambled.w1, rng)
    assert schnorr.preverify(toy, keypair.pk, psig, b"m", statement.w1)
