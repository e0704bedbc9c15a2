"""Group backend contracts: laws, encodings, hashing, sampling."""

import ctypes
import ctypes.util
import hashlib
import itertools
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ristretto_alias
from ringadapt import groups, setup_group, wire
from ringadapt.groups import H_DERIVATION_STRING, frame_parts
from toygroup import TOY_MODULUS, TOY_ORDER, ToyGroup, toy_element


def test_setup_is_deterministic():
    a = ToyGroup()
    b = ToyGroup()
    assert (a.generator_g, a.generator_h, a.order) == \
        (b.generator_g, b.generator_h, b.order)
    p1 = setup_group("prod")
    p2 = setup_group("prod")
    assert p1.generator_g == p2.generator_g
    assert p1.generator_h == p2.generator_h


def test_unknown_backend_rejected():
    # The toy group lives in the tests; the library knows only "prod".
    for name in ("nope", "toy"):
        with pytest.raises(ValueError, match="unknown group backend"):
            setup_group(name)


def test_toy_parameters(toy):
    # Subgroup of order 101 in Z_607^*; generators are the two smallest
    # elements of multiplicative order 101.
    assert (toy.order, TOY_MODULUS) == (101, 607)
    smallest = [a for a in range(2, TOY_MODULUS)
                if _mult_order(a) == TOY_ORDER][:2]
    assert list(map(toy_element, smallest)) == [toy.generator_g,
                                                toy.generator_h]
    assert len(set(toy.elements())) == 101


def _mult_order(a):
    x, k = a, 1
    while x != 1:
        x = x * a % TOY_MODULUS
        k += 1
    return k


def test_prod_order_bit_length(prod):
    assert prod.order.bit_length() >= 252
    # ristretto255 group order
    assert prod.order == 2**252 + 27742317777372353535851937790883648493


def test_generators_have_full_order(toy, prod):
    for ctx in (toy, prod):
        for gen in (ctx.generator_g, ctx.generator_h):
            assert ctx.exp(gen, ctx.order) == ctx.identity
            assert ctx.exp(gen, 1) == gen
            assert gen != ctx.identity
    assert toy.generator_g != toy.generator_h
    assert prod.generator_g != prod.generator_h


def test_toy_group_laws_exhaustive(toy):
    elements = toy.elements()
    for a, b in itertools.product(elements[:25], elements[:25]):
        assert toy.mul(a, b) == toy.mul(b, a)
    for a, b, c in itertools.product(elements[:12], elements[:12],
                                     elements[:12]):
        assert toy.mul(toy.mul(a, b), c) == toy.mul(a, toy.mul(b, c))
    for a in elements:
        assert toy.mul(a, toy.identity) == a


def test_toy_exp_matches_repeated_multiplication(toy):
    g = toy.generator_g
    acc = toy.identity
    for k in range(toy.order):
        assert toy.exp(g, k) == acc
        acc = toy.mul(acc, g)


def test_exp_identities(toy, prod):
    for ctx in (toy, prod):
        g = ctx.generator_g
        assert ctx.exp(g, 0) == ctx.identity
        assert ctx.exp(ctx.identity, 5) == ctx.identity
        a, b = 7, 13
        assert ctx.exp(ctx.exp(g, a), b) == ctx.exp(g, a * b % ctx.order)


def test_toy_exp_chain_value(toy):
    # 7^(7*13 mod 101) mod 607
    assert toy.exp(toy.exp(toy.generator_g, 7), 13) == toy_element(574)


def test_toy_roundtrip_exhaustive(toy):
    for a in toy.elements():
        assert toy.decode_element(a) == a
    for k in range(toy.order):
        assert toy.decode_scalar(toy.encode_scalar(k)) == k


def test_prod_roundtrip_random(prod, rng):
    for _ in range(1000):
        a = prod.exp(prod.generator_g, prod.random_scalar_nonzero(rng))
        assert prod.decode_element(a) == a
    assert prod.decode_element(prod.identity) == prod.identity


def test_decode_rejects_non_canonical(toy, prod):
    with pytest.raises(ValueError):
        toy.decode_element((607).to_bytes(2, "big"))  # out of field
    with pytest.raises(ValueError):
        toy.decode_element((2).to_bytes(2, "big"))  # not in the subgroup
    with pytest.raises(ValueError):
        toy.decode_element(b"\x00")  # wrong length
    with pytest.raises(ValueError):
        toy.decode_scalar((101).to_bytes(2, "little"))
    with pytest.raises(ValueError):
        prod.decode_scalar(b"\xff" * 32)  # >= group order
    with pytest.raises(ValueError):
        prod.decode_element(b"\xff" * 32)
    # Bit 255 set: a second spelling of a valid element that libsodium
    # 1.0.18 accepts, and RFC 9496 4.3.1 refuses (s < p).
    rng = random.Random(14)
    keys = [prod.exp(prod.generator_g, prod.random_scalar_nonzero(rng))
            for _ in range(8)]
    for a in (prod.generator_g, prod.generator_h, prod.identity, *keys):
        alias = ristretto_alias(a)
        assert prod.is_element(a) and not prod.is_element(alias)
        with pytest.raises(ValueError, match="not a group element"):
            prod.decode_element(alias)
        with pytest.raises(ValueError, match="not a group element"):
            wire.decode_element(prod, wire.encode_element(prod, alias))
    for ctx in (toy, prod):
        # Not read as bytes(n), n zero bytes: on prod, the identity.
        with pytest.raises(TypeError):
            ctx.decode_element(ctx.element_size)
        for k in (-1, ctx.order):
            with pytest.raises(ValueError, match="out of range"):
                ctx.encode_scalar(k)
        for size in (ctx.scalar_size - 1, ctx.scalar_size + 1):
            with pytest.raises(ValueError, match="wrong length"):
                ctx.decode_scalar(bytes(size))


def test_scalars_are_exact_ints(toy, prod):
    # True == 1, but a look-alike is no scalar: it would encode as 01 00...
    for ctx in (toy, prod):
        assert ctx.is_scalar(1) and not ctx.is_scalar(True)
        with pytest.raises(ValueError, match="out of range"):
            ctx.encode_scalar(True)


def test_hash_to_scalar_contract(toy, prod):
    for ctx in (toy, prod):
        a = ctx.hash_to_scalar(b"tag", [b"ab", b"c"])
        assert a == ctx.hash_to_scalar(b"tag", [b"ab", b"c"])
        assert 0 <= a < ctx.order
        assert a != ctx.hash_to_scalar(b"tag", [b"a", b"bc"])
        assert a != ctx.hash_to_scalar(b"gat", [b"ab", b"c"])


# FIPS 180-2, appendix C.1: SHA-512 of the one-block message "abc".
SHA512_ABC = bytes.fromhex(
    "ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
    "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f")


def test_sha512_known_answer():
    assert groups._sha512(b"abc") == SHA512_ABC
    # Lengths around SHA-512's 128-byte block and its 112-byte padding
    # limit, against the standard library's implementation.
    data = bytes(range(256)) * 4
    for size in (0, 111, 112, 127, 128, 129, 1000):
        assert groups._sha512(data[:size]) == \
            hashlib.sha512(data[:size]).digest(), size


def test_hash_to_scalar_is_one_sha512_on_both_backends(toy, prod):
    # Both backends reduce the same digest, each by its own order.
    for tag, parts in ((b"tag", [b"ab", b"c"]), (b"", []),
                       (b"LTRAS/c", [bytes(32)] * 9)):
        digest = int.from_bytes(
            hashlib.sha512(frame_parts(tag, parts)).digest(), "big")
        assert toy.hash_to_scalar(tag, parts) == digest % toy.order
        assert prod.hash_to_scalar(tag, parts) == digest % prod.order
    # h is the hash-to-group image of the same SHA-512.
    assert prod.generator_h == groups._point(
        "crypto_core_ristretto255_from_hash",
        hashlib.sha512(H_DERIVATION_STRING).digest())


def test_toy_hash_of_ring_in_range(toy, rng):
    keys = [toy.exp(toy.generator_g, k) for k in (2, 3, 7)]
    digest = toy.hash_to_scalar(b"d", keys)
    assert 0 <= digest < 101


@settings(max_examples=60)
@given(st.lists(st.binary(max_size=24), max_size=6),
       st.lists(st.binary(max_size=24), max_size=6))
def test_framing_is_injective(parts_a, parts_b):
    if parts_a != parts_b:
        assert frame_parts(b"t", parts_a) != frame_parts(b"t", parts_b)


def test_random_scalar_nonzero(toy):
    rng = random.Random(0)
    seen = {toy.random_scalar_nonzero(rng) for _ in range(500)}
    assert 0 not in seen
    assert all(1 <= k < toy.order for k in seen)
    assert len(seen) > 80  # covers most of Z_101^*


def test_keygen_distinct_under_live_randomness(prod):
    from ringadapt import keygen
    assert keygen(prod).sk != keygen(prod).sk


@pytest.fixture
def no_sonames(monkeypatch):
    """ctypes.CDLL fails on every name except "found-by-search", which
    loads the real library; returns the names find_library was asked for."""
    real_cdll = ctypes.CDLL
    tried = []

    def cdll(name, *args, **kwargs):
        tried.append(name)
        if name != "found-by-search":
            raise OSError(f"no {name}")
        return real_cdll("libsodium.so.23")

    searched = []

    def find_library(name):
        searched.append(name)
        return "found-by-search"

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(ctypes.util, "find_library", find_library)
    return tried, searched


def test_sodium_loader_falls_back_to_library_search(no_sonames, prod):
    tried, searched = no_sonames
    lib = groups._sodium.__wrapped__()  # past the cache: load afresh
    assert tried == ["libsodium.so.23", "libsodium.so", "found-by-search"]
    assert searched == ["sodium"]
    assert lib.crypto_core_ristretto255_is_valid_point(prod.generator_g) == 1
    # Every signature is declared: a non-bytes pointer is refused.
    with pytest.raises(ctypes.ArgumentError):
        lib.crypto_core_ristretto255_is_valid_point(bytearray(32))


@pytest.mark.parametrize("found", [None, "missing-library"])
def test_sodium_loader_reports_missing_library(no_sonames, monkeypatch,
                                               found):
    monkeypatch.setattr(ctypes.util, "find_library", lambda name: found)
    with pytest.raises(RuntimeError,
                       match="^libsodium shared library not found$"):
        groups._sodium.__wrapped__()


def test_prod_guards_refuse_bad_elements_in_process(prod):
    g = prod.generator_g
    short, non_point = g[:31], b"\xff" * 32
    # The length is checked before libsodium reads 32 bytes behind it.
    for call in (lambda: prod.mul(short, g), lambda: prod.exp(short, 2)):
        with pytest.raises(ValueError,
                           match="^ristretto255 element must be 32 bytes$"):
            call()
    # libsodium refuses a 32-byte non-point with a nonzero status.
    for call, name in ((lambda: prod.mul(non_point, g),
                        "crypto_core_ristretto255_add"),
                       (lambda: prod.exp(non_point, 2),
                        "crypto_scalarmult_ristretto255")):
        with pytest.raises(ValueError, match=f"^{name} rejected its input$"):
            call()


# Bad elements for prod: each call must return False or raise ValueError,
# not crash inside libsodium, which reads 32 bytes behind every element
# pointer.
NON_POINT_CALLS = """
from ringadapt import setup_group
from ringadapt.schnorr import PlainSignature, verify
prod = setup_group("prod")
g = prod.generator_g
calls = [lambda: verify(prod, 5, PlainSignature(1, 1), b"m"),
         lambda: prod.exp(5, 2), lambda: prod.exp(g[:3], 2),
         lambda: prod.exp(g[:31], 2), lambda: prod.exp(bytearray(g), 2),
         lambda: prod.mul(g, 5), lambda: prod.mul(g[:3], g),
         lambda: prod.mul(b"\\xff" * 32, g),
         lambda: prod.exp(b"\\xff" * 32, 2)]
for call in calls:
    try:
        print(call())
    except ValueError:
        print("ValueError")
"""


def test_prod_rejects_non_points_without_crashing():
    # A child process, so that a crash in libsodium fails only this test.
    src = Path(__file__).resolve().parent.parent / "src"
    result = subprocess.run([sys.executable, "-c", NON_POINT_CALLS],
                            env=dict(os.environ, PYTHONPATH=str(src)),
                            capture_output=True, text=True, timeout=60)
    # schnorr.verify checks its key first, as on toy.
    assert (result.returncode, result.stdout.split()) == \
        (0, ["False"] + ["ValueError"] * 8), result.stderr
