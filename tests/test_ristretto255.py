"""The prod backend against the pure-Python RFC 9496 reference in
``tests/ristretto255.py``: generators, the decoder's accept/refuse rule,
scalar multiplication, point addition and the element derivation must
give the same bytes.  A disagreement is a defect in ``src/``."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

import ristretto255 as ref
from conftest import ristretto_alias
from ringadapt import groups
from ringadapt.groups import H_DERIVATION_STRING


def _agrees_on_decoding(prod, data):
    point = ref.decode(data)
    assert (point is not None) == prod.is_element(data), data.hex()
    if point is not None:   # an accepted encoding is canonical
        assert ref.encode(point) == data


def test_constants_and_generators(prod):
    assert ref.ORDER == prod.order
    assert ref.SQRT_M1 ** 2 % ref.P == ref.P - 1
    assert ref.SQRT_AD_MINUS_ONE ** 2 % ref.P == (-ref.D - 1) % ref.P
    assert ref.SQRT_AD_MINUS_ONE % 2 == 1
    assert ref.encode(ref.base_point()) == prod.generator_g
    assert ref.generator_h(H_DERIVATION_STRING) == prod.generator_h
    assert ref.encode(ref.IDENTITY) == prod.identity


def test_decoder_accepts_what_prod_accepts(prod):
    rng = random.Random(9496)
    points = [prod.exp(prod.generator_g, rng.randrange(1, prod.order))
              for _ in range(40)]
    cases = [rng.randbytes(32) for _ in range(400)]
    cases += points
    cases += map(ristretto_alias, points)
    cases += [prod.identity, ristretto_alias(prod.identity),
              prod.generator_g, prod.generator_h]
    # s >= p (all below 2^255), and the odd s = p - s' of canonical s'.
    cases += [(ref.P + i).to_bytes(32, "little") for i in range(19)]
    cases += [(2**255 - 1).to_bytes(32, "little")]
    cases += [(ref.P - int.from_bytes(a, "little")).to_bytes(32, "little")
              for a in points]
    cases += [(int.from_bytes(rng.randbytes(32), "little") % ref.P | 1)
              .to_bytes(32, "little") for _ in range(20)]
    accepted = 0
    for data in cases:
        _agrees_on_decoding(prod, data)
        accepted += prod.is_element(data)
    assert accepted >= len(points) + 4   # the refusals are not all there is


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.binary(min_size=32, max_size=32))
def test_decoder_agrees_on_drawn_bytes(data):
    _agrees_on_decoding(groups.setup_group("prod"), data)


def test_group_operations_agree(prod):
    rng = random.Random(255)
    g = prod.generator_g
    elements = [prod.exp(g, rng.randrange(1, prod.order)) for _ in range(8)]
    scalars = [rng.randrange(prod.order) for _ in range(8)]
    # exp: g's fixed-base path and the generic one, with 0, p and p + 5,
    # and the identity, which libsodium cannot output.
    exps = [(a, k) for a in (g, *elements[:4]) for k in scalars[:4]]
    exps += [(a, k) for a in (g, elements[0], prod.identity)
             for k in (0, 1, prod.order, prod.order + 5)]
    for a, k in exps:
        assert prod.exp(a, k) == ref.encode(
            ref.scalar_mult(ref.decode(a), k)), (a.hex(), k)
    inverse = prod.exp(elements[0], prod.order - 1)
    adds = list(zip(elements, reversed(elements)))
    adds += [(elements[0], elements[0]), (elements[0], inverse),
             (prod.identity, elements[1]), (prod.identity, prod.identity)]
    for a, b in adds:
        assert prod.mul(a, b) == ref.encode(
            ref.add(ref.decode(a), ref.decode(b))), (a.hex(), b.hex())
    for data in [rng.randbytes(64) for _ in range(40)] + [bytes(64),
                                                          b"\xff" * 64]:
        assert groups._point("crypto_core_ristretto255_from_hash",
                             data) == ref.encode(ref.from_uniform_bytes(data))
