"""Independent straight-line oracle over either group the tests use.

Deliberately redundant with the library: every quantity is computed
with the group's own arithmetic and term-by-term products, following the
scheme equations literally, so the tests can compare the main
implementation's intermediates against a second derivation that shares
no code with it.  Each function takes its group first: ``TOY``, the
order-101 subgroup of Z_607^* on plain residues, or ``RISTRETTO``,
ristretto255 on the points of the RFC 9496 reference in
``ristretto255.py``.  Elements come in and go out as the library writes
them, canonical encodings; the arithmetic in between is on the group's
values, and each group reduces its exponents mod p itself.
"""

import hashlib
import struct

import ristretto255 as ref


class Toy:
    """The order-101 subgroup of Z_607^*: a value is its residue,
    written as 2 big-endian bytes."""

    order, g, h, identity = 101, 7, 8, 1
    decode = staticmethod(lambda a: int.from_bytes(a, "big"))
    encode = staticmethod(lambda x: x.to_bytes(2, "big"))
    mul = staticmethod(lambda x, y: x * y % 607)

    def pow(self, x: int, k: int) -> int:
        return pow(x, k % self.order, 607)


class Ristretto:
    """ristretto255: a value is a point of the reference, written as its
    32-byte encoding.  h is derived from SHA-512 of the scheme's
    nothing-up-my-sleeve string."""

    order = ref.ORDER
    g = ref.base_point()
    h = ref.from_uniform_bytes(
        hashlib.sha512(b"LTRAS-generator-h-v1").digest())
    identity = ref.IDENTITY
    decode = staticmethod(ref.decode)
    encode = staticmethod(ref.encode)
    mul = staticmethod(ref.add)

    def pow(self, x, k: int):
        return ref.scalar_mult(x, k % self.order)


TOY = Toy()
RISTRETTO = Ristretto()


def identity(group) -> bytes:
    """g^0 = h^0: no tag or statement component may be it."""
    return group.encode(group.identity)


def hash_scalar(group, tag: bytes, parts) -> int:
    blob = struct.pack(">Q", len(tag)) + tag
    for part in parts:
        blob += struct.pack(">Q", len(part)) + part
    return int.from_bytes(hashlib.sha512(blob).digest(), "big") % group.order


def ring_digest(group, pks) -> int:
    return hash_scalar(group, b"LTRAS/d", pks)


def challenge_hash(group, pks, commit_g, commit_h, message: bytes) -> int:
    parts = [*pks, group.encode(commit_g), group.encode(commit_h), message]
    return hash_scalar(group, b"LTRAS/c", parts)


def window_products(group, pks, t: int, d: int):
    n = len(pks)
    out = []
    for i in range(n):
        acc = group.identity
        for off in range(t):
            pk = group.decode(pks[(i + off) % n])
            acc = group.mul(acc, group.pow(pk, d))
        out.append(acc)
    return out


def tag_product(group, tags, d: int):
    acc = group.identity
    for tag in tags:
        acc = group.mul(acc, group.pow(group.decode(tag), d))
    return acc


def presign(group, pks, start, window_secrets, message, w1, w2, nonce,
            decoy_challenges):
    """Full presign trace from explicit randomness.

    ``decoy_challenges`` maps every index except ``start`` to its
    challenge.  The secrets need not open the window's keys.  Returns a
    dict of every intermediate plus the pre-signature triple.
    """
    n = len(pks)
    t = len(window_secrets)
    p = group.order
    tags = [group.encode(group.pow(group.h, sk)) for sk in window_secrets]
    d = ring_digest(group, pks)
    products = window_products(group, pks, t, d)
    aggregate = tag_product(group, tags, d)
    commit_g = group.mul(group.pow(group.g, nonce), group.decode(w1))
    commit_h = group.mul(group.pow(group.h, nonce), group.decode(w2))
    for i in range(n):
        if i != start:
            commit_g = group.mul(commit_g, group.pow(products[i],
                                                     decoy_challenges[i]))
            commit_h = group.mul(commit_h, group.pow(aggregate,
                                                     decoy_challenges[i]))
    c = challenge_hash(group, pks, commit_g, commit_h, message)
    c_window = (c - sum(decoy_challenges.values())) % p
    z_tilde = (nonce - c_window * d * sum(window_secrets)) % p
    challenges = [c_window if i == start else decoy_challenges[i]
                  for i in range(n)]
    return {
        "tags": tags,
        "d": d,
        "commit_g": group.encode(commit_g),
        "commit_h": group.encode(commit_h),
        "challenge": c,
        "window_challenge": c_window,
        "z_tilde": z_tilde,
        "challenges": challenges,
    }


def _verifies(group, pks, s, challenges, tags, t, message, statement):
    """sum(C) == H(PK, R, T, m) for R = g^s * prod_i y_i^{c_i} and
    T = h^s * prod_i l^{c_i}, each times its statement component."""
    if identity(group) in (*tags, *statement):
        return False
    d = ring_digest(group, pks)
    products = window_products(group, pks, t, d)
    aggregate = tag_product(group, tags, d)
    commit_g = group.pow(group.g, s)
    commit_h = group.pow(group.h, s)
    if statement:
        commit_g = group.mul(commit_g, group.decode(statement[0]))
        commit_h = group.mul(commit_h, group.decode(statement[1]))
    for i in range(len(pks)):
        commit_g = group.mul(commit_g, group.pow(products[i], challenges[i]))
        commit_h = group.mul(commit_h, group.pow(aggregate, challenges[i]))
    return sum(challenges) % group.order == challenge_hash(
        group, pks, commit_g, commit_h, message)


def preverify(group, pks, z_tilde, challenges, tags, t, message, w1,
              w2) -> bool:
    return _verifies(group, pks, z_tilde, challenges, tags, t, message,
                     (w1, w2))


def verify(group, pks, z, challenges, tags, t, message) -> bool:
    return _verifies(group, pks, z, challenges, tags, t, message, ())


def plain_presign(group, sk, nonce, message, w1):
    pk = group.pow(group.g, sk)
    commit = group.mul(group.pow(group.g, nonce), group.decode(w1))
    c = hash_scalar(group, b"schnorr-adaptor/c",
                    [group.encode(pk), group.encode(commit), message])
    return c, (nonce + c * sk) % group.order
