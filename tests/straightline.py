"""Independent straight-line oracle over the order-101 toy group.

Deliberately redundant with the library: every quantity is computed with
raw modular arithmetic and term-by-term products, following the scheme
equations literally, so the tests can compare the main implementation's
intermediates against a second derivation that shares no code with it.
Elements come in and go out as the library writes them, 2-byte big-endian
residues; the arithmetic in between is on the residues.
"""

import hashlib
import struct

MODULUS = 607
ORDER = 101
G = 7
H = 8


def element(x: int) -> bytes:
    return x.to_bytes(2, "big")


def residue(a: bytes) -> int:
    return int.from_bytes(a, "big")


IDENTITY = element(1)  # g^0 = h^0: no tag or statement component may be it


def hash_scalar(tag: bytes, parts) -> int:
    blob = struct.pack(">Q", len(tag)) + tag
    for part in parts:
        blob += struct.pack(">Q", len(part)) + part
    return int.from_bytes(hashlib.sha512(blob).digest(), "big") % ORDER


def ring_digest(pks) -> int:
    return hash_scalar(b"LTRAS/d", pks)


def challenge_hash(pks, commit_g: int, commit_h: int, message: bytes) -> int:
    parts = [*pks, element(commit_g), element(commit_h), message]
    return hash_scalar(b"LTRAS/c", parts)


def window_products(pks, t: int, d: int):
    n = len(pks)
    out = []
    for i in range(n):
        acc = 1
        for off in range(t):
            pk = residue(pks[(i + off) % n])
            acc = acc * pow(pk, d, MODULUS) % MODULUS
        out.append(acc)
    return out


def tag_product(tags, d: int) -> int:
    acc = 1
    for tag in tags:
        acc = acc * pow(residue(tag), d, MODULUS) % MODULUS
    return acc


def presign(pks, start, window_secrets, message, w1, w2, nonce,
            decoy_challenges):
    """Full presign trace from explicit randomness.

    ``decoy_challenges`` maps every index except ``start`` to its
    challenge.  Returns a dict of every intermediate plus the
    pre-signature triple.
    """
    n = len(pks)
    t = len(window_secrets)
    tags = [element(pow(H, sk, MODULUS)) for sk in window_secrets]
    d = ring_digest(pks)
    products = window_products(pks, t, d)
    aggregate = tag_product(tags, d)
    commit_g = pow(G, nonce, MODULUS) * residue(w1) % MODULUS
    commit_h = pow(H, nonce, MODULUS) * residue(w2) % MODULUS
    for i in range(n):
        if i != start:
            commit_g = commit_g * pow(products[i], decoy_challenges[i],
                                      MODULUS) % MODULUS
            commit_h = commit_h * pow(aggregate, decoy_challenges[i],
                                      MODULUS) % MODULUS
    c = challenge_hash(pks, commit_g, commit_h, message)
    c_window = (c - sum(decoy_challenges.values())) % ORDER
    z_tilde = (nonce - c_window * d * sum(window_secrets)) % ORDER
    challenges = [c_window if i == start else decoy_challenges[i]
                  for i in range(n)]
    return {
        "tags": tags,
        "d": d,
        "window_products": [element(y) for y in products],
        "tag_product": element(aggregate),
        "commit_g": element(commit_g),
        "commit_h": element(commit_h),
        "challenge": c,
        "window_challenge": c_window,
        "z_tilde": z_tilde,
        "challenges": challenges,
    }


def preverify(pks, z_tilde, challenges, tags, t, message, w1, w2) -> bool:
    if IDENTITY in (*tags, w1, w2):
        return False
    n = len(pks)
    d = ring_digest(pks)
    products = window_products(pks, t, d)
    aggregate = tag_product(tags, d)
    commit_g = pow(G, z_tilde, MODULUS) * residue(w1) % MODULUS
    commit_h = pow(H, z_tilde, MODULUS) * residue(w2) % MODULUS
    for i in range(n):
        commit_g = commit_g * pow(products[i], challenges[i], MODULUS) % MODULUS
        commit_h = commit_h * pow(aggregate, challenges[i], MODULUS) % MODULUS
    return sum(challenges) % ORDER == challenge_hash(pks, commit_g, commit_h,
                                                     message)


def verify(pks, z, challenges, tags, t, message) -> bool:
    if IDENTITY in tags:
        return False
    d = ring_digest(pks)
    products = window_products(pks, t, d)
    aggregate = tag_product(tags, d)
    commit_g = pow(G, z, MODULUS)
    commit_h = pow(H, z, MODULUS)
    for i in range(len(pks)):
        commit_g = commit_g * pow(products[i], challenges[i], MODULUS) % MODULUS
        commit_h = commit_h * pow(aggregate, challenges[i], MODULUS) % MODULUS
    return sum(challenges) % ORDER == challenge_hash(pks, commit_g, commit_h,
                                                     message)


def plain_presign(sk, nonce, message, w1):
    pk = pow(G, sk, MODULUS)
    commit = pow(G, nonce, MODULUS) * residue(w1) % MODULUS
    c = hash_scalar(b"schnorr-adaptor/c",
                    [element(pk), element(commit), message])
    return c, (nonce + c * sk) % ORDER
