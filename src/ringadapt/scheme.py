"""Linkable threshold ring adaptor signatures.

A signer who controls t consecutive keys of an n-key ring produces a
pre-signature bound to a statement pair W = (g^w, h^w).  Only the holder
of the witness w can complete it into a ledger-valid signature, and the
(pre-signature, signature) pair reveals w to anyone.  Each signature
carries per-key link tags h^sk, so two signatures spending any common
key are publicly linkable without identifying the key.

Objects exchanged on the wire:

* pre-signature  (z~, C, TAG): one masked scalar, n challenge scalars,
  t link tags;
* signature      (z,  C, TAG): same shape, z = z~ + w.

The algebra (all indices mod n, all scalar arithmetic mod p):

* d = H(PK) over the ordered key list ("rogue-key" digest);
* y_i = prod_{k=i..i+t-1} pk_k^d is window i's key, l = prod_k tag_k^d;
* R = g^s * W1 * prod_i y_i^{c_i} and T = h^s * W2 * l^{sum(C)};
* signing takes s = r and c_j = 0, then c = H(PK, R, T, m),
  c_j = c - sum_{i!=j} c_i and z~ = r - c_j * d * sum(window secrets);
* verifying takes s = z~ (or s = z and no W) and checks sum(C) == c.

Both compute prod_i y_i^{c_i} folded, as prod_k pk_k^{d*e_k} where e_k
sums c_i over the t windows holding key k, and l^{sum(C)} as
(prod_k tag_k)^{d*sum(C)}: n+3 scalar multiplications and n+t point adds,
two more adds when W is given (presign, preverify).
"""

from __future__ import annotations

from functools import cached_property, reduce
from typing import Optional

from .groups import _SYSTEM, Element, GroupContext, Record, require_exact

DOMAIN_RING_DIGEST = b"LTRAS/d"
DOMAIN_CHALLENGE = b"LTRAS/c"


class KeyMismatchError(ValueError):
    """A supplied secret key does not match its ring position."""


class KeyPair(Record):
    sk: int
    pk: Element


class StatementPair(Record):
    """The hard-relation statement (W1, W2) = (g^w, h^w)."""

    w1: Element
    w2: Element


class Ring:
    """Ordered list of distinct public keys plus its cached digest d.
    ``encodings`` is ``keys``, kept because perfbench/tracing.py reads it."""

    __slots__ = ("keys", "encodings", "d")

    def __init__(self, ctx: GroupContext, keys):
        keys = tuple(keys)
        if not keys:
            raise ValueError("ring needs at least one key")
        require_exact("ring key", keys)
        if len(set(keys)) != len(keys):
            # Duplicate keys would make distinct windows aggregate to the
            # same value, silently weakening linkability.  Checked before
            # the keys, so a refused ring costs no group operation.
            first = {}
            for i, key in enumerate(keys):
                if first.setdefault(key, i) != i:
                    raise ValueError(
                        f"duplicate ring keys {first[key]} and {i}")
        for i, key in enumerate(keys):
            if not ctx.is_nonidentity(key):
                raise ValueError(f"ring key {i} is not a group element other "
                                 "than the identity")
        self.keys = self.encodings = keys
        self.d = ctx.hash_to_scalar(DOMAIN_RING_DIGEST, keys)

    def __len__(self) -> int:
        return len(self.keys)

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.keys == other.keys

    def __hash__(self) -> int:
        return hash(self.keys)


class SignerWindow:
    """A run of t consecutive ring positions, mod n, whose secrets the
    signer holds: any of the n windows verification aggregates.
    ``tags`` holds the window's link tags h^sk in window order.
    """

    __slots__ = ("ring", "start", "secrets", "width", "tags")

    def __init__(self, ctx: GroupContext, ring: Ring, start: int, secrets):
        secrets = tuple(secrets)
        n = len(ring)
        t = len(secrets)
        if not 1 <= t <= n:
            raise ValueError(f"window width {t} out of range for ring of {n}")
        if not 0 <= start < n:
            raise ValueError(f"window start {start} out of range")
        for i, sk in enumerate(secrets):
            if not 1 <= sk < ctx.order:
                raise ValueError("secret key out of range")
            if ctx.exp(ctx.generator_g, sk) != ring.keys[(start + i) % n]:
                raise KeyMismatchError(
                    f"secret at window offset {i} does not open ring key "
                    f"{(start + i) % n}"
                )
        self.ring = ring
        self.start = start
        self.secrets = secrets
        self.width = t
        self.tags = tuple(ctx.exp(ctx.generator_h, sk) for sk in secrets)


class _Signed:
    """What a pre-signature and a signature share: challenges and tags
    kept as tuples, so ``ext`` can compare the two, and the tag set."""

    def __post_init__(self):
        object.__setattr__(self, "challenges", tuple(self.challenges))
        object.__setattr__(self, "tags", tuple(self.tags))

    @cached_property
    def tag_set(self) -> frozenset:
        return frozenset(self.tags)


class PreSignature(_Signed, Record):
    z_tilde: int
    challenges: tuple  # c_0 .. c_{n-1}
    tags: tuple        # window order, one per signing key


class Signature(_Signed, Record):
    """The constructor takes exact ints and elements alone, as a ledger
    admits them."""

    z: int
    challenges: tuple
    tags: tuple

    def __post_init__(self):
        super().__post_init__()
        require_exact("signature scalar", (self.z, *self.challenges), (int,))
        require_exact("link tag", self.tags)


def keygen(ctx: GroupContext, rng=_SYSTEM) -> KeyPair:
    """Sample sk uniform in Z_p^* and set pk = g^sk."""
    sk = ctx.random_scalar_nonzero(rng)
    return KeyPair(sk, ctx.exp(ctx.generator_g, sk))


def distinct_keypairs(ctx: GroupContext, count: int, rng=_SYSTEM
                      ) -> list[KeyPair]:
    """``count`` key pairs with distinct public keys, in draw order.

    Resamples on a duplicate key; collisions are routine in a small group,
    such as the tests' order-101 toy group (``tests/toygroup.py``).
    """
    if count >= ctx.order:   # there are order - 1 keys g^sk with sk != 0
        raise ValueError(f"{count} keys asked; the group has {ctx.order - 1}")
    members = []
    seen = set()
    while len(members) < count:
        kp = keygen(ctx, rng)
        if kp.pk not in seen:
            seen.add(kp.pk)
            members.append(kp)
    return members


def gen_r(ctx: GroupContext, rng=_SYSTEM) -> tuple[StatementPair, int]:
    """Sample a statement/witness pair ((g^w, h^w), w) of the hard relation."""
    w = ctx.random_scalar_nonzero(rng)
    return StatementPair(ctx.exp(ctx.generator_g, w),
                         ctx.exp(ctx.generator_h, w)), w


def verify_relation(ctx: GroupContext, statement: StatementPair, w: int) -> bool:
    """True iff W1 = g^w and W2 = h^w."""
    return (statement.w1 == ctx.exp(ctx.generator_g, w)
            and statement.w2 == ctx.exp(ctx.generator_h, w))


def _commit(ctx: GroupContext, ring: Ring, base: int, challenges, tags,
            statement: Optional[StatementPair], message: bytes
            ) -> tuple[Element, Element, int]:
    """R = g^base * prod_i y_i^{c_i} and T = h^base * l^{sum(C)}, each
    times its statement component if given, and c = H(PK, R, T, m).
    Folded: key k's exponent d*e_k sums c_i over windows i = k-t+1..k."""
    p = ctx.order
    d = ring.d
    t = len(tags)
    e = sum(challenges[-t:])  # the windows holding key n-1
    exponents = []
    for k in range(len(ring)):
        e += challenges[k] - challenges[k - t]
        exponents.append(d * e % p)
    commit_g = ctx.mul(ctx.exp(ctx.generator_g, base),
                       reduce(ctx.mul, map(ctx.exp, ring.keys, exponents)))
    commit_h = ctx.mul(ctx.exp(ctx.generator_h, base),
                       ctx.exp(reduce(ctx.mul, tags), d * sum(challenges) % p))
    if statement is not None:
        commit_g = ctx.mul(commit_g, statement.w1)
        commit_h = ctx.mul(commit_h, statement.w2)
    parts = [*ring.keys, commit_g, commit_h, message]
    return commit_g, commit_h, ctx.hash_to_scalar(DOMAIN_CHALLENGE, parts)


def _presign_body(ctx: GroupContext, ring: Ring, window: SignerWindow,
                  message: bytes, statement: StatementPair, nonce: int,
                  decoy_challenges: dict[int, int]) -> PreSignature:
    """Presign from explicit randomness.

    ``decoy_challenges`` maps every ring index but the window start to c_i.
    """
    p = ctx.order
    j = window.start
    # With c_j = 0 the signing equation is the verifier's.
    challenges = [0 if i == j else decoy_challenges[i]
                  for i in range(len(ring))]
    challenge = _commit(ctx, ring, nonce, challenges, window.tags, statement,
                        message)[2]
    challenges[j] = (challenge - sum(challenges)) % p
    z_tilde = (nonce - challenges[j] * ring.d * sum(window.secrets)) % p
    return PreSignature(z_tilde, tuple(challenges), window.tags)


def presign(ctx: GroupContext, ring: Ring, window: SignerWindow,
            message: bytes, statement: StatementPair, rng=_SYSTEM
            ) -> PreSignature:
    """Produce a pre-signature on ``message`` bound to ``statement``."""
    if window.ring is not ring and window.ring != ring:
        raise ValueError("window was built for a different ring")
    nonce = ctx.random_scalar_nonzero(rng)
    # The nonce is drawn first, then the decoys in ring order.  Decoys are
    # uniform over Z_p, as the window's own challenge (a difference) is,
    # so a zero challenge does not mark the signer.
    decoys = {i: rng.randrange(ctx.order)
              for i in range(len(ring)) if i != window.start}
    return _presign_body(ctx, ring, window, message, statement, nonce, decoys)


def _verifies(ctx: GroupContext, ring: Ring, z: int, challenges, tags,
              t: int, statement: Optional[StatementPair],
              message: bytes) -> bool:
    """The check PreVrfy and Vrfy share: the shape, then the statement
    when given, then sum(C) == c with s = z."""
    n = len(ring)
    statement_parts = () if statement is None else (statement.w1, statement.w2)
    return (1 <= t <= n and len(challenges) == n and len(tags) == t
            and ctx.is_scalar(z) and all(map(ctx.is_scalar, challenges))
            and all(map(ctx.is_nonidentity, (*tags, *statement_parts)))
            and sum(challenges) % ctx.order == _commit(
                ctx, ring, z, challenges, tags, statement, message)[2])


def preverify(ctx: GroupContext, ring: Ring, psig: PreSignature, t: int,
              message: bytes, statement: StatementPair) -> bool:
    """Deterministic pre-signature check; malformed input yields False."""
    return _verifies(ctx, ring, psig.z_tilde, psig.challenges, psig.tags, t,
                     statement, message)


def adapt(ctx: GroupContext, psig: PreSignature, w: int) -> Signature:
    """Complete a pre-signature with the witness: z = z~ + w."""
    # O(1): only z is checked, as the constructor checks it; a ledger
    # checks psig's challenges and tags when it rebuilds the signature.
    z = (psig.z_tilde + w) % ctx.order
    require_exact("signature scalar", (z,), (int,))
    return Signature._computed(z, psig.challenges, psig.tags)


def verify(ctx: GroupContext, ring: Ring, sig: Signature, t: int,
           message: bytes) -> bool:
    """Deterministic full-signature check; malformed input yields False."""
    return _verifies(ctx, ring, sig.z, sig.challenges, sig.tags, t, None,
                     message)


def ext(ctx: GroupContext, statement: StatementPair, psig: PreSignature,
        sig: Signature) -> Optional[int]:
    """Recover the witness from a matching (pre-signature, signature) pair.

    Returns None when the pair is inconsistent or the candidate w = z - z~
    does not open both statement components.
    """
    if psig.challenges != sig.challenges or psig.tags != sig.tags:
        return None
    w = (sig.z - psig.z_tilde) % ctx.order
    if not verify_relation(ctx, statement, w):
        return None
    return w


def link(sig_a, sig_b) -> bool:
    """True iff the two signatures share at least one link tag.

    Tags are deterministic per key (h^sk), so sharing a tag means sharing
    a signing key.  Symmetric; accepts signatures or pre-signatures.
    """
    return not sig_a.tag_set.isdisjoint(sig_b.tag_set)
