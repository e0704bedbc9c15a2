"""Single-key Schnorr-style adaptor signatures.

The counterpart scheme for the plain chain of the atomic swap.  It runs
over the same group as the ring scheme and consumes only the first
statement component W1 = g^w, so one witness w completes pre-signatures
on both chains.

A pre-signature is (c, s~) with s~ = r + c*sk and c = H(pk, g^r * W1, m);
adapting adds the witness to the response: s = s~ + w.
"""

from __future__ import annotations

from typing import Optional

from .groups import Element, GroupContext, Record, require_exact
from .scheme import KeyPair

DOMAIN_CHALLENGE = b"schnorr-adaptor/c"


class PlainPreSignature(Record):
    challenge: int        # c
    masked_response: int  # s~


class PlainSignature(Record):
    challenge: int  # c
    response: int   # s

    def __post_init__(self):
        require_exact("signature scalar", (self.challenge, self.response),
                      (int,))


def _challenge(ctx: GroupContext, pk: Element, commit: Element,
               message: bytes) -> int:
    return ctx.hash_to_scalar(
        DOMAIN_CHALLENGE,
        [ctx.encode_element(pk), ctx.encode_element(commit), message],
    )


def presign(ctx: GroupContext, keypair: KeyPair, message: bytes,
            statement_g: Element, rng=None) -> PlainPreSignature:
    """Pre-sign ``message`` bound to the statement W1 = ``statement_g``."""
    r = ctx.random_scalar_nonzero(rng)
    commit = ctx.mul(ctx.exp(ctx.generator_g, r), statement_g)
    c = _challenge(ctx, keypair.pk, commit, message)
    return PlainPreSignature(c, (r + c * keypair.sk) % ctx.order)


def _recommit(ctx: GroupContext, pk: Element, c: int, s: int) -> Element:
    # g^s * pk^(-c); equals g^r (+W1 for a pre-signature) when honest.
    return ctx.mul(ctx.exp(ctx.generator_g, s),
                   ctx.exp(pk, (ctx.order - c) % ctx.order))


def preverify(ctx: GroupContext, pk: Element, psig: PlainPreSignature,
              message: bytes, statement_g: Element) -> bool:
    if not (ctx.is_scalar(psig.challenge)
            and ctx.is_scalar(psig.masked_response)
            and ctx.is_nonidentity(pk) and ctx.is_nonidentity(statement_g)):
        return False
    commit = ctx.mul(_recommit(ctx, pk, psig.challenge, psig.masked_response),
                     statement_g)
    return psig.challenge == _challenge(ctx, pk, commit, message)


def adapt(ctx: GroupContext, psig: PlainPreSignature, w: int) -> PlainSignature:
    return PlainSignature(psig.challenge,
                          (psig.masked_response + w) % ctx.order)


def verify(ctx: GroupContext, pk: Element, sig: PlainSignature,
           message: bytes) -> bool:
    if not (ctx.is_scalar(sig.challenge) and ctx.is_scalar(sig.response)
            and ctx.is_nonidentity(pk)):
        return False
    commit = _recommit(ctx, pk, sig.challenge, sig.response)
    return sig.challenge == _challenge(ctx, pk, commit, message)


def ext(ctx: GroupContext, statement_g: Element, psig: PlainPreSignature,
        sig: PlainSignature) -> Optional[int]:
    """Recover w = s - s~, or None if the pair does not open W1."""
    if psig.challenge != sig.challenge:
        return None
    w = (sig.response - psig.masked_response) % ctx.order
    if ctx.exp(ctx.generator_g, w) != statement_g:
        return None
    return w
