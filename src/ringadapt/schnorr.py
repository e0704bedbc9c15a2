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
    return ctx.hash_to_scalar(DOMAIN_CHALLENGE, [pk, commit, message])


def presign(ctx: GroupContext, keypair: KeyPair, message: bytes,
            statement_g: Element, rng=None) -> PlainPreSignature:
    """Pre-sign ``message`` bound to the statement W1 = ``statement_g``."""
    r = ctx.random_scalar_nonzero(rng)
    commit = ctx.mul(ctx.exp(ctx.generator_g, r), statement_g)
    c = _challenge(ctx, keypair.pk, commit, message)
    return PlainPreSignature(c, (r + c * keypair.sk) % ctx.order)


def _verifies(ctx: GroupContext, pk: Element, c: int, s: int,
              statement_g: Optional[Element], message: bytes) -> bool:
    """The check preverify and verify share: g^s * pk^(-c), times W1 when
    given, equals g^r (+W1) when honest and must hash back to c."""
    if not (ctx.is_scalar(c) and ctx.is_scalar(s) and ctx.is_nonidentity(pk)
            and (statement_g is None or ctx.is_nonidentity(statement_g))):
        return False
    commit = ctx.mul(ctx.exp(ctx.generator_g, s),
                     ctx.exp(pk, (ctx.order - c) % ctx.order))
    if statement_g is not None:
        commit = ctx.mul(commit, statement_g)
    return c == _challenge(ctx, pk, commit, message)


def preverify(ctx: GroupContext, pk: Element, psig: PlainPreSignature,
              message: bytes, statement_g: Element) -> bool:
    return _verifies(ctx, pk, psig.challenge, psig.masked_response,
                     statement_g, message)


def adapt(ctx: GroupContext, psig: PlainPreSignature, w: int) -> PlainSignature:
    return PlainSignature(psig.challenge,
                          (psig.masked_response + w) % ctx.order)


def verify(ctx: GroupContext, pk: Element, sig: PlainSignature,
           message: bytes) -> bool:
    return _verifies(ctx, pk, sig.challenge, sig.response, None, message)


def ext(ctx: GroupContext, statement_g: Element, psig: PlainPreSignature,
        sig: PlainSignature) -> Optional[int]:
    """Recover w = s - s~, or None if the pair does not open W1."""
    if psig.challenge != sig.challenge:
        return None
    w = (sig.response - psig.masked_response) % ctx.order
    if ctx.exp(ctx.generator_g, w) != statement_g:
        return None
    return w
