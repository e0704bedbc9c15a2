#!/usr/bin/env python3
"""Single-key adaptor signatures, end to end.

A pre-signature commits to a message *and* to a statement W1 = g^w.  It
cannot be posted to a ledger as-is; only someone who knows the witness w
can complete it, and the completed signature hands w to anyone holding
the pre-signature.  That pair of properties is what later makes the
cross-chain swap atomic.
"""

import random

from ringadapt import gen_r, keygen, schnorr, setup_group, wire

ctx = setup_group("prod")
rng = random.Random(2)

print("== keys and statement ==")
signer = keygen(ctx, rng)
statement, witness = gen_r(ctx, rng)
print(f"public key      {signer.pk.hex()}")
print(f"statement W1    {statement.w1.hex()}")
print(f"witness w       (kept secret by the other party)")

print("\n== pre-signing ==")
message = b"pay 7 units to alice"
presig = schnorr.presign(ctx, signer, message, statement.w1, rng)
print(f"pre-signature   c={presig.challenge:x}")
print(f"                s~={presig.masked_response:x}")
print("pre-verifies:   ",
      schnorr.preverify(ctx, signer.pk, presig, message, statement.w1))

print("\n== the pre-signature alone is not a ledger signature ==")
not_yet = schnorr.PlainSignature(presig.challenge, presig.masked_response)
print("verifies as-is: ", schnorr.verify(ctx, signer.pk, not_yet, message))

print("\n== adapting with the witness ==")
sig = schnorr.adapt(ctx, presig, witness)
print(f"signature       s={sig.response:x}")
print("verifies:       ", schnorr.verify(ctx, signer.pk, sig, message))

print("\n== anyone with both objects recovers the witness ==")
recovered = schnorr.ext(ctx, statement.w1, presig, sig)
print("extracted == w: ", recovered == witness)

print("\n== wire sizes ==")
print(f"pre-signature payload "
      f"{len(wire.encode_plain_presignature(ctx, presig)) - wire.HEADER_SIZE}"
      f" bytes, signature payload "
      f"{len(wire.encode_plain_signature(ctx, sig)) - wire.HEADER_SIZE} bytes")
