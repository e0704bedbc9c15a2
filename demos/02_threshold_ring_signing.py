#!/usr/bin/env python3
"""Threshold ring pre-signatures: t hidden signers inside an n-key ring.

The signer controls t consecutive ring positions (a "window").  The
verifier learns that *some* width-t window signed, never which one: the
verification equations range over every window's aggregated key
y_i = prod_{k=i..i+t-1} pk_k^d (with wraparound), each weighted by its
own challenge c_i, so each of the n windows is equally plausible.
"""

import random

from ringadapt import (Ring, SignerWindow, adapt, gen_r, keygen, presign,
                       preverify, setup_group, verify, wire)

ctx = setup_group("prod")
rng = random.Random(7)

n, t = 8, 3
members = [keygen(ctx, rng) for _ in range(n)]
ring = Ring(ctx, [kp.pk for kp in members])
print(f"ring of {n} keys, threshold {t}, rogue-key digest d={ring.d:x}")

# Alice owns positions 2, 3, 4.
window = SignerWindow(ctx, ring, 2, [members[i].sk for i in (2, 3, 4)])
statement, witness = gen_r(ctx, rng)
message = b"consolidate 3 accounts into one payment"

presig = presign(ctx, ring, window, message, statement, rng)
print(f"\npre-signature: 1+{n} scalars and {t} link tags")
print("pre-verifies:  ",
      preverify(ctx, ring, presig, t, message, statement))

sig = adapt(ctx, presig, witness)
print("\nadapted; verifies:", verify(ctx, ring, sig, t, message))

payload = len(wire.encode_signature(ctx, sig)) - wire.HEADER_SIZE
print(f"\nsignature payload: {payload} bytes "
      f"= ({n}+1) scalars * {ctx.scalar_size} + {t} tags * {ctx.element_size}")
print("a per-account ring signature would need one full ring per account;")
print("here all three accounts share one ring and one signature.")
