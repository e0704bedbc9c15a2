#!/usr/bin/env python3
"""Witness extraction and double-spend linking.

Two independent mechanisms, both byte-level comparisons:

* extraction: z - z~ recovers the witness from a (pre-signature,
  signature) pair, enabling the swap's fair exchange;
* linking: each signature carries one deterministic tag h^sk per signing
  key, so two signatures that reuse any key share a tag, no matter which
  ring, message or randomness they used.
"""

import random

from ringadapt import (Ring, SignerWindow, adapt, ext, gen_r, keygen, link,
                       presign, setup_group)

ctx = setup_group("prod")
rng = random.Random(12)

members = [keygen(ctx, rng) for _ in range(6)]
ring = Ring(ctx, [kp.pk for kp in members])
statement, witness = gen_r(ctx, rng)

print("== extraction ==")
window = SignerWindow(ctx, ring, 1, [members[i].sk for i in (1, 2)])
presig = presign(ctx, ring, window, b"tx-1", statement, rng)
sig = adapt(ctx, presig, witness)
print("recovered witness equals the original:",
      ext(ctx, statement, presig, sig) == witness)
fake = type(sig)(presig.z_tilde, presig.challenges, presig.tags)
print("an unadapted copy extracts nothing:    ",
      ext(ctx, statement, presig, fake))

print("\n== linking ==")
sig_again = adapt(ctx,
                  presign(ctx, ring, window, b"tx-2 (double spend!)",
                          statement, rng),
                  witness)
print("same window, different message -> linked:", link(sig, sig_again))

overlapping = SignerWindow(ctx, ring, 2, [members[i].sk for i in (2, 3)])
sig_overlap = adapt(ctx,
                    presign(ctx, ring, overlapping, b"tx-3", statement, rng),
                    witness)
print("windows sharing one key        -> linked:", link(sig, sig_overlap))

disjoint = SignerWindow(ctx, ring, 4, [members[i].sk for i in (4, 5)])
sig_disjoint = adapt(ctx,
                     presign(ctx, ring, disjoint, b"tx-4", statement, rng),
                     witness)
print("disjoint windows               -> linked:", link(sig, sig_disjoint))

print("\nlink tags are h^sk: deterministic per key, yet they never reveal")
print("which ring position the key occupies.")
