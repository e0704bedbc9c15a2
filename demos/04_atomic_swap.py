#!/usr/bin/env python3
"""The two-ledger atomic swap, happy path and under faults.

Alice pays Bob from t hidden accounts on the ring chain; Bob pays Alice
from a single key on the plain chain.  One witness couples the two
pre-signatures: Bob's act of claiming on the ring chain is the very
thing that lets Alice claim on the plain chain.  Whatever goes wrong,
assets never end up moved on only one chain.
"""

import json

from ringadapt import setup_group
from ringadapt.swap import FAULT_PLANS, swap_demo

ctx = setup_group("prod")

print("== happy path ==")
result = swap_demo(ctx, ring_size=5, threshold=2, seed=42)
for record in result.transcript:
    actor = record["actor"].ljust(9)
    print(f"  step {record['step']} {actor} {record['event']}")
print(f"outcome: {result.outcome()}, final phase {result.state.phase.value}")
print("extracted witness equals Bob's:",
      result.state.extracted_witness == result.bob_witness)

print("\n== every fault still ends atomically ==")
for name, plan in FAULT_PLANS.items():
    result = swap_demo(ctx, ring_size=5, threshold=2, seed=42, fault=plan)
    print(f"  {name:16} -> {result.state.phase.value:8} "
          f"({result.state.abort_reason}): {result.outcome()}")

print("\n== transcripts are deterministic and machine-readable ==")
record = swap_demo(ctx, ring_size=5, threshold=2, seed=42).transcript[0]
print(json.dumps(record, sort_keys=True, indent=2))
