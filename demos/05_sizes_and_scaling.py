#!/usr/bin/env python3
"""Communication sizes and runtime scaling across ring sizes.

The pre-signature/signature payload is (n+1) scalars plus t tags.  The
comparison column shows the cost of the baseline construction, whose
scalar part grows with t(n+1) instead: at n=100, t=50 that is 4,832
against 163,200 bytes, 33.8x.  Both columns come from the bench records.
Runtimes below are from this machine; their *shape* is the point
(signing and verification linear in n, adapt/ext/link flat).
"""

from ringadapt.bench import by_algorithm, run_bench
from ringadapt import setup_group

ctx = setup_group("prod")
SIZES = (10, 40, 100)

print("measuring runtimes (a few seconds)...")
records = run_bench(ctx, SIZES)

print("\npayload bytes (ours vs baseline), t = n/2:")
print(f"{'n':>4} {'presign ours':>14} {'presign baseline':>18}")
for n, record in sorted(by_algorithm(records, "presign").items()):
    print(f"{n:>4} {record.comm_ours:>14} {record.comm_baseline:>18}")

print(f"\n{'algorithm':>10} " + " ".join(f"{f'n={n}':>12}" for n in SIZES))
for algorithm in ("presign", "preverify", "verify", "adapt", "ext", "link"):
    times = by_algorithm(records, algorithm)
    cells = " ".join(f"{times[n].mean_ns / 1e6:>10.3f}ms" for n in SIZES)
    print(f"{algorithm:>10} {cells}")

print("\npresign/preverify/verify grow with the ring; adapt, ext and link")
print("cost the same no matter how large the ring is.")
