"""Runtime and size measurements across ring sizes.

Measures the nine scheme algorithms for each ring size n with threshold
t = n/2 and reports the mean wall time of ``REPS`` samples plus the
serialized size of each algorithm's output; every cell draws from seed 0.
Absolute times are hardware-bound; the point of the sweep is the scaling
shape (signing and verification grow linearly in n, adapt/ext/link do
not grow at all).

Each row also carries the communication cost of the algorithm evaluated
for this scheme and for the baseline threshold-ring adaptor construction
it is compared against (t(n+1) field elements versus n+1), so the CSV
reads side by side without reimplementing the baseline.
"""

from __future__ import annotations

import csv
import random
import statistics
import time
from typing import IO, Iterable

from .groups import GroupContext, Record, setup_group
from .scheme import (Ring, SignerWindow, adapt, distinct_keypairs, ext,
                     gen_r, keygen, link, presign, preverify, verify)
from .wire import (HEADER_SIZE, encode_presignature, encode_signature,
                   signature_payload_size)

REPS = 10


class BenchRecord(Record):
    algorithm: str
    n: int
    t: int
    mean_ns: int
    reps: int
    bytes: int
    comm_ours: str
    comm_baseline: str


CSV_COLUMNS = BenchRecord._fields


def _comm_formulas(ctx: GroupContext, n: int, t: int) -> dict[str, tuple[str, str]]:
    sz, sg = ctx.scalar_size, ctx.element_size
    ours = str(signature_payload_size(ctx, n, t))
    return {
        "setup": (str(2 * sg), str(sg)),
        "keygen": (str(n * sg), str(n * sg)),
        "genr": (str(2 * sg), str(sg)),
        "presign": (ours, str(t * (n + 1) * sz + t * sg)),
        "adapt": (ours, str(t * (n + 1) * sz + (t + 1) * sg)),
    }


def _mean_ns(fn) -> int:
    fn()
    fn()
    start = time.perf_counter_ns()
    fn()
    once = max(time.perf_counter_ns() - start, 1)
    # Loop fast operations enough times per sample that the timer
    # resolution stops mattering.
    inner = max(1, min(2000, 200_000 // once))
    samples = []
    for _ in range(REPS):
        start = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter_ns() - start) / inner)
    return int(statistics.fmean(samples))


def bench_cell(ctx: GroupContext, n: int, t: int) -> list[BenchRecord]:
    """Measure all nine algorithms at one (n, t) point."""
    rng = random.Random(0)
    members = distinct_keypairs(ctx, n, rng)
    ring = Ring(ctx, [kp.pk for kp in members])
    window = SignerWindow(ctx, ring, 0, [kp.sk for kp in members[:t]])
    statement, witness = gen_r(ctx, rng)
    message = b"bench message"
    psig = presign(ctx, ring, window, message, statement, rng)
    sig = adapt(ctx, psig, witness)
    sig_linked = adapt(ctx, presign(ctx, ring, window, b"other message",
                                    statement, rng), witness)
    formulas = _comm_formulas(ctx, n, t)
    sz, sg = ctx.scalar_size, ctx.element_size
    sig_bytes = len(encode_signature(ctx, sig)) - HEADER_SIZE
    psig_bytes = len(encode_presignature(ctx, psig)) - HEADER_SIZE

    cases = [
        ("setup", lambda: type(ctx)(), 2 * sg),
        ("keygen", lambda: keygen(ctx, rng), sg),
        ("genr", lambda: gen_r(ctx, rng), 2 * sg),
        ("presign",
         lambda: presign(ctx, ring, window, message, statement, rng),
         psig_bytes),
        ("preverify",
         lambda: preverify(ctx, ring, psig, t, message, statement), 0),
        ("adapt", lambda: adapt(ctx, psig, witness), sig_bytes),
        ("verify", lambda: verify(ctx, ring, sig, t, message), 0),
        ("ext", lambda: ext(ctx, statement, psig, sig), sz),
        ("link", lambda: link(sig, sig_linked), 0),
    ]
    records = []
    for name, fn, size in cases:
        ours, baseline = formulas.get(name, ("", ""))
        records.append(BenchRecord(name, n, t, _mean_ns(fn), REPS, size,
                                   ours, baseline))
    return records


def run_bench(sizes: Iterable[int] = range(10, 101, 10)) -> list[BenchRecord]:
    """Sweep ring sizes with t = n/2 on prod and collect all records."""
    ctx = setup_group("prod")
    records = []
    for n in sizes:
        records.extend(bench_cell(ctx, n, max(1, n // 2)))
    return records


def write_csv(records: Iterable[BenchRecord], out: IO[str]):
    writer = csv.writer(out)
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow([getattr(record, name) for name in CSV_COLUMNS])


def by_algorithm(records: Iterable[BenchRecord],
                 algorithm: str) -> dict[int, BenchRecord]:
    """Index one algorithm's records by ring size."""
    return {r.n: r for r in records if r.algorithm == algorithm}
