"""Runtime and size measurements across ring sizes.

Measures the nine scheme algorithms for each ring size n with threshold
t = n/2: the per-call time of the fastest of ``REPS`` ``timeit`` samples,
taken round-robin over the sweep with the garbage collector off, and the
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
import timeit
from typing import IO, Iterable

from .groups import GroupContext, Record
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


def _cases(ctx: GroupContext, n: int, t: int) -> list[tuple]:
    """(algorithm, call, output bytes) of each of the nine algorithms at
    one (n, t) point."""
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
    sz, sg = ctx.scalar_size, ctx.element_size
    sig_bytes = len(encode_signature(ctx, sig)) - HEADER_SIZE
    psig_bytes = len(encode_presignature(ctx, psig)) - HEADER_SIZE
    return [
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


def run_bench(ctx: GroupContext, sizes: Iterable[int]) -> list[BenchRecord]:
    """All nine algorithms at each ring size n of ``sizes``, t = n/2, with
    the ``REPS`` samples taken round-robin over every cell, so a change of
    host speed during the sweep reaches every n alike.  An empty ``sizes``
    or a size below 1 raises ValueError."""
    points = [(n, max(1, n // 2)) for n in sizes]
    if not points:
        raise ValueError("no ring size to sweep")
    smallest = min(n for n, _ in points)
    if smallest < 1:
        raise ValueError(f"ring size {smallest} is below 1")
    cases = [(n, t, *case) for n, t in points for case in _cases(ctx, n, t)]
    timers = [timeit.Timer(fn) for _, _, _, fn, _ in cases]
    # Calls per sample, doubled until one lasts 0.2 ms: then neither the
    # timer's resolution nor a cold first call moves a fast cell.
    numbers = []
    for timer in timers:
        number = 1
        while number < 2000 and timer.timeit(number) < 2e-4:
            number = min(2 * number, 2000)
        numbers.append(number)
    rounds = [[timer.timeit(number) / number
               for timer, number in zip(timers, numbers)] for _ in range(REPS)]
    return [BenchRecord(name, n, t, int(min(per_call) * 1e9), size,
                        *_comm_formulas(ctx, n, t).get(name, ("", "")))
            for (n, t, name, _, size), per_call in zip(cases, zip(*rounds))]


def write_csv(records: Iterable[BenchRecord], out: IO[str]):
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in records:
        writer.writerow([getattr(record, name) for name in CSV_COLUMNS])


def by_algorithm(records: Iterable[BenchRecord],
                 algorithm: str) -> dict[int, BenchRecord]:
    """Index one algorithm's records by ring size."""
    return {r.n: r for r in records if r.algorithm == algorithm}
