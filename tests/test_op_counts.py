"""Exact group-operation counts of the scheme algorithms.

Unlike the timed scaling criterion, these counts are deterministic, so
they pin the cost model exactly: presign, preverify and verify make n+3
scalar multiplications (g^s, h^s, one per ring key, one for the tag
product) and no inversion, and adapt/ext/link do not depend on n.
"""

from collections import Counter

from conftest import build_ring, build_window
from ringadapt import (SeededRandomness, adapt, ext, gen_r, link, presign,
                       preverify, verify)
from ringadapt.groups import ToyGroup


class CountingToy(ToyGroup):
    """The toy group with every operation counted by name."""

    def __init__(self):
        self.counts = Counter()

    def take(self) -> dict:
        counts, self.counts = dict(self.counts), Counter()
        return counts

    def mul(self, a, b):
        self.counts["mul"] += 1
        return super().mul(a, b)

    def exp(self, a, k):
        self.counts["exp"] += 1
        return super().exp(a, k)

    def is_element(self, a):
        self.counts["is_element"] += 1
        return super().is_element(a)

    def hash_to_scalar(self, domain_tag, parts):
        self.counts["hash"] += 1
        return super().hash_to_scalar(domain_tag, parts)


def _cells():
    for n in range(1, 9):
        for t in range(1, n + 1):
            for j in range(n - t + 1):
                yield n, t, j


def test_exact_counts_for_every_cell():
    ctx = CountingToy()
    flat = {"adapt": set(), "ext": set(), "link": set()}
    for n, t, j in _cells():
        rng = SeededRandomness(100 * n + 10 * t + j)
        ring, members = build_ring(ctx, n, rng)
        window = build_window(ctx, ring, members, j, t)
        statement, w = gen_r(ctx, rng)
        ctx.take()

        psig = presign(ctx, ring, window, b"m", statement, rng)
        # Two encodings of R and T feed the challenge hash.
        assert ctx.take() == {"exp": n + 3, "mul": n + t + 3,
                              "is_element": 2, "hash": 1}, (n, t, j)
        assert preverify(ctx, ring, psig, t, b"m", statement)
        # Shape check: t tags and the two statement components.
        assert ctx.take() == {"exp": n + 3, "mul": n + t + 3,
                              "is_element": t + 4, "hash": 1}, (n, t, j)
        sig = adapt(ctx, psig, w)
        flat["adapt"].add(tuple(sorted(ctx.take().items())))
        assert verify(ctx, ring, sig, t, b"m")
        assert ctx.take() == {"exp": n + 3, "mul": n + t + 1,
                              "is_element": t + 2, "hash": 1}, (n, t, j)
        assert ext(ctx, statement, psig, sig) == w
        flat["ext"].add(tuple(sorted(ctx.take().items())))
        assert link(sig, psig)
        flat["link"].add(tuple(sorted(ctx.take().items())))
    # One count per algorithm across every (n, t, j) cell.
    assert flat == {"adapt": {()}, "ext": {(("exp", 2),)}, "link": {()}}

