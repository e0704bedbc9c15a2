"""Per-layer counting and self-time accounting, applied from outside.

Nothing in ``src/`` knows about this module.  Two hooks reach the layers:

* ``TracedGroup`` is a subclass of the ``prod`` group context.  Every
  public function of the package takes the context as ``ctx``, so passing
  one counts and times every group operation.
* ``traced(tracer)`` replaces the public functions of ``scheme``,
  ``schnorr``, ``wire`` and ``swap`` at the names their callers look up
  (for example ``ringadapt.swap.verify``, which ``ledger_submit`` calls)
  and restores them on exit.  Only traced epochs install it.

Spans nest: a layer's self time is its duration minus the time of the
spans it called.  Counts are exact and repeat from run to run; times do
not.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager

import ringadapt.cli as cli_mod
import ringadapt.schnorr as schnorr_mod
import ringadapt.swap as swap_mod
import ringadapt.wire as wire_mod
from ringadapt.groups import RistrettoGroup

_now = time.perf_counter_ns


class Tracer:
    """Calls, self time and outcomes per span name."""

    def __init__(self):
        self.calls = Counter()
        self.self_ns = Counter()
        self.events = Counter()       # exact outcome and byte counts
        self.rings = set()            # distinct ring encodings constructed
        self._child_ns = [0]

    def call(self, name, fn, *args, **kwargs):
        self._child_ns.append(0)
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = _now() - start
            child = self._child_ns.pop()
            self._child_ns[-1] += elapsed
            self.self_ns[name] += elapsed - child
            self.calls[name] += 1

    def counts(self) -> dict:
        """Everything exact: these must match between two traced runs of
        the same inputs."""
        out = {f"{k}.calls": v for k, v in self.calls.items()}
        out.update(self.events)
        out["scheme.ring.distinct"] = (self.events["scheme.ring.distinct"]
                                       + len(self.rings))
        return dict(sorted(out.items()))

    def merge(self, other: "Tracer"):
        self.calls.update(other.calls)
        self.self_ns.update(other.self_ns)
        self.events.update(other.events)
        self.events["scheme.ring.distinct"] += len(other.rings)


class TracedGroup(RistrettoGroup):
    """The prod group with every operation counted and timed.

    ``exp`` is split by base: ``groups.exp_g`` when the base is the
    generator g (libsodium's fixed-base multiplication), ``groups.exp``
    otherwise.
    """

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def mul(self, a, b):
        return self.tracer.call("groups.mul", RistrettoGroup.mul, self, a, b)

    def inv(self, a):
        return self.tracer.call("groups.inv", RistrettoGroup.inv, self, a)

    def exp(self, a, k):
        name = "groups.exp_g" if a == self.generator_g else "groups.exp"
        return self.tracer.call(name, RistrettoGroup.exp, self, a, k)

    def is_element(self, a):
        return self.tracer.call("groups.is_element", RistrettoGroup.is_element,
                                self, a)

    def encode_element(self, a):
        return self.tracer.call("groups.encode_element",
                                RistrettoGroup.encode_element, self, a)

    def decode_element(self, data):
        return self.tracer.call("groups.decode_element",
                                RistrettoGroup.decode_element, self, data)

    def hash_to_scalar(self, domain_tag, parts):
        parts = list(parts)
        # Bytes fed to SHA-512: u64 length prefix per framed piece.
        self.tracer.events["groups.hash.bytes"] += (
            8 + len(domain_tag) + sum(8 + len(p) for p in parts))
        return self.tracer.call("groups.hash", RistrettoGroup.hash_to_scalar,
                                self, domain_tag, parts)


def _wrap(tracer: Tracer, name: str, fn, observe=None):
    def traced_fn(*args, **kwargs):
        try:
            result = tracer.call(name, fn, *args, **kwargs)
        except ValueError:
            tracer.events[f"{name}.raised"] += 1
            raise
        if observe is not None:
            observe(result)
        return result
    return traced_fn


def _patch_table(tracer: Tracer, ctx: TracedGroup):
    """(module, attribute, replacement) for every traced lookup site."""
    ev = tracer.events

    def verdict(name):
        def observe(ok):
            if not ok:
                ev[f"{name}.reject"] += 1
        return observe

    def ring_built(ring):
        tracer.rings.add(ring.encodings)

    def submitted(result):
        if result.accepted:
            ev["swap.ledger_submit.accepted"] += 1
        else:
            ev[f"swap.reject.{result.reason}"] += 1

    table = []
    # Scheme functions are looked up in the namespaces of their callers.
    for module in (swap_mod, cli_mod):
        for fn in ("verify", "presign", "preverify", "adapt", "ext", "gen_r"):
            if hasattr(module, fn):
                table.append((module, fn, _wrap(
                    tracer, f"scheme.{fn}", getattr(module, fn),
                    verdict(f"scheme.{fn}") if "verify" in fn else None)))
    for module in (swap_mod, wire_mod):
        table.append((module, "Ring", _wrap(tracer, "scheme.ring",
                                            module.Ring, ring_built)))
    for fn in ("presign", "preverify", "adapt", "verify", "ext"):
        table.append((schnorr_mod, fn, _wrap(
            tracer, f"schnorr.{fn}", getattr(schnorr_mod, fn),
            verdict(f"schnorr.{fn}") if "verify" in fn else None)))
    for fn in dir(wire_mod):
        if fn == "encode_transaction":
            span = "wire.encode_transaction"
        elif fn.startswith("encode_"):
            span = "wire.encode"
        elif fn.startswith("decode_"):
            span = "wire.decode"
        else:
            continue
        table.append((wire_mod, fn, _wrap(tracer, span,
                                          getattr(wire_mod, fn))))
    table.append((swap_mod, "ledger_submit", _wrap(
        tracer, "swap.ledger_submit", swap_mod.ledger_submit, submitted)))
    table.append((swap_mod, "run_swap", _wrap(tracer, "swap.run_swap",
                                              swap_mod.run_swap)))
    # The CLI builds its own context; hand it the traced one.
    table.append((cli_mod, "setup_group", lambda backend: ctx))
    return table


@contextmanager
def traced(tracer: Tracer, ctx: TracedGroup):
    """Install the span wrappers for the duration of the block."""
    table = _patch_table(tracer, ctx)
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in table]
    try:
        for module, attr, replacement in table:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)
