"""Two-ledger atomic swap simulator.

Alice holds t accounts hidden in an n-key ring on the ring chain ("B");
Bob holds a single key on the plain chain ("A").  The protocol:

1. Bob samples the hard-relation pair (W, w), builds the chain-A
   transaction paying Alice and pre-signs it bound to W1.
2. Alice selects the ring hiding her accounts.
3. Alice checks Bob's pre-signature, builds the chain-B transaction
   paying Bob and pre-signs it with the ring scheme bound to W.
4. Bob checks Alice's pre-signature, adapts it with w and broadcasts
   the full signature to the chain-B miners.
5. Miners verify the signature and run the link check against every
   previously published tag set; on success the transaction confirms.
6. Alice extracts w from the confirmed signature, adapts Bob's
   pre-signature and claims on chain A.

One function, ``_protocol``, runs these steps from top to bottom, and
one hook, ``SwapRun.deliver``, sees every message in transit, the start
of the run and the end of steps 1..4.  Each fault is one ``_FAULTS``
entry, which says where it acts and what it does there.  Timeouts are
modeled by abort points, not by wall-clock timers: before step 5 nothing
has touched a ledger, so an abort simply means no assets move.

That guarantee is limited for t >= 2: ``verify`` checks the link tags
only as a product, so a Bob who shifts two tags of his broadcast by
offsets that cancel (a fault not simulated here) gets the copy
confirmed on chain B, and Alice cannot extract w from it, because its
tags differ from her pre-signature's.  For t = 1 it holds.

Runs are single-threaded and deterministic: one seed fixes every sample
and the transcript is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import suppress
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from . import schnorr, wire
from .groups import Element, GroupContext, Record
from .scheme import (KeyPair, PreSignature, Ring, Signature, SignerWindow,
                     adapt, distinct_keypairs, ext, gen_r, keygen, presign,
                     preverify, verify)
from .wire import CHAIN_PLAIN, CHAIN_RING, SwapTransaction

TAMPER_PRESIG_A = "tamper-presig-a"
TAMPER_PRESIG_B = "tamper-presig-b"
REPLAY_WINDOW = "replay-window"
# Kept with its three names for perfbench/workloads.py, which builds
# swap-e2e's mix from it; a later fault is in _FAULTS and FAULT_PLANS only.
CORRUPTIONS = (TAMPER_PRESIG_A, TAMPER_PRESIG_B, REPLAY_WINDOW)

REJECT_BAD_SIGNATURE = "bad-signature"
REJECT_DOUBLE_SPEND = "double-spend-link"
REJECT_MALFORMED = "malformed"

# The most ring keys a ledger's ring cache holds, summed over its rings;
# 64 rings of the largest admitted size (wire.MAX_RING_SIZE keys) fit.
RING_CACHE_KEYS = 1 << 16


class Phase(str, Enum):
    INIT = "init"
    BOB_COMMITTED = "bob-committed"
    ALICE_COMMITTED = "alice-committed"
    BOB_CLAIMED = "bob-claimed"
    ALICE_CLAIMED = "alice-claimed"
    ABORTED = "aborted"


# perfbench/workloads.py builds its plans with this constructor.
class FaultPlan(Record):
    """No fault, ``FaultPlan()``, or a key of ``_FAULTS``."""

    abort_after: Optional[int] = None
    corruption: Optional[str] = None


class SubmitResult(Record):
    accepted: bool
    reason: Optional[str] = None


class MockLedger:
    """Confirmed transactions, keyed by value and mapped to their
    signatures in admission order, and the tags their spends published.
    Every stored transaction and signature was built by its type's
    constructor, whatever object was submitted, so it holds exact ints,
    bytes, strings and tuples alone.

    The ledger keeps every ``Ring`` it builds, keyed by the ring's keys,
    so a ring it has seen costs no point check or digest hash again.  The
    cache holds at most ``RING_CACHE_KEYS`` keys in total and evicts its
    oldest rings first, so a flood of distinct rings cannot grow memory.
    """

    def __init__(self, ctx: GroupContext, chain_id: str):
        if chain_id not in (CHAIN_PLAIN, CHAIN_RING):
            raise ValueError(f"unknown chain id {chain_id!r}")
        self.ctx = ctx
        self.chain_id = chain_id
        self.confirmed: dict[SwapTransaction, object] = {}
        self.published_tags: set[Element] = set()
        self._rings: dict[tuple, Ring] = {}
        self._ring_key_count = 0    # keys held by _rings

    def _cached_ring(self, keys: tuple) -> Ring:
        """``Ring(ctx, keys)``, built once while it stays in the cache."""
        cached = self._rings.get(keys)
        if cached is not None:
            return cached
        ring = Ring(self.ctx, keys)
        while self._ring_key_count + len(ring) > RING_CACHE_KEYS:
            oldest = self._rings.pop(next(iter(self._rings)))
            self._ring_key_count -= len(oldest)
        self._rings[keys] = ring
        self._ring_key_count += len(ring)
        return ring


def ledger_submit(ledger: MockLedger, tx: SwapTransaction, sig) -> SubmitResult:
    """Miner admission rule: a submission gets the verdict of the
    transaction and signature their constructors would build, or
    ``malformed`` if a constructor refuses them.  The signature is built
    as the type the chain admits, ``Signature`` on chain B and
    ``schnorr.PlainSignature`` on chain A, so a pre-signature is
    ``malformed``, and the constructors refuse look-alikes (a float
    scalar, a memoryview key).

    Checks run in this order, and the first that fails gives the verdict:
    the constructors, chain id and keys (``malformed``), the signature
    (``bad-signature``), then the confirmed lookup and the spend's tags,
    link tags on chain B and the payer key on chain A, against the
    published ones (``double-spend-link``); accepted tags are published.
    Chain B refuses a signature of the wrong shape as ``bad-signature``
    before it takes its ring from the ledger's ring cache.  An exact replay,
    a pair equal to a confirmed one, is answered ``double-spend-link``
    right after the chain id: every other check would pass again.
    """
    ctx = ledger.ctx
    kind = (schnorr.PlainSignature if ledger.chain_id == CHAIN_PLAIN
            else Signature)
    try:
        tx = SwapTransaction(*SwapTransaction._values(tx))
        sig = kind(*kind._values(sig))
    except (AttributeError, TypeError, ValueError):   # not the chain's types
        return SubmitResult(False, REJECT_MALFORMED)
    if tx.chain_id != ledger.chain_id:
        return SubmitResult(False, REJECT_MALFORMED)
    seen = ledger.confirmed.get(tx)
    if seen is not None and seen == sig:
        return SubmitResult(False, REJECT_DOUBLE_SPEND)
    if ledger.chain_id == CHAIN_PLAIN:
        if not ctx.is_nonidentity(tx.payer_key):
            return SubmitResult(False, REJECT_MALFORMED)
    elif (len(sig.tags) != tx.threshold
          or len(sig.challenges) != len(tx.ring_keys)):
        return SubmitResult(False, REJECT_BAD_SIGNATURE)
    else:
        try:
            ring = ledger._cached_ring(tx.ring_keys)
        except ValueError:
            return SubmitResult(False, REJECT_MALFORMED)
    message = wire.encode_transaction(ctx, tx)
    valid = (schnorr.verify(ctx, tx.payer_key, sig, message)
             if ledger.chain_id == CHAIN_PLAIN
             else verify(ctx, ring, sig, tx.threshold, message))
    # The signature is checked first, so a forged copy of a confirmed
    # transaction is reported as bad-signature, not as a double spend.
    if not valid:
        return SubmitResult(False, REJECT_BAD_SIGNATURE)
    # On chain B the rule link() applies; a chain-A key pays once.  Both
    # kinds of tag are checked elements, which compare by canonical value.
    tags = sig.tag_set if ledger.chain_id == CHAIN_RING else {tx.payer_key}
    if tx in ledger.confirmed or not tags.isdisjoint(ledger.published_tags):
        return SubmitResult(False, REJECT_DOUBLE_SPEND)
    ledger.published_tags |= tags
    ledger.confirmed[tx] = sig
    return SubmitResult(True)


@dataclass
class SwapState:
    phase: Phase = Phase.INIT
    abort_reason: Optional[str] = None
    tx_plain: Optional[SwapTransaction] = None   # Bob pays Alice on chain A
    tx_ring: Optional[SwapTransaction] = None    # Alice pays Bob on chain B
    extracted_witness: Optional[int] = None


class _Aborted(Exception):
    """Raised by ``SwapRun.abort``; ends the run inside ``run_swap``."""


# fault plan -> (step, point, transcript event or None, action(run, message)
# -> message delivered).  A point is a channel ("presig-plain", "presig-ring",
# "broadcast"), "end" after one of steps 1..4, or "start" before step 1.
_FAULTS = {
    **{FaultPlan(abort_after=k): (
        k, "end", None,
        lambda run, _, k=k: run.abort(k, "adversary", f"abort-after-step{k}"))
       for k in range(1, 5)},
    # The broadcast is dropped before the miners process it, so the
    # abort cannot leave assets on only one chain.
    FaultPlan(abort_after=5): (
        5, "broadcast", "broadcast dropped before admission",
        lambda run, _: run.abort(5, "miners", "abort-after-step5")),
    FaultPlan(corruption=TAMPER_PRESIG_A): (
        3, "presig-ring", "tampered ring pre-signature in transit",
        lambda run, psig: PreSignature((psig.z_tilde + 1) % run.ctx.order,
                                       psig.challenges, psig.tags)),
    FaultPlan(corruption=TAMPER_PRESIG_B): (
        1, "presig-plain", "tampered plain pre-signature in transit",
        lambda run, psig: schnorr.PlainPreSignature(
            psig.challenge, (psig.masked_response + 1) % run.ctx.order)),
    FaultPlan(corruption=REPLAY_WINDOW): (
        0, "start", None, lambda run, _: _prepublish_window(run)),
}
# name -> plan, in _FAULTS order: abortK, or the corruption's name.
FAULT_PLANS = {p.corruption or f"abort{p.abort_after}": p for p in _FAULTS}


@dataclass
class SwapRun:
    """One protocol execution with its parties, ledgers and transcript."""

    ctx: GroupContext
    ring: Ring
    window: SignerWindow
    bob_keypair: KeyPair
    fault: FaultPlan
    rng: random.Random
    ledger_plain: MockLedger
    ledger_ring: MockLedger
    state: SwapState = field(default_factory=SwapState)
    transcript: list[dict] = field(default_factory=list)
    bob_witness: Optional[int] = None

    def record(self, step: int, actor: str, event: str, *,
               artifacts: Optional[dict] = None, verdict=None):
        self.transcript.append({
            "seq": len(self.transcript),
            "step": step,
            "actor": actor,
            "event": event,
            "phase": self.state.phase.value,
            "artifacts": artifacts or {},
            "verdict": verdict,
        })

    def abort(self, step: int, actor: str, reason: str):
        self.state.phase = Phase.ABORTED
        self.state.abort_reason = reason
        self.record(step, actor, f"aborted: {reason}")
        raise _Aborted

    def deliver(self, step: int, point: str, message=None):
        """``message`` at ``point`` of ``step`` as its receiver gets it,
        after the run's fault acts there, if it acts there."""
        at_step, at_point, event, action = _FAULTS.get(self.fault, (None,) * 4)
        if (at_step, at_point) != (step, point):
            return message
        if event is not None:
            self.record(step, "adversary", event)
        return action(self, message)

    def digest(self, data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    def outcome(self) -> str:
        plain = self.state.tx_plain in self.ledger_plain.confirmed
        ring = self.state.tx_ring in self.ledger_ring.confirmed
        if plain != ring:
            return "mixed"
        return "both-confirmed" if plain else "neither-confirmed"

    def transcript_jsonl(self) -> str:
        return "\n".join(json.dumps(rec, sort_keys=True)
                         for rec in self.transcript)


def _presign_ring_tx(run: SwapRun, payee: bytes, statement):
    """Alice's chain-B tx to ``payee``, its encoding and pre-signature."""
    tx = SwapTransaction(CHAIN_RING, payee, 1, run.rng.randrange(2**64),
                         ring_keys=run.ring.keys, threshold=run.window.width)
    message = wire.encode_transaction(run.ctx, tx)
    return tx, message, presign(run.ctx, run.ring, run.window, message,
                                statement, run.rng)


def _protocol(run: SwapRun):
    """Steps 1..6 of the module docstring, in order; an abort raises
    ``_Aborted``."""
    ctx, state = run.ctx, run.state
    run.deliver(0, "start")
    # 1. Bob samples (W, w), builds the chain-A tx and pre-signs it.
    statement, run.bob_witness = gen_r(ctx, run.rng)
    state.tx_plain = SwapTransaction(
        CHAIN_PLAIN, b"alice", 1, run.rng.randrange(2**64),
        payer_key=run.bob_keypair.pk)
    msg_plain = wire.encode_transaction(ctx, state.tx_plain)
    presig_plain = run.deliver(1, "presig-plain", schnorr.presign(
        ctx, run.bob_keypair, msg_plain, statement.w1, run.rng))
    state.phase = Phase.BOB_COMMITTED
    run.record(1, "bob", "committed statement, chain-A tx and pre-signature",
               artifacts={
                   "statement": run.digest(wire.encode_statement(ctx, statement)),
                   "tx_plain": run.digest(msg_plain),
                   "presig_plain": run.digest(
                       wire.encode_plain_presignature(ctx, presig_plain)),
               })
    run.deliver(1, "end")

    # 2. Alice selects the ring.  The window was validated against it at
    # construction; the phase advances at her next commitment.
    run.record(2, "alice", "selected ring and signer window",
               artifacts={
                   "ring": run.digest(wire.encode_ring(ctx, run.ring)),
               })
    run.deliver(2, "end")

    # 3. Alice checks Bob's pre-signature, then pre-signs her chain-B tx.
    ok = schnorr.preverify(ctx, run.bob_keypair.pk, presig_plain, msg_plain,
                           statement.w1)
    run.record(3, "alice", "checked plain pre-signature", verdict=ok)
    if not ok:
        run.abort(3, "alice", "preverify_plain")
    state.tx_ring, msg_ring, presig_ring = _presign_ring_tx(run, b"bob",
                                                            statement)
    presig_sent = run.deliver(3, "presig-ring", presig_ring)
    state.phase = Phase.ALICE_COMMITTED
    run.record(3, "alice", "committed chain-B tx and ring pre-signature",
               artifacts={
                   "tx_ring": run.digest(msg_ring),
                   "presig_ring": run.digest(
                       wire.encode_presignature(ctx, presig_sent)),
               })
    run.deliver(3, "end")

    # 4. Bob checks Alice's pre-signature and adapts it with w.
    ok = preverify(ctx, run.ring, presig_sent, run.window.width, msg_ring,
                   statement)
    run.record(4, "bob", "checked ring pre-signature", verdict=ok)
    if not ok:
        run.abort(4, "bob", "preverify_ring")
    sig_ring = adapt(ctx, presig_sent, run.bob_witness)
    run.record(4, "bob", "adapted ring pre-signature, broadcasting",
               artifacts={
                   "sig_ring": run.digest(wire.encode_signature(ctx, sig_ring)),
               })
    run.deliver(4, "end")

    # 5. Chain-B miners verify, link-check and confirm Alice's tx.
    sig_ring = run.deliver(5, "broadcast", sig_ring)
    result = ledger_submit(run.ledger_ring, state.tx_ring, sig_ring)
    run.record(5, "miners", "chain-B admission", verdict=result.accepted,
               artifacts={} if result.accepted else
               {"reject_reason": result.reason})
    if not result.accepted:
        run.abort(5, "miners", f"ledger-ring-{result.reason}")
    state.phase = Phase.BOB_CLAIMED
    run.record(5, "miners", "chain-B confirmed ring transaction")

    # 6. Alice extracts w from the confirmed signature and claims on chain A.
    witness = ext(ctx, statement, presig_ring, sig_ring)
    run.record(6, "alice", "extracted witness from on-chain signature",
               verdict=witness is not None,
               artifacts={} if witness is None else
               {"witness": wire.encode_scalar(ctx, witness).hex()})
    if witness is None:
        run.abort(6, "alice", "ext")
    state.extracted_witness = witness
    result = ledger_submit(run.ledger_plain, state.tx_plain,
                           schnorr.adapt(ctx, presig_plain, witness))
    run.record(6, "miners", "chain-A admission", verdict=result.accepted,
               artifacts={} if result.accepted else
               {"reject_reason": result.reason})
    if not result.accepted:
        run.abort(6, "alice", f"ledger-plain-{result.reason}")
    state.phase = Phase.ALICE_CLAIMED
    run.record(6, "alice", "chain-A confirmed plain transaction")


def run_swap(ctx: GroupContext, *, ring: Ring, window: SignerWindow,
             bob_keypair: KeyPair, fault: Optional[FaultPlan] = None,
             seed: int = 0) -> SwapRun:
    """Execute the six-step swap under an optional fault plan; return the run.

    Without a fault the run terminates in phase alice-claimed with both
    chains confirmed.  With a fault it terminates aborted with neither
    of the swap's transactions confirmed, but on toy a tampered
    pre-signature passes its check by chance about 1 time in 101 (see
    ``test_toy_chance_events_are_counted``).  A plan that is neither
    ``FaultPlan()`` nor a key of ``_FAULTS`` raises ``ValueError``.
    """
    fault = fault or FaultPlan()
    if fault not in _FAULTS and fault != FaultPlan():
        raise ValueError(f"unknown fault plan {fault!r}")
    run = SwapRun(
        ctx=ctx, ring=ring, window=window, bob_keypair=bob_keypair,
        fault=fault, rng=random.Random(seed),
        ledger_plain=MockLedger(ctx, CHAIN_PLAIN),
        ledger_ring=MockLedger(ctx, CHAIN_RING),
    )
    with suppress(_Aborted):
        _protocol(run)
    return run


def _prepublish_window(run: SwapRun):
    """Confirm a prior transaction by the same window, publishing its tags.

    Models the double-spend attempt: the swap's chain-B transaction will
    later link against these tags and be rejected.
    """
    statement, witness = gen_r(run.ctx, run.rng)
    tx, message, psig = _presign_ring_tx(run, b"someone-else", statement)
    sig = adapt(run.ctx, psig, witness)
    result = ledger_submit(run.ledger_ring, tx, sig)
    assert result.accepted, "window replay setup must confirm"
    run.record(0, "adversary", "window already spent in a prior transaction",
               artifacts={"tx_prior": run.digest(message)})


def make_demo_parties(ctx: GroupContext, ring_size: int, threshold: int,
                      seed: int = 0) -> tuple[Ring, SignerWindow, KeyPair]:
    """Deterministically build Alice's ring and window plus Bob's keypair."""
    rng = random.Random(2 * seed)
    members = distinct_keypairs(ctx, ring_size, rng)
    ring = Ring(ctx, [kp.pk for kp in members])
    start = rng.randrange(ring_size)
    secrets = [members[(start + i) % ring_size].sk for i in range(threshold)]
    window = SignerWindow(ctx, ring, start, secrets)
    bob = keygen(ctx, rng)
    return ring, window, bob


def swap_demo(ctx: GroupContext, ring_size: int = 4, threshold: int = 2,
              seed: int = 0, fault: Optional[FaultPlan] = None) -> SwapRun:
    """Self-contained demo run with deterministically generated parties."""
    ring, window, bob = make_demo_parties(ctx, ring_size, threshold, seed)
    return run_swap(ctx, ring=ring, window=window, bob_keypair=bob,
                    fault=fault, seed=2 * seed + 1)
