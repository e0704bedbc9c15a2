"""Mock ledgers and the six-step swap: admission rules, fault matrix,
atomicity, determinism."""

import copy
import hashlib
import itertools
import json
import random

import pytest

from conftest import (BOTH, PROD, TOY, build_ring, build_window, plain_spend,
                      ring_spend, ristretto_alias)
from ringadapt import (KeyPair, PreSignature, Ring, Signature, SignerWindow,
                       gen_r, keygen, schnorr, swap, verify, wire)
from ringadapt.swap import (FAULT_PLANS, FaultPlan, MockLedger, Phase,
                            SwapTransaction, ledger_submit, make_demo_parties,
                            run_swap, swap_demo)
from toygroup import toy_element


def _copy_by_value(ctx, tx):
    """A distinct object equal to tx, as a miner decodes it from the wire."""
    decoded = wire.decode_transaction(ctx, wire.encode_transaction(ctx, tx))
    assert decoded == tx and decoded is not tx
    return decoded


def _force(record, **fields):
    """A copy of record with fields set past the constructor's checks."""
    forced = copy.copy(record)
    for name, value in fields.items():
        object.__setattr__(forced, name, value)
    return forced


def _forged_copy(tx, **fields):
    """tx with fields its encoding leaves out set past the constructor's
    checks: the same signed bytes, but not equal to tx."""
    forged = _force(tx, **fields)
    assert forged != tx
    return forged


class TestLedger:
    def test_plain_chain_admission(self, toy, rng):
        with pytest.raises(ValueError, match="unknown chain id"):
            MockLedger(toy, "C")
        ledger = MockLedger(toy, "A")
        bob = keygen(toy, rng)
        statement, w = gen_r(toy, rng)
        tx = SwapTransaction("A", b"alice", 3, 7, payer_key=bob.pk)
        psig = schnorr.presign(toy, bob, wire.encode_transaction(toy, tx),
                               statement.w1, rng)
        sig = schnorr.adapt(toy, psig, w)
        assert ledger_submit(ledger, tx, sig).accepted
        # replaying a confirmed transaction is a double spend
        again = ledger_submit(ledger, tx, sig)
        assert (again.accepted, again.reason) == (False, "double-spend-link")
        again = ledger_submit(ledger, _copy_by_value(toy, tx), sig)
        assert (again.accepted, again.reason) == (False, "double-spend-link")
        for fields in (dict(threshold=1), dict(ring_keys=(bob.pk,))):
            again = ledger_submit(ledger, _forged_copy(tx, **fields), sig)
            assert (again.accepted, again.reason) == (False, "malformed")
        bad = schnorr.PlainSignature(sig.challenge,
                                     (sig.response + 1) % toy.order)
        tx2 = SwapTransaction("A", b"alice", 3, 8, payer_key=bob.pk)
        result = ledger_submit(ledger, tx2, bad)
        assert (result.accepted, result.reason) == (False, "bad-signature")

    def test_ring_chain_admission_and_linking(self, toy, rng):
        ledger = MockLedger(toy, "B")
        ring, members = build_ring(toy, 5, rng)
        w_a = build_window(toy, ring, members, 0, 2)
        tx1, _, sig1 = ring_spend(toy, ring, w_a, b"x", 1, rng)
        assert ledger_submit(ledger, tx1, sig1).accepted
        assert ledger.published_tags == set(sig1.tags)
        again = ledger_submit(ledger, _copy_by_value(toy, tx1), sig1)
        assert (again.accepted, again.reason) == (False, "double-spend-link")
        again = ledger_submit(ledger, _forged_copy(tx1, payer_key=ring.keys[0]),
                              sig1)
        assert (again.accepted, again.reason) == (False, "malformed")
        # overlapping window: shares member 1
        w_b = build_window(toy, ring, members, 1, 2)
        tx2, _, sig2 = ring_spend(toy, ring, w_b, b"y", 2, rng)
        result = ledger_submit(ledger, tx2, sig2)
        assert (result.accepted, result.reason) == (False, "double-spend-link")
        # disjoint window: members 3, 4
        w_c = build_window(toy, ring, members, 3, 2)
        tx3, _, sig3 = ring_spend(toy, ring, w_c, b"z", 3, rng)
        assert ledger_submit(ledger, tx3, sig3).accepted

    def test_malformed_submissions(self, toy, rng):
        ledger_a = MockLedger(toy, "A")
        ledger_b = MockLedger(toy, "B")
        ring, members = build_ring(toy, 3, rng)
        window = build_window(toy, ring, members, 0, 1)
        tx_b, _, sig_b = ring_spend(toy, ring, window, b"x", 1, rng)
        assert ledger_submit(ledger_a, tx_b, sig_b).reason == "malformed"
        tx_a, _, sig_a = plain_spend(toy, keygen(toy, rng), b"y", 2, rng)
        assert ledger_submit(ledger_b, tx_a, sig_b).reason == "malformed"
        assert ledger_submit(ledger_b, tx_b, "junk").reason == "malformed"
        psig_b = PreSignature(sig_b.z, sig_b.challenges, sig_b.tags)
        assert ledger_submit(ledger_b, tx_b, psig_b).reason == "malformed"
        # Fields forced past the constructor's type and range checks.
        for fields in (dict(amount=3.0), dict(nonce=-1), dict(threshold=2.0),
                       dict(payee="x"), dict(ring_keys=None), dict(payee=3)):
            forged = _forged_copy(tx_b, **fields)
            assert ledger_submit(ledger_b, forged, sig_b).reason == "malformed"
        # Equal to tx_b, and encoded alike by struct, but not ints.
        for fields in (dict(amount=True), dict(nonce=True),
                       dict(threshold=True)):
            forced = _force(tx_b, **fields)
            assert forced == tx_b
            assert ledger_submit(ledger_b, forced, sig_b).reason == "malformed"
        for fields in (dict(amount=3.0), dict(amount=2**64)):
            forged = _forged_copy(tx_a, **fields)
            assert ledger_submit(ledger_a, forged, sig_a).reason == "malformed"
        assert not ledger_a.confirmed and not ledger_b.confirmed

    @pytest.mark.parametrize("ctx, junk", [(TOY, toy_element(2)),
                                           (PROD, b"\xff" * 32)],
                             ids=["toy", "prod"])
    def test_non_element_keys_are_malformed(self, ctx, junk):
        rng = random.Random(21)
        ledger_a = MockLedger(ctx, "A")
        ledger_b = MockLedger(ctx, "B")
        ring, members = build_ring(ctx, 3, rng)
        window = build_window(ctx, ring, members, 0, 1)
        _, _, sig_b = ring_spend(ctx, ring, window, b"x", 1, rng)
        bad_ring = SwapTransaction("B", b"x", 1, 1,
                                   ring_keys=(junk, *ring.keys[1:]),
                                   threshold=1)
        assert ledger_submit(ledger_b, bad_ring, sig_b).reason == "malformed"
        _, _, sig_a = plain_spend(ctx, keygen(ctx, rng), b"y", 2, rng)
        bad_payer = SwapTransaction("A", b"y", 1, 2, payer_key=junk)
        assert ledger_submit(ledger_a, bad_payer, sig_a).reason == "malformed"
        for ledger in (ledger_a, ledger_b):
            assert not ledger.confirmed
            assert not ledger.published_tags

    @BOTH
    def test_resigned_plain_copy_is_a_double_spend(self, ctx):
        # A second, differently signed copy of a confirmed transaction is
        # a double spend.
        rng = random.Random(23)   # toy's two nonces r + w differ
        ledger = MockLedger(ctx, "A")
        bob = keygen(ctx, rng)
        tx = SwapTransaction("A", b"alice", 1, 2, payer_key=bob.pk)
        message = wire.encode_transaction(ctx, tx)
        sigs = []
        for _ in range(2):
            statement, w = gen_r(ctx, rng)
            sigs.append(schnorr.adapt(ctx, schnorr.presign(
                ctx, bob, message, statement.w1, rng), w))
        first, second = sigs
        assert first != second
        assert schnorr.verify(ctx, bob.pk, second, message)
        assert ledger_submit(ledger, tx, first).accepted
        result = ledger_submit(ledger, _copy_by_value(ctx, tx), second)
        assert (result.accepted, result.reason) == (False, "double-spend-link")
        assert ledger.confirmed == {tx: first}

    @BOTH
    def test_plain_payer_key_spends_once(self, ctx):
        # After a happy swap Bob's chain-A key has paid: a new transaction
        # it validly signs is a double spend, as a reused ring key is.
        run = swap_demo(ctx, 6, 2, seed=3)
        assert run.state.phase is Phase.ALICE_CLAIMED
        bob = make_demo_parties(ctx, 6, 2, seed=3)[2]
        tx, _, sig = plain_spend(ctx, bob, b"bob-self", 9, random.Random(4))
        assert ledger_submit(MockLedger(ctx, "A"), tx, sig).accepted
        result = ledger_submit(run.ledger_plain, tx, sig)
        assert (result.accepted, result.reason) == (False, "double-spend-link")
        assert run.ledger_plain.published_tags == {bob.pk}
        assert tx not in run.ledger_plain.confirmed

    def test_prod_refuses_bit_255_aliases(self, prod):
        # libsodium 1.0.18 reads an encoding with bit 255 set as the
        # element with it clear, so an alias would spend a key twice.
        rng = random.Random(14)
        ring, members = build_ring(prod, 4, rng)
        for t in (1, 2):
            ledger = MockLedger(prod, "B")
            window = build_window(prod, ring, members, 0, t)
            tx1, _, sig1 = ring_spend(prod, ring, window, b"x", 1, rng)
            assert ledger_submit(ledger, tx1, sig1).accepted
            tx2, _, sig2 = ring_spend(prod, ring, window, b"y", 2, rng)
            aliased = Signature(sig2.z, sig2.challenges,
                                tuple(map(ristretto_alias, sig2.tags)))
            result = ledger_submit(ledger, tx2, aliased)
            assert (result.accepted, result.reason) == (False, "bad-signature")
            assert ledger.confirmed == {tx1: sig1}
        # A chain-A payer key pays once, whatever its spelling.
        ledger = MockLedger(prod, "A")
        bob = keygen(prod, rng)
        verdicts = []
        for nonce, payer in enumerate(
                (bob, KeyPair(bob.sk, ristretto_alias(bob.pk)))):
            tx, _, sig = plain_spend(prod, payer, b"alice", nonce, rng)
            result = ledger_submit(ledger, tx, sig)
            verdicts.append((result.accepted, result.reason))
        assert verdicts == [(True, None), (False, "malformed")]
        # The identity's alias, a known secret, gets a verdict, not an
        # exception from libsodium, as a tag or as a ring key.
        identity_alias = ristretto_alias(prod.identity)
        tx, _, sig = ring_spend(prod, ring, build_window(
            prod, ring, members, 2, 1), b"z", 3, rng)
        forged = Signature(sig.z, sig.challenges, (identity_alias,))
        assert not verify(prod, ring, forged, 1, wire.encode_transaction(
            prod, tx))
        bad_ring = SwapTransaction("B", b"z", 1, 3, threshold=1, ring_keys=(
            identity_alias, *ring.keys[1:]))
        result = ledger_submit(MockLedger(prod, "B"), bad_ring, sig)
        assert (result.accepted, result.reason) == (False, "malformed")

    def test_tampered_ring_signature_rejected(self, toy, rng):
        ledger = MockLedger(toy, "B")
        ring, members = build_ring(toy, 4, rng)
        window = build_window(toy, ring, members, 0, 2)
        tx, _, sig = ring_spend(toy, ring, window, b"x", 1, rng)
        bad = type(sig)((sig.z + 1) % toy.order, sig.challenges, sig.tags)
        assert ledger_submit(ledger, tx, bad).reason == "bad-signature"
        assert not ledger.confirmed
        assert not ledger.published_tags

    def test_ledger_monotonicity(self, toy, rng):
        ledger = MockLedger(toy, "B")
        ring, members = build_ring(toy, 6, rng)
        sizes = []
        for start in (0, 2, 4):
            window = build_window(toy, ring, members, start, 2)
            tx, _, sig = ring_spend(toy, ring, window, b"p", start, rng)
            assert ledger_submit(ledger, tx, sig).accepted
            sizes.append((len(ledger.confirmed), len(ledger.published_tags)))
        assert sizes == sorted(sizes)
        assert len(ledger.confirmed) == 3


class TestSwapRuns:
    def test_happy_path(self, toy):
        result = swap_demo(toy, ring_size=4, threshold=2, seed=11)
        assert result.state.phase is Phase.ALICE_CLAIMED
        assert result.outcome() == "both-confirmed"
        assert result.state.extracted_witness == result.bob_witness
        phases = [rec["phase"] for rec in result.transcript]
        assert phases[0] == "bob-committed"
        assert phases[-1] == "alice-claimed"

    def test_demo_window_may_wrap(self, toy):
        starts = [make_demo_parties(toy, 4, 2, seed)[1].start
                  for seed in range(50)]
        assert set(starts) == {0, 1, 2, 3}
        wrapping = starts.index(3)      # holds ring keys 3 and 0
        result = swap_demo(toy, ring_size=4, threshold=2, seed=wrapping)
        assert result.outcome() == "both-confirmed"

    def test_happy_path_prod(self, prod):
        result = swap_demo(prod, ring_size=4, threshold=2, seed=1)
        assert result.outcome() == "both-confirmed"
        assert result.state.extracted_witness == result.bob_witness

    def test_demo_refuses_an_oversized_ring(self, prod):
        with pytest.raises(ValueError, match=r"^payer ring above 1024 keys$"):
            swap_demo(prod, ring_size=wire.MAX_RING_SIZE + 1, threshold=1)

    @pytest.mark.parametrize("step", [1, 2, 3, 4, 5])
    def test_abort_points(self, toy, step):
        result = swap_demo(toy, seed=5, fault=FaultPlan(abort_after=step))
        assert result.state.phase is Phase.ABORTED
        assert result.outcome() == "neither-confirmed"
        assert not result.ledger_plain.confirmed
        assert f"abort-after-step{step}" == result.state.abort_reason

    @pytest.mark.parametrize("corruption,reason", [
        ("tamper-presig-b", "preverify_plain"),
        ("tamper-presig-a", "preverify_ring"),
        ("replay-window", "ledger-ring-double-spend-link"),
    ])
    def test_corruptions(self, toy, corruption, reason):
        result = swap_demo(toy, seed=5,
                           fault=FaultPlan(corruption=corruption))
        assert result.state.phase is Phase.ABORTED
        assert result.state.abort_reason == reason
        assert result.outcome() == "neither-confirmed"
        # A replayed window's prior spend stays the only chain-B
        # transaction confirmed; a tampered run confirms none.
        prior_spends = 1 if corruption == "replay-window" else 0
        assert len(result.ledger_ring.confirmed) == prior_spends

    def test_full_fault_matrix_atomicity(self, toy):
        for plan, seed in itertools.product([None, *FAULT_PLANS.values()],
                                            range(6)):
            result = swap_demo(toy, ring_size=4, threshold=2, seed=seed,
                               fault=plan)
            assert result.outcome() in ("both-confirmed",
                                        "neither-confirmed")
            if plan is None:
                assert result.outcome() == "both-confirmed"
                assert result.state.extracted_witness == result.bob_witness
            else:
                assert result.outcome() == "neither-confirmed"
                assert result.state.phase is Phase.ABORTED

    def test_every_transcript_is_pinned(self):
        # One digest over every fault plan's transcript, outcome, phase
        # and abort reason, on both backends; a refactor of the swap
        # steps or their fault hooks must leave it unchanged.
        digest = hashlib.sha256()
        plans = [None, *FAULT_PLANS.values()]
        for ctx, n, t in ((TOY, 6, 2), (PROD, 16, 4)):
            for seed, plan in itertools.product(range(5), plans):
                r = swap_demo(ctx, ring_size=n, threshold=t, seed=seed,
                              fault=plan)
                digest.update(r.transcript_jsonl().encode() + b"\n")
                digest.update(json.dumps([r.outcome(), r.state.phase.value,
                                          r.state.abort_reason]).encode())
        assert digest.hexdigest() == (
            "63cc9f203ace0bd0e5ebe10ef246f61b0eecb59bcedb5e76dd28a2cfa2bf4553")

    def test_transcripts_deterministic(self, toy):
        for plan in (None, FaultPlan(abort_after=3),
                     FaultPlan(corruption="replay-window")):
            a = swap_demo(toy, seed=21, fault=plan).transcript_jsonl()
            b = swap_demo(toy, seed=21, fault=plan).transcript_jsonl()
            assert a == b
        assert swap_demo(toy, seed=21).transcript_jsonl() != \
            swap_demo(toy, seed=22).transcript_jsonl()

    def test_fault_plan_validation(self, toy):
        # A plan is checked where it is run: one that is neither
        # FaultPlan() nor a key of swap._FAULTS is refused by run_swap.
        ring, window, bob = make_demo_parties(toy, 4, 2)
        for plan in (FaultPlan(abort_after=6),
                     FaultPlan(corruption="melt-the-ledger"),
                     FaultPlan(abort_after=1, corruption="tamper-presig-a"),
                     "abort1"):
            with pytest.raises(ValueError, match="unknown fault plan"):
                run_swap(toy, ring=ring, window=window, bob_keypair=bob,
                         fault=plan)
            with pytest.raises(ValueError, match="unknown fault plan"):
                swap_demo(toy, fault=plan)

    def test_a_new_fault_is_one_table_entry(self, toy, monkeypatch):
        # A later fault is one swap._FAULTS entry: run_swap injects it,
        # and CORRUPTIONS, the list perfbench's swap-e2e builds its mix
        # from, does not change.
        plan = FaultPlan(corruption="drop-presig-ring")
        with pytest.raises(ValueError):
            swap_demo(toy, seed=5, fault=plan)
        monkeypatch.setitem(swap._FAULTS, plan, (
            3, "presig-ring", "ring pre-signature dropped in transit",
            lambda run, _: run.abort(3, "adversary", "drop-presig-ring")))
        result = swap_demo(toy, seed=5, fault=plan)
        assert [(r["step"], r["actor"], r["event"])
                for r in result.transcript[-2:]] == [
            (3, "adversary", "ring pre-signature dropped in transit"),
            (3, "adversary", "aborted: drop-presig-ring")]
        assert result.state.phase is Phase.ABORTED
        assert result.outcome() == "neither-confirmed"
        assert not result.ledger_ring.confirmed
        assert swap.CORRUPTIONS == ("tamper-presig-a", "tamper-presig-b",
                                    "replay-window")

    def test_aliased_broadcast_tag_confirms_nothing(self, prod, monkeypatch):
        # Bob flips bit 255 of his broadcast's first tag: libsodium 1.0.18
        # reads the same signature, but Alice could not extract from it.
        plan = FaultPlan(corruption="alias-broadcast-tag")
        monkeypatch.setitem(swap._FAULTS, plan, (
            5, "broadcast", "broadcast tag 0 aliased",
            lambda run, sig: Signature(sig.z, sig.challenges, (
                ristretto_alias(sig.tags[0]), *sig.tags[1:]))))
        for t, seed in itertools.product((1, 2), range(5)):
            result = swap_demo(prod, ring_size=4, threshold=t, seed=seed,
                               fault=plan)
            assert result.outcome() == "neither-confirmed", (t, seed)

    @BOTH
    def test_bob_racing_alice_to_chain_a_leaves_the_run_mixed(
            self, ctx, monkeypatch):
        # ROADMAP item 9's race, not in _FAULTS (FAULT_PLANS and the
        # transcript pin read it): as he broadcasts, Bob spends his
        # chain-A key to himself, so Alice's claim at step 6 links
        # against his spend.  This is the only path to step 6's abort.
        plan = FaultPlan(corruption="bob-race")

        def race(run, sig):
            rng = random.Random(9)
            tx, _, own = plain_spend(ctx, run.bob_keypair, b"bob",
                                     rng.randrange(2**64), rng)
            assert ledger_submit(run.ledger_plain, tx, own).accepted
            return sig

        monkeypatch.setitem(swap._FAULTS, plan, (
            5, "broadcast", "Bob spent his chain-A key to himself", race))
        for t, seed in itertools.product((1, 2), range(2)):
            result = swap_demo(ctx, ring_size=4, threshold=t, seed=seed,
                               fault=plan)
            assert result.state.tx_ring in result.ledger_ring.confirmed
            claim, = [r for r in result.transcript
                      if r["event"] == "chain-A admission"]
            assert (claim["step"], claim["verdict"], claim["artifacts"]) == (
                6, False, {"reject_reason": "double-spend-link"})
            assert result.state.phase is Phase.ABORTED
            assert result.state.abort_reason == \
                "ledger-plain-double-spend-link"
            # Item 9(c)'s lock must flip this: Bob's coin then waits for
            # Alice's claim, and the race is refused.
            assert result.outcome() == "mixed"

    def test_toy_chance_events_are_counted(self, toy, prod):
        # On toy (order 101) a tampered pre-signature passes its
        # receiver's check by chance about 1 time in 101.  These are the
        # seeds in 0..299 at (n, t) = (4, 2) where it does: tamper-presig-a
        # then confirms chain B only, and tamper-presig-b's adapted
        # signature verifies by the same collision, so both chains
        # confirm.  A change to the algebra or to the samples (ROADMAP
        # item 1) redraws these seeds, and must update them here.
        chance = {}
        for corruption, seed in itertools.product(
                ("tamper-presig-a", "tamper-presig-b"), range(300)):
            outcome = swap_demo(toy, ring_size=4, threshold=2, seed=seed,
                                fault=FaultPlan(corruption=corruption)
                                ).outcome()
            if outcome != "neither-confirmed":
                chance.setdefault((corruption, outcome), []).append(seed)
        assert chance == {("tamper-presig-a", "mixed"): [199, 212, 243],
                          ("tamper-presig-b", "both-confirmed"):
                              [145, 158, 189]}
        # On prod the chance is about 2^-252.
        for corruption, seed in itertools.product(
                ("tamper-presig-a", "tamper-presig-b"), range(20)):
            assert swap_demo(prod, ring_size=4, threshold=2, seed=seed,
                             fault=FaultPlan(corruption=corruption)
                             ).outcome() == "neither-confirmed"

    def test_run_swap_validates_inputs(self, toy, rng):
        ring, members = build_ring(toy, 4, rng)
        other_ring, _ = build_ring(toy, 4, rng)
        window = build_window(toy, ring, members, 0, 2)
        bob = keygen(toy, rng)
        with pytest.raises(ValueError):
            run_swap(toy, ring=other_ring, window=window, bob_keypair=bob)

    @pytest.mark.parametrize("plan, during_run", [
        (None, 4),
        (FaultPlan(corruption="replay-window"), 5),
    ], ids=["happy", "replay-window"])
    def test_each_transaction_is_encoded_once(self, toy, monkeypatch, plan,
                                              during_run):
        # Each party encodes the transaction it builds, each miner the one
        # it admits; the outcome is read from the ledgers, not re-encoded.
        calls = []
        encode = wire.encode_transaction

        def counting(ctx, tx):
            calls.append(tx)
            return encode(ctx, tx)

        monkeypatch.setattr(wire, "encode_transaction", counting)
        result = swap_demo(toy, ring_size=4, threshold=2, seed=3, fault=plan)
        assert len(calls) == during_run
        result.outcome()
        assert len(calls) == during_run

    def test_witness_is_published_only_after_confirmation(self, toy):
        # Until step 5 confirms, no transcript record carries a witness.
        result = swap_demo(toy, seed=4, fault=FaultPlan(abort_after=4))
        for record in result.transcript:
            assert "witness" not in record["artifacts"]


def _admit_all(ledger, submissions, cold=False):
    """Verdicts of submitting each (tx, sig) in turn; ``cold`` empties
    the ledger's ring cache before every submission."""
    verdicts = []
    for tx, sig in submissions:
        if cold:
            ledger._rings.clear()
        result = ledger_submit(ledger, tx, sig)
        verdicts.append("accepted" if result.accepted else result.reason)
    return verdicts


class TestRingCache:
    @BOTH
    def test_warm_and_cold_ledgers_agree(self, ctx, monkeypatch):
        rng = random.Random(31)
        ring, members = build_ring(ctx, 6, rng)
        other, other_members = build_ring(ctx, 4, rng)

        def signed(keys, holders, start, t, payee, nonce):
            tx, _, sig = ring_spend(ctx, keys, build_window(
                ctx, keys, holders, start, t), payee, nonce, rng)
            return tx, sig

        tx1, sig1 = signed(ring, members, 0, 2, b"a", 1)
        overlap = signed(ring, members, 1, 2, b"b", 2)
        disjoint = signed(ring, members, 3, 2, b"c", 3)
        elsewhere = signed(other, other_members, 0, 3, b"d", 4)
        last = signed(ring, members, 5, 1, b"e", 5)
        decoded = (_copy_by_value(ctx, tx1), wire.decode_signature(
            ctx, wire.encode_signature(ctx, sig1), 6, 2))
        duplicate = _force(tx1, ring_keys=ring.keys[:-1] + ring.keys[:1])
        # Look-alikes equal a confirmed value, but the constructors refuse
        # them, so these are forced past the constructors.
        lookalike = memoryview
        lookalike_keys = tuple(map(lookalike, ring.keys))
        unhashable_keys = tuple(map(bytearray, ring.keys))
        oversized_keys = (ring.keys * 171)[:wire.MAX_RING_SIZE + 1]
        submissions = [
            (tx1, sig1),                                      # accepted
            (tx1, sig1),                                      # exact replay
            decoded,                                          # decoded copy
            (_force(tx1, ring_keys=list(ring.keys)), sig1),   # list ring
            (_force(tx1, payee=bytearray(b"a")), sig1),       # bytearray payee
            (tx1, Signature((sig1.z + 1) % ctx.order, sig1.challenges,
                            sig1.tags)),                      # bad signature
            overlap,                                          # shares key 1
            disjoint,                                         # accepted
            (duplicate, sig1),                                # malformed
            (_force(tx1, amount=1.0), sig1),                  # malformed
            (tx1, _force(sig1, z=float(sig1.z))),             # malformed
            (tx1, _force(sig1, tags=(lookalike(sig1.tags[0]),
                                     *sig1.tags[1:]))),       # malformed
            (_force(tx1, ring_keys=lookalike_keys), sig1),    # malformed
            (_force(tx1, payee=b"f", nonce=6,
                    ring_keys=lookalike_keys), sig1),         # malformed
            (_force(tx1, payee=b"g", nonce=7,
                    ring_keys=unhashable_keys), sig1),        # malformed
            (_force(tx1, payee=b"h", nonce=8,
                    ring_keys=oversized_keys), sig1),         # malformed
            elsewhere,                                        # accepted
            last,                                             # accepted
            (tx1, sig1),                                      # exact replay
        ]
        expected = ["accepted", "double-spend-link", "double-spend-link",
                    "double-spend-link", "double-spend-link",
                    "bad-signature", "double-spend-link", "accepted",
                    "malformed", "malformed", "malformed", "malformed",
                    "malformed", "malformed", "malformed", "malformed",
                    "accepted", "accepted", "double-spend-link"]
        builds = []
        build = swap.Ring
        monkeypatch.setattr(swap, "Ring", lambda ctx, keys: builds.append(
            keys) or build(ctx, keys))
        warm = _admit_all(MockLedger(ctx, "B"), submissions)
        warm_builds = len(builds)
        cold = _admit_all(MockLedger(ctx, "B"), submissions, cold=True)
        assert warm == cold == expected
        # Cold, every submission but the five exact replays and the seven
        # the constructors refuse builds a ring; warm, only the first use
        # of each key list does.
        assert (warm_builds, len(builds) - warm_builds) == (3, 7)

    def test_cache_stays_within_its_bound(self, toy):
        # Rotations of the 100 non-identity toy elements, 60 to 100 keys
        # each, with more distinct rings than the bound.  Every
        # tenth submission i takes ring i // 10, mostly one seen long
        # before and perhaps evicted.
        elements = toy.elements()   # elements[k] = g^k
        rng = random.Random(41)
        submissions = []
        for i in range(1, 1000):
            r = i // 10 if i % 10 == 0 else i
            size, offset = 60 + r % 41, 7 * r % 100
            secrets = [1 + (offset + j) % 100 for j in range(size)]
            ring = Ring(toy, [elements[sk] for sk in secrets])
            window = SignerWindow(toy, ring, 0, secrets[:1])
            tx, _, sig = ring_spend(toy, ring, window, b"p", i, rng)
            if i % 7 == 0:
                sig = Signature((sig.z + 1) % toy.order, sig.challenges,
                                sig.tags)
            submissions.append((tx, sig))
        distinct = {tx.ring_keys for tx, _ in submissions}
        assert len(distinct) > swap.RING_CACHE_RINGS

        ledger = MockLedger(toy, "B")
        verdicts = []
        for submission in submissions:
            verdicts += _admit_all(ledger, [submission])
            assert len(ledger._rings) <= swap.RING_CACHE_RINGS
        assert len(ledger._rings) < len(distinct)
        assert verdicts == _admit_all(MockLedger(toy, "B"), submissions,
                                      cold=True)
        assert set(verdicts) == {"accepted", "bad-signature",
                                 "double-spend-link"}
