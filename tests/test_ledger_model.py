"""One ledger per chain driven through long runs of submissions against
a model of their state: the ring positions whose tags are published on
chain B, the payer keys spent on chain A and the pairs confirmed on each.
Each rule submits one spend and checks the ledger's verdict against the
one the model predicts, or checks that bytes no transaction encodes to
are refused by the decoder.

Only rules that hold on every input today are here; a signature with
split or mauled tags, or a ring holding a rogue key, is admitted by the
current verification equation (ROADMAP item 1) and gets its rule with
that fix.  The machine runs on prod: on toy a tampered z verifies by
chance about 1 time in 101.
"""

import random

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from ringadapt import (Ring, Signature, SignerWindow, adapt, gen_r, presign,
                       schnorr, setup_group)
from ringadapt.scheme import distinct_keypairs
from ringadapt.swap import (REJECT_BAD_SIGNATURE, REJECT_DOUBLE_SPEND,
                            REJECT_MALFORMED, MockLedger, ledger_submit)
from ringadapt.wire import (CHAIN_PLAIN, CHAIN_RING, SwapTransaction,
                            WireError, decode_transaction, encode_transaction)

CTX = setup_group("prod")
N = 6
MEMBERS = distinct_keypairs(CTX, N, random.Random(61))
RING = Ring(CTX, [kp.pk for kp in MEMBERS])
# A key's link tag h^sk is the same in every window that holds it.
TAGS = [SignerWindow(CTX, RING, k, [kp.sk]).tags[0]
        for k, kp in enumerate(MEMBERS)]

# Each step draws its own seed, so Hypothesis replays a step exactly; one
# random.Random shared across steps would make a shrunk run draw other
# values than the run it came from.
SEEDS = st.integers(0, 2**32 - 1)
STARTS = st.integers(0, N - 1)
WIDTHS = st.integers(1, 3)


def _spend(start, t, seed, payee=b"payee"):
    """An honest chain-B spend by window (start, t), wrapping: the
    transaction to ``payee``, its pre-signature and the adapted
    signature."""
    rng = random.Random(seed)
    window = SignerWindow(CTX, RING, start,
                          [MEMBERS[(start + i) % N].sk for i in range(t)])
    tx = SwapTransaction(CHAIN_RING, payee, 1, rng.randrange(2**64),
                         ring_keys=RING.keys, threshold=t)
    statement, witness = gen_r(CTX, rng)
    psig = presign(CTX, RING, window, encode_transaction(CTX, tx), statement,
                   rng)
    return tx, psig, adapt(CTX, psig, witness)


def _plain_spend(key, seed, payee=b"payee"):
    """An honest chain-A spend by payer ``MEMBERS[key]`` to ``payee``: the
    transaction and its adapted Schnorr signature."""
    rng = random.Random(seed)
    payer = MEMBERS[key]
    tx = SwapTransaction(CHAIN_PLAIN, payee, 1, rng.randrange(2**64),
                         payer_key=payer.pk)
    statement, witness = gen_r(CTX, rng)
    psig = schnorr.presign(CTX, payer, encode_transaction(CTX, tx),
                           statement.w1, rng)
    return tx, schnorr.adapt(CTX, psig, witness)


class LedgerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ledger = MockLedger(CTX, CHAIN_RING)
        self.spent = set()          # ring positions whose tags are published
        self.confirmed = {}         # tx -> (signature, start, t)
        self.plain_ledger = MockLedger(CTX, CHAIN_PLAIN)
        self.spent_keys = set()     # indices into MEMBERS of spent payers
        self.confirmed_plain = {}   # tx -> (signature, key)

    @staticmethod
    def _submit(ledger, tx, sig, expected):
        result = ledger_submit(ledger, tx, sig)
        assert (result.reason or "accepted") == expected

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def honest_spend(self, start, t, seed):
        tx, _, sig = _spend(start, t, seed)
        positions = {(start + i) % N for i in range(t)}
        if tx in self.confirmed or positions & self.spent:
            self._submit(self.ledger, tx, sig, REJECT_DOUBLE_SPEND)
            return
        self._submit(self.ledger, tx, sig, "accepted")
        self.spent |= positions
        self.confirmed[tx] = (sig, start, t)

    @precondition(lambda self: self.confirmed)
    @rule(index=st.integers(0, 2**16))
    def exact_replay(self, index):
        tx = list(self.confirmed)[index % len(self.confirmed)]
        self._submit(self.ledger, tx, self.confirmed[tx][0],
                     REJECT_DOUBLE_SPEND)

    @precondition(lambda self: self.confirmed)
    @rule(index=st.integers(0, 2**16), seed=SEEDS)
    def spent_window_signs_a_new_transaction(self, index, seed):
        _, start, t = list(self.confirmed.values())[
            index % len(self.confirmed)]
        # No confirmed transaction pays this payee, so the spend is new.
        tx, _, sig = _spend(start, t, seed, payee=b"someone-else")
        self._submit(self.ledger, tx, sig, REJECT_DOUBLE_SPEND)

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def tampered_z(self, start, t, seed):
        tx, _, sig = _spend(start, t, seed)
        tampered = Signature((sig.z + 1) % CTX.order, sig.challenges,
                             sig.tags)
        self._submit(self.ledger, tx, tampered, REJECT_BAD_SIGNATURE)

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def presignature_as_signature(self, start, t, seed):
        tx, psig, _ = _spend(start, t, seed)
        self._submit(self.ledger, tx, psig, REJECT_MALFORMED)

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def wrong_chain_id(self, start, t, seed):
        tx, _, sig = _spend(start, t, seed)
        on_chain_a = SwapTransaction(CHAIN_PLAIN, tx.payee, tx.amount,
                                     tx.nonce, payer_key=RING.keys[start])
        self._submit(self.ledger, on_chain_a, sig, REJECT_MALFORMED)

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS, repeat=STARTS)
    def repeated_key_ring(self, start, t, seed, repeat):
        tx, _, sig = _spend(start, t, seed)
        keys = list(RING.keys)
        keys[repeat] = keys[(repeat + 1) % N]
        # Same n and t as the signature, so only the ring is at fault.
        repeated = SwapTransaction(CHAIN_RING, tx.payee, tx.amount, tx.nonce,
                                   ring_keys=keys, threshold=t)
        self._submit(self.ledger, repeated, sig, REJECT_MALFORMED)

    @rule(key=STARTS, seed=SEEDS)
    def plain_spend(self, key, seed):
        tx, sig = _plain_spend(key, seed)
        if key in self.spent_keys:
            self._submit(self.plain_ledger, tx, sig, REJECT_DOUBLE_SPEND)
            return
        self._submit(self.plain_ledger, tx, sig, "accepted")
        self.spent_keys.add(key)
        self.confirmed_plain[tx] = (sig, key)

    @precondition(lambda self: self.confirmed_plain)
    @rule(index=st.integers(0, 2**16))
    def plain_exact_replay(self, index):
        tx = list(self.confirmed_plain)[index % len(self.confirmed_plain)]
        self._submit(self.plain_ledger, tx, self.confirmed_plain[tx][0],
                     REJECT_DOUBLE_SPEND)

    @precondition(lambda self: self.confirmed_plain)
    @rule(index=st.integers(0, 2**16), seed=SEEDS)
    def spent_key_signs_a_new_transaction(self, index, seed):
        _, key = list(self.confirmed_plain.values())[
            index % len(self.confirmed_plain)]
        tx, sig = _plain_spend(key, seed, payee=b"someone-else")
        self._submit(self.plain_ledger, tx, sig, REJECT_DOUBLE_SPEND)

    @rule(t=WIDTHS, nonce=st.integers(0, 2**64 - 1), cut=st.integers(0, 2**16),
          extra=st.binary(min_size=1, max_size=8))
    def undecodable_bytes(self, t, nonce, cut, extra):
        # Either chain's transaction cut short, or with bytes after it.
        for tx in (SwapTransaction(CHAIN_RING, b"payee", 1, nonce,
                                   ring_keys=RING.keys, threshold=t),
                   SwapTransaction(CHAIN_PLAIN, b"payee", 1, nonce,
                                   payer_key=RING.keys[0])):
            data = encode_transaction(CTX, tx)
            for bad in (data[:cut % len(data)], data + extra):
                with pytest.raises(WireError):
                    decode_transaction(CTX, bad)

    @invariant()
    def ledger_matches_model(self):
        assert self.ledger.confirmed == {
            tx: sig for tx, (sig, _, _) in self.confirmed.items()}
        assert self.ledger.published_tags == {TAGS[k] for k in self.spent}
        assert self.plain_ledger.confirmed == {
            tx: sig for tx, (sig, _) in self.confirmed_plain.items()}
        assert self.plain_ledger.published_tags == {
            MEMBERS[k].pk for k in self.spent_keys}


LedgerModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, derandomize=True,
    deadline=None)
TestLedgerModel = LedgerModel.TestCase
