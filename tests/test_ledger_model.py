"""A chain-B ledger driven through long runs of submissions against a
model of its state: the ring positions whose tags are published and the
pairs confirmed.  Each rule submits one spend and checks the ledger's
verdict against the one the model predicts.

Only rules that hold on every input today are here; a signature with
split or mauled tags, or a ring holding a rogue key, is admitted by the
current verification equation (ROADMAP item 1) and gets its rule with
that fix.  The machine runs on prod: on toy a tampered z verifies by
chance about 1 time in 101.
"""

from hypothesis import settings, strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, invariant,
                                 precondition, rule)

from ringadapt import (Ring, SeededRandomness, Signature, SignerWindow,
                       adapt, gen_r, presign, setup_group)
from ringadapt.scheme import distinct_keypairs
from ringadapt.swap import (REJECT_BAD_SIGNATURE, REJECT_DOUBLE_SPEND,
                            REJECT_MALFORMED, MockLedger, ledger_submit)
from ringadapt.wire import (CHAIN_PLAIN, CHAIN_RING, SwapTransaction,
                            encode_transaction)

CTX = setup_group("prod")
N = 6
MEMBERS = distinct_keypairs(CTX, N, SeededRandomness(61))
RING = Ring(CTX, [kp.pk for kp in MEMBERS])
# A key's link tag h^sk is the same in every window that holds it.
TAGS = [SignerWindow(CTX, RING, k, [kp.sk]).tags[0]
        for k, kp in enumerate(MEMBERS)]

# Each step draws its own seed, so Hypothesis replays a step exactly; one
# SeededRandomness shared across steps would make a shrunk run draw other
# values than the run it came from.
SEEDS = st.integers(0, 2**32 - 1)
STARTS = st.integers(0, N - 1)
WIDTHS = st.integers(1, 3)


def _spend(start, t, seed, payee=b"payee"):
    """An honest chain-B spend by window (start, t), wrapping: the
    transaction to ``payee``, its pre-signature and the adapted
    signature."""
    rng = SeededRandomness(seed)
    window = SignerWindow(CTX, RING, start,
                          [MEMBERS[(start + i) % N].sk for i in range(t)])
    tx = SwapTransaction(CHAIN_RING, payee, 1, rng.randbelow(2**64),
                         ring_keys=RING.keys, threshold=t)
    statement, witness = gen_r(CTX, rng)
    psig = presign(CTX, RING, window, encode_transaction(CTX, tx), statement,
                   rng)
    return tx, psig, adapt(CTX, psig, witness)


class LedgerModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.ledger = MockLedger(CTX, CHAIN_RING)
        self.spent = set()          # ring positions whose tags are published
        self.confirmed = {}         # tx -> (signature, start, t)

    def _submit(self, tx, sig, expected):
        result = ledger_submit(self.ledger, tx, sig)
        assert (result.reason or "accepted") == expected

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def honest_spend(self, start, t, seed):
        tx, _, sig = _spend(start, t, seed)
        positions = {(start + i) % N for i in range(t)}
        if tx in self.confirmed or positions & self.spent:
            self._submit(tx, sig, REJECT_DOUBLE_SPEND)
            return
        self._submit(tx, sig, "accepted")
        self.spent |= positions
        self.confirmed[tx] = (sig, start, t)

    @precondition(lambda self: self.confirmed)
    @rule(index=st.integers(0, 2**16))
    def exact_replay(self, index):
        tx = list(self.confirmed)[index % len(self.confirmed)]
        self._submit(tx, self.confirmed[tx][0], REJECT_DOUBLE_SPEND)

    @precondition(lambda self: self.confirmed)
    @rule(index=st.integers(0, 2**16), seed=SEEDS)
    def spent_window_signs_a_new_transaction(self, index, seed):
        _, start, t = list(self.confirmed.values())[
            index % len(self.confirmed)]
        # No confirmed transaction pays this payee, so the spend is new.
        tx, _, sig = _spend(start, t, seed, payee=b"someone-else")
        self._submit(tx, sig, REJECT_DOUBLE_SPEND)

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def tampered_z(self, start, t, seed):
        tx, _, sig = _spend(start, t, seed)
        tampered = Signature((sig.z + 1) % CTX.order, sig.challenges,
                             sig.tags)
        self._submit(tx, tampered, REJECT_BAD_SIGNATURE)

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def presignature_as_signature(self, start, t, seed):
        tx, psig, _ = _spend(start, t, seed)
        self._submit(tx, psig, REJECT_MALFORMED)

    @rule(start=STARTS, t=WIDTHS, seed=SEEDS)
    def wrong_chain_id(self, start, t, seed):
        tx, _, sig = _spend(start, t, seed)
        on_chain_a = SwapTransaction(CHAIN_PLAIN, tx.payee, tx.amount,
                                     tx.nonce, payer_key=RING.keys[start])
        self._submit(on_chain_a, sig, REJECT_MALFORMED)

    @invariant()
    def ledger_matches_model(self):
        assert self.ledger.confirmed == {
            tx: sig for tx, (sig, _, _) in self.confirmed.items()}
        assert self.ledger.published_tags == {TAGS[k] for k in self.spent}


LedgerModel.TestCase.settings = settings(
    max_examples=100, stateful_step_count=20, derandomize=True,
    deadline=None)
TestLedgerModel = LedgerModel.TestCase
