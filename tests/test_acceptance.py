"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Each criterion is the only test of its property: the unit files hold no
weaker copy of it.  Fixed cases run after a criterion's random trials,
so they leave its seeded draws as they were.

Criterion notes:
* The tamper sweep runs on the production backend.  In the 101-element
  toy field a random perturbation re-satisfies the challenge equation
  with probability ~1/101 per trial, so a zero-failure sweep of ~10^4
  perturbations is only meaningful where that probability is 2^-250ish.
* The scaling criterion runs one prod bench sweep and compares its
  cells; absolute times are hardware-bound and not asserted.
"""

import itertools
import random
from contextlib import contextmanager

import straightline as oracle
from conftest import PROD, TOY, build_ring, build_window, presign_intermediates
from ringadapt import (Signature, adapt, ext, gen_r, link, presign, preverify,
                       verify, verify_relation, wire)
from ringadapt.bench import by_algorithm, run_bench
from ringadapt.scheme import _presign_body
from ringadapt.swap import (FAULT_PLANS, MockLedger, Phase, ledger_submit,
                            swap_demo)
from test_wire import _random_sig_objects


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {name}")
        raise
    print(f"\n[PASS] criterion {number}: {name}")


def test_criterion_1_correctness_grid(toy):
    """Round trip over every (t, n, j), wrapping windows included, with
    20 seeds per cell and messages of 0 to 32 bytes."""
    with criterion(1, "correctness grid (1 <= t <= n <= 8, all j, "
                      "20 seeds per cell)"):
        failures = 0
        rounds = 0
        for n in range(1, 9):
            for t in range(1, n + 1):
                for j in range(n):
                    for k in range(20):
                        rng = random.Random(
                            ((n * 10 + t) * 10 + j) * 100 + k)
                        ring, members = build_ring(toy, n, rng)
                        window = build_window(toy, ring, members, j, t)
                        statement, w = gen_r(toy, rng)
                        message = bytes([n, t, j, k]) * (k % 9)
                        psig = presign(toy, ring, window, message, statement,
                                       rng)
                        sig = adapt(toy, psig, w)
                        ok = (len(psig.challenges) == n
                              and len(psig.tags) == t
                              and preverify(toy, ring, psig, t, message,
                                            statement)
                              and verify(toy, ring, sig, t, message)
                              and ext(toy, statement, psig, sig) == w
                              and verify_relation(toy, statement, w))
                        failures += not ok
                        rounds += 1
        assert rounds == 4080   # 204 cells
        assert failures == 0


def random_case(toy, rng):
    n = 1 + rng.randrange(8)
    t = 1 + rng.randrange(n)
    start = rng.randrange(n)
    ring, members = build_ring(toy, n, rng)
    window = build_window(toy, ring, members, start, t)
    statement, w = gen_r(toy, rng)
    message = bytes(rng.randrange(256) for _ in range(8))
    nonce = toy.random_scalar_nonzero(rng)
    # Decoys come from all of Z_p, as presign draws them.
    decoys = {i: rng.randrange(toy.order) for i in range(n) if i != start}
    return ring, window, statement, w, message, nonce, decoys


def random_cases(toy, rng, trials):
    """``trials`` random cases, then one whose decoys include a forced 0."""
    for _ in range(trials):
        yield random_case(toy, rng)
    while True:
        case = random_case(toy, rng)
        decoys = case[-1]
        if decoys:
            decoys[min(decoys)] = 0
            yield case
            return


def assert_matches_oracle(toy, case):
    """Every intermediate of one case's presign, adapt and ext equals the
    oracle's, and the oracle's own preverify and verify accept both."""
    ring, window, statement, w, message, nonce, decoys = case
    psig = _presign_body(toy, ring, window, message, statement, nonce, decoys)
    commit_g, commit_h, challenge, window_challenge = presign_intermediates(
        toy, ring, window, message, statement, nonce, decoys)
    expected = oracle.presign(ring.keys, window.start, window.secrets,
                              message, statement.w1, statement.w2, nonce,
                              decoys)
    assert ring.d == expected["d"]
    assert list(window.tags) == expected["tags"]
    assert commit_g == expected["commit_g"]
    assert commit_h == expected["commit_h"]
    assert challenge == expected["challenge"]
    assert window_challenge == expected["window_challenge"]
    assert psig.challenges[window.start] == window_challenge
    assert psig.z_tilde == expected["z_tilde"]
    assert list(psig.challenges) == expected["challenges"]

    sig = adapt(toy, psig, w)
    assert sig.z == (expected["z_tilde"] + w) % oracle.ORDER
    assert ext(toy, statement, psig, sig) == w
    assert oracle.preverify(ring.keys, psig.z_tilde, list(psig.challenges),
                            list(psig.tags), window.width, message,
                            statement.w1, statement.w2)
    assert oracle.verify(ring.keys, sig.z, list(sig.challenges),
                         list(sig.tags), window.width, message)


def test_criterion_2_oracle_equivalence(toy):
    """Straight-line oracle reproduces every intermediate bit for bit."""
    with criterion(2, "oracle equivalence on 100+ random traces"):
        rng = random.Random(424242)
        for case in random_cases(toy, rng, 100):
            assert_matches_oracle(toy, case)


def test_criterion_3_adaptability(toy):
    """Every valid pre-signature adapts into a verifying signature."""
    with criterion(3, "adaptability of 1000+ valid pre-signatures "
                      "(honest and re-randomized)"):
        rng = random.Random(777)
        checked = 0
        for trial in range(600):  # honest
            n = 1 + rng.randrange(8)
            t = 1 + rng.randrange(n)
            j = rng.randrange(n)
            ring, members = build_ring(toy, n, rng)
            window = build_window(toy, ring, members, j, t)
            statement, w = gen_r(toy, rng)
            message = trial.to_bytes(4, "big")
            psig = presign(toy, ring, window, message, statement, rng)
            assert preverify(toy, ring, psig, t, message, statement)
            assert verify(toy, ring, adapt(toy, psig, w), t, message)
            checked += 1
        for trial in range(450):  # re-randomized / out of distribution
            n = 2 + rng.randrange(7)
            t = 1 + rng.randrange(n)
            j = rng.randrange(n)
            ring, members = build_ring(toy, n, rng)
            window = build_window(toy, ring, members, j, t)
            statement, w = gen_r(toy, rng)
            message = trial.to_bytes(4, "little")
            style = trial % 3
            if style == 0:       # zero decoy challenges (never honest)
                decoys = {i: 0 for i in range(n) if i != j}
            elif style == 1:     # identical decoy challenges
                value = rng.randrange(toy.order)
                decoys = {i: value for i in range(n) if i != j}
            else:                # arbitrary, zero included
                decoys = {i: rng.randrange(toy.order)
                          for i in range(n) if i != j}
            nonce = 1 + rng.randrange(toy.order - 1)
            psig = _presign_body(toy, ring, window, message, statement,
                                 nonce, decoys)
            assert preverify(toy, ring, psig, t, message, statement)
            assert verify(toy, ring, adapt(toy, psig, w), t, message)
            checked += 1
        # Fixed cases on their own ring: zero, unit, mixed and repeated
        # decoy challenges under forced nonces.
        rng = random.Random(31)
        ring, members = build_ring(toy, 5, rng)
        window = build_window(toy, ring, members, 1, 2)
        statement, w = gen_r(toy, rng)
        for nonce, decoys in [(1, {0: 0, 2: 0, 3: 0, 4: 0}),
                              (1, {0: 1, 2: 1, 3: 1, 4: 1}),
                              (100, {0: 55, 2: 0, 3: 100, 4: 1}),
                              (7, {0: 4, 2: 4, 3: 4, 4: 4})]:
            psig = _presign_body(toy, ring, window, b"odd", statement,
                                 nonce, decoys)
            assert preverify(toy, ring, psig, 2, b"odd", statement)
            assert verify(toy, ring, adapt(toy, psig, w), 2, b"odd")
            checked += 1
        assert checked >= 1000


def test_criterion_4_tamper_suite(prod):
    """Perturbing any single field of an honest signature breaks it."""
    with criterion(4, "tamper suite: 1000 signatures, every single-field "
                      "perturbation rejected (production group)"):
        rng = random.Random(31337)
        g = prod.generator_g
        perturbed = 0
        for trial in range(1000):
            n = 1 + trial % 4
            t = 1 + rng.randrange(n)
            j = rng.randrange(n)
            ring, members = build_ring(prod, n, rng)
            window = build_window(prod, ring, members, j, t)
            statement, w = gen_r(prod, rng)
            message = b"tamper-%d" % trial
            sig = adapt(prod,
                        presign(prod, ring, window, message, statement, rng),
                        w)
            assert verify(prod, ring, sig, t, message)
            for i in range(n):  # each challenge scalar
                challenges = list(sig.challenges)
                challenges[i] = (challenges[i] + 1) % prod.order
                assert not verify(prod, ring,
                                  Signature(sig.z, tuple(challenges),
                                            sig.tags), t, message)
                perturbed += 1
            bumped = Signature((sig.z + 1) % prod.order, sig.challenges,
                               sig.tags)
            assert not verify(prod, ring, bumped, t, message)
            perturbed += 1
            for i in range(t):  # each link tag
                tags = list(sig.tags)
                tags[i] = prod.mul(tags[i], g)
                assert not verify(prod, ring,
                                  Signature(sig.z, sig.challenges,
                                            tuple(tags)), t, message)
                perturbed += 1
            for i in range(n):  # each ring key
                keys = list(ring.keys)
                keys[i] = prod.mul(keys[i], g)
                assert not verify(prod, type(ring)(prod, keys), sig, t,
                                  message)
                perturbed += 1
            flipped = bytearray(message)  # one message byte
            flipped[trial % len(message)] ^= 0x01
            assert not verify(prod, ring, sig, t, bytes(flipped))
            perturbed += 1
        assert perturbed >= 1000


def _positions(j, t, n):
    """The ring positions window (j, t) covers, mod n."""
    return {(j + i) % n for i in range(t)}


def test_criterion_5_linkability(toy):
    """Tag intersection tracks window overlap exactly; the ledger rejects
    overlapping double spends and admits disjoint windows."""
    with criterion(5, "linkability over all window pairs, n <= 8, plus "
                      "ledger admission"):
        rng = random.Random(2718)
        for n in range(1, 9):
            ring, members = build_ring(toy, n, rng)
            statement, w = gen_r(toy, rng)
            windows = [(j, t) for t in range(1, n + 1) for j in range(n)]
            signatures = {}
            for j, t in windows:
                window = build_window(toy, ring, members, j, t)
                psig = presign(toy, ring, window,
                               b"spend-%d-%d" % (j, t), statement, rng)
                signatures[(j, t)] = adapt(toy, psig, w)
            for (ja, ta), (jb, tb) in itertools.product(windows, windows):
                overlap = bool(_positions(ja, ta, n) & _positions(jb, tb, n))
                assert link(signatures[(ja, ta)],
                            signatures[(jb, tb)]) == overlap
            # ledger admission per pair, on fresh ledgers
            for (ja, ta), (jb, tb) in itertools.combinations(windows, 2):
                overlap = bool(_positions(ja, ta, n) & _positions(jb, tb, n))
                ledger = MockLedger(toy, "B")
                tx1 = wire.SwapTransaction("B", b"first", 1, 1,
                                           ring_keys=ring.keys, threshold=ta)
                psig = presign(toy, ring,
                               build_window(toy, ring, members, ja, ta),
                               wire.encode_transaction(toy, tx1), statement,
                               rng)
                # A window's tags do not depend on the message.
                assert psig.tags == signatures[(ja, ta)].tags
                assert ledger_submit(ledger, tx1,
                                     adapt(toy, psig, w)).accepted
                tx2 = wire.SwapTransaction("B", b"second", 1, 2,
                                           ring_keys=ring.keys, threshold=tb)
                psig = presign(toy, ring,
                               build_window(toy, ring, members, jb, tb),
                               wire.encode_transaction(toy, tx2), statement,
                               rng)
                result = ledger_submit(ledger, tx2, adapt(toy, psig, w))
                if overlap:
                    assert (result.accepted, result.reason) == \
                        (False, "double-spend-link")
                else:
                    assert result.accepted


def test_criterion_6_size_law():
    """Payload sizes equal the communication-cost formulas byte for byte."""
    with criterion(6, "size law: (n+1)S_z + t*S_g for n in 10..100, both "
                      "backends; statement = 2*S_g"):
        for ctx in (TOY, PROD):
            rng = random.Random(1)
            statement, _ = gen_r(ctx, rng)
            assert len(wire.encode_statement(ctx, statement)) \
                - wire.HEADER_SIZE == 2 * ctx.element_size
            for n in range(10, 101, 10):
                t = n // 2
                psig, sig = _random_sig_objects(ctx, rng, n, t)
                expected = (n + 1) * ctx.scalar_size + t * ctx.element_size
                assert len(wire.encode_presignature(ctx, psig)) \
                    - wire.HEADER_SIZE == expected
                assert len(wire.encode_signature(ctx, sig)) \
                    - wire.HEADER_SIZE == expected
                assert wire.signature_payload_size(ctx, n, t) == expected
        # reference point: 32-byte fields, n=10, t=5 -> 512 bytes
        psig, _ = _random_sig_objects(PROD, random.Random(2), 10, 5)
        assert len(wire.encode_presignature(PROD, psig)) \
            - wire.HEADER_SIZE == 512


def test_criterion_7_swap_atomicity(toy):
    """Full fault matrix x 20 seeds: both chains confirm or neither does."""
    with criterion(7, "swap atomicity over (happy + 5 aborts + 3 "
                      "corruptions) x 20 seeds"):
        plans = [None, *FAULT_PLANS.values()]
        assert len(plans) == 9
        mixed = 0
        for plan, seed in itertools.product(plans, range(20)):
            result = swap_demo(toy, ring_size=4, threshold=2, seed=seed,
                               fault=plan)
            outcome = result.outcome()
            if outcome not in ("both-confirmed", "neither-confirmed"):
                mixed += 1
            if plan is None:
                assert outcome == "both-confirmed"
                assert result.state.extracted_witness == result.bob_witness
            else:
                assert outcome == "neither-confirmed"
                assert result.state.phase is Phase.ABORTED
        assert mixed == 0


def test_criterion_8_scaling_shape(prod):
    """Signing and verification grow with n, linear-ish; adapt/ext/link
    stay flat."""
    with criterion(8, "scaling shape: presign/preverify/verify grow over "
                      "n=10..100, within 14x, no step below 0.75x; "
                      "adapt/ext/link flat within 3x"):
        records = run_bench(prod, range(10, 101, 10))
        for algorithm in ("presign", "preverify", "verify"):
            times = by_algorithm(records, algorithm)
            ratio = times[100].mean_ns / times[10].mean_ns
            print(f"  {algorithm}: n=10 {times[10].mean_ns/1e6:.2f} ms, "
                  f"n=100 {times[100].mean_ns/1e6:.2f} ms, ratio {ratio:.1f}")
            assert ratio <= 14.0, f"{algorithm} grew {ratio:.1f}x"
            # Growth, allowing a small dip for timer noise.
            means = [times[n].mean_ns for n in (10, 40, 70, 100)]
            assert means[-1] > means[0]
            for earlier, later in zip(means, means[1:]):
                assert later >= 0.75 * earlier, f"{algorithm} dipped"
        for algorithm in ("adapt", "ext", "link"):
            times = by_algorithm(records, algorithm)
            means = [rec.mean_ns for rec in times.values()]
            spread = max(means) / min(means)
            print(f"  {algorithm}: spread {spread:.2f}x across n")
            assert spread <= 3.0, f"{algorithm} varied {spread:.2f}x"
