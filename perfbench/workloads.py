"""Seeded input generators for the benchmark workloads.

Each generator builds everything its workload's timed loop feeds the
program -- wire bytes, swap schedules, CLI argument lists and files --
together with the label every input must produce.  The same seed gives
the same inputs, byte for byte.  Nothing here is timed per op; the timed
loops in ``harness.py`` see only the returned inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from ringadapt import wire
from ringadapt.groups import GroupContext, SeededRandomness
from ringadapt.scheme import (Ring, Signature, SignerWindow, adapt, gen_r,
                              keygen, presign)
from ringadapt.swap import CORRUPTIONS, FaultPlan, make_demo_parties
from ringadapt.wire import CHAIN_RING, SwapTransaction

# Verdict labels of a ledger-admit op: "accepted", one of the ledger's
# reject reasons, or UNDECODABLE when wire decoding refuses the bytes.
ACCEPTED = "accepted"
UNDECODABLE = "undecodable"

# --- ledger-admit ------------------------------------------------------------

# (ring size, blocks of ten ops per epoch).  The shares put the median op
# inside the n=64 class, away from the class boundaries, so the median
# does not jump between ring sizes from one seed to the next.
LEDGER_CLASSES = ((16, 3), (64, 5), (128, 2))
# One block: six valid fresh spends and one of each adversarial kind.
LEDGER_BLOCK = ("valid",) * 6 + ("double-spend", "tampered", "malformed",
                                 "resubmit")


@dataclass(frozen=True)
class AdmitOp:
    kind: str
    n: int
    t: int
    tx: bytes
    sig: bytes
    label: str


@dataclass(frozen=True)
class _Spend:
    ring: Ring
    window: SignerWindow
    tx: SwapTransaction
    sig: Signature
    at: float          # sort key of its place in the stream


def _thresholds(n: int, count: int) -> list[int]:
    """Log-spaced thresholds from 1 to n/2: small windows are common,
    wide ones rare, and the multiset is the same for every seed."""
    half = n // 2
    return [max(1, round(half ** ((k + 0.5) / count))) for k in range(count)]


def _keys(ctx: GroupContext, count: int, crypto) -> list:
    members, seen = [], set()
    while len(members) < count:
        kp = keygen(ctx, crypto)
        if kp.pk not in seen:
            seen.add(kp.pk)
            members.append(kp)
    return members


def _ring_tx(ring: Ring, t: int, shape) -> SwapTransaction:
    return SwapTransaction(CHAIN_RING, shape.randbytes(8),
                           1 + shape.getrandbits(32), shape.getrandbits(64),
                           ring_keys=ring.keys, threshold=t)


def _sign(ctx, ring, window, tx, crypto) -> Signature:
    statement, witness = gen_r(ctx, crypto)
    message = wire.encode_transaction(ctx, tx)
    return adapt(ctx, presign(ctx, ring, window, message, statement, crypto),
                 witness)


def _tamper(ctx, sig: Signature, variant: int, crypto) -> Signature:
    if variant == 0:
        return Signature((sig.z + 1) % ctx.order, sig.challenges, sig.tags)
    if variant == 1:
        challenges = ((sig.challenges[0] + 1) % ctx.order,) + sig.challenges[1:]
        return Signature(sig.z, challenges, sig.tags)
    stray = ctx.exp(ctx.generator_h, ctx.random_scalar_nonzero(crypto))
    return Signature(sig.z, sig.challenges, (stray,) + sig.tags[1:])


def _undecodable(ctx, tx_bytes: bytes, sig_bytes: bytes, n: int,
                 variant: int) -> tuple[bytes, bytes]:
    if variant == 0:                       # signature one byte short
        return tx_bytes, sig_bytes[:-1]
    if variant == 1:                       # unknown wire version
        return bytes(((wire.VERSION + 1) % 256,)) + tx_bytes[1:], sig_bytes
    # A non-canonical ring key halfway through: decoding pays for the
    # keys before it.  Header, chain id and u16 ring size take 5 bytes.
    at = 5 + (n // 2) * ctx.element_size
    return (tx_bytes[:at] + b"\xff" * ctx.element_size
            + tx_bytes[at + ctx.element_size:]), sig_bytes


def _adversarial(ctx, s: _Spend, kind: str, block: int, shape,
                 crypto) -> AdmitOp:
    """One adversarial op derived from the valid spend ``s``; ``block``
    cycles the tamper and malformation variants."""
    n, t = len(s.ring), s.window.width
    tx_bytes = wire.encode_transaction(ctx, s.tx)
    sig_bytes = wire.encode_signature(ctx, s.sig)
    if kind == "double-spend":
        # The same window signs a new transaction.
        tx = _ring_tx(s.ring, t, shape)
        return AdmitOp(kind, n, t, wire.encode_transaction(ctx, tx),
                       wire.encode_signature(
                           ctx, _sign(ctx, s.ring, s.window, tx, crypto)),
                       "double-spend-link")
    if kind == "resubmit":
        return AdmitOp(kind, n, t, tx_bytes, sig_bytes, "double-spend-link")
    if kind == "tampered":
        return AdmitOp(kind, n, t, tx_bytes, wire.encode_signature(
            ctx, _tamper(ctx, s.sig, block % 3, crypto)), "bad-signature")
    if block % 2 == 0:
        return AdmitOp("malformed-bytes", n, t, *_undecodable(
            ctx, tx_bytes, sig_bytes, n, (block // 2) % 3), UNDECODABLE)
    # Decodes, but the ledger refuses a ring with a repeated key.
    keys = s.tx.ring_keys[:-1] + s.tx.ring_keys[:1]
    tx = SwapTransaction(CHAIN_RING, s.tx.payee, s.tx.amount, s.tx.nonce,
                         ring_keys=keys, threshold=t)
    return AdmitOp("duplicate-key", n, t, wire.encode_transaction(ctx, tx),
                   sig_bytes, "malformed")


def ledger_admit(ctx: GroupContext, seed: int):
    """The admission stream of one chain-B ledger, in submission order.

    Returns (ops, mix).  Rings come from a pool per ring size; each ring
    carries as many disjoint signer windows as fit, so it is reused by
    many transactions.  Link tags are per key, so every valid spend gets
    keys no other valid spend uses.
    """
    crypto = SeededRandomness(seed)
    shape = random.Random(f"ledger-admit/{seed}")
    keyed = []          # (sort key, AdmitOp): derived ops sort after originals
    mix = {"ops": 0, "kinds": {}, "ring_sizes": {}, "rings": {}, "keys": 0}
    for n, blocks in LEDGER_CLASSES:
        valid_count = LEDGER_BLOCK.count("valid") * blocks
        thresholds = _thresholds(n, valid_count)
        shape.shuffle(thresholds)
        # First-fit packing of windows into rings of n fresh keys.
        slots, used = [], n
        for t in thresholds:
            if used + t > n:
                slots.append([])
                used = 0
            slots[-1].append((used, t))
            used += t
        signed = []
        for ring_slots in slots:
            members = _keys(ctx, n, crypto)
            ring = Ring(ctx, [kp.pk for kp in members])
            for start, t in ring_slots:
                window = SignerWindow(
                    ctx, ring, start, [kp.sk for kp in members[start:start + t]])
                tx = _ring_tx(ring, t, shape)
                signed.append((ring, window, tx,
                               _sign(ctx, ring, window, tx, crypto)))
            mix["keys"] += n
        mix["rings"][str(n)] = len(slots)
        spends = [_Spend(*args, shape.random()) for args in signed]
        for s in spends:
            keyed.append((s.at, AdmitOp(
                "valid", n, s.window.width, wire.encode_transaction(ctx, s.tx),
                wire.encode_signature(ctx, s.sig), ACCEPTED)))
        # Adversarial ops derive from spends spread evenly over the sorted
        # thresholds, so every seed gets the same cost mix.
        adversarial = LEDGER_BLOCK[LEDGER_BLOCK.count("valid"):]
        by_width = sorted(spends, key=lambda s: (s.window.width, s.at))
        step = len(by_width) / (len(adversarial) * blocks)
        for j in range(len(adversarial) * blocks):
            s = by_width[int(j * step)]
            op = _adversarial(ctx, s, adversarial[j % len(adversarial)],
                              j // len(adversarial), shape, crypto)
            # Replays of a spend go after it; the rest go anywhere.
            after = (shape.uniform(s.at, 1.0)
                     if op.label == "double-spend-link" else shape.random())
            keyed.append((after, op))
        mix["ring_sizes"][str(n)] = 10 * blocks
    keyed.sort(key=lambda pair: pair[0])
    ops = [op for _, op in keyed]
    for op in ops:
        mix["kinds"][op.kind] = mix["kinds"].get(op.kind, 0) + 1
    mix["ops"] = len(ops)
    mix["t_range"] = [min(op.t for op in ops), max(op.t for op in ops)]
    return ops, mix


# --- swap-e2e ----------------------------------------------------------------

SWAP_RING = (16, 4)
SWAP_HAPPY_RUNS = 16
SWAP_FAULTS = tuple(FaultPlan(abort_after=k) for k in range(1, 6)) + tuple(
    FaultPlan(corruption=c) for c in CORRUPTIONS)


@dataclass(frozen=True)
class SwapOp:
    fault: FaultPlan
    seed: int
    outcome: str
    phase: str


@dataclass(frozen=True)
class SwapInputs:
    ring: Ring
    window: SignerWindow
    bob: object
    ops: list


def swap_e2e(ctx: GroupContext, seed: int):
    """Parties at n=16, t=4 and one epoch of runs: mostly happy paths,
    plus one run of every fault plan.  Returns (inputs, mix)."""
    ring, window, bob = make_demo_parties(ctx, *SWAP_RING, seed=seed)
    shape = random.Random(f"swap-e2e/{seed}")
    plans = [FaultPlan()] * SWAP_HAPPY_RUNS + list(SWAP_FAULTS)
    shape.shuffle(plans)
    ops = []
    for plan in plans:
        happy = plan == FaultPlan()
        ops.append(SwapOp(plan, shape.getrandbits(32),
                          "both-confirmed" if happy else "neither-confirmed",
                          "alice-claimed" if happy else "aborted"))
    mix = {"ops": len(ops), "ring": list(SWAP_RING), "happy": SWAP_HAPPY_RUNS,
           "faults": [fault_name(p) for p in SWAP_FAULTS]}
    return SwapInputs(ring, window, bob, ops), mix


def fault_name(plan: FaultPlan) -> str:
    if plan.abort_after is not None:
        return f"abort{plan.abort_after}"
    return plan.corruption or "happy"


# --- cli-verify --------------------------------------------------------------

CLI_RING_SIZE = 64
CLI_VALID_THRESHOLDS = (4, 4, 8, 8, 16, 16)   # disjoint windows, 56 of 64 keys
CLI_WRONG_MESSAGE = 2
CLI_UNDECODABLE = 2


@dataclass(frozen=True)
class CliOp:
    kind: str
    args: tuple      # arguments after "python -m ringadapt.cli"
    exit_code: int
    stdout: str


def cli_verify(ctx: GroupContext, seed: int, workdir: Path):
    """Write a ring, messages and signatures at n=64 into ``workdir`` and
    return the ``verify`` invocations with their exit codes.
    Returns (ops, mix)."""
    crypto = SeededRandomness(seed)
    shape = random.Random(f"cli-verify/{seed}")
    members = _keys(ctx, CLI_RING_SIZE, crypto)
    ring = Ring(ctx, [kp.pk for kp in members])
    workdir.mkdir(parents=True, exist_ok=True)

    def put(name: str, data: bytes) -> str:
        path = workdir / name
        path.write_bytes(data)
        return str(path)

    ring_file = put("ring.bin", wire.encode_ring(ctx, ring))
    signed, start = [], 0
    for k, t in enumerate(CLI_VALID_THRESHOLDS):
        window = SignerWindow(ctx, ring, start,
                              [kp.sk for kp in members[start:start + t]])
        start += t
        message = shape.randbytes(32)
        statement, witness = gen_r(ctx, crypto)
        sig = adapt(ctx, presign(ctx, ring, window, message, statement,
                                 crypto), witness)
        signed.append((t, put(f"msg{k}.bin", message),
                       put(f"sig{k}.bin", wire.encode_signature(ctx, sig))))

    def verify_args(t, message, sig):
        return ("verify", "--ring", ring_file, "--threshold", str(t),
                "--message", message, "--sig", sig)

    ops = [CliOp("valid", verify_args(t, m, s), 0, "1") for t, m, s in signed]
    for k in range(CLI_WRONG_MESSAGE):
        t, _, sig = signed[k]
        other = signed[(k + 1) % len(signed)][1]
        ops.append(CliOp("wrong-message", verify_args(t, other, sig), 1, "0"))
    for k in range(CLI_UNDECODABLE):
        t, message, sig = signed[k]
        data = Path(sig).read_bytes()
        bad = data[:-1] if k % 2 == 0 else bytes(
            ((wire.VERSION + 1) % 256,)) + data[1:]
        ops.append(CliOp("undecodable",
                         verify_args(t, message, put(f"bad{k}.bin", bad)),
                         2, ""))
    shape.shuffle(ops)
    mix = {"ops": len(ops), "ring": CLI_RING_SIZE,
           "thresholds": list(CLI_VALID_THRESHOLDS),
           "kinds": {"valid": len(signed), "wrong-message": CLI_WRONG_MESSAGE,
                     "undecodable": CLI_UNDECODABLE}}
    return ops, mix
