"""Command-line surface, on ristretto255 with OS randomness.

Artifacts are passed between subcommands as files holding wire-format
bytes; a key file holds the secret scalar, as a witness file does, and
``keygen`` prints the public key's hex for ``ring-build --pubkey``.
A (pre-)signature file's length gives its t once the ring is read, so
only ``preverify`` and ``verify`` take ``--threshold``: the t they
require.  Verdict subcommands print 1 or 0; extraction prints the
witness or the failure marker.

Exit codes: 0 success / verdict true, 1 verdict false or extraction
failure, 2 usage, decode or I/O error (a closed stdout pipe included).
The process leaves through ``os._exit`` once its output is flushed:
interpreter teardown frees every module and runs a last garbage
collection, which takes longer than a ``verify``.
"""

from __future__ import annotations

import argparse
import os
import sys

from . import wire
from .groups import setup_group
from .scheme import (Ring, SignerWindow, adapt, ext, keygen, gen_r, link,
                     presign, preverify, verify)

FAILURE_MARK = "⊥"  # printed when extraction returns no witness


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes, secret: bool = False):
    # A secret file is created owner-only, and never over an existing file.
    flags = os.O_WRONLY | os.O_CREAT | (os.O_EXCL if secret else os.O_TRUNC)
    with open(os.open(path, flags, 0o600 if secret else 0o666), "wb") as fh:
        fh.write(data)


def _decoded(ctx, decode, path: str, ring=None):
    """``decode`` of the file's bytes, a (pre-)signature's on ``ring`` at
    its length's t; a ValueError names the file."""
    data = _read(path)
    try:
        if ring is None:
            return decode(ctx, data)
        t = wire.signature_threshold(ctx, data, len(ring))
        return decode(ctx, data, len(ring), t)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _secret(ctx, path: str) -> int:
    # A zero key or witness opens only the identity, which checks refuse.
    k = _decoded(ctx, wire.decode_scalar, path)
    if k == 0:
        raise ValueError(f"{path}: secret scalar is 0")
    return k


def _ring(ctx, path: str) -> Ring:
    return _decoded(ctx, wire.decode_ring, path)


def _statement(ctx, path: str):
    return _decoded(ctx, wire.decode_statement, path)


def _verdict(ok: bool) -> int:
    print(int(ok))
    return 0 if ok else 1


def cmd_keygen(ctx, args) -> int:
    pair = keygen(ctx)
    _write(args.out, wire.encode_scalar(ctx, pair.sk), secret=True)
    print(wire.encode_element(ctx, pair.pk).hex())
    return 0


def cmd_genr(ctx, args) -> int:
    statement, witness = gen_r(ctx)
    _write(args.witness_out, wire.encode_scalar(ctx, witness), secret=True)
    if os.path.exists(args.out) and os.path.samefile(args.out,
                                                     args.witness_out):
        raise ValueError(f"--out {args.out} is the witness file")
    _write(args.out, wire.encode_statement(ctx, statement))
    return 0


def _ring_key(ctx, flag: str, value: str):
    if flag == "--key":
        return ctx.exp(ctx.generator_g, _secret(ctx, value))
    try:
        return wire.decode_element(ctx, bytes.fromhex(value))
    except ValueError as exc:
        raise ValueError(f"--pubkey {value}: {exc}") from None


def cmd_ring_build(ctx, args) -> int:
    # --key and --pubkey values, in command-line order, are the ring.
    keys = [_ring_key(ctx, *given) for given in args.ring_keys or []]
    _write(args.out, wire.encode_ring(ctx, Ring(ctx, keys)))
    return 0


def cmd_presign(ctx, args) -> int:
    ring = _ring(ctx, args.ring)
    secrets = [_secret(ctx, path) for path in args.key]
    first = ctx.exp(ctx.generator_g, secrets[0])
    if first not in ring.keys:
        raise ValueError(f"{args.key[0]}: public key is not in the ring")
    # SignerWindow checks that each later key opens the next ring key.
    window = SignerWindow(ctx, ring, ring.keys.index(first), secrets)
    statement = _statement(ctx, args.statement)
    psig = presign(ctx, ring, window, _read(args.message), statement)
    _write(args.out, wire.encode_presignature(ctx, psig))
    return 0


def cmd_preverify(ctx, args) -> int:
    ring = _ring(ctx, args.ring)
    psig = _decoded(ctx, wire.decode_presignature, args.presig, ring)
    statement = _statement(ctx, args.statement)
    return _verdict(preverify(ctx, ring, psig, args.threshold,
                              _read(args.message), statement))


def cmd_adapt(ctx, args) -> int:
    ring = _ring(ctx, args.ring)
    psig = _decoded(ctx, wire.decode_presignature, args.presig, ring)
    _write(args.out, wire.encode_signature(
        ctx, adapt(ctx, psig, _secret(ctx, args.witness))))
    return 0


def cmd_verify(ctx, args) -> int:
    ring = _ring(ctx, args.ring)
    sig = _decoded(ctx, wire.decode_signature, args.sig, ring)
    return _verdict(verify(ctx, ring, sig, args.threshold,
                           _read(args.message)))


def cmd_ext(ctx, args) -> int:
    ring = _ring(ctx, args.ring)
    psig = _decoded(ctx, wire.decode_presignature, args.presig, ring)
    sig = _decoded(ctx, wire.decode_signature, args.sig, ring)
    witness = ext(ctx, _statement(ctx, args.statement), psig, sig)
    if witness is None:
        print(FAILURE_MARK)
        return 1
    print(wire.encode_scalar(ctx, witness).hex())
    return 0


def cmd_link(ctx, args) -> int:
    ring_a = _ring(ctx, args.ring)
    ring_b = _ring(ctx, args.ring_b) if args.ring_b else ring_a
    sig_a = _decoded(ctx, wire.decode_signature, args.sig_a, ring_a)
    sig_b = _decoded(ctx, wire.decode_signature, args.sig_b, ring_b)
    return _verdict(link(sig_a, sig_b))


def cmd_swap_demo(ctx, args) -> int:
    import json
    from .swap import FAULT_PLANS, Phase, swap_demo
    if args.fault != "none" and args.fault not in FAULT_PLANS:
        raise ValueError(f"unknown fault {args.fault!r}")
    fault = FAULT_PLANS.get(args.fault)
    result = swap_demo(ctx, seed=args.seed, fault=fault)
    summary = json.dumps({
        "event": "outcome",
        "phase": result.state.phase.value,
        "abort_reason": result.state.abort_reason,
        "outcome": result.outcome(),
    }, sort_keys=True)
    sys.stdout.write(result.transcript_jsonl() + "\n" + summary + "\n")
    mixed = result.outcome() == "mixed"
    stuck = fault is None and result.state.phase is not Phase.ALICE_CLAIMED
    return 1 if mixed or stuck else 0


def cmd_bench(ctx, args) -> int:
    from . import bench
    if args.step == 0:
        raise ValueError("--step must not be 0")
    sizes = range(args.min_n, args.max_n + 1, args.step)
    bench.write_csv(bench.run_bench(ctx, sizes), sys.stdout)
    return 0


class _InOrder(argparse._AppendAction):
    """``append`` of (flag, value), so that options sharing a ``dest``
    keep the order the command line gives them."""

    def __call__(self, parser, namespace, values, option_string=None):
        super().__call__(parser, namespace, (option_string, values),
                         option_string)


# Options are (flag, add_argument keywords); shared ones are declared once.
REQUIRED = {"required": True}
RING = ("--ring", REQUIRED)
THRESHOLD = ("--threshold", {"type": int, "required": True})
MESSAGE = ("--message", REQUIRED)
STATEMENT = ("--statement", REQUIRED)
PRESIG = ("--presig", REQUIRED)
SIG = ("--sig", REQUIRED)
OUT = ("--out", REQUIRED)

# name -> (handler, help, options)
COMMANDS = {
    "keygen": (cmd_keygen, "generate a key pair", [
        ("--out", {"required": True, "help": "secret key file; the "
                   "public key's hex is printed"})]),
    "genr": (cmd_genr, "sample a hard-relation statement/witness", [
        ("--out", {"required": True, "help": "statement output file"}),
        ("--witness-out", {"required": True, "help": "witness output file"})]),
    "ring-build": (cmd_ring_build, "assemble a ring from keys", [
        ("--key", {"action": _InOrder, "dest": "ring_keys", "metavar": "KEY",
                   "help": "key file (repeatable)"}),
        ("--pubkey", {"action": _InOrder, "dest": "ring_keys",
                      "metavar": "PUBKEY",
                      "help": "hex wire public key (repeatable)"}),
        OUT]),
    "presign": (cmd_presign, "produce a ring pre-signature", [
        RING,
        ("--key", {"action": "append", "required": True,
                   "help": "signer key file (repeatable): keys in ring order "
                           "from the first key's position; the window may "
                           "wrap"}),
        MESSAGE, STATEMENT, OUT]),
    "preverify": (cmd_preverify, "check a ring pre-signature",
                  [RING, THRESHOLD, MESSAGE, STATEMENT, PRESIG]),
    "adapt": (cmd_adapt, "complete a pre-signature with a witness",
              [RING, PRESIG, ("--witness", REQUIRED), OUT]),
    "verify": (cmd_verify, "check a full signature",
               [RING, THRESHOLD, MESSAGE, SIG]),
    "ext": (cmd_ext, "extract the witness from a signature pair",
            [RING, STATEMENT, PRESIG, SIG]),
    "link": (cmd_link, "test whether two signatures share a tag", [
        RING, ("--sig-a", REQUIRED), ("--sig-b", REQUIRED),
        ("--ring-b", {"help": "ring of the second signature, if different"})]),
    "swap-demo": (cmd_swap_demo, "run the two-ledger atomic swap", [
        ("--seed", {"type": int, "default": 0, "help": "picks the scenario"}),
        ("--fault", {"default": "none",
                     "help": "none, abort1..abort5 or a corruption name"})]),
    "bench": (cmd_bench, "sweep ring sizes and emit a CSV", [
        ("--min-n", {"type": int, "default": 10}),
        ("--max-n", {"type": int, "default": 100}),
        ("--step", {"type": int, "default": 10})]),
}


def build_parser(command) -> argparse.ArgumentParser:
    """Every subcommand, with options only on ``command``'s parser: only
    the invoked one ever parses."""
    parser = argparse.ArgumentParser(
        prog="ringadapt",
        description="Linkable threshold ring adaptor signatures",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, help_, options) in COMMANDS.items():
        p = sub.add_parser(name, help=help_)
        p.set_defaults(fn=fn)
        if name == command:
            for flag, keywords in options:
                p.add_argument(flag, **keywords)
    return parser


def _error(exc: Exception) -> int:
    print(f"error: {exc}", file=sys.stderr)
    return 2


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        # A module global looked up per call, so a tracer can replace it.
        return args.fn(setup_group("prod"), args)
    except (ValueError, OSError) as exc:
        return _error(exc)


def entry():
    try:
        code = main()
    except SystemExit as exc:   # argparse: 0 after --help, 2 on bad usage
        code = exc.code
    try:
        if sys.stdout is not None:   # None when fd 1 was closed at start-up
            sys.stdout.flush()
    except OSError as exc:   # a reader that left early, as if print failed
        code = _error(exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
