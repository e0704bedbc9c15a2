"""Command-line surface.

Artifacts are passed between subcommands as files holding wire-format
bytes (key files are small JSON documents wrapping the hex of the wire
encodings).  Verdict subcommands print 1 or 0; extraction prints the
witness or the failure marker.

Exit codes: 0 success / verdict true, 1 verdict false or extraction
failure, 2 usage or decode error.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import wire
from .groups import (_BACKENDS, SeededRandomness, UnknownBackendError,
                     setup_group)
from .scheme import (Ring, SignerWindow, adapt, ext, keygen, gen_r, link,
                     presign, preverify, verify)

FAILURE_MARK = "⊥"  # printed when extraction returns no witness


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write(path: str, data: bytes):
    with open(path, "wb") as fh:
        fh.write(data)


def _load_key(ctx, path: str) -> tuple[int, object]:
    doc = json.loads(_read(path))
    if not (isinstance(doc, dict) and isinstance(doc.get("sk"), str)
            and isinstance(doc.get("pk"), str)):
        raise ValueError(f"key file {path} is not an object with hex "
                         "'sk' and 'pk' strings")
    if doc.get("group") != ctx.label:
        raise ValueError(f"key file {path} was made for group "
                         f"{doc.get('group')!r}, not {ctx.label!r}")
    sk = wire.decode_scalar(ctx, bytes.fromhex(doc["sk"]))
    pk = wire.decode_element(ctx, bytes.fromhex(doc["pk"]))
    return sk, pk


def _window_arg(value: str) -> tuple[int, int]:
    try:
        start, width = value.split(",")
        return int(start), int(width)
    except ValueError:
        raise argparse.ArgumentTypeError(
            "window must be 'j,t' (start index, width)") from None


def _rng(args):
    return SeededRandomness(args.seed) if args.seed is not None else None


def _fault_plan(name: str):
    """'none', 'abortK' or a corruption name; FaultPlan rejects the rest."""
    from .swap import FaultPlan
    if name == "none":
        return None
    step = name[len("abort"):]
    if name.startswith("abort") and step.isdecimal():
        return FaultPlan(abort_after=int(step))
    return FaultPlan(corruption=name)


def cmd_keygen(args) -> int:
    ctx = setup_group(args.group)
    pair = keygen(ctx, _rng(args))
    doc = json.dumps({
        "group": ctx.label,
        "sk": wire.encode_scalar(ctx, pair.sk).hex(),
        "pk": wire.encode_element(ctx, pair.pk).hex(),
    }, indent=2)
    if args.out:
        _write(args.out, doc.encode())
    else:
        print(doc)
    return 0


def cmd_genr(args) -> int:
    ctx = setup_group(args.group)
    statement, witness = gen_r(ctx, _rng(args))
    _write(args.out, wire.encode_statement(ctx, statement))
    _write(args.witness_out, wire.encode_scalar(ctx, witness))
    return 0


def cmd_ring_build(args) -> int:
    ctx = setup_group(args.group)
    keys = []
    for path in args.key or []:
        keys.append(_load_key(ctx, path)[1])
    for hexval in args.pubkey or []:
        keys.append(wire.decode_element(ctx, bytes.fromhex(hexval)))
    ring = Ring(ctx, keys)
    _write(args.out, wire.encode_ring(ctx, ring))
    return 0


def cmd_presign(args) -> int:
    ctx = setup_group(args.group)
    ring = wire.decode_ring(ctx, _read(args.ring))
    start, width = args.window
    secrets = [_load_key(ctx, path)[0] for path in args.key or []]
    if len(secrets) != width:
        raise ValueError(f"window width {width} needs {width} --key files, "
                         f"got {len(secrets)}")
    window = SignerWindow(ctx, ring, start, secrets)
    statement = wire.decode_statement(ctx, _read(args.statement))
    psig = presign(ctx, ring, window, _read(args.message), statement,
                   _rng(args))
    _write(args.out, wire.encode_presignature(ctx, psig))
    return 0


def cmd_preverify(args) -> int:
    ctx = setup_group(args.group)
    ring = wire.decode_ring(ctx, _read(args.ring))
    psig = wire.decode_presignature(ctx, _read(args.presig), len(ring),
                                    args.threshold)
    statement = wire.decode_statement(ctx, _read(args.statement))
    ok = preverify(ctx, ring, psig, args.threshold, _read(args.message),
                   statement)
    print(int(ok))
    return 0 if ok else 1


def cmd_adapt(args) -> int:
    ctx = setup_group(args.group)
    ring = wire.decode_ring(ctx, _read(args.ring))
    psig = wire.decode_presignature(ctx, _read(args.presig), len(ring),
                                    args.threshold)
    witness = wire.decode_scalar(ctx, _read(args.witness))
    _write(args.out, wire.encode_signature(ctx, adapt(ctx, psig, witness)))
    return 0


def cmd_verify(args) -> int:
    ctx = setup_group(args.group)
    ring = wire.decode_ring(ctx, _read(args.ring))
    sig = wire.decode_signature(ctx, _read(args.sig), len(ring),
                                args.threshold)
    ok = verify(ctx, ring, sig, args.threshold, _read(args.message))
    print(int(ok))
    return 0 if ok else 1


def cmd_ext(args) -> int:
    ctx = setup_group(args.group)
    ring = wire.decode_ring(ctx, _read(args.ring))
    psig = wire.decode_presignature(ctx, _read(args.presig), len(ring),
                                    args.threshold)
    sig = wire.decode_signature(ctx, _read(args.sig), len(ring),
                                args.threshold)
    statement = wire.decode_statement(ctx, _read(args.statement))
    witness = ext(ctx, statement, psig, sig)
    if witness is None:
        print(FAILURE_MARK)
        return 1
    print(wire.encode_scalar(ctx, witness).hex())
    return 0


def cmd_link(args) -> int:
    ctx = setup_group(args.group)
    ring_a = wire.decode_ring(ctx, _read(args.ring))
    ring_b = wire.decode_ring(ctx, _read(args.ring_b)) if args.ring_b \
        else ring_a
    t_b = args.threshold_b if args.threshold_b is not None else args.threshold
    sig_a = wire.decode_signature(ctx, _read(args.sig_a), len(ring_a),
                                  args.threshold)
    sig_b = wire.decode_signature(ctx, _read(args.sig_b), len(ring_b), t_b)
    linked = link(sig_a, sig_b)
    print(int(linked))
    return 0 if linked else 1


def cmd_swap_demo(args) -> int:
    from .swap import Phase, swap_demo
    ctx = setup_group(args.group)
    fault = _fault_plan(args.fault)
    result = swap_demo(ctx, ring_size=args.ring_size,
                       threshold=args.threshold, seed=args.seed or 0,
                       fault=fault)
    lines = result.transcript_jsonl()
    summary = json.dumps({
        "event": "outcome",
        "phase": result.state.phase.value,
        "abort_reason": result.state.abort_reason,
        "outcome": result.outcome(),
    }, sort_keys=True)
    text = lines + "\n" + summary + "\n"
    if args.out:
        _write(args.out, text.encode())
    else:
        sys.stdout.write(text)
    if result.outcome() == "mixed":
        return 1
    if fault is None and result.state.phase is not Phase.ALICE_CLAIMED:
        return 1
    return 0


def cmd_bench(args) -> int:
    from . import bench
    sizes = range(args.min_n, args.max_n + 1, args.step)
    reps = bench.MIN_REPS if args.reps is None else args.reps
    records = bench.run_bench(args.group, sizes, reps, args.seed or 0)
    if args.out:
        with open(args.out, "w", newline="") as fh:
            bench.write_csv(records, fh)
    else:
        bench.write_csv(records, sys.stdout)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringadapt",
        description="Linkable threshold ring adaptor signatures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(fn=fn)
        p.add_argument("--group", choices=tuple(_BACKENDS), default="prod",
                       help="group backend (default prod)")
        p.add_argument("--seed", type=int, default=None,
                       help="deterministic randomness for tests")
        return p

    p = add("keygen", cmd_keygen, help="generate a key pair")
    p.add_argument("--out", help="key file (default: print to stdout)")

    p = add("genr", cmd_genr, help="sample a hard-relation statement/witness")
    p.add_argument("--out", required=True, help="statement output file")
    p.add_argument("--witness-out", required=True, help="witness output file")

    p = add("ring-build", cmd_ring_build, help="assemble a ring from keys")
    p.add_argument("--key", action="append", help="key file (repeatable)")
    p.add_argument("--pubkey", action="append",
                   help="hex wire public key (repeatable)")
    p.add_argument("--out", required=True)

    p = add("presign", cmd_presign, help="produce a ring pre-signature")
    p.add_argument("--ring", required=True)
    p.add_argument("--window", type=_window_arg, required=True,
                   metavar="j,t", help="window start and width")
    p.add_argument("--key", action="append",
                   help="signer key file, one per window slot, in order")
    p.add_argument("--message", required=True)
    p.add_argument("--statement", required=True)
    p.add_argument("--out", required=True)

    p = add("preverify", cmd_preverify, help="check a ring pre-signature")
    p.add_argument("--ring", required=True)
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--statement", required=True)
    p.add_argument("--presig", required=True)

    p = add("adapt", cmd_adapt, help="complete a pre-signature with a witness")
    p.add_argument("--ring", required=True)
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--presig", required=True)
    p.add_argument("--witness", required=True)
    p.add_argument("--out", required=True)

    p = add("verify", cmd_verify, help="check a full signature")
    p.add_argument("--ring", required=True)
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--message", required=True)
    p.add_argument("--sig", required=True)

    p = add("ext", cmd_ext, help="extract the witness from a signature pair")
    p.add_argument("--ring", required=True)
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--statement", required=True)
    p.add_argument("--presig", required=True)
    p.add_argument("--sig", required=True)

    p = add("link", cmd_link, help="test whether two signatures share a tag")
    p.add_argument("--ring", required=True)
    p.add_argument("--threshold", type=int, required=True)
    p.add_argument("--sig-a", required=True)
    p.add_argument("--sig-b", required=True)
    p.add_argument("--ring-b", help="ring of the second signature, if different")
    p.add_argument("--threshold-b", type=int)

    p = add("swap-demo", cmd_swap_demo, help="run the two-ledger atomic swap")
    p.add_argument("--ring-size", type=int, default=4)
    p.add_argument("--threshold", type=int, default=2)
    p.add_argument("--fault", default="none",
                   help="none, abort1..abort5 or a corruption name")
    p.add_argument("--out", help="transcript file (default: stdout)")

    p = add("bench", cmd_bench, help="sweep ring sizes and emit a CSV")
    p.add_argument("--min-n", type=int, default=10)
    p.add_argument("--max-n", type=int, default=100)
    p.add_argument("--step", type=int, default=10)
    p.add_argument("--reps", type=int,
                   help="repetitions per cell (default bench.MIN_REPS)")
    p.add_argument("--out", help="CSV file (default: stdout)")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (wire.WireError, UnknownBackendError, ValueError, OSError,
            json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
