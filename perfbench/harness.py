"""Timed loops, correctness checks and metrics of the benchmark.

A run sets a workload up ``SETUP_REPEATS`` times (``setup_s`` is the
median), then replays the generated inputs in epochs until ``seconds``
have passed.  One client drives the program in a closed loop: the next op
starts when the previous one has returned.  Every op's result is checked
against the label fixed when the inputs were generated.

With tracing on, untraced and traced epochs alternate (at least two of
each); per-layer values come from the traced epochs, per op, and the
untraced ones give ``trace.overhead_ratio``.
"""

from __future__ import annotations

import ctypes
import ctypes.util
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from io import StringIO
from pathlib import Path

import ringadapt.cli as cli_mod
from ringadapt import swap, wire
from ringadapt.groups import RistrettoGroup
from ringadapt.wire import CHAIN_RING

import workloads
from tracing import TracedGroup, Tracer, traced

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = Path(__file__).resolve().parent / ".work"

SETUP_REPEATS = 5
WARMUP_OPS = 10           # ledger-admit ops run before timing, per set-up
MIN_TRACED_EPOCHS = 2
TAIL_BEYOND = 10          # samples above the reported tail latency
CHILD_TIMEOUT_S = 60
INTERPRETER_PROBES = 5
IMPORT_PROBES = 3

_now = time.perf_counter_ns


@dataclass
class Epoch:
    latencies_ns: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    failed_ops: set = field(default_factory=set)
    digest: object = field(default_factory=hashlib.sha256)
    child_cpu_s: float = 0.0

    def check(self, index: int, what: str, got, expected, record=True):
        """Compare an op's result with its label; ``record`` adds the
        result to the digest that every epoch must reproduce."""
        if record:
            self.digest.update(repr(got).encode() + b"\n")
        if got != expected:
            self.failed_ops.add(index)
            self.failures.append(f"op {index} ({what}): got {got!r}, "
                                 f"expected {expected!r}")


# --- workloads ---------------------------------------------------------------

class Workload:
    """``setup`` builds ``ctx``, ``ops`` and ``mix``; ``epoch`` runs every
    op once, timing each, and checks it against its label."""

    rusage_who = resource.RUSAGE_SELF     # whose peak memory is reported

    def cli_metrics(self, traced_epochs: list, ops: int) -> dict:
        return {"cli.interpreter_ms": 0.0, "cli.import_ms": 0.0,
                "cli.child_cpu_ms": 0.0}


class LedgerAdmit(Workload):
    """Wire decoding plus admission on one long-lived chain-B ledger per
    epoch; each epoch replays the same stream on a fresh ledger."""

    def setup(self, seed: int, workdir: Path):
        self.ctx = RistrettoGroup()
        self.ops, self.mix = workloads.ledger_admit(self.ctx, seed)
        self.epoch(self.ctx, self.ops[:WARMUP_OPS])

    def epoch(self, ctx, ops=None, tracer=None) -> Epoch:
        ops = self.ops if ops is None else ops
        ledger = swap.MockLedger(ctx, CHAIN_RING)
        out = Epoch()
        for i, op in enumerate(ops):
            start = _now()
            try:
                verdict = _admit(ctx, ledger, op)
            except Exception as exc:  # an op that raises is a failed op
                verdict = f"raised {exc!r}"
            out.latencies_ns.append(_now() - start)
            out.check(i, f"{op.kind} n={op.n} t={op.t}", verdict, op.label)
        return out


def _admit(ctx, ledger, op) -> str:
    try:
        tx = wire.decode_transaction(ctx, op.tx)
        sig = wire.decode_signature(ctx, op.sig, len(tx.ring_keys),
                                    tx.threshold)
    except wire.WireError:
        return workloads.UNDECODABLE
    result = swap.ledger_submit(ledger, tx, sig)
    return workloads.ACCEPTED if result.accepted else result.reason


class SwapE2E(Workload):
    """Complete swaps between fixed parties, each with fresh ledgers."""

    def setup(self, seed: int, workdir: Path):
        self.ctx = RistrettoGroup()
        self.inputs, self.mix = workloads.swap_e2e(self.ctx, seed)
        self.ops = self.inputs.ops
        self.epoch(self.ctx)

    def epoch(self, ctx, ops=None, tracer=None) -> Epoch:
        ops = self.ops if ops is None else ops
        p = self.inputs
        out = Epoch()
        for i, op in enumerate(ops):
            start = _now()
            try:
                result = swap.run_swap(ctx, ring=p.ring, window=p.window,
                                       bob_keypair=p.bob, fault=op.fault,
                                       seed=op.seed)
            except Exception as exc:  # an op that raises is a failed op
                out.latencies_ns.append(_now() - start)
                out.check(i, "run_swap", f"raised {exc!r}", op.outcome)
                continue
            out.latencies_ns.append(_now() - start)
            state = result.state
            got = (result.outcome(), state.phase.value)
            expected = (op.outcome, op.phase)
            if op.outcome == "both-confirmed":
                # Witness extractability: Alice recovers exactly Bob's w.
                got += (state.extracted_witness == result.bob_witness,)
                expected += (True,)
            out.check(i, workloads.fault_name(op.fault), got, expected)
            out.digest.update(result.transcript_jsonl().encode())
        return out


class CliVerify(Workload):
    """``python -m ringadapt.cli verify`` child processes, one at a time."""

    rusage_who = resource.RUSAGE_CHILDREN

    def setup(self, seed: int, workdir: Path):
        self.ctx = RistrettoGroup()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.ops, self.mix = workloads.cli_verify(self.ctx, seed, workdir)
        self.epoch(self.ctx, self.ops[:1])

    def epoch(self, ctx, ops=None, tracer=None) -> Epoch:
        ops = self.ops if ops is None else ops
        out = Epoch()
        for i, op in enumerate(ops):
            before = resource.getrusage(resource.RUSAGE_CHILDREN)
            start = _now()
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "ringadapt.cli", *op.args],
                    cwd=ROOT, env=self.env, capture_output=True, text=True,
                    timeout=CHILD_TIMEOUT_S)
                got = (proc.returncode, proc.stdout.strip())
            except subprocess.TimeoutExpired:
                got = ("timeout", "")
            out.latencies_ns.append(_now() - start)
            after = resource.getrusage(resource.RUSAGE_CHILDREN)
            out.child_cpu_s += (after.ru_utime - before.ru_utime
                                + after.ru_stime - before.ru_stime)
            out.check(i, op.kind, got, (op.exit_code, op.stdout))
            if tracer is not None:
                # The child's layers cannot be reached from here, so the
                # same command runs once more in this process, traced.
                out.check(i, f"{op.kind} in-process", _cli_in_process(op),
                          (op.exit_code, op.stdout), record=False)
        return out

    def cli_metrics(self, traced_epochs: list, ops: int) -> dict:
        return {"cli.interpreter_ms": interpreter_ms(self.env),
                "cli.import_ms": import_ms(self.env),
                "cli.child_cpu_ms": (sum(e.child_cpu_s for e in traced_epochs)
                                     * 1e3 / ops)}


def _cli_in_process(op) -> tuple:
    captured = StringIO()
    with redirect_stdout(captured), redirect_stderr(StringIO()):
        code = cli_mod.main(list(op.args))
    return code, captured.getvalue().strip()


WORKLOAD_CLASSES = {"ledger-admit": LedgerAdmit, "swap-e2e": SwapE2E,
                    "cli-verify": CliVerify}


# --- metrics -----------------------------------------------------------------

def _calls(span):
    return "count/op", lambda tr, ops: tr.calls[span] / ops


def _us(span):
    return "us/op", lambda tr, ops: tr.self_ns[span] / ops / 1e3


def _per_op(event, unit="count/op"):
    return unit, lambda tr, ops: tr.events[event] / ops


def _ratio(event, span):
    return "ratio", lambda tr, ops: (tr.events[event] / tr.calls[span]
                                     if tr.calls[span] else 0.0)


# Per-layer metrics taken from the traced epochs, in BENCHMARK.json order.
PER_LAYER = {
    "groups.exp.calls": _calls("groups.exp"),
    "groups.exp.us": _us("groups.exp"),
    "groups.mul.calls": _calls("groups.mul"),
    "groups.mul.us": _us("groups.mul"),
    "groups.inv.calls": _calls("groups.inv"),
    "groups.is_element.calls": _calls("groups.is_element"),
    "groups.is_element.us": _us("groups.is_element"),
    "groups.encode_element.calls": _calls("groups.encode_element"),
    "groups.decode_element.calls": _calls("groups.decode_element"),
    "groups.decode_element.us": _us("groups.decode_element"),
    "groups.exp_g.calls": _calls("groups.exp_g"),
    "groups.exp_g.us": _us("groups.exp_g"),
    "groups.hash.calls": _calls("groups.hash"),
    "groups.hash.bytes": _per_op("groups.hash.bytes", "bytes/op"),
    "groups.hash.us": _us("groups.hash"),
    "scheme.verify.calls": _calls("scheme.verify"),
    "scheme.verify.us": _us("scheme.verify"),
    "scheme.verify.reject_ratio": _ratio("scheme.verify.reject",
                                         "scheme.verify"),
    "scheme.presign.us": _us("scheme.presign"),
    "scheme.preverify.us": _us("scheme.preverify"),
    "scheme.ext.us": _us("scheme.ext"),
    "scheme.ring.calls": _calls("scheme.ring"),
    "scheme.ring.us": _us("scheme.ring"),
    "scheme.ring.distinct_ratio": _ratio("scheme.ring.distinct",
                                         "scheme.ring"),
    "schnorr.presign.us": _us("schnorr.presign"),
    "schnorr.preverify.us": _us("schnorr.preverify"),
    "schnorr.verify.us": _us("schnorr.verify"),
    "wire.decode.calls": _calls("wire.decode"),
    "wire.decode.us": _us("wire.decode"),
    "wire.decode.reject_ratio": _ratio("wire.decode.raised", "wire.decode"),
    "wire.encode_transaction.calls": _calls("wire.encode_transaction"),
    "wire.encode_transaction.us": _us("wire.encode_transaction"),
    "wire.encode.us": _us("wire.encode"),
    "swap.ledger_submit.us": _us("swap.ledger_submit"),
    "swap.ledger_submit.accept_ratio": _ratio("swap.ledger_submit.accepted",
                                              "swap.ledger_submit"),
    "swap.reject.bad-signature": _per_op("swap.reject.bad-signature"),
    "swap.reject.double-spend-link": _per_op("swap.reject.double-spend-link"),
    "swap.reject.malformed": _per_op("swap.reject.malformed"),
    "swap.run_swap.us": _us("swap.run_swap"),
}
# Measured around child processes (cli-verify only) and across epochs.
PER_LAYER_UNITS_EXTRA = {"cli.interpreter_ms": "ms", "cli.import_ms": "ms",
                         "cli.child_cpu_ms": "ms/op",
                         "trace.overhead_ratio": "ratio"}

END_TO_END_UNITS = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def tail(latencies_ns: list) -> tuple[float, float]:
    """(latency in ms, percentile) at the highest percentile that has at
    least TAIL_BEYOND samples above it."""
    ordered = sorted(latencies_ns)
    index = max(0, len(ordered) - TAIL_BEYOND - 1)
    return ordered[index] / 1e6, 100.0 * (index + 1) / len(ordered)


def p50_ms(epochs: list) -> float:
    """Median op latency, taken per epoch and averaged over the epochs.

    On a shared virtual machine the speed can switch between levels about
    1.5x apart, each held for seconds.  A median over all ops of a run snaps to whichever level
    held most of the run; the mean of per-epoch medians moves in
    proportion to the time spent at each level.
    """
    return statistics.fmean(statistics.median(e.latencies_ns)
                            for e in epochs) / 1e6


def _metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def _child_ms(argv, env) -> tuple[float, str]:
    start = _now()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S, check=True)
    return (_now() - start) / 1e6, proc.stderr


def interpreter_ms(env) -> float:
    """Median wall time of a bare ``python -c pass``."""
    return statistics.median(_child_ms([sys.executable, "-c", "pass"], env)[0]
                             for _ in range(INTERPRETER_PROBES))


def import_ms(env) -> float:
    """Median ``-X importtime`` cumulative time of the package's top-level
    imports, which include the standard modules they pull in."""
    samples = []
    for _ in range(IMPORT_PROBES):
        _, report = _child_ms([sys.executable, "-X", "importtime", "-c",
                               "import ringadapt.cli"], env)
        total_us = 0
        for line in report.splitlines():
            fields = line.split("|")
            if len(fields) != 3 or not fields[0].startswith("import time:"):
                continue
            name = fields[2][1:]
            if not name.startswith(" ") and name.split(".")[0] == "ringadapt":
                total_us += int(fields[1])
        samples.append(total_us / 1e3)
    return statistics.median(samples)


# --- environment -------------------------------------------------------------

def sodium_version() -> str:
    name = ctypes.util.find_library("sodium") or "libsodium.so.23"
    try:
        lib = ctypes.CDLL(name)
    except OSError:
        return "unknown"
    version = lib.sodium_version_string
    version.argtypes = []
    version.restype = ctypes.c_char_p
    return version().decode()


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def environment(seed: int) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "libsodium": sodium_version(), "commit": git_commit(),
            "seed": seed}


# --- the run -----------------------------------------------------------------

def run(name: str, seed: int, seconds: float, trace: bool) -> int:
    workdir = WORK / f"{name}-{os.getpid()}"
    try:
        return _run(name, seed, seconds, trace, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def _run(name, seed, seconds, trace, workdir) -> int:
    workload = WORKLOAD_CLASSES[name]()
    setup_runs = []
    for _ in range(1 if trace else SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup(seed, workdir)
        setup_runs.append(time.perf_counter() - start)

    gc.collect()
    untraced, traced_epochs, digests = [], [], set()
    total = Tracer()
    epoch_counts = []
    loop_s = 0.0
    deadline = time.perf_counter() + seconds
    while True:
        tracing = trace and len(untraced) > len(traced_epochs)
        start = time.perf_counter()
        if tracing:
            tracer = Tracer()
            ctx = TracedGroup(tracer)
            with traced(tracer, ctx):
                epoch = workload.epoch(ctx, tracer=tracer)
            total.merge(tracer)
            epoch_counts.append(tracer.counts())
            traced_epochs.append(epoch)
        else:
            epoch = workload.epoch(workload.ctx)
            untraced.append(epoch)
        elapsed = time.perf_counter() - start
        if not tracing:
            loop_s += elapsed
        digests.add(epoch.digest.hexdigest())
        enough = len(traced_epochs) >= MIN_TRACED_EPOCHS if trace else True
        if enough and time.perf_counter() >= deadline:
            break

    epochs = untraced + traced_epochs
    failures = [f for e in epochs for f in e.failures]
    attempted = sum(len(e.latencies_ns) for e in epochs)
    if len(digests) != 1:
        failures.append(f"epochs disagree on results: {len(digests)} digests")
    if any(c != epoch_counts[0] for c in epoch_counts):
        failures.append("traced epochs disagree on per-layer counts")
    failed = sum(len(e.failed_ops) for e in epochs)

    base = [x for e in untraced for x in e.latencies_ns]
    report = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(seed), "mix": workload.mix,
        "epochs": {"untraced": len(untraced), "traced": len(traced_epochs)},
        "failed_ratio": _metric(failed / attempted, "ratio"),
        "setup_runs_s": setup_runs,
        "determinism_digest": hashlib.sha256(json.dumps(
            [sorted(digests), epoch_counts[:1]]).encode()).hexdigest(),
        "failures": failures[:5],
    }
    if trace:
        ops = sum(len(e.latencies_ns) for e in traced_epochs)
        metrics = {k: _metric(fn(total, ops), unit)
                   for k, (unit, fn) in PER_LAYER.items()}
        extra = workload.cli_metrics(traced_epochs, ops)
        extra["trace.overhead_ratio"] = p50_ms(traced_epochs) / p50_ms(untraced)
        metrics.update({k: _metric(v, PER_LAYER_UNITS_EXTRA[k])
                        for k, v in extra.items()})
    else:
        tail_ms, tail_pct = tail(base)
        report["op_tail"] = {"percentile": tail_pct, "samples": len(base),
                             "beyond": min(TAIL_BEYOND, len(base) - 1)}
        usage = resource.getrusage(workload.rusage_who)
        values = {"ops_per_s": len(base) / loop_s,
                  "op_p50_ms": p50_ms(untraced),
                  "op_tail_ms": tail_ms,
                  "setup_s": statistics.median(setup_runs),
                  "peak_rss_mb": usage.ru_maxrss / 1024}
        metrics = {k: _metric(v, END_TO_END_UNITS[k])
                   for k, v in values.items()}

    for line in failures[:5]:
        print(f"FAILED {line}", file=sys.stderr)
    print(json.dumps({"report": report}))
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if not failures else 1
