"""Run the benchmark in alternating parent/change pairs and summarize them.

    python3 tools/bench_pairs.py --parent ../parent --change ../change \\
        --workload ledger-admit=901-912 --workload swap-e2e=921-924 \\
        --slug ledger-cache --note "what the change does" --out BENCH_ledger-cache.json

Each seed gives one pair: ``perfbench/run.py --trace 0`` runs once in the
parent tree and once in the change tree, parent first on even pair
indices and change first on odd ones.  Use trees without ``.git`` (for
example from ``git archive``) so that both sides run the same way.  The
run length and the bounds come from the change tree's ``BENCHMARK.json``.

The output lists, per workload, each side's count of incorrect runs (a
non-zero exit, or a result line without ``"correct": true`` such as one
whose epochs disagree on results), printed as well.  Per end-to-end
metric it lists each side's median and quartiles, the pairs the change
wins (ties count for neither side), whether the change's median is
within the metric's bound, whether the medians differ by more than the
parent's interquartile range, every run, and a verdict, also printed.
The verdict is the first of these that holds:

* ``unresolved``: the parent's interquartile range is wider than the
  bound times its median, and not every change run beats every parent
  run, so the parent's own spread hides a move of the bound's size;
* ``worse``: the change's median is outside the bound;
* ``better``: the change wins at least 9 of 10 pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
* ``within-bound``: anything else.

Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seed_range(text: str) -> list[int]:
    """'901-905,910' -> [901, 902, 903, 904, 905, 910]."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def workload_arg(text: str) -> tuple[str, list[int]]:
    name, sep, seeds = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("expected WORKLOAD=SEEDS")
    return name, seed_range(seeds)


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``--trace 0`` run; returns its report, its result line and
    whether it was correct: exit 0 and ``"correct": true``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=False)
    lines = [json.loads(line) for line in proc.stdout.splitlines()
             if line.startswith("{")]
    if len(lines) != 2:
        raise SystemExit(f"{tree}: {workload} seed {seed} exited "
                         f"{proc.returncode} without results:\n{proc.stderr}")
    report, result = lines[0]["report"], lines[1]
    correct = proc.returncode == 0 and result.get("correct") is True
    return {"report": report, "result": result, "correct": correct}


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": round(statistics.median(values), 4),
            "q1": round(q1, 4), "q3": round(q3, 4), "iqr": round(q3 - q1, 4)}


def summarize(spec: dict, parent: list[float], change: list[float]) -> dict:
    higher = spec["better"] == "higher"
    wins = sum(c > p if higher else c < p for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    ratio = c["median"] / p["median"]
    within = (ratio >= 1 - spec["bound"] if higher
              else ratio <= 1 + spec["bound"])
    gain = c["median"] - p["median"] if higher else p["median"] - c["median"]
    beats_all = (min(change) > max(parent) if higher
                 else max(change) < min(parent))
    # The first rule that holds gives the verdict.
    if p["iqr"] > spec["bound"] * p["median"] and not beats_all:
        verdict = "unresolved"      # the parent alone spreads past the bound
    elif not within:
        verdict = "worse"
    elif 10 * wins >= 9 * len(parent) and gain > p["iqr"]:
        verdict = "better"
    else:
        verdict = "within-bound"
    return {
        "unit": spec["unit"], "better": spec["better"],
        "bound": spec["bound"], "pairs": len(parent), "change_wins": wins,
        "parent": p, "change": c,
        "median_change_ratio": round(ratio, 4),
        "within_bound": within,
        "beyond_parent_iqr": abs(c["median"] - p["median"]) > p["iqr"],
        "verdict": verdict,
        "parent_runs": [round(v, 4) for v in parent],
        "change_runs": [round(v, 4) for v in change],
    }


def run_pairs(parent: Path, change: Path, workload: str, seeds: list[int],
              seconds: float, specs: list[dict]) -> tuple[dict, dict]:
    runs = {"parent": [], "change": []}
    trees = {"parent": parent, "change": change}
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        for side in order:
            out = run_once(trees[side], workload, seed, seconds)
            runs[side].append(out)
            ops = out["result"]["metrics"]["ops_per_s"]["value"]
            print(f"{workload} seed {seed} {side}: {ops:.2f} ops/s, "
                  f"failed {out['result']['failed']}"
                  + ("" if out["correct"] else ", INCORRECT"), file=sys.stderr)
    values = {side: {spec["name"]: [r["result"]["metrics"][spec["name"]]
                                    ["value"] for r in runs[side]]
                     for spec in specs}
              for side in runs}
    entry = {
        "seeds": seeds,
        "failed": {side: sum(r["result"]["failed"] for r in runs[side])
                   for side in runs},
        "incorrect": {side: sum(not r["correct"] for r in runs[side])
                      for side in runs},
        "attempted": {side: sum(r["result"]["attempted"] for r in runs[side])
                      for side in runs},
        "metrics": {spec["name"]: summarize(spec, values["parent"][spec["name"]],
                                            values["change"][spec["name"]])
                    for spec in specs},
    }
    print(f"{workload}: incorrect runs, parent {entry['incorrect']['parent']}"
          f", change {entry['incorrect']['change']}", file=sys.stderr)
    for name, metric in entry["metrics"].items():
        print(f"{workload} {name}: {metric['verdict']} (median ratio "
              f"{metric['median_change_ratio']}, change wins "
              f"{metric['change_wins']}/{metric['pairs']})", file=sys.stderr)
    return entry, runs["change"][0]["report"]["env"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True,
                        help="tree of the parent commit")
    parser.add_argument("--change", type=Path, required=True,
                        help="tree of the change")
    parser.add_argument("--workload", type=workload_arg, action="append",
                        required=True, metavar="WORKLOAD=SEEDS",
                        help="a workload and its seeds, e.g. "
                             "ledger-admit=901-910; repeatable")
    parser.add_argument("--slug", required=True)
    parser.add_argument("--note", required=True,
                        help="one line on what the change does")
    parser.add_argument("--host", default="",
                        help="the hardware the runs were made on")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    specs = benchmark["end_to_end"]
    workloads, env = {}, {}
    for name, seeds in args.workload:
        workloads[name], run_env = run_pairs(args.parent, args.change, name,
                                             seeds, seconds, specs)
        env = {k: run_env[k] for k in ("nproc", "python", "libsodium")}
    summary = {
        "slug": args.slug,
        "change": args.note,
        "host": args.host,
        "command": (f"python3 perfbench/run.py --workload W --seed S "
                    f"--seconds {seconds:g} --trace 0"),
        "pairs": ("one parent and one change run per seed, order alternating "
                  "(parent first on even pair index)"),
        "env": env,
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
