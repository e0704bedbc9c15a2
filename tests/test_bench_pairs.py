"""The summary logic of ``tools/bench_pairs.py``, which every performance
comparison between a parent and a change tree relies on."""

from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"

HIGHER = {"better": "higher", "unit": "1/s", "bound": 0.25}
LOWER = {"better": "lower", "unit": "ms", "bound": 0.25}


@pytest.fixture
def bench_pairs(monkeypatch):
    monkeypatch.syspath_prepend(str(TOOLS))
    import bench_pairs
    return bench_pairs


def test_seed_range(bench_pairs):
    assert bench_pairs.seed_range("901-903,910") == [901, 902, 903, 910]


@pytest.mark.parametrize("spec", [HIGHER, LOWER], ids=["higher", "lower"])
def test_ties_count_for_neither_side(bench_pairs, spec):
    parent = [10.0, 10.0, 10.0, 12.0]
    change = [10.0, 11.0, 9.0, 12.0]
    summary = bench_pairs.summarize(spec, parent, change)
    # One pair each way and two ties: the change wins exactly one.
    assert summary["pairs"] == 4
    assert summary["change_wins"] == 1


@pytest.mark.parametrize("spec, inside, outside", [
    (HIGHER, 76.0, 74.0),
    (LOWER, 124.0, 126.0),
], ids=["higher", "lower"])
def test_within_bound(bench_pairs, spec, inside, outside):
    parent = [100.0] * 3
    assert bench_pairs.summarize(spec, parent, [inside] * 3)["within_bound"]
    assert not bench_pairs.summarize(spec, parent,
                                     [outside] * 3)["within_bound"]
    # Any move in the better direction is within the bound.
    better = 200.0 if spec is HIGHER else 50.0
    assert bench_pairs.summarize(spec, parent, [better] * 3)["within_bound"]


def test_beyond_parent_iqr(bench_pairs):
    parent = [1.0, 2.0, 3.0, 4.0, 5.0]   # median 3, quartiles 2 and 4
    summary = bench_pairs.summarize(HIGHER, parent, [5.5] * 5)
    assert summary["parent"] == {"median": 3.0, "q1": 2.0, "q3": 4.0,
                                 "iqr": 2.0}
    assert summary["beyond_parent_iqr"]
    for change in (4.5, 1.5):
        summary = bench_pairs.summarize(HIGHER, parent, [change] * 5)
        assert not summary["beyond_parent_iqr"]
    assert bench_pairs.summarize(LOWER, parent, [0.5] * 5)["beyond_parent_iqr"]


PARENT_TEN = [100.0] * 10


@pytest.mark.parametrize("spec, parent, change, expected", [
    # The parent's IQR (80..120) is wider than 0.25 x its median of 100.
    (HIGHER, [60.0, 80.0, 100.0, 120.0, 140.0], [100.0] * 5, "unresolved"),
    (LOWER, [60.0, 80.0, 100.0, 120.0, 140.0], [100.0] * 5, "unresolved"),
    # ... unless every change run beats every parent run.
    (HIGHER, [60.0, 80.0, 100.0, 120.0, 140.0], [150.0] * 5, "better"),
    (LOWER, [60.0, 80.0, 100.0, 120.0, 140.0], [50.0] * 5, "better"),
    (HIGHER, PARENT_TEN, [74.0] * 10, "worse"),
    (LOWER, PARENT_TEN, [126.0] * 10, "worse"),
    # 9 of 10 pairs won, by more than the parent's IQR of 0.
    (HIGHER, PARENT_TEN, [101.0] * 9 + [99.0], "better"),
    (LOWER, PARENT_TEN, [99.0] * 9 + [101.0], "better"),
    # 8 of 10 pairs won is not enough.
    (HIGHER, PARENT_TEN, [101.0] * 8 + [99.0] * 2, "within-bound"),
    # Every pair won, but not beyond the parent's IQR (98..102).
    (HIGHER, [98.0, 98.0, 100.0, 102.0, 102.0], [101.0, 101.0, 101.0, 103.0,
                                                 103.0], "within-bound"),
    # Worse, but inside the bound.
    (LOWER, PARENT_TEN, [110.0] * 10, "within-bound"),
], ids=["unresolved-higher", "unresolved-lower", "resolved-higher",
        "resolved-lower", "worse-higher", "worse-lower", "better-higher",
        "better-lower", "8-of-10", "inside-iqr", "inside-bound"])
def test_verdict(bench_pairs, spec, parent, change, expected):
    assert bench_pairs.summarize(spec, parent, change)["verdict"] == expected


STUB_RUN = '''import json, sys
env = {"nproc": 1, "python": "3", "libsodium": "1"}
print(json.dumps({"report": {"env": env}}))
print("  ops_per_s  10 1/s")
print(json.dumps({"correct": %(correct)s, "attempted": 5, "failed": 0,
                  "metrics": {"ops_per_s": {"value": 10.0}}}))
sys.exit(%(code)d)
'''


def _stub_tree(root, name, correct, code):
    """A tree whose perfbench/run.py prints canned lines and exits code."""
    tree = root / name
    (tree / "perfbench").mkdir(parents=True)
    (tree / "perfbench" / "run.py").write_text(
        STUB_RUN % {"correct": correct, "code": code})
    return tree


def test_incorrect_runs_are_counted(bench_pairs, tmp_path, capsys):
    # Epochs that disagree: failed stays 0, but correct is false, exit 1.
    # A run may also exit non-zero with a result line that reads correct.
    parent = _stub_tree(tmp_path, "parent", "True", 0)
    specs = [dict(HIGHER, name="ops_per_s")]
    for change, expected in (
            (_stub_tree(tmp_path, "disagree", "False", 1), 2),
            (_stub_tree(tmp_path, "exit1", "True", 1), 2),
            (parent, 0)):
        entry, _ = bench_pairs.run_pairs(parent, change, "swap-e2e", [1, 2],
                                         1.0, specs)
        assert entry["failed"] == {"parent": 0, "change": 0}
        assert entry["incorrect"] == {"parent": 0, "change": expected}
        printed = capsys.readouterr().err
        assert (f"swap-e2e: incorrect runs, parent 0, change {expected}"
                in printed)
        assert printed.count("INCORRECT") == expected


def test_verdict_is_printed(bench_pairs, tmp_path, capsys):
    parent = _stub_tree(tmp_path, "parent", "True", 0)
    specs = [dict(HIGHER, name="ops_per_s")]
    entry, _ = bench_pairs.run_pairs(parent, parent, "cli-verify", [1, 2],
                                     1.0, specs)
    assert entry["metrics"]["ops_per_s"]["verdict"] == "within-bound"
    assert ("cli-verify ops_per_s: within-bound (median ratio 1.0, change "
            "wins 0/2)") in capsys.readouterr().err
