"""Bench harness: record shapes, the size and cost columns, the CSV, and
the sweeps it refuses.  The scaling shape of a prod sweep is acceptance
criterion 8."""

import io

import pytest

from ringadapt.bench import CSV_COLUMNS, run_bench, write_csv
from ringadapt.cli import main

ALGORITHMS = {"setup", "keygen", "genr", "presign", "preverify", "adapt",
              "verify", "ext", "link"}


def test_cell_covers_all_algorithms(toy):
    records = run_bench(toy, [6])
    assert {r.algorithm for r in records} == ALGORITHMS
    assert all(r.mean_ns > 0 for r in records)


def test_prod_size_column(prod):
    records = run_bench(prod, [10])
    sizes = {r.algorithm: r.bytes for r in records}
    assert sizes["presign"] == 512  # (10+1)*32 + 5*32
    assert sizes["adapt"] == 512
    assert sizes["genr"] == 64
    assert sizes["setup"] == 64
    assert sizes["ext"] == 32
    assert sizes["preverify"] == 0


def test_table_annotations(toy):
    records = run_bench(toy, [10])
    per = {r.algorithm: r for r in records}
    # toy widths: S_z = S_g = 2
    assert per["presign"].comm_ours == str(11 * 2 + 5 * 2)
    assert per["presign"].comm_baseline == str(5 * 11 * 2 + 5 * 2)
    assert per["adapt"].comm_baseline == str(5 * 11 * 2 + 6 * 2)
    assert per["verify"].comm_ours == ""


def test_csv_schema(toy):
    out = io.StringIO()
    write_csv(run_bench(toy, [4]), out)
    assert "\r" not in out.getvalue()
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 1 + len(ALGORITHMS)


def test_ring_size_below_1_is_named(toy, capsys):
    # Refused before any cell is built, so the error names the size and
    # not the empty ring that n = 0 would make.
    assert main(["bench", "--min-n", "0", "--max-n", "0"]) == 2
    assert capsys.readouterr() == ("", "error: ring size 0 is below 1\n")
    for sizes, smallest in (([-3], -3), (range(2, -1, -1), 0)):
        with pytest.raises(ValueError,
                           match=f"^ring size {smallest} is below 1$"):
            run_bench(toy, sizes)
