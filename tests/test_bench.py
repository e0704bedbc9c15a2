"""Bench harness: record shapes, size column, scaling sanity over the one
prod sweep that acceptance criterion 8 also reads."""

import io

from ringadapt.bench import CSV_COLUMNS, by_algorithm, run_bench, write_csv

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



def test_prod_scaling_sanity(prod_sweep):
    # Means must grow with n for the ring-dependent algorithms; allow a
    # small dip for timer noise.
    for algorithm in ("presign", "preverify", "verify"):
        times = by_algorithm(prod_sweep, algorithm)
        means = [times[n].mean_ns for n in (10, 40, 70, 100)]
        assert means[-1] > means[0]
        for earlier, later in zip(means, means[1:]):
            assert later >= 0.75 * earlier, f"{algorithm} dipped"
