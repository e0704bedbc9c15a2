"""The benchmark's tracer wraps package functions by name.

``perfbench/tracing.py`` patches public names of ``wire``, ``swap``,
``schnorr`` and ``cli`` at the places their callers look them up.  This
test builds its patch table, so renaming or merging any of those names
fails here rather than in a benchmark run.
"""

from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

SCHEME_CALLS = {"verify", "presign", "preverify", "adapt", "ext", "gen_r"}
WIRE_OBJECTS = {"element", "scalar", "ring", "statement", "presignature",
                "signature", "plain_presignature", "plain_signature",
                "transaction"}

EXPECTED = (
    {("ringadapt.cli", name) for name in SCHEME_CALLS | {"setup_group"}}
    | {("ringadapt.swap", name)
       for name in SCHEME_CALLS | {"Ring", "ledger_submit", "run_swap"}}
    | {("ringadapt.schnorr", name)
       for name in ("presign", "preverify", "adapt", "verify", "ext")}
    | {("ringadapt.wire", f"{op}_{obj}")
       for op in ("encode", "decode") for obj in WIRE_OBJECTS}
    | {("ringadapt.wire", "Ring")}
)


def test_tracer_patch_table_names(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    table = tracing._patch_table(tracing.Tracer(),
                                 tracing.TracedGroup(tracing.Tracer()))
    assert {(module.__name__, attr) for module, attr, _ in table} == EXPECTED
