"""Record, the frozen value base: construction, equality, immutability."""

import re
from pathlib import Path

import pytest

from ringadapt import bench, scheme, schnorr, swap, wire
from ringadapt.groups import Record

SRC = Path(__file__).resolve().parent.parent / "src" / "ringadapt"

# Two elements, as the toy group writes the residues 7 and 8.
P, Q = (7).to_bytes(2, "big"), (8).to_bytes(2, "big")

# One valid set of field values per Record subclass in src/, in field order.
SAMPLES = {
    scheme.KeyPair: (5, P),
    scheme.StatementPair: (P, Q),
    scheme.PreSignature: (3, (1, 2), (P,)),
    scheme.Signature: (3, (1, 2), (P,)),
    schnorr.PlainPreSignature: (1, 2),
    schnorr.PlainSignature: (1, 2),
    wire.SwapTransaction: ("A", b"x", 1, 2, P, None, None),
    swap.FaultPlan: (2, None),
    swap.SubmitResult: ("malformed",),
    bench.BenchRecord: ("verify", 4, 2, 10, 20, "20", "30"),
}
RECORDS = sorted(SAMPLES, key=lambda cls: cls.__qualname__)


def test_every_record_has_a_sample():
    assert set(Record.__subclasses__()) == set(SAMPLES)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
class TestRecord:
    def test_equal_values_are_equal_and_hash_alike(self, cls):
        a, b = cls(*SAMPLES[cls]), cls(*SAMPLES[cls])
        assert a == b and hash(a) == hash(b) and a is not b
        assert len({a, b}) == 1
        assert a != SAMPLES[cls]

    def test_keyword_construction_and_repr(self, cls):
        values = dict(zip(cls._fields, SAMPLES[cls]))
        record = cls(**values)
        assert record == cls(*SAMPLES[cls])
        assert all(getattr(record, k) == v for k, v in values.items())
        shown = ", ".join(f"{k}={v!r}" for k, v in values.items())
        assert repr(record) == f"{cls.__qualname__}({shown})"

    def test_fields_cannot_change(self, cls):
        record = cls(*SAMPLES[cls])
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 1)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert record == cls(*SAMPLES[cls])

    def test_bad_arguments(self, cls):
        values = SAMPLES[cls]
        required = [name for name in cls._fields if not hasattr(cls, name)]
        for name in required:                        # missing
            given = dict(zip(cls._fields, values))
            del given[name]
            with pytest.raises(TypeError):
                cls(**given)
        with pytest.raises(TypeError):
            cls(*values, None)                       # extra positional
        with pytest.raises(TypeError):
            cls(*values, extra=None)                 # unknown keyword
        with pytest.raises(TypeError):
            cls(*values, **{cls._fields[0]: values[0]})   # repeated


def test_same_fields_different_type_are_unequal():
    psig = scheme.PreSignature(3, (1, 2), (P,))
    sig = scheme.Signature(3, (1, 2), (P,))
    assert psig != sig and sig != psig
    assert len({psig, sig}) == 2


def test_defaults_and_post_init(toy):
    assert swap.FaultPlan() == swap.FaultPlan(None, None)
    assert swap.FaultPlan().abort_after is None
    assert swap.SubmitResult().reason is None
    tx = wire.SwapTransaction("A", b"x", 1, 2, payer_key=P)
    assert (tx.ring_keys, tx.threshold) == (None, None)
    # A fault plan is checked where it is run, not where it is built.
    for plan in (swap.FaultPlan(abort_after=9),
                 swap.FaultPlan(abort_after=1, corruption=swap.CORRUPTIONS[0])):
        with pytest.raises(ValueError):
            swap.swap_demo(toy, fault=plan)
    # __post_init__ normalises through object.__setattr__
    tx = wire.SwapTransaction("B", bytearray(b"x"), 1, 2, ring_keys=[P, Q],
                              threshold=1)
    assert (tx.payee, tx.ring_keys) == (b"x", (P, Q))
    for tag in (b"k", P):
        sig = scheme.Signature(3, [1, 2], [tag])
        assert (sig.challenges, sig.tags) == ((1, 2), (tag,))
    # A look-alike equals a scalar or an element yet fails its checks, so
    # the signatures a ledger admits refuse them.
    for bad in (2.0, True):
        for fields in ((bad, (1, 2), (P,)), (3, (1, bad), (P,))):
            with pytest.raises(ValueError):
                scheme.Signature(*fields)
        for fields in ((bad, 2), (1, bad)):
            with pytest.raises(ValueError):
                schnorr.PlainSignature(*fields)
    for tag in (memoryview(b"k"), bytearray(b"k"), 7.0, 7):
        with pytest.raises(ValueError):
            scheme.Signature(3, (1, 2), (P, tag))


def test_tag_set_is_cached():
    sig = scheme.Signature(3, (1, 2), (P, Q, P))
    assert sig.tag_set == frozenset({P, Q})
    assert sig.tag_set is sig.tag_set
    assert sig == scheme.Signature(3, (1, 2), (P, Q, P))


def test_only_swap_imports_dataclasses():
    importing = {path.name for path in SRC.glob("*.py")
                 if re.search(r"^\s*(import|from)\s+dataclasses\b",
                              path.read_text(), re.MULTILINE)}
    assert importing == {"swap.py"}
