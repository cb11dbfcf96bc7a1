"""Tests for the immutable Record base of every result and parameter record."""

from __future__ import annotations

import subprocess
import sys

import pytest

from padiclab import (
    AddSpec,
    AndSpec,
    CriterionReport,
    EnumerationResult,
    GReport,
    HomReport,
    HomomorphicDemo,
    KeystreamKey,
    MulSpec,
    Operation,
    PrimeContext,
    SetComparison,
    SubstitutionKey,
    SubstitutionStreamKey,
    TrivialPairsReport,
    UnitDecomposition,
    VdpSeries,
    Word,
    XorSpec,
)
from padiclab.core import Record, record_to_json

C32 = PrimeContext(3, 2)
WORD = Word(3, (1, 2))


def _plus(ctx, x, y):
    return (x + y) % ctx.modulus


# every record class: its field names in declaration order, and valid values
RECORDS = [
    (UnitDecomposition, ("valuation", "theta", "one_plus_pt", "t"),
     (0, C32.one(), C32.one(), C32.zero())),
    (VdpSeries, ("ctx", "coefficients"), (PrimeContext(3, 1), (0, 1, 2))),
    (CriterionReport, ("ok", "failure"), (False, (1, 2))),
    (AddSpec, ("A",), (C32.integer(2),)),
    (MulSpec, ("s", "a", "A"), (1, C32.integer(2), C32.integer(4))),
    (XorSpec, ("ctx", "alpha"), (C32, ((1,), (0, 2)))),
    (AndSpec, ("ctx", "exponents"), (C32, (1, 1))),
    (HomReport, ("ok", "counterexample", "mode", "checked"), (False, (1, 2), "exhaustive", 6)),
    (GReport, ("trivial", "group_order", "witnesses", "exponent_gcd", "predicted_nontrivial"),
     (True, 1, (1,), None, False)),
    (EnumerationResult, ("p", "k", "ops", "lift_of", "kernel", "nodes"),
     (3, 1, ("plus",), {(): (0, 1, 2)}, frozenset({(0, 1, 2)}), 4)),
    (SetComparison, ("family", "equal", "missing", "extra", "family_count", "enumerated_count"),
     ("add", True, (), (), 2, 2)),
    (TrivialPairsReport, ("pairs",), ((),)),
    (Word, ("p", "symbols"), (3, (1, 2))),
    (SubstitutionKey, ("p", "table"), (3, (2, 0, 1))),
    (SubstitutionStreamKey, ("p", "tables"), (3, ((2, 0, 1), (0, 2, 1)))),
    (KeystreamKey, ("p", "gamma"), (3, (1, 2))),
    (HomomorphicDemo,
     ("formula", "plain_result", "encrypted_plain_result", "encrypted_inputs", "cipher_result",
      "equal", "mismatch_positions"),
     (("leaf", 0), WORD, WORD, (WORD,), WORD, True, ())),
    (Operation, ("name", "apply"), ("plus", _plus)),
]


@pytest.fixture(params=RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
def record(request):
    return request.param


def test_records_build_by_position_and_keyword(record):
    cls, names, values = record
    built = cls(*values)
    assert isinstance(built, Record)
    assert [getattr(built, name) for name in names] == list(values)
    assert cls(**dict(zip(names, values))) == built


def test_records_refuse_a_missing_or_unknown_argument(record):
    cls, names, values = record
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*values, bogus=1)
    with pytest.raises(TypeError):
        cls(*values, 0)
    with pytest.raises(TypeError):
        cls(*values, **{names[0]: values[0]})


def test_records_refuse_assignment_and_deletion(record):
    cls, names, values = record
    built = cls(*values)
    for name in (names[0], "bogus"):
        with pytest.raises(AttributeError):
            setattr(built, name, values[0])
        with pytest.raises(AttributeError):
            delattr(built, name)
    assert [getattr(built, name) for name in names] == list(values)


def test_records_compare_by_class_and_values(record):
    cls, names, values = record
    built = cls(*values)
    assert built == cls(*values) and not built != cls(*values)
    assert built != values and built != list(values)
    for other_cls, _, other_values in RECORDS:
        if other_cls is not cls:
            assert built != other_cls(*other_values)
    try:
        expected = hash(values)
    except TypeError:  # a dict field, as EnumerationResult.lift_of
        with pytest.raises(TypeError):
            hash(built)
    else:
        assert hash(built) == expected


def test_records_repr_their_fields(record):
    cls, names, values = record
    fields = ", ".join(f"{name}={value!r}" for name, value in zip(names, values))
    assert repr(cls(*values)) == f"{cls.__name__}({fields})"


def test_record_json_keys_follow_declaration_order(record):
    cls, names, values = record
    assert list(record_to_json(cls(*values))) == list(names)


def test_record_reprs_and_defaults():
    assert CriterionReport(True) == CriterionReport(True, None) == CriterionReport(ok=True)
    assert repr(CriterionReport(False)) == "CriterionReport(ok=False, failure=None)"
    assert repr(HomReport(True, None, "random", 10)) == (
        "HomReport(ok=True, counterexample=None, mode='random', checked=10)"
    )


def test_records_of_equal_fields_and_values_differ_by_class():
    class Pair(Record):
        a: int
        b: int

    class OtherPair(Record):
        a: int
        b: int

    assert Pair(1, 2) == Pair(a=1, b=2)
    assert Pair(1, 2) != OtherPair(1, 2)
    assert Pair(1, 2) != (1, 2)
    assert Pair._fields == ("a", "b")


def test_import_loads_no_dataclasses_inspect_or_typing():
    # compared against a bare interpreter, since site may preload typing
    def loaded(code):
        script = f"{code}\nimport sys\nprint(' '.join(sorted(sys.modules)))"
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr[-500:]
        return set(proc.stdout.split())

    added = loaded("import padiclab, padiclab.cli") - loaded("pass")
    assert "padiclab.cli" in added
    assert not added & {"dataclasses", "inspect", "typing"}
