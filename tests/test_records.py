"""The one serialiser writes the bytes ``json.dumps(data, allow_nan=False)``
writes, whichever path formats a record's ``values``."""

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from taco.records import DatasetRecord, encode_record

#: Floats at the edges of ``repr``'s notations and of the float range: zero's
#: signs, the least subnormal and normal, both sides of 1e-4 (below it repr
#: writes an exponent) and of 1e16 (from it on too), and the largest float.
BOUNDARY_FLOATS = [0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 9.999999999999999e-05,
                   0.0001, 1e15, 9999999999999998.0, 1e16, 1.7976931348623157e308]
BOUNDARY_FLOATS += [-x for x in BOUNDARY_FLOATS]

_OTHER_FIELDS = st.dictionaries(
    st.text(max_size=8).filter(lambda key: key != "values"),
    st.none() | st.booleans() | st.integers() | st.text(max_size=8)
    | st.floats(allow_nan=False, allow_infinity=False),
    max_size=4)


#: Floats orjson writes as repr does.  Padding a list with four of them per
#: other value leaves its tokens to rewrite sparse, as in most records, so
#: each rewrite is spliced between tokens that stay as orjson wrote them.
PLAIN = [0.5, 0.25, 0.7071067811865476, 1.0]


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=_OTHER_FIELDS,
       values=st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=64),
       padded=st.booleans())
def test_float_values_are_written_as_json_dumps_writes_them(fields, values, padded):
    data = fields | {"values": values + PLAIN * len(values) * padded}
    assert encode_record(data) == json.dumps(data, allow_nan=False)


@pytest.mark.parametrize("value", BOUNDARY_FLOATS, ids=repr)
def test_boundary_floats_are_written_as_json_dumps_writes_them(value):
    # as the first and last of ten tokens, and as every token
    for values in ([value] + PLAIN * 2 + [value], [value] * 4):
        data = {"id": "a", "values": values}
        assert encode_record(data) == json.dumps(data, allow_nan=False)


def test_a_record_is_written_as_json_dumps_writes_its_dict():
    record = DatasetRecord(id="synth-000001", source="synth", classes=["Rising"],
                           scores={"trend": 0.9, "periodicity_gap": math.inf},
                           caption_base="The signal rises.",
                           values=BOUNDARY_FLOATS + PLAIN * len(BOUNDARY_FLOATS))
    assert encode_record(record) == json.dumps(record.to_json_dict(), allow_nan=False)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
def test_a_non_finite_value_is_refused_as_json_dumps_refuses_it(bad):
    data = {"id": "a", "values": [0.5, bad, 0.25]}
    with pytest.raises(ValueError) as expected:
        json.dumps(data, allow_nan=False)
    with pytest.raises(ValueError) as refused:
        encode_record(data)
    assert str(refused.value) == str(expected.value)


class _Float(float):
    pass


@pytest.mark.parametrize("data", [
    {"values": PLAIN + [1e-05]},
    {"values": PLAIN, "id": "a"},
    {"id": "a", "values": [0.5, 1]},
    {"id": "a", "values": [0.5, True]},
    {"id": "a", "values": [0.5, "1e-05"]},
    {"id": "a", "values": [0.5, _Float(1e-05)]},
    {"id": "a", "values": [0.5, None]},
    {"id": "a", "values": []},
    {"id": "a", "values": None},
    {"id": "a", "values": [[0.5, 1e-05]]},
    {"id": "a"},
    {},
], ids=["values-only", "values-not-last", "int-item", "bool-item", "string-item",
        "float-subclass-item", "null-item", "empty", "null", "nested", "no-values", "empty-dict"])
def test_other_records_are_written_as_json_dumps_writes_them(data):
    assert encode_record(data) == json.dumps(data, allow_nan=False)
