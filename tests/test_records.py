"""The one serialiser writes the bytes ``json.dumps(data, allow_nan=False)``
writes, whichever path formats a record's ``values``; the reader decodes
each line as :data:`STRICT_DECODER` does, whichever path reads its ``values``."""

import json
import math
import struct

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from taco.errors import ParseError
from taco.records import (
    STRICT_DECODER,
    DatasetRecord,
    _split_decode,
    encode_record,
    iter_jsonl,
    write_jsonl,
)

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


def _decodes_as_strict(line: str):
    """The split path's object for ``line``, after checking that it is
    None or :data:`STRICT_DECODER`'s object, with the same key order, item
    types and float bits (``repr`` shows all three)."""
    got = _split_decode(line)
    if got is not None:
        assert repr(got) == repr(STRICT_DECODER.decode(line)), line
    return got


#: Number tokens at the edges of float parsing: underflow to zero, the least
#: subnormal, a subnormal just below the least normal, an exponent form,
#: negative zero, overflow, just past the largest float, integers either
#: side of 64 bits, a boolean, an int, and a halfway case that rounds to even.
EDGE_TOKENS = ["1e-400", "4.9e-324", "2.2250738585072011e-308", "1E+2", "-0.0", "1e999",
               "1.7976931348623159e308", "18446744073709551616", "18446744073709551615",
               "-9223372036854775809", "true", "1",
               "1.00000000000000011102230246251565404236316680908203125"]

#: Items that are no JSON number, or no float.
NOT_FLOAT_TOKENS = ["1.", ".5", "01", "+1", "NaN", "-Infinity", "1e", "-", "0x1", "1.0 2.0",
                    '"1.0"', "null", "[1.0]", "{}", "false", "-0"]


def _bits_float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


#: Finite doubles drawn from random bits, so every exponent is as likely.
_FINITE = st.integers(0, 2**64 - 1).map(_bits_float).filter(math.isfinite)

#: A float token: a finite double in one of several notations, the
#: fixed-point one as long as the float's digits make it, or any text with
#: a fraction or an exponent that JSON's number grammar allows.
_FLOAT_TOKEN = st.one_of(
    st.builds(lambda x, form: form(x), _FINITE,
              st.sampled_from([repr, "{:.17g}".format, "{:.30e}".format, "{:.25E}".format,
                               "{:.40f}".format])),
    st.from_regex(r"-?(0|[1-9][0-9]{0,30})(\.[0-9]{1,30})?([eE][-+]?[0-9]{1,3})",
                  fullmatch=True),
    st.from_regex(r"-?(0|[1-9][0-9]{0,30})\.[0-9]{1,30}", fullmatch=True))

#: A list's text: float tokens only, or with integers (from 1 to 22 digits),
#: edge tokens and non-float tokens mixed in.
_LIST_TEXT = st.builds(
    lambda tokens, sep: f"[{sep.join(tokens)}]",
    st.lists(_FLOAT_TOKEN, min_size=1, max_size=8)
    | st.lists(_FLOAT_TOKEN | st.integers(-10**22, 10**22).map(str)
               | st.sampled_from(EDGE_TOKENS + NOT_FLOAT_TOKENS), max_size=8),
    st.sampled_from([", ", ",", " , "]))

#: Strings that look like the split point, or end in an escape, written
#: raw into a line as well as through ``json.dumps``.
_TRICKY = ['"values": [1.0]}', '"values": ', 'a"values', "values\\", '\\"', "\\", "[", "]}"]

_KEY_TEXT = st.sampled_from(["values", "id", *_TRICKY]) | st.text(max_size=6)

_VALUE_TEXT = st.one_of(
    _LIST_TEXT,
    st.recursive(st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
                 | st.text(max_size=6) | st.sampled_from(_TRICKY),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=6).map(json.dumps))


@st.composite
def _lines(draw):
    """An object's text whose members are drawn key and value texts, most
    often ending in a ``values`` list as records do; duplicate keys occur.
    In one line of four a key or value may be a tricky string written raw."""
    raw = st.sampled_from(_TRICKY) if draw(st.integers(0, 3)) == 0 else st.nothing()
    members = draw(st.lists(st.tuples(_KEY_TEXT.map(json.dumps) | raw, _VALUE_TEXT | raw),
                            max_size=4))
    if draw(st.booleans()):
        members.append(('"values"', draw(_LIST_TEXT)))
    return "{" + ", ".join(f"{key}: {value}" for key, value in members) + "}"


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(line=_lines())
@example(line='{"a\\"values": [1.0]}')
@example(line='{"values": null, "a\\"values": [1.0]}')
@example(line='{"id": "x\\\\"values": [1.0]}')
@example(line='{"id": {"values": [1.0]}')
@example(line='{"id": "a", "values": [1.0]]}')
@example(line='["values": [1.0]]}')
@example(line='{"values": [1.0]}   ')
@example(line='{"values": [1.0]]')
def test_the_split_path_gives_the_strict_object_or_none(line):
    _decodes_as_strict(line)


@pytest.mark.parametrize("token", EDGE_TOKENS + NOT_FLOAT_TOKENS)
def test_edge_tokens_decode_as_strict(token):
    # alone, and as the last of three items
    for values in (f"[{token}]", f"[0.5, 0.25, {token}]"):
        _decodes_as_strict(f'{{"id": "a", "values": {values}}}')


@pytest.mark.parametrize("line, expected", [
    ('{"values": [1.0], "id": "a", "values": [2.0]}', {"values": [2.0], "id": "a"}),
    ('{"id": "a", "values": [1e-400, -0.0, 1E+2]}', {"id": "a", "values": [0.0, -0.0, 100.0]}),
    ('{"id": "a", "values":[0.5]}', None),
    ('{"id": "a", "values": [0.5, 1]}', None),
    ('{"id": "a", "values": [-9223372036854775809.0]}', None),
    ('{"id": "a", "values": [-9223372036854775809]}', None),
    ('{"id": "a", "values": [9.2e18, 9.2e18]}', None),
    ('{"id": "a", "values": []}', None),
], ids=["duplicate-key", "edge-floats", "no-space", "int-item", "float-past-bound",
        "int-past-64-bits", "norm-past-bound", "empty"])
def test_which_lines_the_split_path_takes(line, expected):
    # a duplicate values key: the last one wins, at the first one's place
    assert _decodes_as_strict(line) == expected


#: Values no larger than a record's, so their norm stays far below the bound.
_RECORD_VALUES = st.lists(st.floats(allow_nan=False, allow_infinity=False,
                                    min_value=-1e12, max_value=1e12), min_size=1, max_size=64)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fields=_OTHER_FIELDS, values=_RECORD_VALUES)
def test_lines_taco_writes_take_the_split_path(fields, values):
    # a change to the writer's separators would send every line back to the
    # whole-line decoder, and nothing else would show it
    line = encode_record(fields | {"values": values})
    assert _decodes_as_strict(line) is not None


def test_a_written_record_reads_back_through_the_split_path(tmp_path):
    record = DatasetRecord(id="synth-000001", source="synth", classes=["Rising"],
                           scores={"trend": 0.9, "periodicity_gap": math.inf},
                           caption_base='The signal "values": [1.0]} rises.',
                           values=[x for x in BOUNDARY_FLOATS if abs(x) < 1e16] + PLAIN)
    assert _decodes_as_strict(encode_record(record)) is not None
    write_jsonl([record], tmp_path / "r.jsonl")
    assert list(iter_jsonl(tmp_path / "r.jsonl")) == [DatasetRecord(**record.to_json_dict())]


@pytest.mark.parametrize("pad", ["\xa0", "\f", "\x1c", "\x85", "\u2003"],
                         ids=["nbsp", "form-feed", "file-separator", "next-line", "em-space"])
def test_only_json_whitespace_pads_a_line(pad, tmp_path):
    # str.strip() would also take these, which JSON refuses
    path = tmp_path / "r.jsonl"
    line = encode_record({"id": "a", "values": [0.5]})
    path.write_text(f" \t{line}\t \r\n{pad}{line}{pad}\n", encoding="utf-8")
    records = iter_jsonl(path)
    assert next(records).id == "a"
    with pytest.raises(ParseError) as refused:
        next(records)
    assert refused.value.line == 2
    assert str(refused.value).startswith(f"{path}: malformed JSON at line 2: ")
