"""The record format and its file I/O, on the standard library alone but for
``orjson``, which :func:`encode_record` imports when it first writes a list
of floats, and :func:`iter_jsonl` when it first reads a line that ends in
one.

:class:`DatasetRecord` is the one definition of a dataset line: its fields
give the JSON keys in order, their defaults and their JSON types, and both
the writer (:func:`encode_record`, :func:`write_jsonl`) and the reader
(:func:`iter_jsonl`) walk them.  :func:`opened` and :func:`load_json` are
the one way to read an input file, and :func:`in_order` the one in-order
executor loop, for the ``--jobs`` and ``--rephrase`` pools.  This module
imports nothing numeric, so a command that only reads and writes records,
such as ``eval`` or ``caption --classes``, loads no numpy.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from collections import deque
from dataclasses import dataclass, field, fields

from .errors import ParseError


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite JSON number")


#: The one JSON decoder for input files; it refuses ``NaN`` and ``Infinity``.
STRICT_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


@contextlib.contextmanager
def opened(path, error=ParseError, newline=None):
    """Open input file ``path`` as UTF-8 text, less a leading byte order mark; an
    ``OSError`` or ``UnicodeDecodeError`` in the ``with`` body becomes ``error``."""
    try:
        with open(path, encoding="utf-8-sig", newline=newline) as handle:
            yield handle
    except UnicodeDecodeError as exc:  # its offsets count within a chunk, not the file
        raise error(f"{path} is not UTF-8 text: {exc.reason}") from None
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc


def load_json(path, error):
    """The JSON document in file ``path``; a file :func:`opened` refuses, or
    one that :data:`STRICT_DECODER` cannot decode, raises ``error``."""
    with opened(path, error) as handle:
        text = handle.read()
    try:
        return STRICT_DECODER.decode(text)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise error(f"{path} is not valid JSON: {exc}") from None


def _record_field(expected: str, valid, encode=None, **default):
    """A record field whose JSON value must pass ``valid`` (``expected`` says
    what that is) and is written as ``encode(value)``, or as it is."""
    return field(metadata={"json": (valid, expected, encode)}, **default)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _finite_scores(scores: dict) -> dict:
    """Scores with each non-finite value as None, which JSON can hold."""
    return {name: (value if value is None or math.isfinite(value) else None)
            for name, value in scores.items()}


@dataclass(frozen=True)
class DatasetRecord:
    """One dataset row pairing a signal with its classes, scores and caption.

    The fields are the record's JSON keys, in output order; a key missing
    from a line read back takes the field's default.
    """

    id: str = _record_field("a string", _is_str, default="")
    source: str = _record_field("a string", _is_str, default="")
    classes: list = _record_field(
        "a list of strings", lambda v: isinstance(v, list) and all(map(_is_str, v)),
        default_factory=list)
    scores: dict = _record_field("an object", lambda v: isinstance(v, dict), _finite_scores,
                                 default_factory=dict)
    caption_base: str = _record_field("a string", _is_str, default="")
    caption_rephrased: str | None = _record_field(
        "a string or null", lambda v: v is None or _is_str(v), default=None)
    config_digest: str = _record_field("a string", _is_str, default="")
    values: list | None = _record_field(
        "a list or null", lambda v: v is None or isinstance(v, list), default=None)

    def to_json_dict(self) -> dict:
        return {name: encode(getattr(self, name)) if encode else getattr(self, name)
                for name, (_, _, encode) in _JSON_FIELDS.items()}

    def caption(self) -> str:
        """The effective caption: ``caption_rephrased`` when set, else ``caption_base``."""
        return self.caption_rephrased or self.caption_base


#: Each record field's name, in JSON key order, to ``(test, what the value
#: must be, encoder)``.
_JSON_FIELDS = {f.name: f.metadata["json"] for f in fields(DatasetRecord)}


def _repr_tokens(text: str, marker: str) -> str:
    """``text``, float tokens joined by commas, with each token that holds
    ``marker`` rewritten as ``repr`` writes that float."""
    parts, done = [], 0
    hit = text.find(marker)
    while hit >= 0:
        start = text.rfind(",", 0, hit) + 1
        end = text.find(",", hit)
        if end < 0:
            end = len(text)
        parts += text[done:start], repr(float(text[start:end]))
        done = end
        hit = text.find(marker, done)
    parts.append(text[done:])
    return "".join(parts)


def _float_list_json(values: list) -> str | None:
    """A list of floats as ``json.dumps`` writes it, or None when the list
    holds a non-finite float, which orjson writes as ``null``.  orjson
    writes each float in the fewest digits, as ``repr`` does, in a tenth of
    the time; only its notation differs: ``1e16`` and ``3.5e-6`` for
    ``1e+16`` and ``3.5e-06``, and decimals below 1e-4, such as
    ``0.00007``, that ``repr`` writes as ``7e-05``.  Each such token is
    rewritten by ``repr``."""
    import orjson

    text = orjson.dumps(values).decode()[1:-1]
    if "null" in text:
        return None
    text = _repr_tokens(_repr_tokens(text, "e"), "0.0000")
    return f"[{text.replace(',', ', ')}]"


def encode_record(record) -> str:
    """The one JSONL serialiser: a record (DatasetRecord or plain dict) as
    one JSON line in fixed key order, without the newline, with the bytes
    ``json.dumps(data, allow_nan=False)`` writes.  A last key ``values``
    that holds a non-empty list of floats, all finite, is written by
    :func:`_float_list_json`; every other record by ``json.dumps``."""
    data = record.to_json_dict() if hasattr(record, "to_json_dict") else record
    values = data.get("values")
    if (type(values) is list and next(reversed(data)) == "values"
            and set(map(type, values)) == {float}):
        text = _float_list_json(values)
        if text is not None:
            return json.dumps({**data, "values": None}, allow_nan=False)[:-5] + text + "}"
    return json.dumps(data, allow_nan=False)


def _write_lines(records, handle) -> int:
    count = 0
    for record in records:
        handle.write(record if isinstance(record, str) else encode_record(record))
        handle.write("\n")
        count += 1
    return count


def write_jsonl(records, path=None) -> int:
    """Write records (DatasetRecord or plain dicts, or lines that
    :func:`encode_record` made) as one JSON object per line, UTF-8, to
    ``path``, or to stdout when it is None or empty.  Lines are written as
    ``records`` yields them.  Returns the number of lines written.

    A regular file is written atomically: a temporary file beside it
    replaces it only once ``records`` is exhausted, so a failure leaves any
    earlier file untouched.  An ``OSError`` on the temporary file names
    ``path``; one that names another file, such as a sidecar that
    ``records`` writes, keeps its name.  A device or pipe is written in place.
    """
    if not path:
        return _write_lines(records, sys.stdout)
    if written_in_place(path):
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            return _write_lines(records, handle)
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
            count = _write_lines(records, handle)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename in (None, tmp):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
    return count


def written_in_place(path) -> bool:
    """Whether ``path`` is a device or pipe, which :func:`write_jsonl` writes in place."""
    return os.path.exists(path) and not os.path.isfile(path)


#: The text before a ``values`` list that :func:`encode_record` writes last.
_VALUES_KEY = '"values": '

#: A list whose norm, as ``math.hypot`` computes it to within a few units
#: in the last place, is below this holds no item of magnitude 2**63 or
#: more: from there on ``orjson`` may read an integer token as a float,
#: where ``json`` reads an int.  ``math.hypot`` takes a third of the time
#: that ``min`` and ``max`` take.
_NORM_BOUND = 2.0 ** 62


def _split_decode(line: str) -> dict | None:
    """JSON object text ``line`` as :data:`STRICT_DECODER` decodes it, or
    None.  A line that ends in ``]}`` is cut at its last ``[``, which must
    follow an unescaped ``"values": ``.  The list from there is read by
    ``orjson``, five times faster; the text before it, closed by ``null}``,
    can decode only to an object, by :data:`STRICT_DECODER`, whose
    ``values`` the list then replaces.  The result is kept only when both
    parts decode, the list is non-empty, each item is exactly a float and
    their norm is below :data:`_NORM_BOUND`; any other line gives None, for
    the caller to decode whole."""
    if not line.endswith("]}"):
        return None
    cut = line.rfind("[")
    head = line[:cut]
    if not head.endswith(_VALUES_KEY) or head.endswith("\\" + _VALUES_KEY):
        return None
    import orjson

    try:
        values = orjson.loads(line[cut:-1])
    except orjson.JSONDecodeError:
        return None
    if (not values or list(map(type, values)).count(float) != len(values)
            or not math.hypot(*values) < _NORM_BOUND):
        return None
    try:
        data = STRICT_DECODER.decode(head + "null}")
    except (ValueError, RecursionError):
        return None
    data["values"] = values
    return data


def iter_jsonl(path):
    """Yield the records of a JSONL dataset file one line at a time, each
    line decoded by :data:`STRICT_DECODER`; a line is first tried by
    :func:`_split_decode`, which gives the same object or none.

    Malformed lines (including a truncated final line, the non-finite
    tokens ``NaN``, ``Infinity`` and ``-Infinity``, and a record field of
    the wrong JSON type) raise :class:`ParseError` carrying the 1-based line
    number.  Keys that name no record field are ignored.  Only JSON's
    whitespace (space, tab, CR, LF) may pad a line.
    """
    with opened(path) as handle:
        for line_num, line in enumerate(handle, start=1):
            stripped = line.strip(" \t\r\n")
            if not stripped and line.endswith("\n"):
                continue
            data = _split_decode(stripped)
            if data is None:
                try:
                    data = STRICT_DECODER.decode(stripped)
                except (ValueError, RecursionError) as exc:
                    raise ParseError(
                        f"{path}: malformed JSON at line {line_num}: {exc}",
                        line=line_num) from None
            if not isinstance(data, dict):
                raise ParseError(
                    f"{path}: expected a JSON object at line {line_num}",
                    line=line_num)
            for name, (valid, expected, _) in _JSON_FIELDS.items():
                if name in data and not valid(data[name]):
                    raise ParseError(
                        f"{path}: {name!r} must be {expected} at line {line_num}",
                        line=line_num)
            yield DatasetRecord(**{name: data[name] for name in _JSON_FIELDS
                                   if name in data})


def read_jsonl(path) -> list[DatasetRecord]:
    """:func:`iter_jsonl` collected into a list."""
    return list(iter_jsonl(path))


def in_order(pool, fn, items, ahead: int):
    """Yield ``fn(item)`` for each item, in item order, from calls submitted
    to the executor ``pool``, at most ``ahead`` of them submitted and not yet
    yielded (``Executor.map`` would submit every item at once).

    However the generator ends, exhausted, raised or closed early, it shuts
    ``pool`` down and cancels the calls not yet started.
    """
    pending = deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) == ahead:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
