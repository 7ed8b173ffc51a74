"""The record format and its file I/O, on the standard library alone.

:class:`DatasetRecord` is the one definition of a dataset line: its fields
give the JSON keys in order, their defaults and their JSON types, and both
the writer (:func:`encode_record`, :func:`write_jsonl`) and the reader
(:func:`iter_jsonl`) walk them.  :func:`opened` and :func:`load_json` are
the one way to read an input file.  This module imports nothing numeric,
so a command that only reads and writes records, such as ``eval`` or
``caption --classes``, loads no numpy.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from dataclasses import dataclass, field, fields

from .errors import ParseError


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite JSON number")


#: The one JSON decoder for input files; it refuses ``NaN`` and ``Infinity``.
STRICT_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

#: :data:`STRICT_DECODER` for readers that use no float: each float becomes
#: the length of its token, far cheaper than parsing it.  That int fails a
#: string field's check just as the float did; ``parse_float=str`` would let
#: a float id pass as a string.
FLOATLESS_DECODER = json.JSONDecoder(parse_constant=_reject_constant, parse_float=len)


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
        list, default_factory=list)
    scores: dict = _record_field("an object", lambda v: isinstance(v, dict), _finite_scores,
                                 default_factory=dict)
    caption_base: str = _record_field("a string", _is_str, default="")
    caption_rephrased: str | None = _record_field(
        "a string or null", lambda v: v is None or _is_str(v), default=None)
    config_digest: str = _record_field("a string", _is_str, default="")
    values: list | None = _record_field(
        "a list or null", lambda v: v is None or isinstance(v, list),
        lambda v: None if v is None else list(v), default=None)

    def to_json_dict(self) -> dict:
        return {name: encode(getattr(self, name)) if encode else getattr(self, name)
                for name, (_, _, encode) in _JSON_FIELDS.items()}

    def caption(self) -> str:
        """The effective caption: ``caption_rephrased`` when set, else ``caption_base``."""
        return self.caption_rephrased or self.caption_base


#: Each record field's name, in JSON key order, to ``(test, what the value
#: must be, encoder)``.
_JSON_FIELDS = {f.name: f.metadata["json"] for f in fields(DatasetRecord)}


def encode_record(record) -> str:
    """The one JSONL serialiser: a record (DatasetRecord or plain dict) as
    one JSON line in fixed key order, without the newline."""
    data = record.to_json_dict() if hasattr(record, "to_json_dict") else record
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


def iter_jsonl(path, decoder=STRICT_DECODER):
    """Yield the records of a JSONL dataset file one line at a time, each
    line decoded by ``decoder``; a reader that uses no score and no value
    passes :data:`FLOATLESS_DECODER`, which parses no float.

    Malformed lines (including a truncated final line, the non-finite
    tokens ``NaN``, ``Infinity`` and ``-Infinity``, and a record field of
    the wrong JSON type) raise :class:`ParseError` carrying the 1-based line
    number.  Keys that name no record field are ignored.
    """
    with opened(path) as handle:
        for line_num, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped and line.endswith("\n"):
                continue
            try:
                data = decoder.decode(stripped)
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
