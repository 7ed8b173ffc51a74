"""Dataset construction: CSV windows in, JSONL caption records out.

Raw CSV columns are cut into fixed-length windows, resampled to a common
length by linear interpolation, normalized, annotated and captioned.  Window
processing is embarrassingly parallel; results are always emitted in
(file, column, window) order regardless of worker count, so identical inputs
and configuration produce byte-identical output files.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .annotator import (
    DetectorParams,
    ThresholdConfig,
    annotate,
    config_digest,
    default_config,
)
from .captioner import base_caption
from .errors import InvalidArgument, ParseError, TacoError
from .signal import MIN_SERIES_LEN, Series, minmax_normalize, resample_linear
from .synth import generate, sample_spec

@dataclass(frozen=True)
class DatasetRecord:
    """One dataset row pairing a signal with its classes, scores and caption."""

    id: str
    source: str
    classes: list
    scores: dict
    caption_base: str
    caption_rephrased: str | None = None
    config_digest: str = ""
    values: list | None = None

    def to_json_dict(self) -> dict:
        scores = {
            name: (value if value is None or np.isfinite(value) else None)
            for name, value in self.scores.items()
        }
        return {
            "id": self.id,
            "source": self.source,
            "classes": list(self.classes),
            "scores": scores,
            "caption_base": self.caption_base,
            "caption_rephrased": self.caption_rephrased,
            "config_digest": self.config_digest,
            "values": None if self.values is None else list(self.values),
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "DatasetRecord":
        return cls(
            id=str(data.get("id", "")),
            source=str(data.get("source", "")),
            classes=list(data.get("classes", [])),
            scores=dict(data.get("scores", {})),
            caption_base=str(data.get("caption_base", "")),
            caption_rephrased=data.get("caption_rephrased"),
            config_digest=str(data.get("config_digest", "")),
            values=data.get("values"),
        )

    def caption(self) -> str:
        """The effective caption: ``caption_rephrased`` when set, else ``caption_base``."""
        return self.caption_rephrased or self.caption_base


@dataclass(frozen=True)
class IngestSpec:
    """What to read and how to window it."""

    inputs: tuple
    columns: tuple | None = None
    window_len: int = 300
    target_len: int = 2048
    stride: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "inputs", tuple(str(p) for p in self.inputs))
        if self.columns is not None:
            object.__setattr__(self, "columns", tuple(self.columns))
        if self.window_len < MIN_SERIES_LEN:
            raise InvalidArgument(
                f"window_len must be >= {MIN_SERIES_LEN}, got {self.window_len}")
        if self.target_len < self.window_len:
            raise InvalidArgument(
                f"target_len {self.target_len} must be >= window_len {self.window_len}")
        if self.stride is not None and self.stride < 1:
            raise InvalidArgument(f"stride must be positive, got {self.stride}")

    @property
    def effective_stride(self) -> int:
        return self.stride if self.stride is not None else self.window_len


def _read_csv_columns(path: str, wanted: tuple | None) -> dict:
    """Read selected numeric columns from a CSV file with a header row."""
    try:
        handle = open(path, "r", encoding="utf-8", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path} is empty, expected a header row") from None
        rows = list(reader)
    if wanted is not None:
        missing = [c for c in wanted if c not in header]
        if missing:
            raise ParseError(f"{path} has no columns named {missing}")
        selected = [c for c in header if c in wanted]
    else:
        if not rows:
            raise ParseError(f"{path} has a header but no data rows")
        selected = []
        for idx, name in enumerate(header):
            cell = rows[0][idx] if idx < len(rows[0]) else ""
            try:
                float(cell)
            except ValueError:
                continue
            selected.append(name)
        if not selected:
            raise ParseError(f"{path} has no numeric columns")
    for i, name in enumerate(selected):
        if name in selected[:i]:
            raise ParseError(f"{path} has more than one column named {name!r}",
                             column=name)
    columns: dict = {name: np.empty(len(rows)) for name in selected}
    indices = {name: header.index(name) for name in selected}
    for row_num, row in enumerate(rows, start=1):
        for name in selected:
            idx = indices[name]
            cell = row[idx] if idx < len(row) else ""
            try:
                columns[name][row_num - 1] = float(cell)
            except ValueError:
                raise ParseError(
                    f"{path}: non-numeric cell {cell!r} at row {row_num}, "
                    f"column {name}",
                    row=row_num, column=name) from None
    return columns


def ingest_csv(spec: IngestSpec):
    """Yield ``(source_tag, window_values)`` pairs in deterministic order.

    Source tags are ``file#column#window_index``.  Windows are strided
    slices of each selected column; incomplete tails are dropped.
    """
    for path in spec.inputs:
        columns = _read_csv_columns(path, spec.columns)
        name = Path(path).name
        for col, values in columns.items():
            stride = spec.effective_stride
            idx = 0
            start = 0
            while start + spec.window_len <= values.size:
                yield f"{name}#{col}#{idx}", values[start:start + spec.window_len]
                idx += 1
                start += stride


def _record(tag: str, source: str, classes: list, scores: dict, caption: str,
            digest: str, values, include_values: bool) -> DatasetRecord:
    """The one record constructor; values are min-max scaled only when kept."""
    kept = minmax_normalize(values).values.tolist() if include_values else None
    return DatasetRecord(id=tag, source=source, classes=classes, scores=scores,
                         caption_base=caption, config_digest=digest, values=kept)


def _process_window(args):
    """Resample, annotate and caption one window.

    Module-level so it can run inside a process pool.  Returns
    ``("ok", record)`` or ``("skip", source, reason)``.
    """
    tag, values, params, cfg, target_len, include_values, digest = args
    try:
        resampled = resample_linear(values, target_len)
        annotation = annotate(Series(values=resampled), params, cfg)
        return ("ok", _record(tag, tag, annotation.class_names(),
                              annotation.scores.as_dict(),
                              base_caption(annotation.classes), digest,
                              resampled, include_values))
    except TacoError as exc:
        return ("skip", tag, f"{type(exc).__name__}: {exc}")


def _run_ordered(worker, items, jobs: int):
    if jobs <= 1 or len(items) < 2:
        return [worker(item) for item in items]
    chunksize = max(1, len(items) // (jobs * 4))
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(worker, items, chunksize=chunksize))


def build_dataset(spec: IngestSpec, params: DetectorParams | None = None,
                  cfg: ThresholdConfig | None = None,
                  jobs: int = 1,
                  include_values: bool = True):
    """Build caption records for every CSV window.

    Returns ``(records, skips)``: per-window failures become skip entries
    ``{"source", "reason"}`` and the build continues, so
    ``len(records) + len(skips)`` always equals the ingested window count.
    """
    params = params or DetectorParams()
    cfg = cfg or default_config()
    digest = config_digest(params, cfg)
    windows = list(ingest_csv(spec))
    tasks = [
        (tag, values, params, cfg, spec.target_len, include_values, digest)
        for tag, values in windows
    ]
    outcomes = _run_ordered(_process_window, tasks, jobs)
    records = [out[1] for out in outcomes if out[0] == "ok"]
    skips = [{"source": out[1], "reason": out[2]} for out in outcomes if out[0] == "skip"]
    return records, skips


def build_forward_dataset(n: int, master_seed: int, annotate_also: bool = False,
                          params: DetectorParams | None = None,
                          cfg: ThresholdConfig | None = None,
                          include_values: bool = True,
                          length: int = 2048,
                          constraints=None):
    """Generate ``n`` synthetic records with deterministic per-index seeds.

    With ``annotate_also`` the backward annotator runs on each generated
    signal; its base caption is appended to the forward caption and its
    classes are unioned in, so records carry both views of the signal.
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    params = params or DetectorParams()
    cfg = cfg or default_config()
    digest = config_digest(params, cfg)
    records = []
    for i in range(n):
        child_seed = np.random.SeedSequence(entropy=(int(master_seed), i))
        spec = sample_spec(child_seed, constraints=constraints, length=length)
        synth_record = generate(spec)
        classes = list(synth_record.forward_classes)
        caption = synth_record.caption
        scores: dict = {}
        if annotate_also:
            annotation = annotate(Series(values=synth_record.values), params, cfg)
            caption = f"{caption} {base_caption(annotation.classes)}"
            classes += [c for c in annotation.class_names() if c not in classes]
            scores = annotation.scores.as_dict()
        records.append(_record(f"synth-{i:06d}", "synth", classes, scores, caption,
                               digest, synth_record.values, include_values))
    return records, []


def _write_lines(records, handle) -> int:
    count = 0
    for record in records:
        data = record.to_json_dict() if hasattr(record, "to_json_dict") else record
        handle.write(json.dumps(data, allow_nan=False))
        handle.write("\n")
        count += 1
    return count


def write_jsonl(records, path=None) -> int:
    """Write records (DatasetRecord or plain dicts) as one JSON object per
    line, UTF-8, fixed key order, to ``path`` through :func:`write_atomic`,
    or to stdout when it is None or empty.  Returns the number of lines
    written.
    """
    if not path:
        return _write_lines(records, sys.stdout)
    return write_atomic(path, lambda handle: _write_lines(records, handle))


def write_atomic(path, write):
    """Call ``write(handle)`` on a UTF-8 text handle for ``path`` and return
    its result.  A regular file is written atomically: a temporary file
    beside it replaces it only once ``write`` returns, so a failure leaves
    any earlier file untouched.  An ``OSError`` names ``path``, never the
    temporary file.
    """
    if os.path.exists(path) and not os.path.isfile(path):
        # a device or pipe (/dev/stdout, a FIFO) cannot be replaced
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            return write(handle)
    target = os.path.realpath(path)  # replace a symlink's target, not the link
    head, name = os.path.split(target)
    tmp = os.path.join(head, f".{name}.{os.urandom(4).hex()}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8", newline="\n") as handle:
            result = write(handle)
        os.replace(tmp, target)
    except BaseException as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise OSError(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise
    return result


def _reject_constant(token: str):
    raise ValueError(f"{token} is not a finite JSON number")


#: Refuses the ``NaN``/``Infinity`` tokens that ``write_jsonl`` never writes.
_DECODER = json.JSONDecoder(parse_constant=_reject_constant)

#: Record fields whose type :func:`read_jsonl` checks when present:
#: name -> (test, what the field must be).
_FIELD_TYPES = {
    "classes": (lambda v: isinstance(v, list) and all(isinstance(c, str) for c in v),
                "a list of strings"),
    "scores": (lambda v: isinstance(v, dict), "an object"),
    "caption_base": (lambda v: isinstance(v, str), "a string"),
    "caption_rephrased": (lambda v: v is None or isinstance(v, str), "a string or null"),
}


def read_jsonl(path) -> list[DatasetRecord]:
    """Read a JSONL dataset file back into records.

    Malformed lines (including a truncated final line, the non-finite
    tokens ``NaN``, ``Infinity`` and ``-Infinity``, and a field of the wrong
    type) raise :class:`ParseError` carrying the 1-based line number.
    """
    records = []
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc}") from exc
    with handle:
        for line_num, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped and line.endswith("\n"):
                continue
            try:
                data = _DECODER.decode(stripped)
            except ValueError as exc:
                raise ParseError(
                    f"{path}: malformed JSON at line {line_num}: {exc}",
                    line=line_num) from None
            if not isinstance(data, dict):
                raise ParseError(
                    f"{path}: expected a JSON object at line {line_num}",
                    line=line_num)
            for name, (valid, expected) in _FIELD_TYPES.items():
                if name in data and not valid(data[name]):
                    raise ParseError(
                        f"{path}: {name!r} must be {expected} at line {line_num}",
                        line=line_num)
            records.append(DatasetRecord.from_json_dict(data))
    return records
