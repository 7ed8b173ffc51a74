"""Dataset construction: CSV windows in, JSONL caption records out.

Raw CSV columns are cut into fixed-length windows, resampled to a common
length by linear interpolation, normalized, annotated and captioned.  Window
processing is embarrassingly parallel; results are always emitted in
(file, column, window) order regardless of worker count, so identical inputs
and configuration produce byte-identical output files.

Records stream: each window's record, or its encoded JSONL line, is yielded
as soon as it is built and in order, and workers run the serialiser, so
memory does not grow with the size of the output.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
import sys
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
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
        names = [Path(p).name for p in self.inputs]
        for i, name in enumerate(names):
            if name in names[:i]:
                raise InvalidArgument(
                    f"inputs share the file name {name!r}; their record ids would collide")
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
    """Read selected numeric columns from a CSV file with a header row.

    Without ``wanted``, a column is numeric when its first non-blank cell
    parses as a float.  Cells are parsed row by row into float64 storage; a
    blank cell is a missing sample (NaN).
    """
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
        columns = {}  # header index -> float64 storage
        undecided = {}  # header index -> blank cells before its first non-blank one
        if wanted is None:
            undecided = dict.fromkeys(range(len(header)), 0)
        else:
            missing = [c for c in wanted if c not in header]
            if missing:
                raise ParseError(f"{path} has no columns named {missing}")
            for idx, name in enumerate(header):
                if name in wanted:
                    _claim(path, header, columns, idx, array("d"))
        rows = 0
        for rows, row in enumerate(reader, start=1):
            width = len(row)
            for idx, store in columns.items():
                cell = row[idx] if idx < width else ""
                try:
                    store.append(float(cell))
                except ValueError:
                    if cell.strip():
                        raise ParseError(
                            f"{path}: non-numeric cell {cell!r} at row {rows}, "
                            f"column {header[idx]}",
                            row=rows, column=header[idx]) from None
                    store.append(np.nan)  # a blank cell is a missing sample
            if undecided:
                for idx in list(undecided):
                    cell = row[idx] if idx < width else ""
                    if not cell.strip():
                        undecided[idx] += 1
                        continue
                    blanks = undecided.pop(idx)
                    try:
                        value = float(cell)
                    except ValueError:
                        continue  # a text column
                    _claim(path, header, columns, idx, array("d", [np.nan] * blanks + [value]))
    if wanted is None:
        if not rows:
            raise ParseError(f"{path} has a header but no data rows")
        if not columns:
            raise ParseError(f"{path} has no numeric columns")
    return {header[idx]: np.frombuffer(columns[idx]) for idx in sorted(columns)}


def _claim(path: str, header: list, columns: dict, idx: int, store) -> None:
    """Add column ``idx`` to ``columns``, refusing a second one of its name."""
    name = header[idx]
    if any(header[other] == name for other in columns):
        raise ParseError(f"{path} has more than one column named {name!r}", column=name)
    columns[idx] = store


def ingest_csv(spec: IngestSpec):
    """Yield ``(source_tag, window_values)`` pairs in deterministic order.

    Source tags are ``file#column#window_index``.  Windows are strided
    slices of each selected column; incomplete tails are dropped.  Every
    input is read before the first window is yielded, so a malformed file
    fails the run before any output.
    """
    tables = [(Path(path).name, _read_csv_columns(path, spec.columns))
              for path in spec.inputs]
    for name, columns in tables:
        for col, values in columns.items():
            starts = range(0, values.size - spec.window_len + 1, spec.effective_stride)
            for idx, start in enumerate(starts):
                yield f"{name}#{col}#{idx}", values[start:start + spec.window_len]


def _record(tag: str, source: str, classes: list, scores: dict, caption: str,
            digest: str, values, include_values: bool) -> DatasetRecord:
    """The one record constructor; values are min-max scaled only when kept."""
    kept = minmax_normalize(values).values.tolist() if include_values else None
    return DatasetRecord(id=tag, source=source, classes=classes, scores=scores,
                         caption_base=caption, config_digest=digest, values=kept)


def _window_outcome(context, window):
    """Resample, annotate and caption one window.

    Returns ``("ok", record)``, the record encoded when the context carries
    an encoder, or ``("skip", {"source", "reason"})``.
    """
    params, cfg, target_len, include_values, digest, encode = context
    tag, values = window
    try:
        resampled = resample_linear(values, target_len)
        annotation = annotate(Series(values=resampled), params, cfg)
        record = _record(tag, tag, annotation.class_names(),
                         annotation.scores.as_dict(),
                         base_caption(annotation.classes), digest,
                         resampled, include_values)
    except TacoError as exc:
        return ("skip", {"source": tag, "reason": f"{type(exc).__name__}: {exc}"})
    return ("ok", encode(record) if encode else record)


def _synth_record(context, i):
    """Generate record ``i`` of a forward dataset, encoded when the context
    carries an encoder."""
    (master_seed, annotate_also, params, cfg, include_values, length, constraints,
     digest, encode) = context
    child_seed = np.random.SeedSequence(entropy=(master_seed, i))
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
    record = _record(f"synth-{i:06d}", "synth", classes, scores, caption,
                     digest, synth_record.values, include_values)
    return encode(record) if encode else record


#: Tasks per chunk a pool worker runs, and chunks in flight per worker.  Both
#: are fixed, so with ``jobs`` workers at most ``jobs * CHUNKS_PER_JOB``
#: chunks are submitted and not yet consumed, whatever the input size.
CHUNK_TASKS = 8
CHUNKS_PER_JOB = 2


def _run_chunk(worker, context, items) -> list:
    return [worker(context, item) for item in items]


def _ordered(worker, context, items, jobs: int):
    """Yield ``worker(context, item)`` for each item, in item order.

    With ``jobs`` > 1 and more than one chunk of items, chunks run on a
    process pool that is kept ``jobs * CHUNKS_PER_JOB`` chunks ahead of the
    consumer (``Executor.map`` would submit every chunk at once); otherwise
    the worker runs inline.  Closing the generator early cancels the chunks
    not yet started.
    """
    if jobs > 1:
        tasks = iter(items)
        chunks = iter(lambda: list(islice(tasks, CHUNK_TASKS)), [])
        head = list(islice(chunks, 2))
        if len(head) == 2:
            yield from _pooled(worker, context, chain(head, chunks), jobs)
            return
        items = chain.from_iterable(head)
    for item in items:
        yield worker(context, item)


def _pooled(worker, context, chunks, jobs: int):
    # imported here, so that starting the CLI loads neither multiprocessing
    # nor the signal module
    import signal
    from concurrent.futures import ProcessPoolExecutor

    pending = deque()
    # Workers ignore Ctrl-C, which a terminal sends to the whole process
    # group: the parent alone handles it and shuts the pool down below.
    pool = ProcessPoolExecutor(max_workers=jobs, initializer=signal.signal,
                               initargs=(signal.SIGINT, signal.SIG_IGN))
    try:
        for chunk in chunks:
            pending.append(pool.submit(_run_chunk, worker, context, chunk))
            if len(pending) == jobs * CHUNKS_PER_JOB:
                yield from pending.popleft().result()
        while pending:
            yield from pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def iter_dataset(spec: IngestSpec, skips: list, params: DetectorParams | None = None,
                 cfg: ThresholdConfig | None = None, jobs: int = 1,
                 include_values: bool = True, encode=None):
    """Yield the record of each CSV window in window order, or its JSONL
    line when ``encode`` (such as :func:`encode_record`) is given; workers
    run the encoder.  A window that fails appends ``{"source", "reason"}``
    to ``skips`` instead.
    """
    params = params or DetectorParams()
    cfg = cfg or default_config()
    context = (params, cfg, spec.target_len, include_values,
               config_digest(params, cfg), encode)
    for kind, item in _ordered(_window_outcome, context, ingest_csv(spec), jobs):
        if kind == "ok":
            yield item
        else:
            skips.append(item)


def build_dataset(spec: IngestSpec, params: DetectorParams | None = None,
                  cfg: ThresholdConfig | None = None,
                  jobs: int = 1,
                  include_values: bool = True):
    """Build caption records for every CSV window.

    Returns ``(records, skips)``: per-window failures become skip entries
    ``{"source", "reason"}`` and the build continues, so
    ``len(records) + len(skips)`` always equals the ingested window count.
    """
    skips: list = []
    records = list(iter_dataset(spec, skips, params, cfg, jobs, include_values))
    return records, skips


def iter_forward(n: int, master_seed: int, annotate_also: bool = False,
                 params: DetectorParams | None = None,
                 cfg: ThresholdConfig | None = None,
                 include_values: bool = True,
                 length: int = 2048,
                 constraints=None, encode=None):
    """Yield ``n`` synthetic records with deterministic per-index seeds, or
    their JSONL lines when ``encode`` is given.

    With ``annotate_also`` the backward annotator runs on each generated
    signal; its base caption is appended to the forward caption and its
    classes are unioned in, so records carry both views of the signal.
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    params = params or DetectorParams()
    cfg = cfg or default_config()
    context = (int(master_seed), annotate_also, params, cfg, include_values, length,
               constraints, config_digest(params, cfg), encode)
    return _ordered(_synth_record, context, range(n), jobs=1)


def build_forward_dataset(n: int, master_seed: int, annotate_also: bool = False,
                          params: DetectorParams | None = None,
                          cfg: ThresholdConfig | None = None,
                          include_values: bool = True,
                          length: int = 2048,
                          constraints=None):
    """:func:`iter_forward` collected: ``(records, [])``."""
    return list(iter_forward(n, master_seed, annotate_also, params, cfg,
                             include_values, length, constraints)), []


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
    ``path`` through :func:`write_atomic`, or to stdout when it is None or
    empty.  Lines are written as ``records`` yields them.  Returns the
    number of lines written.
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


def iter_jsonl(path):
    """Yield the records of a JSONL dataset file one line at a time.

    Malformed lines (including a truncated final line, the non-finite
    tokens ``NaN``, ``Infinity`` and ``-Infinity``, and a field of the wrong
    type) raise :class:`ParseError` carrying the 1-based line number.
    """
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
            yield DatasetRecord.from_json_dict(data)


def read_jsonl(path) -> list[DatasetRecord]:
    """:func:`iter_jsonl` collected into a list."""
    return list(iter_jsonl(path))
