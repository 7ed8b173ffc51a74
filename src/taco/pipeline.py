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
from dataclasses import dataclass, field, fields
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .annotator import (
    STRICT_DECODER,
    DetectorParams,
    ThresholdConfig,
    annotate,
    config_digest,
    default_config,
    opened,
)
from .captioner import base_caption
from .errors import InvalidArgument, ParseError, TacoError
from .signal import MIN_SERIES_LEN, minmax_normalize, resample_linear
from .synth import generate, sample_spec


def _record_field(expected: str, valid, encode=None, **default):
    """A record field whose JSON value must pass ``valid`` (``expected`` says
    what that is) and is written as ``encode(value)``, or as it is."""
    return field(metadata={"json": (valid, expected, encode)}, **default)


def _is_str(value) -> bool:
    return isinstance(value, str)


def _finite_scores(scores: dict) -> dict:
    """Scores with each non-finite value as None, which JSON can hold."""
    return {name: (value if value is None or np.isfinite(value) else None)
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
    header, rows = None, 0  # rows: data rows read
    with opened(path, newline="") as handle:
        reader = csv.reader(handle)
        try:
            header = next(reader, None)
            if header is None:
                raise ParseError(f"{path} is empty, expected a header row")
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
        except csv.Error as exc:
            where = "the header row" if header is None else f"row {rows + 1}"
            raise ParseError(f"{path}: malformed CSV at {where}: {exc}", row=rows + 1) from None
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
            digest: str, kept) -> DatasetRecord:
    """The one record constructor; ``kept`` is the normalised series to keep, or None."""
    values = None if kept is None else kept.values.tolist()
    return DatasetRecord(id=tag, source=source, classes=classes, scores=scores,
                         caption_base=caption, config_digest=digest, values=values)


def _window_outcome(window, *, params, cfg, target_len, include_values, digest, encode):
    """Resample, annotate and caption one window.

    Returns ``("ok", record)``, the record encoded when ``encode`` is given,
    or ``("skip", {"source", "reason"})``.
    """
    tag, values = window
    try:
        annotation = annotate(resample_linear(values, target_len), params, cfg)
    except TacoError as exc:
        return ("skip", {"source": tag, "reason": f"{type(exc).__name__}: {exc}"})
    record = _record(tag, tag, annotation.class_names(), annotation.scores.as_dict(),
                     base_caption(annotation.classes), digest,
                     annotation.normalized if include_values else None)
    return ("ok", encode(record) if encode else record)


def _synth_record(i, *, master_seed, annotate_also, params, cfg, include_values, length,
                  constraints, digest, encode):
    """Generate record ``i`` of a forward dataset, encoded when ``encode`` is given."""
    child_seed = np.random.SeedSequence(entropy=(master_seed, i))
    spec = sample_spec(child_seed, constraints=constraints, length=length)
    synth_record = generate(spec)
    classes = list(synth_record.forward_classes)
    caption = synth_record.caption
    scores: dict = {}
    if annotate_also:
        annotation = annotate(synth_record.values, params, cfg)
        caption = f"{caption} {base_caption(annotation.classes)}"
        classes += [c for c in annotation.class_names() if c not in classes]
        scores = annotation.scores.as_dict()
        kept = annotation.normalized if include_values else None
    else:
        kept = minmax_normalize(synth_record.values) if include_values else None
    record = _record(f"synth-{i:06d}", "synth", classes, scores, caption, digest, kept)
    return encode(record) if encode else record


#: Tasks per chunk a pool worker runs, and chunks in flight per worker.  Both
#: are fixed, so with ``jobs`` workers at most ``jobs * CHUNKS_PER_JOB``
#: chunks are submitted and not yet consumed, whatever the input size.
CHUNK_TASKS = 8
CHUNKS_PER_JOB = 2


def _run_chunk(worker, items) -> list:
    return [worker(item) for item in items]


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


def _ordered(worker, items, jobs: int):
    """Yield ``worker(item)`` for each item, in item order.

    With ``jobs`` > 1 and more than one chunk of items, chunks run on a
    process pool through :func:`in_order`, ``jobs * CHUNKS_PER_JOB`` chunks
    ahead of the consumer; otherwise the worker runs inline.
    """
    if jobs > 1:
        tasks = iter(items)
        chunks = iter(lambda: list(islice(tasks, CHUNK_TASKS)), [])
        head = list(islice(chunks, 2))
        if len(head) == 2:
            # imported here, so that starting the CLI loads neither
            # multiprocessing nor the signal module
            import multiprocessing
            import signal
            from concurrent.futures import ProcessPoolExecutor

            # fork wherever the platform has it: Python 3.14 makes forkserver
            # the default, under which --jobs 2 ran slower than --jobs 1
            context = (multiprocessing.get_context("fork")
                       if "fork" in multiprocessing.get_all_start_methods() else None)
            # Workers ignore Ctrl-C, which a terminal sends to the whole
            # process group: the parent alone handles it and shuts the pool down.
            pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context,
                                       initializer=signal.signal,
                                       initargs=(signal.SIGINT, signal.SIG_IGN))
            results = in_order(pool, partial(_run_chunk, worker), chain(head, chunks),
                               jobs * CHUNKS_PER_JOB)
            with contextlib.closing(results):
                # chain drops each chunk before waiting for the next
                yield from chain.from_iterable(results)
            return
        items = chain.from_iterable(head)
    for item in items:
        yield worker(item)


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
    worker = partial(_window_outcome, params=params, cfg=cfg, target_len=spec.target_len,
                     include_values=include_values, digest=config_digest(params, cfg),
                     encode=encode)
    for kind, item in _ordered(worker, ingest_csv(spec), jobs):
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
    worker = partial(_synth_record, master_seed=int(master_seed),
                     annotate_also=annotate_also, params=params, cfg=cfg,
                     include_values=include_values, length=length, constraints=constraints,
                     digest=config_digest(params, cfg), encode=encode)
    return _ordered(worker, range(n), jobs=1)


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


def iter_jsonl(path):
    """Yield the records of a JSONL dataset file one line at a time.

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
