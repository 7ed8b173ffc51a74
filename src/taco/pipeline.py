"""Dataset construction: CSV windows in, JSONL caption records out.

Raw CSV columns are cut into fixed-length windows, resampled to a common
length by linear interpolation, normalized, annotated and captioned.  Windows
are processed a chunk of ``CHUNK_TASKS`` at a time, each chunk annotated as
one block; chunks are independent, so they run in parallel, and results are
always emitted in (file, column, window) order regardless of worker count,
so identical inputs and configuration produce byte-identical output files.

Records stream: each chunk's records, or their encoded JSONL lines, are
yielded in order as soon as the chunk is done, and workers run the
serialiser, so memory does not grow with the size of the output.
"""

from __future__ import annotations

import contextlib
import csv
from array import array
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np

from .annotator import DetectorParams, ThresholdConfig, annotate, config_digest, default_config
from .captioner import base_caption
from .errors import InvalidArgument, ParseError, TacoError
# write_jsonl and read_jsonl stay importable from here, beside the builders whose
# records they write and read (bench/layers.py times them under these names)
from .records import DatasetRecord, opened, read_jsonl, write_jsonl  # noqa: F401
from .signal import MIN_SERIES_LEN, minmax_normalize, resample_linear
from .synth import generate, sample_spec


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


def _window_outcomes(windows, *, params, cfg, target_len, include_values, digest, encode):
    """Resample a chunk of windows into one block, then annotate and caption it.

    Yields one outcome per window, in order: ``("ok", record)``, the record
    encoded when ``encode`` is given, or ``("skip", {"source", "reason"})``
    for a window that cannot be resampled.
    """
    outcomes, rows = [], []
    for tag, values in windows:
        try:
            rows.append(resample_linear(values, target_len))
        except TacoError as exc:
            outcomes.append(("skip", {"source": tag, "reason": f"{type(exc).__name__}: {exc}"}))
        else:
            outcomes.append(("ok", tag))
    annotations = iter(annotate(np.array(rows), params, cfg) if rows else ())
    for kind, item in outcomes:
        if kind == "ok":
            annotation = next(annotations)
            item = _record(item, item, annotation.class_names(), annotation.scores.as_dict(),
                           base_caption(annotation.classes), digest,
                           annotation.normalized if include_values else None)
            item = encode(item) if encode else item
        yield kind, item


def _synth_records(indices, *, master_seed, annotate_also, params, cfg, include_values,
                   length, constraints, digest, encode):
    """Yield the records of a chunk of forward-dataset indices, encoded when
    ``encode`` is given; with ``annotate_also`` their signals are annotated
    as one block."""
    synths = (generate(sample_spec(np.random.SeedSequence(entropy=(master_seed, i)),
                                   constraints=constraints, length=length))
              for i in indices)
    annotations = repeat(None)  # plain records are built one at a time, as generated
    if annotate_also:
        synths = list(synths)
        annotations = annotate(np.array([synth.values for synth in synths]), params, cfg)
    for i, synth, annotation in zip(indices, synths, annotations):
        classes = list(synth.forward_classes)
        caption = synth.caption
        scores: dict = {}
        if annotation is not None:
            caption = f"{caption} {base_caption(annotation.classes)}"
            classes += [c for c in annotation.class_names() if c not in classes]
            scores = annotation.scores.as_dict()
            kept = annotation.normalized if include_values else None
        else:
            kept = minmax_normalize(synth.values) if include_values else None
        record = _record(f"synth-{i:06d}", "synth", classes, scores, caption, digest, kept)
        yield encode(record) if encode else record


#: Tasks per chunk a worker runs, and chunks in flight per pool worker.  Both
#: are fixed, so with ``jobs`` workers at most ``jobs * CHUNKS_PER_JOB``
#: chunks are submitted and not yet consumed, whatever the input size.
CHUNK_TASKS = 8
CHUNKS_PER_JOB = 2


def _listed(worker, chunk) -> list:
    return list(worker(chunk))


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
    """Yield one result per item, in item order, from ``worker``, which takes
    a list of up to ``CHUNK_TASKS`` items and returns or yields their results;
    inline, a generator worker's results are consumed one at a time.

    With ``jobs`` > 1 and more than one chunk of items, chunks run on a
    process pool through :func:`in_order`, ``jobs * CHUNKS_PER_JOB`` chunks
    ahead of the consumer; otherwise the worker runs inline.
    """
    tasks = iter(items)
    chunks = iter(lambda: list(islice(tasks, CHUNK_TASKS)), [])
    if jobs > 1:
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
            results = in_order(pool, partial(_listed, worker), chain(head, chunks),
                               jobs * CHUNKS_PER_JOB)
            with contextlib.closing(results):
                # chain drops each chunk before waiting for the next
                yield from chain.from_iterable(results)
            return
        chunks = iter(head)
    yield from chain.from_iterable(map(worker, chunks))


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
    worker = partial(_window_outcomes, params=params, cfg=cfg, target_len=spec.target_len,
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
    worker = partial(_synth_records, master_seed=int(master_seed),
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
