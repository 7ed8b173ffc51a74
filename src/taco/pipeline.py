"""Dataset construction: CSV windows in, JSONL caption records out.

Raw CSV columns are cut into fixed-length windows and resampled to a common
length by linear interpolation; forward records start from synthetic signals.
Signals are processed a chunk of ``CHUNK_TASKS`` at a time, each chunk one
block that :func:`_records`, the one record builder, normalises once (and
annotates, for CSV windows and ``annotate_also``) and turns into records.
Chunks are independent, so they run in parallel, and results are always
emitted in input order regardless of worker count, so identical inputs and
configuration produce byte-identical output files.

Records stream: each chunk's records, or their encoded JSONL lines, are
yielded in order as soon as the chunk is done, and workers run the
serialiser, so memory does not grow with the size of the output.
"""

from __future__ import annotations

import contextlib
import csv
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .annotator import DetectorParams, ThresholdConfig, annotate, config_digest, default_config
from .captioner import base_caption
from .errors import STOP_SIGNALS, InvalidArgument, ParseError, TacoError
# write_jsonl and read_jsonl stay importable from here, beside the builders whose
# records they write and read (bench/layers.py times them under these names)
from .records import DatasetRecord, in_order, opened, read_jsonl, write_jsonl  # noqa: F401
from .signal import MIN_SERIES_LEN, minmax_normalize, resample_linear


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
    if not rows:
        raise ParseError(f"{path} has a header but no data rows")
    if wanted is None and not columns:
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
            starts = range(0, values.size - spec.window_len + 1, spec.stride or spec.window_len)
            for idx, start in enumerate(starts):
                yield f"{name}#{col}#{idx}", values[start:start + spec.window_len]


def _records(heads, block, *, annotated, params, cfg, include_values, digest, encode):
    """Yield the record of each row of ``block`` in order, encoded when
    ``encode`` is given: every dataset record is built here.  Each head is
    ``(id, source, classes, caption)``; an ``annotated`` block adds each
    annotation's other classes, its base caption and its scores.  The block is
    min-max normalised once: by ``annotate``, or, when values are kept, by one
    :func:`minmax_normalize` call."""
    annotations = annotate(block, params, cfg) if annotated else ()
    if include_values:
        rows = [a.normalized for a in annotations] if annotated else minmax_normalize(block)
    for i, (rid, source, classes, caption) in enumerate(heads):
        scores: dict = {}
        if annotated:
            annotation = annotations[i]
            classes = classes + [c for c in annotation.class_names() if c not in classes]
            caption = " ".join(filter(None, (caption, base_caption(annotation.classes))))
            scores = annotation.scores.as_dict()
        record = DatasetRecord(id=rid, source=source, classes=classes, scores=scores,
                               caption_base=caption, config_digest=digest,
                               values=rows[i].tolist() if include_values else None)
        yield encode(record) if encode else record


def _window_outcomes(windows, *, target_len, **build):
    """Resample a chunk of windows into one block and yield its records.

    Yields a ``{"source", "reason"}`` dict as soon as a window fails to
    resample, then each other window's record (never a dict) in window order.
    """
    heads, rows = [], []
    for tag, values in windows:
        try:
            rows.append(resample_linear(values, target_len))
            heads.append((tag, tag, [], ""))
        except TacoError as exc:
            yield {"source": tag, "reason": f"{type(exc).__name__}: {exc}"}
    if rows:
        yield from _records(heads, np.array(rows), annotated=True, **build)


def _synth_records(indices, *, master_seed, length, constraints, annotate_also, **build):
    """Generate the signals of a chunk of forward-dataset indices as one block
    and yield their records; with ``annotate_also`` the block is annotated."""
    from .synth import generate, sample_spec

    synths = [generate(sample_spec(np.random.SeedSequence(entropy=(master_seed, i)),
                                   constraints=constraints, length=length))
              for i in indices]
    heads = [(f"synth-{i:06d}", "synth", list(synth.forward_classes), synth.caption)
             for i, synth in zip(indices, synths)]
    yield from _records(heads, np.array([synth.values for synth in synths]),
                        annotated=annotate_also, **build)


#: Tasks per chunk a worker runs, and chunks in flight per pool worker.  Both
#: are fixed, so with ``jobs`` workers at most ``jobs * CHUNKS_PER_JOB``
#: chunks are submitted and not yet consumed, whatever the input size.
CHUNK_TASKS = 8
CHUNKS_PER_JOB = 2


def _listed(worker, chunk) -> list:
    return list(worker(chunk))


def _quiet_worker() -> None:
    """Pool worker set-up.  Workers ignore Ctrl-C, which a terminal sends to
    the whole process group: the parent alone handles it and shuts the pool
    down.  The other stop signals get back their default action in place of
    the CLI's handler, which a forked worker inherits, so a signal to the
    group ends a worker without a traceback; one the parent ignores, as nohup
    ignores SIGHUP, stays ignored.

    A parent killed outright, as by SIGKILL, shuts nothing down, and a worker
    waiting on the call queue would wait for good: forked workers hold the
    write end of the queue's pipe themselves, so it never reads end-of-file.
    So a daemon thread ends the worker once its parent process id changes.

    Left to the kernel, both workers of a two-worker pool often stayed on
    one CPU for the whole run, each chunk taking twice its CPU time in wall
    time.  So
    worker k, in spawn order, moves to the k-th allowed CPU and at once gets
    the whole allowed set back: where it starts is a hint, not a pin, and a
    mask set by taskset or a cgroup is kept."""
    import multiprocessing
    import os
    import signal
    import threading
    import time

    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_setaffinity") else ()
    if len(allowed) > 1:
        cpus = sorted(allowed)
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, [cpus[multiprocessing.current_process()._identity[-1]
                                         % len(cpus)]])
            os.sched_setaffinity(0, allowed)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for name in STOP_SIGNALS:
        if hasattr(signal, name) and callable(signal.getsignal(getattr(signal, name))):
            signal.signal(getattr(signal, name), signal.SIG_DFL)
    parent = os.getppid()

    def watch():
        while os.getppid() == parent:
            time.sleep(0.5)
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


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
            # imported here, so that starting the CLI does not load multiprocessing
            import multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            # fork wherever the platform has it: Python 3.14 makes forkserver
            # the default, under which --jobs 2 ran slower than --jobs 1
            context = (multiprocessing.get_context("fork")
                       if "fork" in multiprocessing.get_all_start_methods() else None)
            pool = ProcessPoolExecutor(max_workers=jobs, mp_context=context,
                                       initializer=_quiet_worker)
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
    for item in _ordered(worker, ingest_csv(spec), jobs):
        if isinstance(item, dict):
            skips.append(item)
        else:
            yield item


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
    if master_seed < 0:
        raise InvalidArgument(f"master_seed must be >= 0, got {master_seed}")
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
