"""Command-line entry point.

Subcommands: annotate, caption, synth, dataset, nearnbr, eval.  This module
only parses flags and wires library calls together; no numeric logic lives
here.  Each command imports the modules it runs, so starting the CLI, and
``--help``, ``--version``, a usage error, ``caption --classes`` or ``eval``,
loads no numpy.

Each ``_cmd_*`` checks its flags and loads its settings, index or report at
once, then returns a generator of output lines.  :func:`main` alone writes
them, to stdout or to ``--out``, so no check waits on ``--out`` being opened.

Exit codes: 0 success, 1 usage error, 2 data error, 3 external-service error,
128 + the signal number when stopped: 130 interrupted (Ctrl-C), 129 hung up
(SIGHUP), 143 terminated (SIGTERM).
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import gc
import os
import sys

from . import __version__
from .captioner import (DEFAULT_IN_FLIGHT, TimeSeriesClass, base_caption, rephrase,
                        resolve_endpoint)
from .errors import (MIN_SERIES_LEN, STOP_SIGNALS, InvalidArgument, ServiceError, TacoError,
                     Unavailable)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SERVICE = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it

# The interpreter's last cyclic collection is most of its teardown: a
# dataset --jobs 2 run took 37 ms from atexit to its end, 13 ms with the
# heap frozen (2 cores, Python 3.11).  Freezing at exit, not in main(),
# leaves a process that calls main() its collector until it exits itself.
atexit.register(gc.freeze)


class _UsageError(Exception):
    """A usage problem; :func:`main` prints it as one ``error:`` line."""


class _Stopped(KeyboardInterrupt):
    """``(message, exit code)`` of a run stopped by a signal; a
    ``KeyboardInterrupt``, so that it takes the Ctrl-C path.

    Ctrl-C raises it too, not a bare ``KeyboardInterrupt``: under
    ``python -m``, a bare one that once left an ``exec`` of source text, as
    dataclasses runs while a command imports its modules, ends the process
    by SIGINT at exit, whatever exit code :func:`main` returned."""


#: ``(message, exit code)`` of each signal :func:`_stop` took in this run;
#: held by the module, as signal handlers are held by the process.
_stops: list = []


def _stop(signum, frame):
    import signal

    name = signal.Signals(signum).name
    _stops.append(("interrupted" if name == "SIGINT" else f"stopped by {name}", 128 + signum))
    raise _Stopped(*_stops[-1])


def _unless_stopped(lines):
    """Yield ``lines``, then end in :class:`_Stopped` if :func:`_stop` took
    a signal whose exception was lost on its way to :func:`main`.

    Code that swallows every exception loses it: a Ctrl-C that landed in
    the module set-up of ``numpy.random._generator``, which synth imports at
    its first record, or in importlib's module-lock callback left the run
    writing to the end.  The check also runs after the last line, so such a
    run does not put ``--out`` in place.
    """
    for line in lines:
        if _stops:
            break
        yield line
    if _stops:
        raise _Stopped(*_stops[0])


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via exit code 1."""

    def error(self, message):
        self.print_help(sys.stderr)
        print(file=sys.stderr)
        raise _UsageError(message)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than ``minimum``."""
    def parse(text):
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    parse.__name__ = "int"  # argparse reports a non-integer as "invalid int value"
    return parse


def _load_params(path: str | None) -> DetectorParams:
    from .detectors import DetectorParams
    from .records import load_json

    if path is None:
        return DetectorParams()
    return DetectorParams.from_json_dict(load_json(path, InvalidArgument))


def _lines(*lines):
    """A generator of ``lines``, for output known before it is written."""
    yield from lines


def _window_lines(lines, skips: list, skip_path: str | None):
    """Yield ``lines``, then report the ``skips`` they left.

    With a sidecar ``skip_path`` the skips are written there, after the last
    line and so before ``--out`` is put in place, and stderr gets a count;
    else stderr gets one line each.
    """
    yield from lines
    if skip_path:
        from .records import write_jsonl

        write_jsonl(skips, skip_path)
        if skips:
            print(f"{len(skips)} window(s) skipped, reasons in {skip_path}",
                  file=sys.stderr)
    else:
        for entry in skips:
            print(f"skipped {entry['source']}: {entry['reason']}", file=sys.stderr)


def _add_ingest_flags(parser) -> None:
    parser.add_argument("--input", action="append", required=True,
                        help="input CSV file (repeatable)")
    parser.add_argument("--column", action="append", default=None,
                        help="column to ingest (repeatable; default: all numeric)")
    parser.add_argument("--window", type=_int_at_least(MIN_SERIES_LEN), default=300,
                        help="window length in samples (default 300)")
    parser.add_argument("--target-len", type=_int_at_least(MIN_SERIES_LEN), default=2048,
                        help="resampled length per window, at least --window (default 2048)")
    parser.add_argument("--stride", type=_int_at_least(1), default=None,
                        help="window stride (default: window length)")


def _add_config_flags(parser) -> None:
    parser.add_argument("--config", default=None,
                        help="threshold config JSON (default: embedded defaults)")
    parser.add_argument("--params", default=None,
                        help="detector params JSON (default: built-in defaults)")


def _add_rephrase_flags(parser) -> None:
    parser.add_argument("--rephrase", action="store_true",
                        help="rephrase captions through the LLM endpoint")
    parser.add_argument("--endpoint", default=None,
                        help="rephrase endpoint (default: $TACO_LLM_ENDPOINT)")
    parser.add_argument("--model", default=None,
                        help="rephrase model name (default: $TACO_LLM_MODEL)")


def _rephrased(items, caption_of, args, in_flight: int):
    """Yield ``(item, rephrased caption)`` for each item, in item order, None
    where the call failed; at most ``in_flight`` calls run at once, on one
    thread pool, and ``4 * in_flight`` are queued ahead of the consumer.

    One stderr line, printed after the last item, reports failures for the
    whole run: with no endpoint configured every caption is None and no
    request is made, else the line counts the failed calls.
    """
    try:
        endpoint = resolve_endpoint(args.endpoint)
    except Unavailable as exc:
        yield from ((item, None) for item in items)
        print(f"--rephrase requested but {exc}; emitting base captions only",
              file=sys.stderr)
        return
    from concurrent.futures import ThreadPoolExecutor  # loaded only to rephrase

    from .records import in_order

    def attempt(item):
        try:
            return item, rephrase(caption_of(item), endpoint, args.model)
        except ServiceError:
            return item, None

    failed = total = 0
    results = in_order(ThreadPoolExecutor(in_flight), attempt, items, 4 * in_flight)
    with contextlib.closing(results):
        for item, new in results:
            failed += new is None
            total += 1
            yield item, new
    if failed:
        print(f"rephrase failed for {failed} of {total} captions; "
              f"caption_rephrased is null for them", file=sys.stderr)


def _ingest_spec(args) -> IngestSpec:
    from .pipeline import IngestSpec

    if args.target_len < args.window:
        raise _UsageError(
            f"--target-len {args.target_len} must be at least --window {args.window}")
    return IngestSpec(
        inputs=tuple(args.input),
        columns=tuple(args.column) if args.column else None,
        window_len=args.window,
        target_len=args.target_len,
        stride=args.stride,
    )


def _annotate_line(record) -> str:
    """An annotate row: the dataset record's classes and scores, its config
    digest named ``params_digest``."""
    from .records import encode_record

    data = record.to_json_dict()
    return encode_record({key: data[key] for key in ("id", "source", "classes", "scores")}
                         | {"params_digest": data["config_digest"]})


def _cmd_annotate(args):
    from .annotator import load_config
    from .pipeline import iter_dataset

    params = _load_params(args.params)
    cfg = load_config(args.config)
    skips: list = []
    lines = iter_dataset(_ingest_spec(args), skips, params, cfg,
                         include_values=False, encode=_annotate_line)
    return _window_lines(lines, skips, None)


def _cmd_caption(args):
    if bool(args.classes) == bool(args.input):
        raise _UsageError("caption needs exactly one of --classes or --input")
    if args.classes:
        classes = {TimeSeriesClass.from_name(n.strip())
                   for n in args.classes.split(",") if n.strip()}
        text = base_caption(classes)
        if args.rephrase:
            text = rephrase(text, endpoint=args.endpoint, model=args.model)
        return _lines(text)
    from .records import FLOATLESS_DECODER, iter_jsonl

    class_names = {member.value for member in TimeSeriesClass}

    def captioned(name) -> bool:
        # a forward shape or overlay name, which synth records list among
        # their classes, names no time-series class and is skipped; only a
        # name that is not a class imports synth, and with it numpy
        if name in class_names:
            return True
        from .synth import OVERLAY_NAMES, SHAPE_NAMES

        return name not in SHAPE_NAMES + OVERLAY_NAMES

    rows = ({"id": record.id,
             "caption_base": base_caption({TimeSeriesClass.from_name(n) for n in record.classes
                                           if captioned(n)})}
            for record in iter_jsonl(args.input, FLOATLESS_DECODER))
    if args.rephrase:
        rows = (row | {"caption_rephrased": new} for row, new in
                _rephrased(rows, lambda row: row["caption_base"], args, args.jobs))
    return rows


def _cmd_synth(args):
    from .annotator import load_config
    from .pipeline import iter_forward
    from .records import encode_record

    if args.annotate_also and args.length < MIN_SERIES_LEN:
        raise _UsageError(f"--annotate-also needs --length of at least {MIN_SERIES_LEN}, "
                          f"got {args.length}")
    params = _load_params(args.params)
    cfg = load_config(args.config)
    constraints = ([s.strip() for s in args.shapes.split(",") if s.strip()]
                   if args.shapes is not None else None)
    return iter_forward(
        n=args.count,
        master_seed=args.seed,
        annotate_also=args.annotate_also,
        params=params,
        cfg=cfg,
        include_values=not args.no_values,
        length=args.length,
        constraints=constraints,
        encode=encode_record,
    )


def _cmd_dataset(args):
    from dataclasses import replace

    from .annotator import load_config
    from .pipeline import iter_dataset
    from .records import encode_record, written_in_place

    if (args.skip_log and args.out
            and os.path.realpath(args.skip_log) == os.path.realpath(args.out)):
        raise _UsageError("--skip-log must not name the --out file")
    sidecar = args.out and not written_in_place(args.out)  # a device or pipe gets none
    skip_path = args.skip_log or (f"{args.out}.skipped.jsonl" if sidecar else None)
    params = _load_params(args.params)
    cfg = load_config(args.config)
    skips: list = []
    # With --rephrase workers hand back records, since the line is encoded
    # once the caption is rephrased.  The pool starts on the first window,
    # before any rephrase thread, so no worker is forked from a threaded
    # process.
    lines = iter_dataset(_ingest_spec(args), skips, params, cfg, jobs=args.jobs,
                         include_values=not args.no_values,
                         encode=None if args.rephrase else encode_record)
    if args.rephrase:
        lines = (replace(record, caption_rephrased=new) for record, new in
                 _rephrased(lines, lambda record: record.caption_base, args,
                            DEFAULT_IN_FLIGHT))
    return _window_lines(lines, skips, skip_path)


def _cmd_nearnbr(args):
    from .evalkit import iter_nearnbr, load_index

    index = load_index(args.index)
    return ({"id": query_id, "caption_base": caption, "neighbor_id": neighbor_id,
             "mse": mse}
            for query_id, caption, neighbor_id, mse in iter_nearnbr(index, args.queries))


def _cmd_eval(args):
    from .evalkit import evaluate_corpus, report_to_json

    return _lines(report_to_json(evaluate_corpus(args.candidates, args.references)))


def build_parser() -> _Parser:
    parser = _Parser(prog="taco",
                     description="Descriptive time-series classes, captions, "
                                 "synthetic signals and caption datasets.")
    parser.add_argument("--version", action="version", version=f"taco {__version__}")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p = sub.add_parser("annotate", help="assign classes to CSV windows")
    _add_ingest_flags(p)
    _add_config_flags(p)
    p.add_argument("--out", default=None, help="output JSONL (default: stdout)")
    p.set_defaults(func=_cmd_annotate)

    p = sub.add_parser("caption", help="generate base captions from classes")
    _add_rephrase_flags(p)
    p.add_argument("--classes", default=None,
                   help="comma-separated class names, e.g. Rising,Smooth")
    p.add_argument("--input", default=None,
                   help="JSONL with class lists (one caption per record)")
    p.add_argument("--jobs", type=_int_at_least(1), default=DEFAULT_IN_FLIGHT,
                   help=f"max rephrase calls in flight (default {DEFAULT_IN_FLIGHT})")
    p.add_argument("--out", default=None, help="output JSONL (default: stdout)")
    p.set_defaults(func=_cmd_caption)

    p = sub.add_parser("synth", help="generate labeled synthetic signals")
    _add_config_flags(p)
    p.add_argument("--count", type=_int_at_least(1), required=True,
                   help="number of records")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="master seed")
    p.add_argument("--length", type=_int_at_least(2), default=2048,
                   help="samples per signal")
    p.add_argument("--shapes", default=None,
                   help="comma-separated shape subset to sample from")
    p.add_argument("--annotate-also", action="store_true",
                   help="append backward captions and classes to each record")
    p.add_argument("--no-values", action="store_true",
                   help="omit value vectors from records")
    p.add_argument("--out", default=None, help="output JSONL (default: stdout)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("dataset", help="build a caption dataset from CSV input")
    _add_ingest_flags(p)
    _add_config_flags(p)
    _add_rephrase_flags(p)
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes")
    p.add_argument("--no-values", action="store_true",
                   help="omit value vectors from records")
    p.add_argument("--skip-log", default=None,
                   help="sidecar JSONL for skipped windows")
    p.add_argument("--out", default=None, help="output JSONL (default: stdout)")
    p.set_defaults(func=_cmd_dataset)

    p = sub.add_parser("nearnbr", help="retrieval baseline over a training index")
    p.add_argument("--index", required=True, help="training JSONL with values")
    p.add_argument("--queries", required=True, help="query JSONL with values")
    p.add_argument("--out", default=None, help="output JSONL (default: stdout)")
    p.set_defaults(func=_cmd_nearnbr)

    p = sub.add_parser("eval", help="score candidate captions against references")
    p.add_argument("--candidates", required=True, help="candidate JSONL")
    p.add_argument("--references", required=True, help="reference JSONL")
    p.add_argument("--out", default=None, help="report JSON path (default: stdout)")
    p.set_defaults(func=_cmd_eval)

    return parser


def main(argv=None) -> int:
    """Run the ``taco`` command line on ``argv`` and return its exit code."""
    try:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        import signal  # here, so that importing the CLI does not load it
        import threading

        from .records import write_jsonl

        saved = {}
        _stops.clear()
        if threading.current_thread() is threading.main_thread():  # else signal() refuses
            # a signal the caller ignores, as nohup ignores SIGHUP, stays ignored
            saved = {name: signal.signal(getattr(signal, name), _stop)
                     for name in ("SIGINT", *STOP_SIGNALS) if hasattr(signal, name)
                     and signal.getsignal(getattr(signal, name)) is not signal.SIG_IGN}
        try:
            # closing the lines ends what they run, a --jobs pool or rephrase
            # threads, however the write ends
            with contextlib.closing(args.func(args)) as lines:
                write_jsonl(_unless_stopped(lines), args.out)
            sys.stdout.flush()
        except Exception:
            # a signal's exception that an import turned into another, as
            # numpy's does into an ImportError, still stops the run
            if _stops:
                raise _Stopped(*_stops[0]) from None
            raise
        finally:
            for name, handler in saved.items():
                signal.signal(getattr(signal, name), handler)
        return EXIT_OK
    except BrokenPipeError:
        # The reader closed stdout early, which is not an error.  Point fd 1
        # at devnull so the interpreter's final flush of stdout stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except KeyboardInterrupt as exc:
        # write_jsonl has removed its temporary file and closing the lines
        # has shut any pool down on the way out
        message, code = (exc.args if isinstance(exc, _Stopped)
                         else ("interrupted", EXIT_INTERRUPTED))
        print(f"error: {message}", file=sys.stderr)
        return code
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except (TacoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
