"""Command-line entry point.

Subcommands: annotate, caption, synth, dataset, nearnbr, eval.  This module
only parses flags and wires library calls together; no numeric logic lives
here.

Exit codes: 0 success, 1 usage error, 2 data error, 3 external-service error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from . import __version__
from .annotator import DetectorParams, TimeSeriesClass, load_config
from .captioner import DEFAULT_IN_FLIGHT, base_caption, rephrase, rephrase_many
from .errors import InvalidArgument, ServiceError, TacoError, Unavailable
from .evalkit import (
    evaluate_corpus,
    load_index,
    nearnbr_caption,
    record_values,
    report_to_json,
)
from .pipeline import (
    IngestSpec,
    build_dataset,
    build_forward_dataset,
    read_jsonl,
    write_atomic,
    write_jsonl,
)
from .signal import MIN_SERIES_LEN
from .synth import OVERLAY_NAMES, SHAPE_NAMES

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_SERVICE = 3


#: Forward shape and overlay names that synth records list among their classes
#: and that name no time-series class; ``caption --input`` skips them.
_FORWARD_ONLY_NAMES = (frozenset(SHAPE_NAMES + OVERLAY_NAMES)
                       - {member.value for member in TimeSeriesClass})


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems via exit code 1."""

    def error(self, message):
        self.print_help(sys.stderr)
        print(f"\nerror: {message}", file=sys.stderr)
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
    if path is None:
        return DetectorParams()
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise InvalidArgument(f"params file {path} is not valid JSON: {exc}") from exc
    return DetectorParams.from_json_dict(data)


def _report_skips(skips, skip_path: str | None) -> None:
    """Write skips to a sidecar file when given one, else one stderr line each."""
    if not skips:
        return
    if skip_path:
        write_jsonl(skips, skip_path)
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
    parser.add_argument("--target-len", type=int, default=2048,
                        help="resampled length per window (default 2048)")
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


def _rephrase_all(captions: list, args, in_flight: int) -> list:
    """Rephrase finished base captions; a slot whose call failed holds None.

    One stderr line reports failures: with no endpoint configured every slot
    is None and no request is made, else the line counts the failed calls.
    """
    try:
        rephrased = rephrase_many(captions, endpoint=args.endpoint, model=args.model,
                                  max_in_flight=in_flight)
    except Unavailable as exc:
        print(f"--rephrase requested but {exc}; emitting base captions only",
              file=sys.stderr)
        return [None] * len(captions)
    failed = rephrased.count(None)
    if failed:
        print(f"rephrase failed for {failed} of {len(captions)} captions; "
              f"caption_rephrased is null for them", file=sys.stderr)
    return rephrased


def _ingest_spec(args) -> IngestSpec:
    return IngestSpec(
        inputs=tuple(args.input),
        columns=tuple(args.column) if args.column else None,
        window_len=args.window,
        target_len=args.target_len,
        stride=args.stride,
    )


def _cmd_annotate(args) -> int:
    params = _load_params(args.params)
    cfg = load_config(args.config)
    records, skips = build_dataset(_ingest_spec(args), params, cfg,
                                   include_values=False)
    rows = [{key: data[key] for key in ("id", "source", "classes", "scores")}
            | {"params_digest": data["config_digest"]}
            for data in (record.to_json_dict() for record in records)]
    write_jsonl(rows, args.out)
    _report_skips(skips, None)
    return EXIT_OK


def _cmd_caption(args) -> int:
    if bool(args.classes) == bool(args.input):
        print("error: caption needs exactly one of --classes or --input",
              file=sys.stderr)
        return EXIT_USAGE
    if args.classes:
        classes = {TimeSeriesClass.from_name(n.strip())
                   for n in args.classes.split(",") if n.strip()}
        text = base_caption(classes)
        if args.rephrase:
            text = rephrase(text, endpoint=args.endpoint, model=args.model)
        print(text)
        return EXIT_OK
    rows = []
    for record in read_jsonl(args.input):
        classes = {TimeSeriesClass.from_name(n) for n in record.classes
                   if n not in _FORWARD_ONLY_NAMES}
        rows.append({"id": record.id, "caption_base": base_caption(classes)})
    if args.rephrase:
        rephrased = _rephrase_all([row["caption_base"] for row in rows], args, args.jobs)
        for row, new in zip(rows, rephrased):
            row["caption_rephrased"] = new
    write_jsonl(rows, args.out)
    return EXIT_OK


def _cmd_synth(args) -> int:
    if args.annotate_also and args.length < MIN_SERIES_LEN:
        print(f"error: --annotate-also needs --length of at least {MIN_SERIES_LEN}, "
              f"got {args.length}", file=sys.stderr)
        return EXIT_USAGE
    params = _load_params(args.params)
    cfg = load_config(args.config)
    constraints = ([s.strip() for s in args.shapes.split(",") if s.strip()]
                   if args.shapes else None)
    records, _ = build_forward_dataset(
        n=args.count,
        master_seed=args.seed,
        annotate_also=args.annotate_also,
        params=params,
        cfg=cfg,
        include_values=not args.no_values,
        length=args.length,
        constraints=constraints,
    )
    write_jsonl(records, args.out)
    return EXIT_OK


def _cmd_dataset(args) -> int:
    params = _load_params(args.params)
    cfg = load_config(args.config)
    records, skips = build_dataset(_ingest_spec(args), params, cfg, jobs=args.jobs,
                                   include_values=not args.no_values)
    if args.rephrase:
        rephrased = _rephrase_all([r.caption_base for r in records], args,
                                  DEFAULT_IN_FLIGHT)
        records = [replace(r, caption_rephrased=new) for r, new in zip(records, rephrased)]
    write_jsonl(records, args.out)
    _report_skips(skips, args.skip_log
                  or (f"{args.out}.skipped.jsonl" if args.out else None))
    return EXIT_OK


def _cmd_nearnbr(args) -> int:
    index = load_index(args.index)
    rows = []
    for record in read_jsonl(args.queries):
        caption, neighbor_id, mse = nearnbr_caption(
            record_values(record, args.queries), index)
        rows.append({
            "id": record.id,
            "caption_base": caption,
            "neighbor_id": neighbor_id,
            "mse": mse,
        })
    write_jsonl(rows, args.out)
    return EXIT_OK


def _cmd_eval(args) -> int:
    report = evaluate_corpus(args.candidates, args.references)
    text = report_to_json(report)
    if args.out:
        write_atomic(args.out, lambda handle: handle.write(text + "\n"))
    else:
        print(text)
    return EXIT_OK


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


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "command", None):
            parser.print_help(sys.stderr)
            return EXIT_USAGE
        return args.func(args)
    except _UsageError:
        return EXIT_USAGE
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SERVICE
    except (TacoError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
