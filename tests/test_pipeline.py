"""CSV ingestion, dataset builds, JSONL round trips and determinism."""

import concurrent.futures
import csv
import hashlib
import json
import multiprocessing
import os
import signal
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import taco.annotator
import taco.pipeline
from taco.captioner import BASE_CAPTIONS, NO_SALIENT_CAPTION, classes_from_caption
from taco.annotator import TimeSeriesClass, config_digest, default_config
from taco.cli import main
from taco.detectors import DetectorParams
from taco.errors import InvalidArgument, ParseError
from taco.pipeline import (
    CHUNK_TASKS,
    IngestSpec,
    build_dataset,
    build_forward_dataset,
    ingest_csv,
    iter_forward,
    _ordered,
)
from taco.records import DatasetRecord, in_order, read_jsonl, write_jsonl
from taco.signal import minmax_normalize
from taco.synth import generate, sample_spec


def write_csv(path, columns: dict):
    names = list(columns)
    rows = max(len(v) for v in columns.values())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(names)
        for i in range(rows):
            writer.writerow([columns[n][i] if i < len(columns[n]) else ""
                             for n in names])


@pytest.fixture()
def ramp_csv(tmp_path):
    path = tmp_path / "ramp.csv"
    write_csv(path, {"ramp": list(np.linspace(0.0, 1.0, 300))})
    return path


# ---------------------------------------------------------------------------
# ingest_csv
# ---------------------------------------------------------------------------

def test_ingest_window_count(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, {"a": list(np.arange(900.0))})
    windows = list(ingest_csv(IngestSpec(inputs=(path,), window_len=300)))
    assert len(windows) == 3
    assert [tag for tag, _ in windows] == ["x.csv#a#0", "x.csv#a#1", "x.csv#a#2"]
    assert all(w.size == 300 for _, w in windows)


def test_ingest_incomplete_tail_dropped(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, {"a": list(np.arange(299.0))})
    assert list(ingest_csv(IngestSpec(inputs=(path,), window_len=300))) == []


def test_ingest_non_numeric_cell_reports_row(tmp_path):
    path = tmp_path / "bad.csv"
    values = [str(v) for v in np.arange(32.0)]
    values[4] = "abc"  # data row 5
    write_csv(path, {"a": values})
    with pytest.raises(ParseError, match="row 5") as err:
        list(ingest_csv(IngestSpec(inputs=(path,), window_len=16)))
    assert err.value.row == 5


def test_ingest_no_numeric_columns(tmp_path):
    path = tmp_path / "text.csv"
    write_csv(path, {"name": ["a", "b", "c"]})
    with pytest.raises(ParseError, match="numeric"):
        list(ingest_csv(IngestSpec(inputs=(path,), window_len=16)))


@pytest.mark.parametrize("columns", [None, ("a",)])
def test_ingest_header_only_refused(tmp_path, columns):
    path = tmp_path / "h.csv"
    path.write_text("a,b\n")
    with pytest.raises(ParseError) as err:
        list(ingest_csv(IngestSpec(inputs=(path,), columns=columns, window_len=16)))
    assert str(err.value) == f"{path} has a header but no data rows"


def test_ingest_missing_file():
    with pytest.raises(ParseError):
        list(ingest_csv(IngestSpec(inputs=("/nonexistent/nope.csv",))))


@pytest.mark.parametrize("columns", [None, ("x",)])
def test_ingest_duplicate_header_names_rejected(tmp_path, columns):
    path = tmp_path / "dup.csv"
    path.write_text("x,x\n" + "".join(f"{i},{-i}\n" for i in range(32)))
    with pytest.raises(ParseError, match="'x'") as err:
        list(ingest_csv(IngestSpec(inputs=(path,), columns=columns, window_len=16)))
    assert err.value.column == "x"


def test_ingest_text_column_with_blank_first_cell_left_out(tmp_path):
    path = tmp_path / "mixed.csv"
    path.write_text("a,label,c\n0.0,,\n"
                    + "".join(f"{i}.0,row{i},\n" for i in range(1, 32)))
    tags = [tag for tag, _ in ingest_csv(IngestSpec(inputs=(path,), window_len=16))]
    assert tags == ["mixed.csv#a#0", "mixed.csv#a#1"]


def test_crlf_files_read_like_lf(tmp_path):
    csv_text = "a,b\n" + "".join(f"{i}.5,{-i}\n" for i in range(40))
    records, _ = build_forward_dataset(3, master_seed=5)
    jsonl_text = "".join(json.dumps(r.to_json_dict()) + "\n" for r in records)
    read = {}
    for ending in ("\n", "\r\n"):
        tag = "crlf" if ending == "\r\n" else "lf"
        csv_path, jsonl_path = tmp_path / tag / "x.csv", tmp_path / tag / "x.jsonl"
        csv_path.parent.mkdir()
        csv_path.write_bytes(csv_text.replace("\n", ending).encode())
        jsonl_path.write_bytes(jsonl_text.replace("\n", ending).encode())
        windows = ingest_csv(IngestSpec(inputs=(csv_path,), window_len=16))
        read[tag] = ([(name, w.tolist()) for name, w in windows],
                     [r.to_json_dict() for r in read_jsonl(jsonl_path)])
    assert read["crlf"] == read["lf"]
    assert len(read["lf"][0]) == 4 and len(read["lf"][1]) == 3


def test_ingest_csv_error_names_file_and_row(tmp_path):
    path = tmp_path / "long.csv"
    path.write_text("a\n1\n" + "2" * 200000 + "\n")
    with pytest.raises(ParseError, match=f"{path}: malformed CSV at row 2") as err:
        list(ingest_csv(IngestSpec(inputs=(path,), window_len=16)))
    assert err.value.row == 2


def test_ingest_column_selection(tmp_path):
    path = tmp_path / "two.csv"
    write_csv(path, {"a": list(np.arange(64.0)), "b": list(np.arange(64.0))})
    spec = IngestSpec(inputs=(path,), columns=("b",), window_len=32)
    tags = [tag for tag, _ in ingest_csv(spec)]
    assert tags == ["two.csv#b#0", "two.csv#b#1"]


def test_ingest_stride_overlap(tmp_path):
    path = tmp_path / "x.csv"
    write_csv(path, {"a": list(np.arange(100.0))})
    spec = IngestSpec(inputs=(path,), window_len=50, stride=25)
    assert len(list(ingest_csv(spec))) == 3


def test_ingest_spec_validation():
    with pytest.raises(InvalidArgument):
        IngestSpec(inputs=("x.csv",), window_len=8)
    with pytest.raises(InvalidArgument):
        IngestSpec(inputs=("x.csv",), window_len=300, target_len=200)


# ---------------------------------------------------------------------------
# build_dataset
# ---------------------------------------------------------------------------

def test_build_dataset_ramp_end_to_end(ramp_csv):
    records, skips = build_dataset(IngestSpec(inputs=(ramp_csv,)))
    assert skips == []
    assert len(records) == 1
    record = records[0]
    assert "Rising" in record.classes
    assert "The signal has a rising trend." in record.caption_base
    assert len(record.values) == 2048
    assert record.config_digest == config_digest(DetectorParams(), default_config())


def test_build_dataset_deterministic_bytes(ramp_csv, tmp_path):
    def build_bytes(jobs):
        records, _ = build_dataset(IngestSpec(inputs=(ramp_csv,)), jobs=jobs)
        out = tmp_path / f"out-{jobs}.jsonl"
        write_jsonl(records, out)
        return hashlib.sha256(out.read_bytes()).hexdigest()

    assert build_bytes(1) == build_bytes(1)
    assert build_bytes(1) == build_bytes(2)


def test_build_dataset_constant_window(tmp_path):
    path = tmp_path / "const.csv"
    write_csv(path, {"c": [5.0] * 300})
    records, skips = build_dataset(IngestSpec(inputs=(path,)))
    assert skips == []
    assert "Constant" in records[0].classes
    assert records[0].caption_base != NO_SALIENT_CAPTION
    assert BASE_CAPTIONS[TimeSeriesClass.CONSTANT] in records[0].caption_base


def test_build_dataset_skips_bad_window_and_conserves(tmp_path):
    path = tmp_path / "mix.csv"
    values = list(np.linspace(0.0, 1.0, 600))
    values[450] = float("inf")  # second window becomes invalid
    write_csv(path, {"a": values})
    records, skips = build_dataset(IngestSpec(inputs=(path,), window_len=300))
    assert len(records) == 1
    assert len(skips) == 1
    assert skips[0]["source"] == "mix.csv#a#1"
    assert "InvalidSignal" in skips[0]["reason"]
    windows = list(ingest_csv(IngestSpec(inputs=(path,), window_len=300)))
    assert len(records) + len(skips) == len(windows)


def test_skips_between_records_keep_window_order_at_every_jobs(tmp_path):
    # a chunk yields its skips as they happen, then its records: the first
    # chunk skips windows 0, 3 and 7 around its records, the second window 10
    values = np.sin(np.arange(20 * 32) / 5.0)
    for window in (0, 3, 7, 10):
        values[32 * window + 9] = np.nan
    path = tmp_path / "x.csv"
    write_csv(path, {"v": list(values)})
    spec = IngestSpec(inputs=(path,), window_len=32, target_len=64)
    built = [build_dataset(spec, jobs=jobs) for jobs in (1, 2)]  # 20 windows: 3 chunks
    assert built[0] == built[1]
    records, skips = built[0]
    assert [skip["source"] for skip in skips] == [f"x.csv#v#{w}" for w in (0, 3, 7, 10)]
    assert [record.id for record in records] == [
        f"x.csv#v#{w}" for w in range(20) if w not in (0, 3, 7, 10)]


def test_build_dataset_caption_roundtrip(ramp_csv):
    records, _ = build_dataset(IngestSpec(inputs=(ramp_csv,)))
    record = records[0]
    recovered = {c.value for c in classes_from_caption(record.caption_base)}
    assert recovered == set(record.classes)


def test_build_dataset_no_values(ramp_csv):
    records, _ = build_dataset(IngestSpec(inputs=(ramp_csv,)), include_values=False)
    assert records[0].values is None


# ---------------------------------------------------------------------------
# build_forward_dataset
# ---------------------------------------------------------------------------

def test_forward_dataset_single_sinusoid():
    records, skips = build_forward_dataset(1, master_seed=5,
                                           constraints={"Sinusoidal"})
    assert skips == []
    assert records[0].classes[0] == "Sinusoidal"
    assert "sinusoidal" in records[0].caption_base


def test_forward_dataset_annotate_also_two_part_caption():
    records, _ = build_forward_dataset(1, master_seed=9, annotate_also=True,
                                       constraints={"Sigmoid"})
    record = records[0]
    assert record.caption_base.startswith("The signal follows a sigmoid curve.")
    backward_part = record.caption_base.split("curve. ", 1)[1]
    assert classes_from_caption(backward_part)
    assert "Sigmoid" in record.classes
    assert any(c in record.classes for c in ("Rising", "Nonlinear", "Smooth"))
    assert record.scores


def test_forward_dataset_repeatable(tmp_path):
    out1 = tmp_path / "a.jsonl"
    out2 = tmp_path / "b.jsonl"
    for out in (out1, out2):
        records, _ = build_forward_dataset(100, master_seed=2024)
        write_jsonl(records, out)
    assert out1.read_bytes() == out2.read_bytes()


def test_forward_dataset_rejects_bad_count():
    with pytest.raises(InvalidArgument):
        build_forward_dataset(0, master_seed=1)
    with pytest.raises(InvalidArgument, match="master_seed must be >= 0, got -1"):
        build_forward_dataset(1, master_seed=-1)
    with pytest.raises(InvalidArgument, match="master_seed"):
        iter_forward(1, -1)  # at the call, before a record is asked for


@pytest.mark.parametrize("annotate_also", [False, True])
def test_forward_record_does_not_depend_on_its_chunk(annotate_also):
    # a chunk of CHUNK_TASKS records is one block; where a record's chunk ends
    # must not change a bit of it
    full, _ = build_forward_dataset(24, master_seed=13, annotate_also=annotate_also, length=64)
    expected = [record.to_json_dict() for record in full]
    for n in (1, 7, 9, 17):
        records, _ = build_forward_dataset(n, master_seed=13, annotate_also=annotate_also,
                                           length=64)
        assert [record.to_json_dict() for record in records] == expected[:n]


@pytest.mark.parametrize("length", [2, 5, 256])
@pytest.mark.parametrize("constraints", [None, {"Constant"}])
def test_plain_forward_values_are_each_signal_normalised_alone(length, constraints):
    records, _ = build_forward_dataset(CHUNK_TASKS + 3, master_seed=13, length=length,
                                       constraints=constraints)
    for i, record in enumerate(records):
        spec = sample_spec(np.random.SeedSequence(entropy=(13, i)), constraints=constraints,
                           length=length)
        alone = minmax_normalize(generate(spec).values[None])[0]
        assert np.array(record.values).tobytes() == alone.tobytes()


# ---------------------------------------------------------------------------
# JSONL round trips
# ---------------------------------------------------------------------------

def test_jsonl_roundtrip(tmp_path):
    records, _ = build_forward_dataset(5, master_seed=3)
    path = tmp_path / "rt.jsonl"
    write_jsonl(records, path)
    loaded = read_jsonl(path)
    assert [r.to_json_dict() for r in loaded] == [r.to_json_dict() for r in records]


def test_jsonl_missing_fields_take_defaults(tmp_path):
    path = tmp_path / "ids.jsonl"
    path.write_text('{"id": "a"}\n{"id": "b", "neighbor_id": "a"}\n')
    first, second = read_jsonl(path)
    assert first.to_json_dict() == {
        "id": "a", "source": "", "classes": [], "scores": {}, "caption_base": "",
        "caption_rephrased": None, "config_digest": "", "values": None}
    assert second == DatasetRecord(id="b")
    assert first.classes is not second.classes and first.scores is not second.scores


def test_jsonl_empty(tmp_path):
    path = tmp_path / "empty.jsonl"
    assert write_jsonl([], path) == 0
    assert path.read_bytes() == b""
    assert read_jsonl(path) == []


def test_jsonl_truncated_final_line(tmp_path):
    path = tmp_path / "trunc.jsonl"
    good = json.dumps(DatasetRecord(id="a", source="s", classes=[], scores={},
                                    caption_base="x.").to_json_dict())
    path.write_text(good + "\n" + good[: len(good) // 2])
    with pytest.raises(ParseError, match="line 2") as err:
        read_jsonl(path)
    assert err.value.line == 2


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_jsonl_non_finite_token_rejected(tmp_path, token):
    path = tmp_path / "nan.jsonl"
    path.write_text('{"id": "a", "caption_base": "x."}\n'
                    f'{{"id": "b", "caption_base": "x.", "values": [0.5, {token}]}}\n')
    with pytest.raises(ParseError, match="line 2") as err:
        read_jsonl(path)
    assert err.value.line == 2


def test_write_jsonl_failure_leaves_no_file(tmp_path):
    rows = [{"id": "a"}, {"id": "b", "mse": float("nan")}]
    path = tmp_path / "new.jsonl"
    with pytest.raises(ValueError):
        write_jsonl(rows, path)
    assert list(tmp_path.iterdir()) == []


def test_write_jsonl_failure_keeps_earlier_file(tmp_path):
    path = tmp_path / "old.jsonl"
    write_jsonl([{"id": "kept"}], path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        write_jsonl([{"id": "a"}, {"id": "b", "mse": float("nan")}], path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_jsonl_infinite_scores_serialized_as_null(tmp_path):
    record = DatasetRecord(id="a", source="synth", classes=["Constant"],
                           scores={"periodicity_gap": float("inf"), "trend": 0.0},
                           caption_base="The signal stays almost constant.")
    path = tmp_path / "inf.jsonl"
    write_jsonl([record], path)
    data = json.loads(path.read_text())
    assert data["scores"]["periodicity_gap"] is None
    assert data["scores"]["trend"] == 0.0


def test_each_annotated_record_is_normalised_once(tmp_path, monkeypatch):
    # annotate normalises each chunk's block in one call and scores that block;
    # each record keeps its row.  A plain forward chunk is normalised by one
    # call on its block, and not at all when its records keep no values.
    calls, outputs = [], []
    for module in (taco.annotator, taco.pipeline):
        def counted(s, original=module.minmax_normalize, name=module.__name__):
            calls.append((name, np.shape(s)))
            outputs.append(original(s))
            return outputs[-1]
        monkeypatch.setattr(module, "minmax_normalize", counted)
    path = tmp_path / "x.csv"
    write_csv(path, {"a": list(np.sin(np.arange(900.0) / 7.0))})
    records, _ = build_dataset(IngestSpec(inputs=(path,), window_len=300, target_len=512))
    assert calls == [("taco.annotator", (3, 512))]
    assert [record.values for record in records] == outputs[0].tolist()
    calls.clear()
    outputs.clear()
    records, _ = build_forward_dataset(4, master_seed=7, annotate_also=True, length=256)
    assert calls == [("taco.annotator", (4, 256))]
    assert [record.values for record in records] == outputs[0].tolist()
    calls.clear()
    outputs.clear()
    records, _ = build_forward_dataset(4, master_seed=7, length=256)
    assert calls == [("taco.pipeline", (4, 256))]
    assert [record.values for record in records] == outputs[0].tolist()
    calls.clear()
    records, _ = build_forward_dataset(4, master_seed=7, length=256, include_values=False)
    assert calls == []
    assert all(record.values is None for record in records)


def _sigint_dispositions(chunk):
    return [signal.getsignal(signal.SIGINT) for _ in chunk]


def _stop_dispositions(chunk):
    return [(signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP))
            for _ in chunk]


def _absolutes(chunk):
    return [abs(item) for item in chunk]


def test_pool_workers_ignore_ctrl_c():
    # a terminal sends Ctrl-C to idle pool workers too; only the parent acts on it
    dispositions = _ordered(_sigint_dispositions, range(3 * CHUNK_TASKS), jobs=2)
    assert set(dispositions) == {signal.SIG_IGN}


def _parents_stop_handler(signum, frame):
    raise AssertionError("a pool worker ran its parent's stop handler")


@pytest.mark.parametrize("inherited, expected", [
    (_parents_stop_handler, signal.SIG_DFL),
    (signal.SIG_IGN, signal.SIG_IGN),
], ids=["handler", "ignored"])
def test_pool_workers_drop_the_parents_stop_handlers(inherited, expected):
    # the CLI's SIGTERM and SIGHUP handler is inherited by a forked worker;
    # a worker takes the default action instead, so a signal to the process
    # group ends it without a traceback.  A signal the parent ignores, as
    # nohup ignores SIGHUP, stays ignored.
    saved = {signum: signal.signal(signum, inherited)
             for signum in (signal.SIGTERM, signal.SIGHUP)}
    try:
        dispositions = set(_ordered(_stop_dispositions, range(3 * CHUNK_TASKS), jobs=2))
    finally:
        for signum, old in saved.items():
            signal.signal(signum, old)
    assert dispositions == {(expected, expected)}


#: The CPU sets this process passed to ``os.sched_setaffinity``, in order.
_AFFINITY_CALLS = []
_SET_AFFINITY = getattr(os, "sched_setaffinity", None)


def _recording_set_affinity(pid, cpus):
    _AFFINITY_CALLS.append(frozenset(cpus))
    _SET_AFFINITY(pid, cpus)


def _placements(chunk):
    """``(pid, allowed CPUs, CPU sets it was given)`` of this worker, per item."""
    time.sleep(0.02)  # so the other worker takes the next chunk
    return [(os.getpid(), frozenset(os.sched_getaffinity(0)), tuple(_AFFINITY_CALLS))
            for _ in chunk]


@pytest.mark.skipif(not sys.platform.startswith("linux")
                    or len(os.sched_getaffinity(0)) < 2, reason="needs Linux and 2 CPUs")
def test_pool_workers_start_on_distinct_cpus_and_keep_the_full_mask(monkeypatch):
    # left to the kernel, both workers of a 2-worker pool often ran on one
    # CPU; each is moved to its own CPU of the allowed set, then gets the
    # whole set back.  Where it runs next is the kernel's choice, which moves
    # a worker off a CPU that another process keeps busy, so the test checks
    # the moves rather than the CPU a chunk runs on.
    monkeypatch.setattr(os, "sched_setaffinity", _recording_set_affinity)
    mask = frozenset(os.sched_getaffinity(0))
    reports = set(_ordered(_placements, range(3 * CHUNK_TASKS), jobs=2))
    assert {allowed for _, allowed, _ in reports} == {mask}
    moves = {pid: calls for pid, _, calls in reports}
    assert len(moves) == 2
    assert all(len(calls) == 2 and len(calls[0]) == 1 and calls[0] < mask and calls[1] == mask
               for calls in moves.values()), moves
    assert len({calls[0] for calls in moves.values()}) == 2, moves


def test_pool_forks_where_the_platform_can(monkeypatch):
    # Python 3.14 makes forkserver the default start method, and --jobs 2
    # ran slower than --jobs 1 under it
    contexts = []

    class Recording(ThreadPoolExecutor):
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            contexts.append(mp_context)
            super().__init__(max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recording)
    assert list(_ordered(_absolutes, range(-20, 0), jobs=2)) == list(range(20, 0, -1))
    if "fork" in multiprocessing.get_all_start_methods():
        assert [context.get_start_method() for context in contexts] == ["fork"]
    else:
        assert contexts == [None]


@pytest.mark.parametrize("method", multiprocessing.get_all_start_methods())
def test_pooled_dataset_bytes_match_under_every_start_method(method, tmp_path, monkeypatch):
    # whichever start method the pool gets (Python 3.14 changes the default),
    # --jobs 2 writes the bytes --jobs 1 writes, records and skip sidecar alike
    contexts = []

    class Started(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, mp_context=None, initializer=None, initargs=()):
            contexts.append(multiprocessing.get_context(method))
            super().__init__(max_workers, contexts[-1], initializer, initargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Started)
    t = np.arange(1100.0)
    b = np.cos(t / 17.0) + t / 900.0
    b[500] = np.inf  # skips the windows that hold row 500
    path = tmp_path / "x.csv"
    write_csv(path, {"a": list(np.sin(t / 23.0)), "b": list(b)})
    outputs = []
    for jobs in ("1", "2"):  # 2 columns of 33 windows: 9 chunks
        out = tmp_path / f"jobs{jobs}.jsonl"
        assert main(["dataset", "--input", str(path), "--window", "64", "--stride", "32",
                     "--target-len", "128", "--jobs", jobs, "--out", str(out)]) == 0
        outputs.append([out.read_bytes(), (tmp_path / f"{out.name}.skipped.jsonl").read_bytes()])
    assert [context.get_start_method() for context in contexts] == [method]
    assert outputs[0] == outputs[1]
    assert outputs[0][1].count(b"\n") == 2


def test_in_order_yields_in_item_order_at_most_ahead():
    pulled = []

    def items():
        for i in range(20):
            pulled.append(i)
            yield i

    def slow_square(i):
        time.sleep(0.01 * (2 - i % 3))  # later items often finish first
        return i * i

    got = []
    for value in in_order(ThreadPoolExecutor(3), slow_square, items(), 4):
        assert len(pulled) - len(got) <= 4
        got.append(value)
    assert got == [i * i for i in range(20)]
    assert taco.pipeline.in_order is in_order  # the --jobs pool's loop, still importable


def test_in_order_shuts_its_pool_down_when_fn_raises():
    def fail_at_three(i):
        if i == 3:
            raise ValueError(i)
        return i

    pool = ThreadPoolExecutor(2)
    results = in_order(pool, fail_at_three, range(10), 4)
    assert next(results) == 0
    with pytest.raises(ValueError):
        list(results)
    with pytest.raises(RuntimeError, match="after shutdown"):
        pool.submit(int)
