"""CLI surface: subcommands, exit codes, determinism."""

import argparse
import concurrent.futures
import contextlib
import csv
import gc
import json
import math
import os
import signal
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest

import taco.captioner
import taco.cli
import taco.records
from taco.annotator import TimeSeriesClass, default_config
from taco.captioner import NO_SALIENT_CAPTION, classes_from_caption
from taco.cli import (
    EXIT_DATA,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_SERVICE,
    EXIT_USAGE,
    _rephrased,
    main,
)
from taco.evalkit import QUERY_BLOCK
from taco.records import read_jsonl, write_jsonl

from conftest import MockLLMHandler


@pytest.fixture()
def ramp_csv(tmp_path):
    path = tmp_path / "ramp.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["v"])
        for x in np.linspace(0.0, 1.0, 600):
            writer.writerow([x])
    return str(path)


def test_annotate_happy_path(ramp_csv, tmp_path):
    out = tmp_path / "ann.jsonl"
    code = main(["annotate", "--input", ramp_csv, "--out", str(out)])
    assert code == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(rows) == 2
    assert "Rising" in rows[0]["classes"]
    assert rows[0]["params_digest"]


def test_unknown_flag_exits_one(capsys):
    assert main(["annotate", "--frobnicate"]) == EXIT_USAGE
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_exits_one():
    assert main(["transmogrify"]) == EXIT_USAGE


def test_no_subcommand_prints_help(capsys):
    assert main([]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert "annotate" in err and "eval" in err


def test_missing_input_file_exits_two():
    assert main(["annotate", "--input", "/nonexistent.csv"]) == EXIT_DATA


def test_caption_from_classes(capsys, tmp_path):
    code = main(["caption", "--classes", "Rising,Smooth"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == "The signal has a rising trend. The signal has a smooth shape.\n"
    path = tmp_path / "cap.txt"
    assert main(["caption", "--classes", "Rising,Smooth", "--out", str(path)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert path.read_text() == out


def test_main_runs_off_the_main_thread(tmp_path):
    # only the main thread may install signal handlers; main called from
    # another thread runs without its SIGTERM and SIGHUP handler
    path = tmp_path / "cap.txt"
    codes = []
    worker = threading.Thread(target=lambda: codes.append(
        main(["caption", "--classes", "Rising", "--out", str(path)])))
    worker.start()
    worker.join(timeout=60)
    assert codes == [EXIT_OK]
    assert path.read_text() == "The signal has a rising trend.\n"


def test_caption_unknown_class_exits_two():
    assert main(["caption", "--classes", "Wobbly"]) == EXIT_DATA


def test_caption_needs_exactly_one_source():
    assert main(["caption"]) == EXIT_USAGE


@pytest.mark.parametrize("argv", [
    ["--classes", "Rising", "--input", ""],
    ["--classes", "", "--input", "a.jsonl"],
], ids=["empty-input", "empty-classes"])
def test_caption_counts_an_empty_source_as_given(argv):
    # a flag is given when it is on the command line, whatever its value
    assert main(["caption", *argv]) == EXIT_USAGE


@pytest.mark.parametrize("classes", ["", ","])
def test_caption_with_no_class_names_gives_the_no_salient_caption(classes, capsys):
    assert main(["caption", "--classes", classes]) == EXIT_OK
    assert capsys.readouterr().out == NO_SALIENT_CAPTION + "\n"


def test_caption_rephrase_unreachable_exits_three(monkeypatch):
    monkeypatch.delenv("TACO_LLM_ENDPOINT", raising=False)
    code = main(["caption", "--classes", "Rising", "--rephrase",
                 "--endpoint", "http://127.0.0.1:9/x"])
    assert code == EXIT_SERVICE


def _rephrase_argv(command, ramp_csv, tmp_path):
    """``dataset`` or ``caption --input`` with ``--rephrase``; two captions each."""
    if command == "dataset":
        return ["dataset", "--input", ramp_csv, "--rephrase"]
    path = tmp_path / "ann.jsonl"
    write_jsonl([{"id": "a", "classes": ["Rising"]}, {"id": "b", "classes": []}], path)
    return ["caption", "--input", str(path), "--rephrase"]


def test_dataset_rephrase_fills_records(ramp_csv, mock_endpoint, tmp_path, capsys):
    _, url = mock_endpoint
    out = tmp_path / "d.jsonl"
    argv = _rephrase_argv("dataset", ramp_csv, tmp_path) + ["--endpoint", url]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    records = read_jsonl(out)
    assert [r.caption_rephrased for r in records] == [MockLLMHandler.fixed_reply] * 2
    assert records[0].caption() == records[0].caption_rephrased
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["dataset", "caption"])
def test_rephrase_unreachable_endpoint_writes_null(command, ramp_csv, tmp_path, capsys,
                                                   monkeypatch):
    monkeypatch.setattr(taco.captioner, "REPHRASE_TIMEOUT_S", 2.0)
    out = tmp_path / "out.jsonl"
    argv = _rephrase_argv(command, ramp_csv, tmp_path) + ["--endpoint", "http://127.0.0.1:9/x"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    records = read_jsonl(out)
    assert [r.caption_rephrased for r in records] == [None, None]
    assert records[0].caption() == records[0].caption_base
    assert capsys.readouterr().err == (
        "rephrase failed for 2 of 2 captions; caption_rephrased is null for them\n")


def test_caption_rephrase_deeply_nested_reply_exits_three(mock_endpoint, capsys):
    server, url = mock_endpoint
    server.mode = "deep"
    assert main(["caption", "--classes", "Rising", "--rephrase",
                 "--endpoint", url]) == EXIT_SERVICE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["dataset", "caption"])
def test_rephrase_deeply_nested_reply_writes_null(command, ramp_csv, mock_endpoint,
                                                  tmp_path, capsys):
    server, url = mock_endpoint
    server.mode = "deep"
    out = tmp_path / "out.jsonl"
    argv = _rephrase_argv(command, ramp_csv, tmp_path) + ["--endpoint", url]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert [r.caption_rephrased for r in read_jsonl(out)] == [None, None]
    assert capsys.readouterr().err == (
        "rephrase failed for 2 of 2 captions; caption_rephrased is null for them\n")


@pytest.mark.parametrize("command", ["dataset", "caption"])
def test_rephrase_without_endpoint_warns_once(command, ramp_csv, tmp_path, capsys,
                                              monkeypatch):
    monkeypatch.delenv("TACO_LLM_ENDPOINT", raising=False)
    calls = []
    monkeypatch.setattr(taco.cli, "rephrase", lambda *args: calls.append(args))
    out = tmp_path / "out.jsonl"
    assert main(_rephrase_argv(command, ramp_csv, tmp_path) + ["--out", str(out)]) == EXIT_OK
    assert [r.caption_rephrased for r in read_jsonl(out)] == [None, None]
    assert calls == []
    assert capsys.readouterr().err == (
        "--rephrase requested but no rephrase endpoint configured "
        "(TACO_LLM_ENDPOINT unset); emitting base captions only\n")


def test_caption_rephrase_runs_on_one_pool_in_row_order(mock_endpoint, tmp_path, capsys,
                                                        monkeypatch):
    # replies take 0, 20 or 40 ms, so they arrive out of order; each still
    # lands on its own row, and a failed call leaves only its own slot null
    server, url = mock_endpoint
    server.mode = "tag"
    server.failing = {NO_SALIENT_CAPTION}
    pools = []

    class CountedPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountedPool)
    names = [member.value for member in TimeSeriesClass]
    path = tmp_path / "ann.jsonl"
    write_jsonl([{"id": f"r{i}", "classes": names[i % 7:i % 7 + i % 3]} for i in range(40)],
                path)
    out = tmp_path / "cap.jsonl"
    assert main(["caption", "--input", str(path), "--rephrase", "--jobs", "2",
                 "--endpoint", url, "--out", str(out)]) == EXIT_OK
    rows = [json.loads(line) for line in out.read_text().splitlines()]
    assert [row["id"] for row in rows] == [f"r{i}" for i in range(40)]
    failed = sum(row["caption_base"] == NO_SALIENT_CAPTION for row in rows)
    assert failed == 14
    for row in rows:
        assert row["caption_rephrased"] == (None if row["caption_base"] == NO_SALIENT_CAPTION
                                            else "rephrased::" + row["caption_base"])
    assert capsys.readouterr().err == (
        f"rephrase failed for {failed} of 40 captions; caption_rephrased is null for them\n")
    assert len(pools) == 1
    assert server.peak == 2  # calls overlap, but never more than --jobs


def test_closing_rephrase_stream_stops_its_threads(monkeypatch):
    # a closed stdout closes the stream mid-run: calls not yet started are
    # cancelled, and the pool's threads are gone once close() returns
    calls = []

    def rephrase(text, endpoint, model):
        calls.append(text)
        time.sleep(0.01)
        return "rephrased::" + text

    monkeypatch.setattr(taco.cli, "rephrase", rephrase)
    before = threading.active_count()
    args = argparse.Namespace(endpoint="http://127.0.0.1:9/x", model=None)
    stream = _rephrased(range(40), str, args, 2)
    assert next(stream) == (0, "rephrased::0")
    stream.close()
    assert threading.active_count() == before
    assert len(calls) <= 4 * 2  # at most four times --jobs queued ahead


def test_dataset_rephrase_pool_and_threads_match_one_process(mock_endpoint, tmp_path):
    # 12 windows, more than one chunk, so --jobs 2 starts the process pool;
    # window b#3 is skipped
    server, url = mock_endpoint
    server.mode = "tag"
    csv_path = _sine_csv(tmp_path / "sines.csv", 6, bad_rows=[1000])
    runs = [subprocess.run([sys.executable, "-m", "taco.cli", "dataset", "--input", csv_path,
                            "--rephrase", "--endpoint", url, "--jobs", jobs],
                           capture_output=True, env=_taco_env(), timeout=120)
            for jobs in ("1", "2")]
    assert [(run.returncode, run.stdout, run.stderr) for run in runs] == (
        [(runs[0].returncode, runs[0].stdout, runs[0].stderr)] * 2)
    assert runs[0].returncode == EXIT_OK
    records = [json.loads(line) for line in runs[0].stdout.splitlines()]
    assert len(records) == 11
    for record in records:
        assert record["caption_rephrased"] == "rephrased::" + record["caption_base"]
    assert runs[0].stderr.decode().startswith("skipped sines.csv#b#3: ")


def test_caption_batch_from_annotations(tmp_path, capsys):
    rows = [{"id": "a", "classes": ["Rising", "Smooth"]},
            {"id": "b", "classes": []}]
    path = tmp_path / "ann.jsonl"
    write_jsonl(rows, path)
    assert main(["caption", "--input", str(path)]) == EXIT_OK
    lines = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
    assert lines[0]["caption_base"].startswith("The signal has a rising trend.")
    assert lines[1]["caption_base"] == "The signal has no salient characteristics."


@pytest.mark.parametrize("extra", [[], ["--annotate-also"]], ids=["plain", "annotate-also"])
def test_caption_input_reads_synth_output(extra, tmp_path, capsys):
    synth = tmp_path / "synth.jsonl"
    assert main(["synth", "--count", "12", "--seed", "3", "--length", "256",
                 "--no-values", "--out", str(synth)] + extra) == EXIT_OK
    assert main(["caption", "--input", str(synth)]) == EXIT_OK
    rows = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    records = read_jsonl(synth)
    class_values = {member.value for member in TimeSeriesClass}
    assert any(set(r.classes) - class_values for r in records)  # forward-only names
    assert [row["id"] for row in rows] == [r.id for r in records]
    for row, record in zip(rows, records):
        assert {c.value for c in classes_from_caption(row["caption_base"])} == (
            set(record.classes) & class_values)


def test_caption_input_unknown_class_exits_two(tmp_path, capsys):
    path = tmp_path / "ann.jsonl"
    write_jsonl([{"id": "a", "classes": ["Sigmoid", "Wobbly"]}], path)
    assert main(["caption", "--input", str(path)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: unknown time-series class: 'Wobbly'\n"


def test_synth_seed_determinism(tmp_path):
    out1 = tmp_path / "s1.jsonl"
    out2 = tmp_path / "s2.jsonl"
    for out in (out1, out2):
        code = main(["synth", "--count", "20", "--seed", "99", "--out", str(out)])
        assert code == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()


def test_synth_shape_constraint(tmp_path):
    out = tmp_path / "s.jsonl"
    assert main(["synth", "--count", "5", "--seed", "1", "--shapes", "Gaussian",
                 "--out", str(out)]) == EXIT_OK
    for record in read_jsonl(out):
        assert record.classes[0] == "Gaussian"


@pytest.mark.parametrize("shapes", ["", ","])
def test_synth_empty_shapes_exits_two(tmp_path, capsys, shapes):
    # an empty --shapes names no shape; it is refused, not taken as no filter
    out = tmp_path / "s.jsonl"
    assert main(["synth", "--count", "2", "--seed", "1", "--shapes", shapes,
                 "--out", str(out)]) == EXIT_DATA
    assert capsys.readouterr().err == "error: constraint set must not be empty\n"
    assert not out.exists()


def test_synth_no_values(tmp_path):
    out = tmp_path / "s.jsonl"
    assert main(["synth", "--count", "2", "--seed", "1", "--no-values",
                 "--out", str(out)]) == EXIT_OK
    assert all(r.values is None for r in read_jsonl(out))


def _sine_csv(path, windows: int, bad_rows=()):
    """A two-column CSV of ``windows`` 300-sample windows per column; column
    ``b``'s data rows in ``bad_rows`` hold ``inf``, which skips their window."""
    t = np.arange(300 * windows)
    b = np.cos(t / 17.0) + t / 900.0
    b[list(bad_rows)] = np.inf
    path.write_text("a,b\n" + "".join(f"{x!r},{y!r}\n" for x, y in
                                      zip(np.sin(t / 23.0).tolist(), b.tolist())))
    return str(path)


def test_dataset_jobs_determinism(tmp_path, capsys):
    # 20 windows, more than one chunk of pool tasks; window b#3 is skipped
    csv_path = _sine_csv(tmp_path / "sines.csv", 10, bad_rows=[1000])
    outputs = {}
    for jobs in ("1", "2", "3"):
        run = tmp_path / f"jobs{jobs}"
        run.mkdir()
        out = run / "d.jsonl"
        assert main(["dataset", "--input", csv_path, "--jobs", jobs,
                     "--out", str(out)]) == EXIT_OK
        assert main(["dataset", "--input", csv_path, "--jobs", jobs, "--no-values",
                     "--out", str(run / "nv.jsonl")]) == EXIT_OK
        capsys.readouterr()
        assert main(["dataset", "--input", csv_path, "--jobs", jobs]) == EXIT_OK
        stdout = capsys.readouterr()
        assert stdout.out.encode("utf-8") == out.read_bytes()
        outputs[jobs] = [(run / name).read_bytes() for name in
                         ("d.jsonl", "d.jsonl.skipped.jsonl", "nv.jsonl")] + [stdout.err]
    assert outputs["1"] == outputs["2"] == outputs["3"]
    assert len(outputs["1"][0].splitlines()) == 19
    assert b"sines.csv#b#3" in outputs["1"][1]
    # annotate rows are the --no-values records, projected
    assert main(["annotate", "--input", csv_path, "--out", str(tmp_path / "a.jsonl")]) == EXIT_OK
    rows = [json.loads(line) for line in outputs["1"][2].splitlines()]
    assert [json.loads(line) for line in (tmp_path / "a.jsonl").read_text().splitlines()] == [
        {"id": r["id"], "source": r["source"], "classes": r["classes"],
         "scores": r["scores"], "params_digest": r["config_digest"]} for r in rows]


def test_dataset_skip_log(tmp_path):
    path = tmp_path / "bad.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["v"])
        for i in range(300):
            writer.writerow(["inf" if i == 10 else str(i)])
    out = tmp_path / "d.jsonl"
    skip_log = tmp_path / "skips.jsonl"
    code = main(["dataset", "--input", str(path), "--out", str(out),
                 "--skip-log", str(skip_log)])
    assert code == EXIT_OK
    assert out.read_bytes() == b""
    skips = [json.loads(l) for l in skip_log.read_text().splitlines()]
    assert len(skips) == 1 and "InvalidSignal" in skips[0]["reason"]


@pytest.mark.parametrize("target_len", [[], ["--target-len", "300"]],
                         ids=["resampled", "kept-length"])
def test_dataset_window_past_float_range_names_it(target_len, tmp_path, capsys):
    # every sample is finite, but max - min overflows float64
    path = tmp_path / "huge.csv"
    path.write_text("v\n" + "".join(f"{x!r}\n" for x in [1e308, -1e308] * 150))
    out = tmp_path / "d.jsonl"
    assert main(["dataset", "--input", str(path), "--window", "300", *target_len,
                 "--out", str(out)]) == EXIT_OK
    assert out.read_bytes() == b""
    assert [json.loads(line)["reason"] for line in
            out.with_name("d.jsonl.skipped.jsonl").read_text().splitlines()] == [
        "InvalidSignal: signal range [-1e+308, 1e+308] overflows float64"]
    assert capsys.readouterr().err == f"1 window(s) skipped, reasons in {out}.skipped.jsonl\n"


def test_dataset_unwritable_skip_log_leaves_no_out_file(csv_with_bad_window, tmp_path,
                                                         capsys):
    out = tmp_path / "d.jsonl"
    skip_log = tmp_path / "missing" / "skips.jsonl"
    assert main(["dataset", "--input", csv_with_bad_window, "--out", str(out),
                 "--skip-log", str(skip_log)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(skip_log) in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mixed.csv"]


def test_dataset_clean_rerun_empties_sidecar(csv_with_bad_window, tmp_path, capsys):
    out = tmp_path / "d.jsonl"
    sidecar = tmp_path / "d.jsonl.skipped.jsonl"
    assert main(["dataset", "--input", csv_with_bad_window, "--no-values",
                 "--out", str(out)]) == EXIT_OK
    assert len(sidecar.read_text().splitlines()) == 1
    clean = tmp_path / "clean.csv"
    clean.write_text("v\n" + "".join(f"{i}\n" for i in range(900)))
    assert main(["dataset", "--input", str(clean), "--no-values",
                 "--out", str(out)]) == EXIT_OK
    assert len(out.read_text().splitlines()) == 3
    assert sidecar.read_bytes() == b""
    assert capsys.readouterr().err.count("\n") == 1  # the first run's skip count only


def test_dataset_stdout_with_skip_log(csv_with_bad_window, tmp_path, capsys):
    skip_log = tmp_path / "skips.jsonl"
    assert main(["dataset", "--input", csv_with_bad_window, "--no-values",
                 "--skip-log", str(skip_log)]) == EXIT_OK
    captured = capsys.readouterr()
    assert [json.loads(line)["id"] for line in captured.out.splitlines()] == [
        "mixed.csv#v#0", "mixed.csv#v#2"]
    assert captured.err == f"1 window(s) skipped, reasons in {skip_log}\n"
    assert [json.loads(line)["source"] for line in skip_log.read_text().splitlines()] == [
        "mixed.csv#v#1"]


@pytest.mark.parametrize("link", [False, True], ids=["same-path", "symlink"])
def test_dataset_skip_log_naming_out_is_usage_error(link, csv_with_bad_window, tmp_path,
                                                    capsys):
    out = tmp_path / "same.jsonl"
    out.write_text("earlier\n")
    skip_log = out
    if link:
        skip_log = tmp_path / "link.jsonl"
        skip_log.symlink_to(out)
    assert main(["dataset", "--input", csv_with_bad_window, "--out", str(out),
                 "--skip-log", str(skip_log)]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: --skip-log must not name the --out file\n"
    assert out.read_text() == "earlier\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        {"mixed.csv", "same.jsonl", skip_log.name})


def test_nearnbr_subcommand(tmp_path):
    train = tmp_path / "train.jsonl"
    write_jsonl([{"id": f"t{i}", "caption_base": f"cap {i}",
                  "values": [float(i)] * 16} for i in range(4)], train)
    queries = tmp_path / "q.jsonl"
    write_jsonl([{"id": "q0", "caption_base": "", "values": [2.1] * 16}], queries)
    out = tmp_path / "pred.jsonl"
    code = main(["nearnbr", "--index", str(train), "--queries", str(queries),
                 "--out", str(out)])
    assert code == EXIT_OK
    row = json.loads(out.read_text())
    assert row["neighbor_id"] == "t2" and row["caption_base"] == "cap 2"


def test_nearnbr_predictions_feed_eval(tmp_path, capsys):
    # baseline predictions must evaluate directly against the query captions
    train = tmp_path / "train.jsonl"
    write_jsonl([{"id": f"t{i}", "caption_base": f"signal level {i} observed",
                  "values": [float(i)] * 16} for i in range(4)], train)
    queries = tmp_path / "q.jsonl"
    write_jsonl([{"id": "q0", "caption_base": "signal level 2 observed",
                  "values": [2.0] * 16}], queries)
    pred = tmp_path / "pred.jsonl"
    assert main(["nearnbr", "--index", str(train), "--queries", str(queries),
                 "--out", str(pred)]) == EXIT_OK
    assert main(["eval", "--candidates", str(pred),
                 "--references", str(queries)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["bleu_3"] == 1.0 and report["rouge_l"] == 1.0


def test_eval_subcommand_and_alignment_error(tmp_path, capsys):
    c = tmp_path / "c.jsonl"
    r = tmp_path / "r.jsonl"
    write_jsonl([{"id": "a", "caption_base": "the signal rises"}], c)
    write_jsonl([{"id": "a", "caption_base": "the signal rises"}], r)
    assert main(["eval", "--candidates", str(c), "--references", str(r)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["bleu_3"] == 1.0 and report["rouge_l"] == 1.0

    write_jsonl([{"id": "mismatched-id", "caption_base": "x"}], r)
    assert main(["eval", "--candidates", str(c), "--references", str(r)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert "mismatched-id" in err


def test_eval_report_to_file(tmp_path):
    c = tmp_path / "c.jsonl"
    write_jsonl([{"id": "a", "caption_base": "x y z"}], c)
    out = tmp_path / "report.json"
    assert main(["eval", "--candidates", str(c), "--references", str(c),
                 "--out", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["sample_count"] == 1


@pytest.mark.parametrize("command, field", [
    ("eval", "id"), ("eval", "caption_base"), ("caption", "id"),
], ids=["id", "caption_base", "caption-id"])
def test_eval_refuses_a_float_string_field(command, field, tmp_path, capsys):
    # eval and caption --input decode no float's value, yet a float where a
    # string belongs still fails the field's check, with the message it always had
    cands, refs = tmp_path / "c.jsonl", tmp_path / "r.jsonl"
    row = {"id": "a", "caption_base": "x y z", "classes": ["Rising"], "values": [0.25, 1e300]}
    write_jsonl([row], cands)
    write_jsonl([row | {field: 1.5}], refs)
    argv = {"eval": ["eval", "--candidates", str(cands), "--references", str(refs)],
            "caption": ["caption", "--input", str(refs)]}[command]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"error: {refs}: {field!r} must be a string at line 1\n"


@pytest.mark.parametrize("command", ["synth", "eval", "caption"])
def test_output_error_names_given_path(command, tmp_path, capsys):
    captions = tmp_path / "c.jsonl"
    write_jsonl([{"id": "a", "caption_base": "x y z"}], captions)
    args = {"synth": ["synth", "--count", "2", "--length", "64"],
            "eval": ["eval", "--candidates", str(captions), "--references", str(captions)],
            "caption": ["caption", "--classes", "Rising"]}
    out = tmp_path / "missing" / "out.jsonl"
    assert main(args[command] + ["--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert str(out) in err and ".tmp" not in err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("argv, message", [
    (["dataset", "--jobs", "0"], "--jobs: must be at least 1, got 0"),
    (["dataset", "--jobs", "-3"], "--jobs: must be at least 1, got -3"),
    (["caption", "--classes", "Rising", "--jobs", "0"], "--jobs: must be at least 1"),
    (["caption", "--classes", "Rising", "--jobs", "-3"], "--jobs: must be at least 1"),
    (["synth", "--count", "2", "--seed", "-1"], "--seed: must be at least 0, got -1"),
    (["synth", "--count", "2", "--length", "8", "--annotate-also"],
     "--annotate-also needs --length of at least 16, got 8"),
    (["synth", "--count", "0"], "--count: must be at least 1, got 0"),
    (["synth", "--count", "2", "--length", "1"], "--length: must be at least 2, got 1"),
    (["dataset", "--window", "8"], "--window: must be at least 16, got 8"),
    (["annotate", "--window", "8"], "--window: must be at least 16, got 8"),
    (["dataset", "--stride", "0"], "--stride: must be at least 1, got 0"),
    (["annotate", "--stride", "-2"], "--stride: must be at least 1, got -2"),
    (["dataset", "--target-len", "10"], "--target-len: must be at least 16, got 10"),
    (["annotate", "--target-len", "10"], "--target-len: must be at least 16, got 10"),
    (["dataset", "--target-len", "200"], "--target-len 200 must be at least --window 300"),
    (["annotate", "--window", "64", "--target-len", "32"],
     "--target-len 32 must be at least --window 64"),
], ids=["dataset-jobs-0", "dataset-jobs-negative", "caption-jobs-0",
        "caption-jobs-negative", "synth-seed-negative", "synth-annotate-short-length",
        "synth-count-0", "synth-length-1", "dataset-window-short", "annotate-window-short",
        "dataset-stride-0", "annotate-stride-negative", "dataset-target-len-short",
        "annotate-target-len-short", "dataset-target-len-below-window",
        "annotate-target-len-below-window"])
def test_out_of_range_flags_exit_one(argv, message, ramp_csv, tmp_path, capsys):
    if argv[0] in ("dataset", "annotate"):
        argv = argv + ["--input", ramp_csv]
    out = tmp_path / "out.jsonl"
    assert main(argv + ["--out", str(out)]) == EXIT_USAGE
    err = capsys.readouterr().err
    last = err.splitlines()[-1]
    assert last.startswith("error: ") and message in last
    assert "Traceback" not in err
    assert not out.exists()


def test_synth_short_length_without_annotation_accepted(tmp_path):
    out = tmp_path / "s.jsonl"
    assert main(["synth", "--count", "2", "--length", "8", "--out", str(out)]) == EXIT_OK
    assert [len(r.values) for r in read_jsonl(out)] == [8, 8]


def _index_with_null(tmp_path):
    rows = [{"id": f"t{i}", "caption_base": f"cap {i}", "values": [float(i)] * 16}
            for i in range(3)]
    rows[1]["values"][5] = None
    write_jsonl(rows, tmp_path / "train.jsonl")
    write_jsonl([{"id": "q0", "caption_base": "", "values": [1.0] * 16}],
                tmp_path / "q.jsonl")
    return ["nearnbr", "--index", str(tmp_path / "train.jsonl"),
            "--queries", str(tmp_path / "q.jsonl")]


def _nearnbr_with(side, bad):
    def build(tmp_path):
        rows = {name: [{"id": f"{name}{i}", "caption_base": f"cap {i}",
                        "values": [float(i)] * 16} for i in range(3)]
                for name in ("index", "query")}
        rows[side][1]["values"][5] = bad
        for name, body in rows.items():  # json.dumps writes a NaN token for nan
            (tmp_path / f"{name}.jsonl").write_text(
                "".join(json.dumps(row) + "\n" for row in body))
        return ["nearnbr", "--index", str(tmp_path / "index.jsonl"),
                "--queries", str(tmp_path / "query.jsonl")]
    return build


def _nearnbr_overflow(tmp_path):
    write_jsonl([{"id": "t0", "caption_base": "cap", "values": [1e200] * 16}],
                tmp_path / "index.jsonl")
    write_jsonl([{"id": "q0", "caption_base": "", "values": [-1e200] * 16}],
                tmp_path / "query.jsonl")
    return ["nearnbr", "--index", str(tmp_path / "index.jsonl"),
            "--queries", str(tmp_path / "query.jsonl")]


def _dataset_with(flag, body):
    def build(tmp_path):
        path = tmp_path / "settings.json"
        path.write_text(body if isinstance(body, str) else json.dumps(body))
        csv_path = tmp_path / "ramp.csv"
        csv_path.write_text("v\n" + "\n".join(str(i) for i in range(300)) + "\n")
        return ["dataset", "--input", str(csv_path), flag, str(path)]
    return build


def _inputs_sharing_name(tmp_path):
    paths = [tmp_path / side / "x.csv" for side in ("a", "b")]
    for path in paths:
        path.parent.mkdir()
        path.write_text("v\n" + "\n".join(str(i) for i in range(300)) + "\n")
    return ["dataset", "--input", str(paths[0]), "--input", str(paths[1])]


def _jsonl_with(command, field, value):
    def build(tmp_path):
        path = tmp_path / "records.jsonl"
        row = {"id": "a", "classes": ["Rising"], "caption_base": "x y z"}
        write_jsonl([row, {**row, "id": "b", field: value}], path)
        if command == "caption":
            return ["caption", "--input", str(path)]
        return ["eval", "--candidates", str(path), "--references", str(path)]
    return build


def _eval_with_id(bad_id):
    """eval of candidates ``bad.jsonl`` whose id is ``bad_id`` against
    references whose id is ``str(bad_id)``, which a str() coercion would align."""
    def build(tmp_path):
        for name, rid in (("bad", bad_id), ("refs", str(bad_id))):
            write_jsonl([{"id": rid, "caption_base": "x y z"}], tmp_path / f"{name}.jsonl")
        return ["eval", "--candidates", str(tmp_path / "bad.jsonl"),
                "--references", str(tmp_path / "refs.jsonl")]
    return build


def _bad_record(**fields) -> bytes:
    """A record line that is well formed but for ``fields``.  Its ``values``
    comes last, as records are written, so a list there is read apart from
    the rest of the line."""
    row = {"id": "a", "caption_base": "x"} | fields
    row.setdefault("values", [0.5] * 16)
    return json.dumps(row).encode() + b"\n"


_DEEP = b"[" * 100000 + b"]" * 100000
_LONG_INT = b"1" * 5000  # past Python's int-digit limit, so int() raises ValueError


def _reading_bad(command, body: bytes):
    """``command`` reading a file ``bad.*`` that holds ``body``; its message
    must name that file."""
    def build(tmp_path):
        ramp = tmp_path / "ramp.csv"
        ramp.write_text("v\n" + "\n".join(str(i) for i in range(300)) + "\n")
        good = tmp_path / "good.jsonl"
        write_jsonl([{"id": "a", "caption_base": "x", "values": [0.5] * 16}], good)
        suffix = {"dataset": ".csv", "--params": ".json", "--config": ".json"}
        bad = tmp_path / f"bad{suffix.get(command, '.jsonl')}"
        bad.write_bytes(body)
        return {
            "dataset": ["dataset", "--input", str(bad)],
            "--params": ["dataset", "--input", str(ramp), "--params", str(bad)],
            "--config": ["dataset", "--input", str(ramp), "--config", str(bad)],
            "eval": ["eval", "--candidates", str(good), "--references", str(bad)],
            "nearnbr": ["nearnbr", "--index", str(bad), "--queries", str(good)],
            "nearnbr-queries": ["nearnbr", "--index", str(good), "--queries", str(bad)],
            "caption": ["caption", "--input", str(bad)],
        }[command]
    return build


def _rising_cutoff(cutoff):
    body = default_config().to_json_dict()
    body["Rising"]["cutoff"] = cutoff
    return body


#: A config text whose Rising cutoff decodes to infinity, which JSON cannot write.
_INFINITE_RISING = json.dumps(_rising_cutoff(math.inf)).replace("Infinity", "1e999")


#: A record line padded by NBSP, which ``str.strip()`` would take and JSON refuses.
_NBSP_PADDED = "\xa0".encode() + _bad_record()[:-1] + "\xa0\n".encode()

#: Each command reading each malformed input, and the test id of each.
_MALFORMED = [
    _dataset_with("--params", {"k_segments": "10"}),
    _dataset_with("--params", {"spike_sigma": None}),
    _dataset_with("--config", _rising_cutoff("abc")),
    _dataset_with("--config", _rising_cutoff(None)),
    _dataset_with("--params", {"spike_sigma": 10**400}),
    _dataset_with("--config", _rising_cutoff(10**400)),
    _dataset_with("--config", _rising_cutoff(True)),
    _dataset_with("--config", _rising_cutoff("0.9")),
    _dataset_with("--config", _rising_cutoff("1e-3 ")),
    _index_with_null,
    _nearnbr_with("index", "abc"),
    _nearnbr_with("index", "1e3"),
    _nearnbr_with("index", 10**400),
    _nearnbr_with("query", -10**400),
    _nearnbr_with("query", None),
    _nearnbr_with("query", "abc"),
    _nearnbr_with("query", "  2 "),
    _nearnbr_with("query", [1.0]),
    _nearnbr_with("query", float("nan")),
    _nearnbr_with("query", True),
    _nearnbr_with("index", False),
    _nearnbr_overflow,
    _jsonl_with("caption", "classes", None),
    _jsonl_with("caption", "classes", "Rising"),
    _jsonl_with("caption", "classes", ["Rising", 3]),
    _jsonl_with("caption", "scores", [1, 2]),
    _jsonl_with("eval", "classes", None),
    _jsonl_with("eval", "scores", [1, 2]),
    _jsonl_with("eval", "caption_base", None),
    _jsonl_with("eval", "caption_rephrased", 5),
    _jsonl_with("eval", "id", "a"),
    _inputs_sharing_name,
    _reading_bad("dataset", b"v\n" + b"0\n" * 150 + b"1\xff\n" + b"2\n" * 149),
    _reading_bad("eval", b'{"id": "a", "caption_base": "x\xff"}\n'),
    _reading_bad("nearnbr", b'{"id": "t0", "caption_base": "\xff", "values": [0.5]}\n'),
    _reading_bad("caption", b'{"id": "a", "classes": ["Rising\xff"]}\n'),
    _reading_bad("--params", b'{"k_segments": "\xff"}'),
    _reading_bad("--config", b'{"Rising\xff": {}}'),
    _reading_bad("eval", _DEEP + b"\n"),
    _reading_bad("nearnbr", _DEEP + b"\n"),
    _reading_bad("--params", _DEEP),
    _reading_bad("--config", _DEEP),
    _reading_bad("--params", b'{"k_segments": ' + _LONG_INT + b"}"),
    _reading_bad("--config", b'{"Rising": ' + _LONG_INT + b"}"),
    _reading_bad("dataset", b"v\n" + b"1" * 131073 + b"\n"),
    _eval_with_id(1),
    _eval_with_id(None),
    _reading_bad("nearnbr", _bad_record(id=["a"])),
    _reading_bad("nearnbr-queries", _bad_record(id={"q": 1})),
    _reading_bad("eval", _bad_record(source=5)),
    _reading_bad("eval", _bad_record(config_digest=7)),
    _reading_bad("eval", _bad_record(values="abc")),
    _reading_bad("caption", _bad_record(classes=["Rising", 3])),
    _reading_bad("caption", _bad_record(id=5)),
    _dataset_with("--config", _INFINITE_RISING),
    _reading_bad("nearnbr", _NBSP_PADDED),
    _reading_bad("nearnbr", b"\f" + _bad_record()),
    _reading_bad("eval", _NBSP_PADDED),
    _reading_bad("eval", b"\f" + _bad_record()[:-1] + b"\f\n"),
]
_MALFORMED_IDS = ["params-k-segments-string", "params-spike-sigma-null", "config-cutoff-string",
        "config-cutoff-null", "params-spike-sigma-past-float", "config-cutoff-past-float",
        "config-cutoff-bool", "config-cutoff-numeric-string", "config-cutoff-padded-string",
        "nearnbr-null-value", "nearnbr-index-string-value", "nearnbr-index-numeric-string",
        "nearnbr-index-past-float", "nearnbr-query-past-float",
        "nearnbr-query-null-value", "nearnbr-query-string-value",
        "nearnbr-query-numeric-string",
        "nearnbr-query-nested-value", "nearnbr-query-nan-token",
        "nearnbr-query-bool-value", "nearnbr-index-bool-value", "nearnbr-mse-overflow",
        "caption-classes-null", "caption-classes-string", "caption-classes-number-item",
        "caption-scores-list", "eval-classes-null", "eval-scores-list",
        "eval-caption-base-null", "eval-caption-rephrased-number", "eval-duplicate-id",
        "dataset-inputs-sharing-name", "dataset-csv-not-utf8", "eval-not-utf8",
        "nearnbr-not-utf8", "caption-not-utf8", "params-not-utf8", "config-not-utf8",
        "eval-deep-nesting", "nearnbr-deep-nesting", "params-deep-nesting",
        "config-deep-nesting", "params-long-int", "config-long-int",
        "dataset-csv-field-too-long", "eval-id-number", "eval-id-null",
        "nearnbr-index-id-list", "nearnbr-query-id-object", "eval-source-number",
        "eval-config-digest-number", "eval-values-string", "caption-values-classes-number-item",
        "caption-values-id-number", "config-cutoff-infinite",
        "nearnbr-nbsp-padded", "nearnbr-form-feed-padded", "eval-nbsp-padded",
        "eval-form-feed-padded"]


@pytest.mark.parametrize("build", _MALFORMED, ids=_MALFORMED_IDS)
def test_malformed_settings_and_index_exit_two(build, tmp_path, capsys):
    out = tmp_path / "out.jsonl"
    assert main(build(tmp_path) + ["--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err
    assert not out.exists()
    for bad in tmp_path.glob("bad.*"):
        assert str(bad) in err


@pytest.mark.parametrize("build", _MALFORMED, ids=_MALFORMED_IDS)
def test_the_split_read_path_keeps_each_refusal(build, tmp_path, capsys, monkeypatch):
    # a record's values list may be read apart from the rest of its line;
    # every refusal is the one the whole-line decoder gives
    argv = build(tmp_path)
    refused = main(argv), capsys.readouterr().err
    monkeypatch.setattr(taco.records, "_split_decode", lambda line: None)
    assert (main(argv), capsys.readouterr().err) == refused


@pytest.mark.parametrize("body, shown", [
    (_INFINITE_RISING, "inf"),
    (_rising_cutoff("abc"), "'abc'"),
    (_rising_cutoff(True), "True"),
    (_rising_cutoff(10**400), str(10**400)),
], ids=["infinite", "string", "bool", "past-float"])
def test_a_bad_rule_cutoff_names_its_class(body, shown, tmp_path, capsys):
    assert main(_dataset_with("--config", body)(tmp_path)) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"error: rule for Rising: cutoff must be a finite number, got {shown}\n")


@pytest.mark.parametrize("bad, message", [
    ({10: [0.5] * 15, QUERY_BLOCK + 5: None}, "query length 15 does not match"),
    ({3: [-1e200] * 16, 10: [0.5] * 15}, "query 'q3' is too far from every index entry"),
], ids=["wrong-length-before-null-next-block", "overflow-before-wrong-length-same-block"])
def test_nearnbr_reports_first_bad_query(bad, message, tmp_path, capsys):
    write_jsonl([{"id": f"t{i}", "caption_base": f"cap {i}", "values": [float(i)] * 16}
                 for i in range(3)], tmp_path / "index.jsonl")
    write_jsonl([{"id": f"q{i}", "caption_base": "", "values": bad.get(i, [0.5] * 16)}
                 for i in range(2 * QUERY_BLOCK)], tmp_path / "query.jsonl")
    out = tmp_path / "pred.jsonl"
    assert main(["nearnbr", "--index", str(tmp_path / "index.jsonl"),
                 "--queries", str(tmp_path / "query.jsonl"), "--out", str(out)]) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and message in err
    assert not out.exists()


@pytest.fixture()
def csv_with_bad_window(tmp_path):
    # windows 0 and 2 of column v are clean; window 1 holds an inf sample
    path = tmp_path / "mixed.csv"
    values = list(np.linspace(0.0, 1.0, 900))
    values[450] = float("inf")
    path.write_text("v\n" + "".join(f"{float(v)!r}\n" for v in values))
    return str(path)


def test_annotate_rows_are_projected_dataset_records(csv_with_bad_window, tmp_path,
                                                     capsys):
    ann = tmp_path / "ann.jsonl"
    ds = tmp_path / "ds.jsonl"
    assert main(["annotate", "--input", csv_with_bad_window, "--out", str(ann)]) == EXIT_OK
    assert capsys.readouterr().err == (
        "skipped mixed.csv#v#1: InvalidSignal: "
        "signal contains NaN or infinite samples\n")
    assert main(["dataset", "--input", csv_with_bad_window, "--no-values",
                 "--out", str(ds)]) == EXIT_OK
    rows = [json.loads(line) for line in ann.read_text().splitlines()]
    records = [json.loads(line) for line in ds.read_text().splitlines()]
    assert [row["id"] for row in rows] == ["mixed.csv#v#0", "mixed.csv#v#2"]
    assert rows == [
        {"id": r["id"], "source": r["source"], "classes": r["classes"],
         "scores": r["scores"], "params_digest": r["config_digest"]}
        for r in records
    ]
    assert [list(row) for row in rows] == [
        ["id", "source", "classes", "scores", "params_digest"]] * 2
    assert not (tmp_path / "ann.jsonl.skipped.jsonl").exists()


def test_dataset_stdout_matches_out_file(csv_with_bad_window, tmp_path, capsys):
    out = tmp_path / "ds.jsonl"
    assert main(["dataset", "--input", csv_with_bad_window, "--out", str(out)]) == EXIT_OK
    capsys.readouterr()
    assert main(["dataset", "--input", csv_with_bad_window]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.out.encode("utf-8") == out.read_bytes()
    assert captured.err.startswith("skipped mixed.csv#v#1: ")


@pytest.mark.parametrize("blank_row", ["0.5,", "0.5, ", "0.5"],
                         ids=["empty-cell", "whitespace-cell", "short-row"])
def test_blank_cell_skips_only_its_window(blank_row, tmp_path, capsys):
    # column b's data row 451 (window 1 of 3) is blank; a nan cell there is the reference
    def dataset_skips(row_451):
        rows = [f"{v!r},{v!r}" for v in np.linspace(0.0, 1.0, 900).tolist()]
        rows[450] = row_451
        path = tmp_path / "cells.csv"
        path.write_text("a,b\n" + "\n".join(rows) + "\n")
        out = tmp_path / "ds.jsonl"
        assert main(["dataset", "--input", str(path), "--no-values",
                     "--out", str(out)]) == EXIT_OK
        ids = [record.id for record in read_jsonl(out)]
        return ids, out.with_name("ds.jsonl.skipped.jsonl").read_text()

    ids, skips = dataset_skips(blank_row)
    assert ids == ["cells.csv#a#0", "cells.csv#a#1", "cells.csv#a#2",
                   "cells.csv#b#0", "cells.csv#b#2"]
    assert (ids, skips) == dataset_skips("0.5,nan")
    assert "cells.csv#b#1" in skips and "InvalidSignal" in skips
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("column", [[], ["--column", "a"]], ids=["all-columns", "column-a"])
def test_csv_byte_order_mark_is_ignored(column, tmp_path, capsys):
    path = tmp_path / "bom.csv"
    values = np.linspace(0.0, 1.0, 300).tolist()
    path.write_text("\ufeffa\n" + "".join(f"{v!r}\n" for v in values), encoding="utf-8")
    assert main(["dataset", "--input", str(path), "--no-values", *column]) == EXIT_OK
    assert [json.loads(line)["id"] for line in capsys.readouterr().out.splitlines()] == [
        "bom.csv#a#0"]


def test_jsonl_and_params_byte_order_mark_is_ignored(ramp_csv, tmp_path, capsys):
    rows = tmp_path / "r.jsonl"
    rows.write_text('\ufeff{"id": "a", "caption_base": "the signal rises"}\n',
                    encoding="utf-8")
    assert main(["eval", "--candidates", str(rows), "--references", str(rows)]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["sample_count"] == 1
    params = tmp_path / "params.json"
    params.write_text('\ufeff{"k_segments": 10}', encoding="utf-8")
    assert main(["dataset", "--input", ramp_csv, "--no-values",
                 "--params", str(params)]) == EXIT_OK


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_dataset_out_fifo_gets_no_default_sidecar(csv_with_bad_window, tmp_path):
    # a pipe is written in place, so no sidecar is derived from its name and
    # each skip is one stderr line, as for stdout; an explicit --skip-log applies
    fifo = tmp_path / "p"
    os.mkfifo(fifo)

    def run(*extra):
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)  # never blocks, unlike open()
        try:
            proc = subprocess.run([sys.executable, "-m", "taco.cli", "dataset", "--input",
                                   csv_with_bad_window, "--no-values", "--out", str(fifo),
                                   *extra], capture_output=True, env=_taco_env(), timeout=60)
            out = os.read(reader, 1 << 16)  # two short lines fit the pipe's buffer
        finally:
            os.close(reader)
        assert proc.returncode == EXIT_OK, proc.stderr
        assert [json.loads(line)["id"] for line in out.splitlines()] == [
            "mixed.csv#v#0", "mixed.csv#v#2"]
        return proc.stderr.decode()

    assert run() == ("skipped mixed.csv#v#1: InvalidSignal: "
                     "signal contains NaN or infinite samples\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["mixed.csv", "p"]
    skip_log = tmp_path / "skips.jsonl"
    assert run("--skip-log", str(skip_log)) == f"1 window(s) skipped, reasons in {skip_log}\n"
    assert [json.loads(line)["source"] for line in skip_log.read_text().splitlines()] == [
        "mixed.csv#v#1"]


def _taco_env() -> dict:
    """The environment for a taco subprocess: this source tree on the path,
    and stdout block-buffered, as in a shell."""
    src = os.path.dirname(os.path.dirname(taco.__file__))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_cli_import_loads_no_pool_logging_or_hash_modules():
    # process and thread pools and hashing load where they are used, so a
    # launch pays for none of them or what they import
    probe = ("import sys, taco.cli; print([m for m in ('concurrent.futures', "
             "'multiprocessing', 'signal', 'socket', 'logging', 'hashlib') "
             "if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=_taco_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


def test_cli_exit_freezes_the_heap_but_main_leaves_the_collector_alone(tmp_path):
    # a taco process skips the interpreter's final cyclic collection: the CLI
    # freezes the heap at exit, not in main(), so a caller of main() keeps a
    # normal collector until its own exit
    probe = "import atexit, gc, taco.cli; atexit._run_exitfuncs(); print(gc.get_freeze_count())"
    result = subprocess.run([sys.executable, "-c", probe], env=_taco_env(),
                            capture_output=True, text=True, check=True)
    assert int(result.stdout) > 0
    frozen = gc.get_freeze_count()
    assert main(["synth", "--count", "2", "--length", "64",
                 "--out", str(tmp_path / "s.jsonl")]) == EXIT_OK
    assert gc.get_freeze_count() == frozen


#: What a launch that runs no command must not load.
NUMERIC_MODULES = ("numpy", "taco.signal", "taco.detectors", "taco.annotator",
                   "taco.pipeline", "taco.synth", "taco.evalkit")


@pytest.mark.parametrize("statement", [
    "import taco",
    "import taco.cli",
    "import taco.cli; taco.cli.main(['--version'])",
    "import taco.cli; taco.cli.main(['--help'])",
    "import taco.cli; taco.cli.main(['dataset', '--window', 'x'])",
    "import taco.cli; taco.cli.main([])",
], ids=["import-taco", "import-cli", "version", "help", "usage-error", "no-command"])
def test_launch_without_a_command_loads_no_numeric_module(statement):
    # each command imports the modules it runs, so starting the CLI pays for
    # neither numpy nor the numeric taco modules
    probe = ("import contextlib, io, sys\n"
             "with contextlib.redirect_stdout(io.StringIO()), "
             "contextlib.redirect_stderr(io.StringIO()), contextlib.suppress(SystemExit):\n"
             f"    {statement}\n"
             f"print([m for m in {NUMERIC_MODULES!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=_taco_env(),
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "[]"


#: The scoring and synthesis modules, which reading and writing records needs none of.
SCORING_MODULES = ("taco.signal", "taco.detectors", "taco.annotator", "taco.pipeline",
                   "taco.synth")


@pytest.mark.parametrize("argv, absent", [
    (None, ("dataclasses", "orjson")),
    (["caption", "--classes", "Rising"], ("numpy", "orjson", *SCORING_MODULES)),
    (["eval", "--candidates", "q.jsonl", "--references", "train.jsonl"],
     ("numpy", *SCORING_MODULES)),
    (["eval", "--candidates", "c.jsonl", "--references", "r.jsonl"],
     ("numpy", "orjson", *SCORING_MODULES)),
    (["nearnbr", "--index", "train.jsonl", "--queries", "q.jsonl"],
     (*SCORING_MODULES, "hashlib")),
    (["dataset", "--input", "d.csv", "--window", "64", "--target-len", "64"],
     ("numpy.ma", "hashlib", "_hashlib", "taco.synth")),
    (["annotate", "--input", "d.csv", "--window", "64", "--target-len", "64"],
     ("numpy.ma", "hashlib", "_hashlib", "taco.synth")),
    (["caption", "--input", "a.jsonl"], ("numpy", "orjson", *SCORING_MODULES)),
], ids=["import-cli", "caption-classes", "eval", "eval-value-free", "nearnbr", "dataset",
        "annotate", "caption-input"])
def test_commands_load_only_what_they_run(argv, absent, tmp_path):
    # the record layer needs only the standard library, so caption --classes
    # and eval load no numpy, nor does caption --input on rows that name
    # only time-series classes, as annotate rows do; nearnbr loads numpy but
    # no scoring module; the spike score's median loads no numpy.ma, and the
    # config digest's SHA-256 loads neither hashlib nor OpenSSL; only a
    # command that writes values lists, or reads a line that ends in one,
    # loads orjson, and only a forward build loads taco.synth
    write_jsonl([{"id": f"t{i}", "caption_base": f"the signal rises {i}",
                  "values": [float(i)] * 16} for i in range(5)], tmp_path / "train.jsonl")
    write_jsonl([{"id": f"t{i}", "caption_base": f"the signal falls {i}",
                  "values": [i + 0.25] * 16} for i in range(5)], tmp_path / "q.jsonl")
    (tmp_path / "d.csv").write_text(
        "v\n" + "".join(f"{math.sin(i / 5) + (i > 40)}\n" for i in range(128)))
    write_jsonl([{"id": f"d.csv#v#{i}", "source": f"d.csv#v#{i}", "classes": ["Rising", "Step"],
                  "scores": {"slope": 0.5, "step_ratio": 0.25}, "params_digest": "0" * 16}
                 for i in range(2)], tmp_path / "a.jsonl")
    for name, verb in (("c", "rises"), ("r", "falls")):
        write_jsonl([{"id": f"t{i}", "caption_base": f"the signal {verb} {i}"}
                     for i in range(5)], tmp_path / f"{name}.jsonl")
    run = "0" if argv is None else f"taco.cli.main({argv!r})"
    probe = ("import contextlib, io, sys, taco.cli\n"
             "with contextlib.redirect_stdout(io.StringIO()):\n"
             f"    code = {run}\n"
             f"print(code, [m for m in {absent!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=_taco_env(), cwd=tmp_path,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "0 []", result.stderr


def test_caption_rephrase_loads_no_scoring_stack(mock_endpoint, tmp_path):
    # the in-order pool loop lives in the record layer, so rewording the base
    # captions of annotate rows loads neither numpy nor a scoring module
    _, url = mock_endpoint
    write_jsonl([{"id": f"a{i}", "classes": ["Rising"]} for i in range(3)],
                tmp_path / "a.jsonl")
    argv = ["caption", "--input", "a.jsonl", "--rephrase", "--endpoint", url]
    absent = ("numpy", *SCORING_MODULES)
    probe = ("import contextlib, io, sys, taco.cli\n"
             "out = io.StringIO()\n"
             "with contextlib.redirect_stdout(out):\n"
             f"    code = taco.cli.main({argv!r})\n"
             f"print(code, out.getvalue().count({MockLLMHandler.fixed_reply!r}),\n"
             f"      [m for m in {absent!r} if m in sys.modules])")
    result = subprocess.run([sys.executable, "-c", probe], env=_taco_env(), cwd=tmp_path,
                            capture_output=True, text=True, check=True)
    assert result.stdout.strip() == "0 3 []", result.stderr


#: ``taco.__all__`` as it stood when every public name was imported eagerly.
PUBLIC_NAMES = [
    "__version__", "Annotation", "BASE_CAPTIONS", "DatasetRecord", "DetectorParams",
    "IngestSpec", "NormalizedSeries", "ScoreVector", "Series", "SynthSpec", "TacoError",
    "ThresholdConfig", "TimeSeriesClass", "annotate", "assign_classes", "base_caption",
    "build_dataset", "build_forward_dataset", "default_config", "forward_caption",
    "generate", "load_config", "minmax_normalize", "read_jsonl", "rephrase",
    "resample_linear", "sample_spec", "score_all", "write_jsonl",
]


def test_public_names_resolve_to_their_defining_modules():
    assert taco.__all__ == PUBLIC_NAMES
    for name in PUBLIC_NAMES[1:]:
        value = getattr(taco, name)
        home = getattr(value, "__module__", "taco.captioner")  # BASE_CAPTIONS
        assert home == f"taco.{taco._EXPORTS[name]}", name
        assert getattr(sys.modules[home], name) is value, name
    assert not hasattr(taco, "no_such_name")


BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _blas_env(**blas) -> dict:
    """``_taco_env()`` with the BLAS thread variables set only as ``blas`` sets them."""
    env = {key: value for key, value in _taco_env().items() if key not in BLAS_THREAD_VARS}
    return env | blas


@pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="needs /proc/self/task")
def test_taco_runs_blas_on_one_thread_unless_the_caller_sets_it():
    # taco's parallelism is its worker processes; a BLAS thread pool in each
    # process only adds a thread that spins beside it.  numpy, which starts
    # the BLAS threads, loads after taco.cli, as a command loads it
    probe = ("import os, taco.cli, numpy; print(len(os.listdir('/proc/self/task')), "
             f"*map(os.environ.get, {BLAS_THREAD_VARS!r}))")

    def run(env):
        return subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True, timeout=60).stdout.split()

    assert run(_blas_env()) == ["1", "1", "1", "1"]
    assert run(_blas_env(OPENBLAS_NUM_THREADS="2"))[1:] == ["2", "None", "None"]


@pytest.mark.skipif(not os.path.exists("/proc/self/task"), reason="needs /proc/self/task")
def test_pool_workers_run_blas_on_one_thread():
    # each worker makes a BLAS call large enough to be split across threads,
    # then counts its own threads: its main thread and the thread that
    # watches for the parent's death, and no BLAS thread
    probe = ("import os, taco.pipeline, numpy as np\n"
             "def threads(chunk):\n"
             "    np.ones((64, 2048)) @ np.ones((2048, 300))\n"
             "    return [len(os.listdir('/proc/self/task'))] * len(chunk)\n"
             "print(*sorted(set(taco.pipeline._ordered(threads, range(32), 2))))\n")
    result = subprocess.run([sys.executable, "-c", probe], env=_blas_env(),
                            capture_output=True, text=True, check=True, timeout=120)
    assert result.stdout.split() == ["2"]


def test_outputs_identical_across_blas_thread_counts(tmp_path):
    # the one-thread default rests on this: no output byte depends on the
    # BLAS thread count, here set by the caller so taco's default does not apply
    csv_path = _sine_csv(tmp_path / "sines.csv", 8, bad_rows=[1000])
    commands = [
        ["dataset", "--input", csv_path, "--jobs", "1", "--out", "d1.jsonl"],
        ["dataset", "--input", csv_path, "--jobs", "2", "--out", "d2.jsonl"],
        ["synth", "--count", "60", "--seed", "41", "--annotate-also", "--out", "s.jsonl"],
        ["nearnbr", "--index", "s.jsonl", "--queries", "d1.jsonl", "--out", "n.jsonl"],
        ["eval", "--candidates", "n.jsonl", "--references", "d1.jsonl", "--out", "e.json"],
    ]
    outputs = {}
    for threads in ("1", "2"):
        run = tmp_path / f"threads{threads}"
        run.mkdir()
        for argv in commands:
            subprocess.run([sys.executable, "-m", "taco.cli", *argv], cwd=run,
                           env=_blas_env(OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, check=True, timeout=120)
        outputs[threads] = {path.name: path.read_bytes() for path in run.iterdir()}
    assert sorted(outputs["1"]) == ["d1.jsonl", "d1.jsonl.skipped.jsonl", "d2.jsonl",
                                    "d2.jsonl.skipped.jsonl", "e.json", "n.jsonl", "s.jsonl"]
    assert outputs["1"] == outputs["2"]


def test_outputs_identical_across_string_hash_seeds(tmp_path):
    # a set or dict of strings iterates in an order that follows the hash
    # seed, so no output byte may depend on such an order.  The blank cell
    # skips window v#1, so the sidecar holds a line.
    cells = ["" if i == 100 else repr(math.sin(i / 5) + (i > 150)) for i in range(256)]
    (tmp_path / "v.csv").write_text("v\n" + "\n".join(cells) + "\n")
    commands = [
        ["dataset", "--input", "../v.csv", "--window", "64", "--target-len", "256",
         "--out", "d.jsonl"],
        ["synth", "--count", "20", "--length", "256", "--annotate-also", "--out", "s.jsonl"],
        ["nearnbr", "--index", "s.jsonl", "--queries", "d.jsonl"],
    ]
    outputs = {}
    for seed in ("1", "2"):
        run = tmp_path / f"seed{seed}"
        run.mkdir()
        stdout = [subprocess.run([sys.executable, "-m", "taco.cli", *argv], cwd=run,
                                 env=_taco_env() | {"PYTHONHASHSEED": seed},
                                 capture_output=True, check=True, timeout=120).stdout
                  for argv in commands]
        outputs[seed] = stdout, {path.name: path.read_bytes() for path in run.iterdir()}
    assert sorted(outputs["1"][1]) == ["d.jsonl", "d.jsonl.skipped.jsonl", "s.jsonl"]
    assert outputs["1"][1]["d.jsonl.skipped.jsonl"].count(b"\n") == 1
    assert outputs["1"][0][2].count(b"\n") == 3
    assert outputs["1"] == outputs["2"]


@pytest.mark.parametrize("argv, lines_read", [
    (["synth", "--count", "200"], 1),
    (["caption", "--classes", "Rising"], 0),
    (["dataset", "--input", "{csv}", "--jobs", "2"], 1),
], ids=["synth-read-one-line", "caption-read-nothing", "dataset-jobs2-read-one-line"])
def test_closed_stdout_exits_quietly(argv, lines_read, tmp_path):
    # block-buffered stdout, as in a shell: a short output meets the closed
    # pipe only when it is flushed; the dataset run still has pool work in flight
    argv = [arg.format(csv=tmp_path / "sines.csv") for arg in argv]
    _sine_csv(tmp_path / "sines.csv", 24)
    proc = subprocess.Popen([sys.executable, "-m", "taco.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_taco_env())
    for _ in range(lines_read):
        assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == EXIT_OK
    assert err == b""


_SYNTH_ARGV = ["synth", "--count", "100000"]
_DATASET_ARGV = ["dataset", "--input", "{csv}", "--jobs", "2"]


def _await_an_output_line(proc, tmp_path) -> None:
    """Return once the temporary file of ``proc``'s ``--out tmp_path/out.jsonl``
    holds a line, so the run is writing; fail if it exits or 60 s pass first."""
    deadline = time.monotonic() + 60
    while not any(tmp.stat().st_size for tmp in tmp_path.glob(".out.jsonl.*.tmp")):
        with contextlib.suppress(subprocess.TimeoutExpired):
            proc.wait(timeout=0.01)
        assert proc.returncode is None, proc.stderr.read()
        assert time.monotonic() < deadline, "no output line within 60 s"


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("argv, signum, expected", [
    (_SYNTH_ARGV, signal.SIGINT, (EXIT_INTERRUPTED, b"error: interrupted\n")),
    (_DATASET_ARGV, signal.SIGINT, (EXIT_INTERRUPTED, b"error: interrupted\n")),
    (_SYNTH_ARGV, signal.SIGTERM, (143, b"error: stopped by SIGTERM\n")),
    (_DATASET_ARGV, signal.SIGTERM, (143, b"error: stopped by SIGTERM\n")),
    (_SYNTH_ARGV, signal.SIGHUP, (129, b"error: stopped by SIGHUP\n")),
    (_DATASET_ARGV, signal.SIGHUP, (129, b"error: stopped by SIGHUP\n")),
], ids=["synth", "dataset-jobs2", "synth-sigterm", "dataset-jobs2-sigterm",
        "synth-sighup", "dataset-jobs2-sighup"])
def test_ctrl_c_exits_130_and_leaves_no_file(argv, signum, expected, tmp_path):
    # Ctrl-C reaches the whole process group, pool workers included, while
    # SIGTERM and SIGHUP go to the CLI process alone, as timeout and kill send
    # them; each is sent once the temporary output file holds a line, so the
    # run is writing.  Either way the run ends with exit 128 + the signal
    # number, one error line, no output file and no worker left.
    argv = [arg.format(csv=tmp_path / "sines.csv") for arg in argv]
    if "dataset" in argv:
        _sine_csv(tmp_path / "sines.csv", 400)
    out = tmp_path / "out.jsonl"
    proc = subprocess.Popen([sys.executable, "-m", "taco.cli", *argv, "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_taco_env(), start_new_session=True)
    try:
        _await_an_output_line(proc, tmp_path)
        if signum == signal.SIGINT:
            os.killpg(proc.pid, signum)
        else:
            os.kill(proc.pid, signum)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            err = None  # the clean-up below kills the run and keeps its stderr
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            _, stuck = proc.communicate()
    # a run that lost the signal shows where, say an "Exception ignored in" line
    assert err is not None, ("still running 60 s after the signal; stderr:\n"
                             + stuck.decode(errors="replace"))
    assert (proc.returncode, err) == expected
    assert [path.name for path in tmp_path.iterdir() if "out.jsonl" in path.name] == []
    with pytest.raises(ProcessLookupError):  # the pool's workers are gone too
        os.killpg(proc.pid, 0)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
@pytest.mark.parametrize("offset", [0.05, 0.2, 1.0])
def test_ctrl_c_at_a_fixed_offset_into_synth_exits_130(offset, tmp_path):
    # Ctrl-C at fixed times after the CLI is imported, from synth's own
    # imports to its record loop: each ends with exit 130, one error line
    # and no file.  A Ctrl-C while taco.cli itself imports comes before any
    # handler, so the offsets count from a line printed once it has.
    out = tmp_path / "out.jsonl"
    launch = "import sys, taco.cli; print(flush=True); sys.exit(taco.cli.main(sys.argv[1:]))"
    proc = subprocess.Popen([sys.executable, "-c", launch, *_SYNTH_ARGV, "--out", str(out)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=_taco_env(), start_new_session=True)
    try:
        assert proc.stdout.readline() == b"\n"
        time.sleep(offset)
        os.killpg(proc.pid, signal.SIGINT)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            err = None
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            _, stuck = proc.communicate()
    assert err is not None, ("still running 60 s after the signal; stderr:\n"
                             + stuck.decode(errors="replace"))
    assert (proc.returncode, err) == (EXIT_INTERRUPTED, b"error: interrupted\n")
    assert list(tmp_path.iterdir()) == []


#: How a command's code can lose the exception of a Ctrl-C that lands in it.
_LOSSES = {
    # numpy.random._generator's module set-up and importlib's module-lock
    # callback swallow every exception
    "swallowed": "try:\n    signal.raise_signal(signal.SIGINT)\nexcept BaseException:\n    pass",
    # numpy's C import turns an interrupt into an ImportError
    "converted": ("try:\n    signal.raise_signal(signal.SIGINT)\n"
                  "except BaseException:\n    raise ImportError('numpy failed to import')"),
    # under python -m, a bare KeyboardInterrupt that left an exec of source
    # text, as dataclasses runs, ended the process by SIGINT at exit
    "exec": "exec('signal.raise_signal(signal.SIGINT)')",
}


@pytest.mark.parametrize("loss", list(_LOSSES))
def test_a_ctrl_c_the_command_loses_still_exits_130(loss, tmp_path):
    # run under python -m, as a command whose code meets a Ctrl-C in a place
    # that loses its exception; the run still exits 130 with one error line
    # and puts no --out file in place
    body = textwrap.indent(_LOSSES[loss], "    ")
    (tmp_path / "lossy.py").write_text(
        "import signal, sys\nimport taco.cli\n\n"
        f"def command(args):\n{body}\n    yield from ['a line'] * 3\n\n"
        "taco.cli._cmd_synth = command\nsys.exit(taco.cli.main())\n")
    out = tmp_path / "out" / "out.jsonl"
    out.parent.mkdir()
    result = subprocess.run([sys.executable, "-m", "lossy", "synth", "--count", "1",
                             "--out", str(out)],
                            cwd=tmp_path, env=_taco_env(), capture_output=True, timeout=60)
    assert (result.returncode, result.stderr) == (EXIT_INTERRUPTED, b"error: interrupted\n")
    assert list(out.parent.iterdir()) == []


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_pool_workers_exit_when_the_cli_is_killed(tmp_path):
    # SIGKILL leaves the CLI no way to shut its pool down; each worker sees
    # its parent gone and exits, so the run's process group empties.  The
    # temporary --out file stays, since no code runs to remove it.
    argv = [arg.format(csv=_sine_csv(tmp_path / "sines.csv", 400)) for arg in _DATASET_ARGV]
    proc = subprocess.Popen([sys.executable, "-m", "taco.cli", *argv,
                             "--out", str(tmp_path / "out.jsonl")],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=_taco_env(), start_new_session=True)
    try:
        _await_an_output_line(proc, tmp_path)
        os.kill(proc.pid, signal.SIGKILL)
        proc.wait(timeout=60)  # reaped, so only its workers can hold the group
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            try:
                os.killpg(proc.pid, 0)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        else:
            pytest.fail("pool workers outlived the killed CLI by 10 s")
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()  # the workers, killed, no longer hold its stderr


def test_an_ignored_stop_signal_stays_ignored_during_a_run(monkeypatch):
    # nohup starts a run with SIGHUP ignored; main leaves it so, handles
    # SIGTERM, and puts both back as they were
    seen = []

    def recording(args):
        seen.append((signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP)))
        yield from ()

    monkeypatch.setattr(taco.cli, "_cmd_synth", recording)
    term = signal.getsignal(signal.SIGTERM)
    saved = signal.signal(signal.SIGHUP, signal.SIG_IGN)
    try:
        assert main(["synth", "--count", "1"]) == EXIT_OK
        after = (signal.getsignal(signal.SIGTERM), signal.getsignal(signal.SIGHUP))
    finally:
        signal.signal(signal.SIGHUP, saved)
    assert seen == [(taco.cli._stop, signal.SIG_IGN)]
    assert after == (term, signal.SIG_IGN)


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs POSIX process groups")
def test_a_hangup_does_not_stop_a_run_that_ignores_it(tmp_path):
    # a run started under nohup inherits SIGHUP ignored; a hangup sent to its
    # process group, pool workers included, leaves it writing to the end
    csv_path = _sine_csv(tmp_path / "sines.csv", 400)
    out = tmp_path / "out.jsonl"
    saved = signal.signal(signal.SIGHUP, signal.SIG_IGN)  # inherited across exec
    try:
        proc = subprocess.Popen([sys.executable, "-m", "taco.cli", "dataset", "--input",
                                 csv_path, "--jobs", "2", "--out", str(out)],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                env=_taco_env(), start_new_session=True)
    finally:
        signal.signal(signal.SIGHUP, saved)
    try:
        _await_an_output_line(proc, tmp_path)
        os.killpg(proc.pid, signal.SIGHUP)
        _, err = proc.communicate(timeout=120)
    finally:
        if proc.returncode is None:
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
    assert (proc.returncode, err) == (EXIT_OK, b"")
    assert len(out.read_text().splitlines()) == 800


@pytest.mark.parametrize("command", ["caption", "nearnbr"])
def test_late_bad_line_streams_earlier_rows_to_stdout_only(command, tmp_path, capsys):
    # rows are written as they are made: stdout gets those before the bad
    # line, while --out is put in place only once every row is written
    index = tmp_path / "index.jsonl"
    write_jsonl([{"id": f"t{i}", "caption_base": f"cap {i}", "values": [float(i)] * 16}
                 for i in range(4)], index)
    queries = tmp_path / "q.jsonl"
    write_jsonl([{"id": 7 if i == 5 else f"q{i}", "classes": ["Rising"],
                  "values": [float(i)] * 16} for i in range(8)], queries)
    argv = {"caption": ["caption", "--input", str(queries)],
            "nearnbr": ["nearnbr", "--index", str(index), "--queries", str(queries)]}[command]
    assert main(argv) == EXIT_DATA
    captured = capsys.readouterr()
    assert [json.loads(line)["id"] for line in captured.out.splitlines()] == [
        f"q{i}" for i in range(5)]
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert "line 6" in captured.err
    out = tmp_path / "out.jsonl"
    assert main(argv + ["--out", str(out)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert sorted(path.name for path in tmp_path.iterdir()) == ["index.jsonl", "q.jsonl"]


def test_dataset_bad_later_input_writes_nothing(tmp_path, capsys):
    good = _sine_csv(tmp_path / "good.csv", 2)
    bad = tmp_path / "bad.csv"
    bad.write_text("v\n" + "".join(f"{i}\n" for i in range(400)) + "abc\n")
    assert main(["dataset", "--input", good, "--input", str(bad)]) == EXIT_DATA
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.startswith("error: ") and "row 401" in captured.err


def test_blank_first_cell_keeps_numeric_column(tmp_path):
    # column b's first data cell is blank: b is still numeric, as with --column b
    rows = [f"{v!r},{v!r}" for v in np.linspace(0.0, 1.0, 600).tolist()]
    rows[0] = "0.0,"
    path = tmp_path / "lead.csv"
    path.write_text("a,b\n" + "\n".join(rows) + "\n")

    def column_b_outcomes(*extra):
        out = tmp_path / "ds.jsonl"
        skip_log = tmp_path / "skips.jsonl"
        skip_log.unlink(missing_ok=True)
        assert main(["dataset", "--input", str(path), "--no-values", "--out", str(out),
                     "--skip-log", str(skip_log), *extra]) == EXIT_OK
        kept = [record.id for record in read_jsonl(out)]
        skipped = [record["source"] for record in map(json.loads, skip_log.read_text().splitlines())]
        return [tag for tag in kept if "#b#" in tag], skipped

    kept, skipped = column_b_outcomes()
    assert (kept, skipped) == (["lead.csv#b#1"], ["lead.csv#b#0"])
    assert column_b_outcomes("--column", "b") == (kept, skipped)


def _peak_rss_mb(argv, tmp_path) -> float:
    """Run taco in a fresh process that reports its own VmHWM at exit."""
    code = ("import atexit, sys\n"
            "def peak():\n"
            "    with open('/proc/self/status') as status:\n"
            "        kib = next(l.split()[1] for l in status if l.startswith('VmHWM:'))\n"
            "    print('peak-rss-kib', kib, file=sys.stderr)\n"
            "atexit.register(peak)\n"
            "from taco.cli import main\n"
            "sys.exit(main())\n")
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, env=_taco_env(), cwd=tmp_path, timeout=300)
    assert proc.returncode == EXIT_OK, proc.stderr
    kib = proc.stderr.split("peak-rss-kib")[-1].split()[0]
    return int(kib) / 1024


def _synth_argv(tmp_path, count: int) -> list:
    return ["synth", "--count", str(count), "--out", f"s{count}.jsonl"]


def _caption_argv(tmp_path, count: int) -> list:
    (tmp_path / f"a{count}.jsonl").write_text("".join(
        f'{{"id": "r{i}", "classes": ["Rising", "Smooth"]}}\n' for i in range(count)))
    return ["caption", "--input", f"a{count}.jsonl", "--out", f"c{count}.jsonl"]


def _nearnbr_argv(tmp_path, count: int) -> list:
    (tmp_path / "index.jsonl").write_text("".join(
        f'{{"id": "t{i}", "caption_base": "cap {i}", "values": {[i / 50] * 16}}}\n'
        for i in range(50)))
    (tmp_path / f"q{count}.jsonl").write_text("".join(
        f'{{"id": "q{i}", "values": {[(i % 97) / 97] * 16}}}\n' for i in range(count)))
    return ["nearnbr", "--index", "index.jsonl", "--queries", f"q{count}.jsonl",
            "--out", f"n{count}.jsonl"]


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="needs /proc/self/status for VmHWM")
@pytest.mark.parametrize("argv_for, counts, bound_mb", [
    (_synth_argv, (150, 1500), 10.0),
    (_caption_argv, (2000, 40000), 2.0),
    (_nearnbr_argv, (2000, 40000), 2.0),
], ids=["synth", "caption-input", "nearnbr"])
def test_peak_memory_does_not_grow_with_count(argv_for, counts, bound_mb, tmp_path):
    small, large = (_peak_rss_mb(argv_for(tmp_path, count), tmp_path) for count in counts)
    assert abs(large - small) < bound_mb, (small, large)
