"""Pinned outputs: regenerate a fixed set of CLI outputs and compare them
with ``tests/data/pinned_outputs.jsonl``.

The inputs are built here from fixed seeds: ``synth --count 40 --seed 7
--annotate-also``, a three-column CSV through ``dataset`` (one window holds
an infinite sample and is skipped, one is constant), then ``nearnbr`` with
the synth records as index and the dataset records as queries, and ``eval``
of the neighbour captions against the dataset captions.

Ids, classes, captions, skip reasons and neighbour ids must match exactly;
scores, MSEs and eval metrics within 1e-12, since BLAS kernels may differ
between CPUs in the last bits; ``values`` by the sha256 of their JSON text.

A change that alters a pinned value on purpose re-records the file with
``PYTHONPATH=src python tests/test_pinned_outputs.py``.
"""

import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from taco.cli import EXIT_OK, main

PINNED = Path(__file__).parent / "data" / "pinned_outputs.jsonl"
TOLERANCE = 1e-12


def _write_csv(path: Path) -> None:
    rng = np.random.default_rng(11)
    t = np.arange(900)
    columns = {
        "walk": np.cumsum(rng.normal(size=t.size)),
        "wave": np.sin(2 * np.pi * t / 75) + 0.05 * rng.normal(size=t.size),
        "level": np.where(t < 300, 2.5, 0.01 * np.clip(t - 300, 0, None) ** 1.5),
    }
    columns["wave"][450] = np.inf  # skips window wave#1; level#0 is constant
    lines = [",".join(columns)] + [",".join(repr(float(col[i])) for col in columns.values())
                                   for i in range(t.size)]
    path.write_text("\n".join(lines) + "\n")


def _run(argv) -> None:
    assert main(argv) == EXIT_OK, argv


def _lines(path: Path) -> list:
    return [json.loads(line) for line in path.read_text().splitlines()]


def _record(kind: str, data: dict) -> dict:
    values = data["values"]
    return {"kind": kind, "id": data["id"], "classes": data["classes"],
            "caption_base": data["caption_base"], "scores": data["scores"],
            "values_sha256": hashlib.sha256(json.dumps(values).encode()).hexdigest()}


def regenerate(work: Path) -> list:
    """Run the pinned commands in ``work`` and summarise their outputs."""
    synth, data, skips = work / "synth.jsonl", work / "data.jsonl", work / "skips.jsonl"
    pred, report, csv_path = work / "pred.jsonl", work / "report.json", work / "series.csv"
    _write_csv(csv_path)
    _run(["synth", "--count", "40", "--seed", "7", "--annotate-also", "--out", str(synth)])
    _run(["dataset", "--input", str(csv_path), "--out", str(data),
          "--skip-log", str(skips)])
    _run(["nearnbr", "--index", str(synth), "--queries", str(data), "--out", str(pred)])
    _run(["eval", "--candidates", str(pred), "--references", str(data),
          "--out", str(report)])
    return ([_record("synth", row) for row in _lines(synth)]
            + [_record("dataset", row) for row in _lines(data)]
            + [{"kind": "skip"} | row for row in _lines(skips)]
            + [{"kind": "nearnbr"} | row for row in _lines(pred)]
            + [{"kind": "eval", "scores": json.loads(report.read_text())}])


def _close(actual, expected) -> bool:
    if isinstance(expected, dict):
        return (isinstance(actual, dict) and actual.keys() == expected.keys()
                and all(_close(actual[key], expected[key]) for key in expected))
    if isinstance(expected, float) and isinstance(actual, (int, float)):
        return math.isclose(actual, expected, rel_tol=TOLERANCE, abs_tol=TOLERANCE)
    return actual == expected


#: Fields compared within ``TOLERANCE``; every other field must be equal.
_NUMERIC = ("scores", "mse")


def test_outputs_match_pinned_file(tmp_path):
    expected = _lines(PINNED)
    actual = regenerate(tmp_path)
    assert [row["kind"] for row in actual] == [row["kind"] for row in expected]
    for got, want in zip(actual, expected):
        label = f"{want['kind']} {want.get('id', want.get('source', ''))}"
        exact = {key: value for key, value in want.items() if key not in _NUMERIC}
        assert {key: got.get(key) for key in exact} == exact, label
        assert got.keys() == want.keys(), label
        for key in _NUMERIC:
            if key in want:
                assert _close(got[key], want[key]), f"{label}: {key}"


def test_pinned_file_covers_each_path():
    rows = _lines(PINNED)
    kinds = [row["kind"] for row in rows]
    assert kinds.count("synth") == 40 and kinds.count("eval") == 1
    assert [row["source"] for row in rows if row["kind"] == "skip"] == ["series.csv#wave#1"]
    assert "Constant" in next(row["classes"] for row in rows
                              if row.get("id") == "series.csv#level#0")
    assert kinds.count("nearnbr") == kinds.count("dataset") == 8


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        rows = regenerate(Path(scratch))
    PINNED.parent.mkdir(exist_ok=True)
    PINNED.write_text("".join(json.dumps(row) + "\n" for row in rows))
    print(f"wrote {len(rows)} rows to {PINNED}", file=sys.stderr)
