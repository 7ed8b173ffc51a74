"""Seeded inputs for the benchmark workloads.

Every input is a pure function of its size and the ``--seed`` argument: the
generators draw from numpy generators keyed by the seed and a per-input tag,
so the same seed gives byte-identical files.  Nothing here imports taco, so a
change to the program cannot change what it is measured on.

Files are cached under ``bench/work/inputs`` in a directory keyed by size,
seed and a digest of this file; the arrays themselves are regenerated on
every run (a few milliseconds), so the checks always compare against the
generator and never against a file the program could have touched.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: taco's default ``--window`` and ``--target-len``; the workloads rely on them.
WINDOW = 300
TARGET_LEN = 2048

#: Backward CSV columns, each steering windows down a different detector path.
COLUMNS = ("periodic", "walk", "steps", "plateau")
CSV_NAME = "sensors.csv"


@dataclass(frozen=True)
class Size:
    windows_per_column: int
    constant_windows: int  # planted in the ``plateau`` column
    nan_windows: int       # one ``nan`` cell each, spread over all columns
    synth_count: int
    index_entries: int
    queries: int


SIZES = {
    "full": Size(windows_per_column=25, constant_windows=5, nan_windows=4,
                 synth_count=600, index_entries=300, queries=200),
    "smoke": Size(windows_per_column=3, constant_windows=1, nan_windows=1,
                  synth_count=12, index_entries=12, queries=6),
}

_CODE_DIGEST = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:12]


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed & 0xFFFFFFFF, seed >> 32 & 0xFFFFFFFF,
                                  zlib.crc32(tag.encode())])


def input_dir(work: Path, size_name: str, seed: int) -> Path:
    return work / "inputs" / f"{size_name}-s{seed}-{_CODE_DIGEST}"


def _write_atomic(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)


# --------------------------------------------------------------- backward


@dataclass(frozen=True)
class BackwardInput:
    path: Path
    columns: dict          # column name -> raw float array (nan cells included)
    nan_windows: frozenset  # tags of windows holding a planted nan cell
    constant_windows: frozenset

    def tags(self) -> list:
        """Window tags in taco's emission order: file, column, window."""
        n = next(iter(self.columns.values())).size // WINDOW
        return [f"{CSV_NAME}#{c}#{i}" for c in self.columns for i in range(n)]

    def window(self, tag: str) -> np.ndarray:
        _, col, idx = tag.split("#")
        start = int(idx) * WINDOW
        return self.columns[col][start:start + WINDOW]


def _periodic_window(rng, i):
    period = rng.uniform(15.0, 75.0)
    amp = rng.uniform(0.5, 2.0)
    wave = amp * np.sin(2 * np.pi * i / period + rng.uniform(0, 2 * np.pi))
    return rng.uniform(-1, 1) + wave + rng.normal(0.0, 0.15 * amp, i.size)


def _steps_window(rng, i):
    out = np.zeros(i.size)
    for pos in rng.choice(np.arange(30, i.size - 30), size=rng.integers(1, 4),
                          replace=False):
        out[pos:] += rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 3.0)
    out += rng.normal(0.0, 0.1, i.size)
    spikes = rng.choice(np.arange(10, i.size - 10), size=2, replace=False)
    out[spikes] += rng.choice([-1.0, 1.0], size=2) * rng.uniform(1.0, 2.0, size=2)
    return out


def _plateau_window(rng, i):
    t = i / i.size
    curve = rng.uniform(-2, 2) * t + rng.uniform(-3, 3) * t * t
    return rng.uniform(-5, 5) + curve + rng.normal(0.0, 0.01, i.size)


def backward_input(work: Path, size_name: str, seed: int) -> BackwardInput:
    """Four columns of ``windows_per_column`` windows each.

    * ``periodic``: a noisy sine with a new period (15-75 samples) per window
    * ``walk``: a Gaussian random walk, continuous across windows
    * ``steps``: 1-3 level shifts plus two spikes per window
    * ``plateau``: gentle quadratics; ``constant_windows`` of them are
      replaced by an exactly constant level (taco's degenerate bypass)

    ``nan_windows`` non-constant windows get one ``nan`` cell each, which
    taco skips by design.
    """
    size = SIZES[size_name]
    rng = _rng(seed, "backward")
    n = size.windows_per_column
    i = np.arange(WINDOW, dtype=float)
    columns = {
        "periodic": np.concatenate([_periodic_window(rng, i) for _ in range(n)]),
        "walk": np.cumsum(rng.normal(0.0, 1.0, n * WINDOW)),
        "steps": np.concatenate([_steps_window(rng, i) for _ in range(n)]),
        "plateau": np.concatenate([_plateau_window(rng, i) for _ in range(n)]),
    }
    constant = rng.choice(n, size=size.constant_windows, replace=False)
    for w in constant:
        columns["plateau"][w * WINDOW:(w + 1) * WINDOW] = round(rng.uniform(-5, 5), 3)
    constant_tags = frozenset(f"{CSV_NAME}#plateau#{w}" for w in constant)
    candidates = [f"{CSV_NAME}#{c}#{w}" for c in COLUMNS for w in range(n)
                  if f"{CSV_NAME}#{c}#{w}" not in constant_tags]
    nan_tags = frozenset(str(tag) for tag in
                         rng.choice(candidates, size=size.nan_windows, replace=False))
    for tag in nan_tags:
        _, col, w = tag.split("#")
        columns[col][int(w) * WINDOW + rng.integers(0, WINDOW)] = np.nan

    path = input_dir(work, size_name, seed) / CSV_NAME
    if not path.exists():
        rows = zip(*(columns[c].tolist() for c in COLUMNS))
        lines = [",".join(COLUMNS)] + [",".join(map(repr, row)) for row in rows]
        _write_atomic(path, "\n".join(lines) + "\n")
    return BackwardInput(path=path, columns=columns, nan_windows=nan_tags,
                         constant_windows=constant_tags)


# -------------------------------------------------------------- retrieval

#: Caption vocabulary for the retrieval index; any fixed sentences will do.
SENTENCES = (
    "The signal rises steadily.",
    "The signal falls towards the end.",
    "The signal stays almost flat.",
    "The curve bends upwards.",
    "The curve bends downwards.",
    "A linear trend dominates the signal.",
    "The trend is clearly nonlinear.",
    "The signal is smooth.",
    "The signal contains a lot of noise.",
    "The shape is simple.",
    "The signal shows complex behavior.",
    "There are sudden spikes in value.",
    "There are sudden drops in value.",
    "The signal repeats periodically.",
    "No clear period is visible.",
    "The signal is symmetric about its center.",
    "The level changes in steps.",
    "The amplitude is high.",
    "The amplitude is low.",
    "A single bump appears in the middle.",
)


@dataclass(frozen=True)
class RetrievalInput:
    index_path: Path
    queries_path: Path
    index_ids: list
    index_values: np.ndarray   # (entries, TARGET_LEN)
    index_captions: list
    query_ids: list
    query_values: np.ndarray   # (queries, TARGET_LEN)
    query_captions: list


def _caption(rng, sentences=None) -> list:
    if sentences is None:
        picks = rng.choice(len(SENTENCES), size=rng.integers(2, 5), replace=False)
        return [SENTENCES[k] for k in picks]
    out = list(sentences)
    out[rng.integers(0, len(out))] = SENTENCES[rng.integers(0, len(SENTENCES))]
    return out


def _record(rid: str, caption: str, values: np.ndarray) -> str:
    return json.dumps({"id": rid, "source": "bench", "classes": [],
                       "caption_base": caption, "caption_rephrased": None,
                       "values": values.tolist()})


def retrieval_input(work: Path, size_name: str, seed: int) -> RetrievalInput:
    """An index of min-max-scaled mixtures (ramp + sine + bump + noise) and
    queries that are noisy copies of random index entries.

    Two planted cases: the last index entry is an exact copy of an earlier
    one, and query 0 equals that entry, so its nearest neighbour is a tie
    at MSE 0 that must go to the lower index position.
    """
    size = SIZES[size_name]
    rng = _rng(seed, "retrieval")
    m, q = size.index_entries, size.queries
    t = np.linspace(0.0, 1.0, TARGET_LEN)
    col = lambda a: a[:, None]  # noqa: E731
    raw = (col(rng.uniform(-1, 1, m)) * t
           + col(rng.uniform(0, 1, m)) * np.sin(2 * np.pi * col(rng.uniform(0.5, 8, m)) * t
                                                 + col(rng.uniform(0, 2 * np.pi, m)))
           + col(rng.uniform(0, 1, m)) * np.exp(-0.5 * ((t - col(rng.uniform(0.2, 0.8, m)))
                                                         / col(rng.uniform(0.05, 0.2, m))) ** 2)
           + rng.normal(0.0, 0.02, (m, TARGET_LEN)))
    lo, hi = raw.min(axis=1, keepdims=True), raw.max(axis=1, keepdims=True)
    index_values = (raw - lo) / (hi - lo)
    twin = int(rng.integers(0, m - 1))
    index_values[m - 1] = index_values[twin]
    index_sentences = [_caption(rng) for _ in range(m)]

    sources = rng.integers(0, m, q)
    sources[0] = twin
    query_values = np.clip(index_values[sources] + rng.normal(0.0, 0.05, (q, TARGET_LEN)),
                           0.0, 1.0)
    query_values[0] = index_values[twin]
    query_sentences = [_caption(rng, index_sentences[s]) for s in sources]

    index_ids = [f"train-{k:05d}" for k in range(m)]
    query_ids = [f"query-{k:05d}" for k in range(q)]
    index_captions = [" ".join(s) for s in index_sentences]
    query_captions = [" ".join(s) for s in query_sentences]
    base = input_dir(work, size_name, seed)
    index_path, queries_path = base / "index.jsonl", base / "queries.jsonl"
    if not index_path.exists():
        _write_atomic(index_path, "".join(
            _record(i, c, v) + "\n" for i, c, v in zip(index_ids, index_captions, index_values)))
    if not queries_path.exists():
        _write_atomic(queries_path, "".join(
            _record(i, c, v) + "\n" for i, c, v in zip(query_ids, query_captions, query_values)))
    return RetrievalInput(index_path, queries_path, index_ids, index_values, index_captions,
                          query_ids, query_values, query_captions)
