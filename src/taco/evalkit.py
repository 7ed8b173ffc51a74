"""Retrieval baseline and overlap-based caption metrics.

The nearest-neighbour baseline scans a training index exhaustively and
returns the caption of the entry with minimum per-point mean squared error.
BLEU (clipped n-gram precision with brevity penalty) and ROUGE-L (LCS-based
F-measure) are computed on lowercase whitespace tokens with punctuation
stripped; corpus BLEU pools counts across pairs, ROUGE-L is averaged.
"""

from __future__ import annotations

import json
import math
import string
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import AlignmentError, EmptyIndex, InvalidArgument, ParseError
from .pipeline import read_jsonl
from .signal import signal_values

#: Metric keys reserved in reports for scores computed by external tools.
EXTERNAL_METRIC_KEYS = ("meteor", "cider", "spice", "bertscore", "sentence_bert")

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, punctuation stripped."""
    return text.lower().translate(_PUNCT_TABLE).split()


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i:i + n]) for i in range(len(tokens) - n + 1))


def _clipped_matches(candidate: list[str], references: list[list[str]],
                     n: int) -> tuple[int, int]:
    """(clipped match count, candidate n-gram count) for one order."""
    cand_counts = _ngram_counts(candidate, n)
    total = sum(cand_counts.values())
    if total == 0:
        return 0, 0
    max_ref = Counter()
    for ref in references:
        for gram, count in _ngram_counts(ref, n).items():
            if count > max_ref[gram]:
                max_ref[gram] = count
    matched = sum(min(count, max_ref[gram]) for gram, count in cand_counts.items())
    return matched, total


def _closest_ref_len(cand_len: int, references: list[list[str]]) -> int:
    return min((abs(len(r) - cand_len), len(r)) for r in references)[1]


def corpus_bleu(pairs, n: int) -> float:
    """Corpus BLEU with uniform weights over orders 1..n.

    ``pairs`` is an iterable of ``(candidate_tokens, [reference_tokens, ...])``.
    N-gram matches and lengths are pooled over the corpus before the
    geometric mean and brevity penalty are applied; any order with zero
    matches drives the score to 0 (no smoothing).
    """
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
    pairs = list(pairs)
    matched = [0] * n
    totals = [0] * n
    cand_len = 0
    ref_len = 0
    for candidate, references in pairs:
        if not references:
            raise InvalidArgument("every candidate needs at least one reference")
        cand_len += len(candidate)
        ref_len += _closest_ref_len(len(candidate), references)
        for order in range(1, n + 1):
            m, t = _clipped_matches(candidate, references, order)
            matched[order - 1] += m
            totals[order - 1] += t
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matched, totals):
        if m == 0 or t == 0:
            return 0.0
        log_sum += math.log(m / t)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / n)


def bleu_n(candidate: str, references, n: int) -> float:
    """BLEU for a single candidate against its references."""
    refs = [references] if isinstance(references, str) else list(references)
    return corpus_bleu([(tokenize(candidate), [tokenize(r) for r in refs])], n)


def _lcs_length(a: list[str], b: list[str]) -> int:
    if not a or not b:
        return 0
    prev = [0] * (len(b) + 1)
    for x in a:
        curr = [0]
        for j, y in enumerate(b, start=1):
            if x == y:
                curr.append(prev[j - 1] + 1)
            else:
                curr.append(max(prev[j], curr[j - 1]))
        prev = curr
    return prev[-1]


def rouge_l(candidate: str, reference: str) -> float:
    """ROUGE-L F-measure on word tokens (recall-weighted, beta = 1.2)."""
    cand = tokenize(candidate)
    ref = tokenize(reference)
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    beta_sq = 1.2 * 1.2
    return (1.0 + beta_sq) * precision * recall / (recall + beta_sq * precision)


@dataclass(frozen=True)
class MetricReport:
    """Corpus-level metric scores plus the evaluated sample count."""

    scores: dict
    sample_count: int

    def to_json_dict(self) -> dict:
        out = {"sample_count": self.sample_count}
        out.update(self.scores)
        for key in EXTERNAL_METRIC_KEYS:
            out.setdefault(key, None)
        return out


@dataclass(frozen=True)
class TrainIndex:
    """In-memory retrieval index: one value vector and caption per entry."""

    ids: list
    matrix: np.ndarray  # shape (entries, vector_len)
    captions: list

    def __len__(self) -> int:
        return len(self.ids)


def record_values(record, path) -> np.ndarray:
    """A record's values as a non-empty 1-D finite float vector, else ParseError."""
    if record.values is None:
        raise ParseError(f"{path}: record {record.id!r} has no values")
    try:
        values = np.asarray(record.values, dtype=float)
    except (TypeError, ValueError):
        values = np.empty(0)
    if values.ndim != 1 or not values.size or not np.isfinite(values).all():
        raise ParseError(f"{path}: record {record.id!r} has null, non-finite "
                         f"or non-numeric values")
    return values


def load_index(path) -> TrainIndex:
    """Load a training JSONL file into a retrieval index.

    Every record must carry a values vector of finite numbers; all vectors
    must share one length.
    """
    records = read_jsonl(path)
    ids = [record.id for record in records]
    rows = [record_values(record, path) for record in records]
    captions = [record.caption() for record in records]
    if not rows:
        raise EmptyIndex(f"{path} contains no records")
    lengths = {row.size for row in rows}
    if len(lengths) != 1:
        raise ParseError(f"{path}: value vectors have mixed lengths {sorted(lengths)}")
    return TrainIndex(ids=ids, matrix=np.vstack(rows), captions=captions)


def nearnbr_caption(query, index: TrainIndex) -> tuple[str, str, float]:
    """Caption of the index entry nearest to the query in mean squared error.

    Exhaustive scan; ties break to the lowest index position.  The query
    must already be resampled/normalized to the index vector length.
    """
    if len(index) == 0:
        raise EmptyIndex("retrieval index is empty")
    q = signal_values(query)
    if q.size != index.matrix.shape[1]:
        raise InvalidArgument(
            f"query length {q.size} does not match index vectors "
            f"of length {index.matrix.shape[1]}")
    mses = np.mean((index.matrix - q) ** 2, axis=1)
    best = int(np.argmin(mses))
    return index.captions[best], index.ids[best], float(mses[best])


def _load_caption_map(path) -> dict:
    records = read_jsonl(path)
    return {record.id: record.caption() for record in records}


def evaluate_corpus(candidates_path, references_path) -> MetricReport:
    """Corpus BLEU_3/BLEU_4/ROUGE_L between two id-aligned JSONL files."""
    candidates = _load_caption_map(candidates_path)
    references = _load_caption_map(references_path)
    missing = sorted(set(candidates) ^ set(references))
    if missing:
        raise AlignmentError(
            f"candidate and reference ids do not align: {missing}", ids=missing)
    ordered_ids = sorted(candidates)
    pairs = [
        (tokenize(candidates[i]), [tokenize(references[i])])
        for i in ordered_ids
    ]
    rouge_scores = [rouge_l(candidates[i], references[i]) for i in ordered_ids]
    scores = {
        "bleu_3": corpus_bleu(pairs, 3),
        "bleu_4": corpus_bleu(pairs, 4),
        "rouge_l": float(np.mean(rouge_scores)) if rouge_scores else 0.0,
    }
    return MetricReport(scores=scores, sample_count=len(ordered_ids))


def report_to_json(report: MetricReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=False)
