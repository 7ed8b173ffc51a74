"""Retrieval baseline and overlap-based caption metrics.

The nearest-neighbour baseline returns the caption of the training entry
with minimum per-point mean squared error, exactly as an exhaustive scan
would: one matrix product screens a block of queries against the whole
index, and only the entries the screen cannot rule out are scored exactly.
BLEU (clipped n-gram precision with brevity penalty) and ROUGE-L (LCS-based
F-measure) are computed on lowercase whitespace tokens with punctuation
stripped; corpus BLEU pools counts across pairs, ROUGE-L is averaged.

Only the retrieval functions import numpy, so ``eval`` loads none.
"""

from __future__ import annotations

import json
import math
import string
import sys
from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, reduce
from operator import add

from .errors import AlignmentError, EmptyIndex, InvalidArgument, ParseError, TacoError
from .records import FLOATLESS_DECODER, iter_jsonl

#: Metric keys reserved in reports for scores computed by external tools.
EXTERNAL_METRIC_KEYS = ("meteor", "cider", "spice", "bertscore", "sentence_bert")

#: Queries screened by one matrix product in :func:`iter_nearnbr`.
QUERY_BLOCK = 64

_PUNCT_TABLE = str.maketrans({ch: " " for ch in string.punctuation})


def tokenize(text: str) -> list[str]:
    """Lowercase word tokens, punctuation stripped."""
    return text.lower().translate(_PUNCT_TABLE).split()


def _ngram_counts(tokens: list[str], n: int) -> Counter:
    return Counter(zip(*(tokens[k:] for k in range(n))))


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


def _pooled_counts(pairs, n: int) -> tuple:
    """``(matched, totals, candidate length, reference length)`` pooled over
    ``pairs``: clipped n-gram matches and candidate n-gram counts per order
    1..n, and the candidate and closest reference lengths."""
    if n < 1:
        raise InvalidArgument(f"n must be >= 1, got {n}")
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
    return matched, totals, cand_len, ref_len


def _bleu(counts: tuple, n: int) -> float:
    """BLEU over orders 1..n of :func:`_pooled_counts` for n or more orders."""
    matched, totals, cand_len, ref_len = counts
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matched[:n], totals[:n]):
        if m == 0 or t == 0:
            return 0.0
        log_sum += math.log(m / t)
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_sum / n)


def corpus_bleu(pairs, n: int) -> float:
    """Corpus BLEU with uniform weights over orders 1..n.

    ``pairs`` is an iterable of ``(candidate_tokens, [reference_tokens, ...])``.
    N-gram matches and lengths are pooled over the corpus before the
    geometric mean and brevity penalty are applied; any order with zero
    matches drives the score to 0 (no smoothing).
    """
    return _bleu(_pooled_counts(pairs, n), n)


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
    return _rouge_l_tokens(tokenize(candidate), tokenize(reference))


def _rouge_l_tokens(cand: list[str], ref: list[str]) -> float:
    if not cand or not ref:
        return 0.0
    lcs = _lcs_length(cand, ref)
    if lcs == 0:
        return 0.0
    precision = lcs / len(cand)
    recall = lcs / len(ref)
    beta_sq = 1.2 * 1.2
    return (1.0 + beta_sq) * precision * recall / (recall + beta_sq * precision)


def _pairwise_sum(values: list) -> float:
    """The float sum of ``values`` in the order numpy's pairwise summation
    adds a contiguous float64 array: below 8 values one running sum; up to
    128 values eight interleaved running sums, combined as a tree, then the
    rest; above that, the two halves (the first a multiple of 8 long) summed
    on their own.  Python's ``sum`` may not be used: it compensates since 3.12.
    """
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n <= 128:
        end = n - n % 8
        r = [reduce(add, values[k:end:8]) for k in range(8)]
        return reduce(add, values[end:], ((r[0] + r[1]) + (r[2] + r[3]))
                      + ((r[4] + r[5]) + (r[6] + r[7])))
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _mean(values: list) -> float:
    """``np.mean(values)`` of a list of floats, bit for bit, without numpy:
    the reduction starts from 0.0, adds the pairwise sum, and divides."""
    if not values:
        return math.nan
    return (0.0 + _pairwise_sum(values)) / len(values)


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

    @cached_property
    def row_sq(self) -> np.ndarray:
        """Each entry's squared norm, computed once per index for the screen."""
        import numpy as np

        return np.einsum("ij,ij->i", self.matrix, self.matrix)


def record_values(record, path) -> np.ndarray:
    """A record's values as a non-empty 1-D finite float vector, else ParseError."""
    import numpy as np

    if record.values is None:
        raise ParseError(f"{path}: record {record.id!r} has no values")
    try:
        values = np.asarray(record.values, dtype=float)
    except (TypeError, ValueError, OverflowError):
        values = np.empty(0)
    if values.ndim != 1 or not values.size or not np.isfinite(values).all():
        raise ParseError(f"{path}: record {record.id!r} has null, non-finite "
                         f"or non-numeric values")
    return values


def load_index(path) -> TrainIndex:
    """Load a training JSONL file into a retrieval index.

    Every record must carry a values vector of finite numbers; all vectors
    must share one length.  The rows are appended to one flat buffer as they
    are read, and the matrix is a view of it, so the index is never held twice.
    """
    import numpy as np

    ids, captions, lengths = [], [], set()
    flat = array("d")
    for record in iter_jsonl(path):
        row = record_values(record, path)
        ids.append(record.id)
        captions.append(record.caption())
        lengths.add(row.size)
        flat.frombytes(row.tobytes())
    if not ids:
        raise EmptyIndex(f"{path} contains no records")
    if len(lengths) != 1:
        raise ParseError(f"{path}: value vectors have mixed lengths {sorted(lengths)}")
    return TrainIndex(ids=ids, matrix=np.frombuffer(flat).reshape(len(ids), -1),
                      captions=captions)


def _check_width(q: np.ndarray, index: TrainIndex) -> np.ndarray:
    if q.size != index.matrix.shape[1]:
        raise InvalidArgument(
            f"query length {q.size} does not match index vectors "
            f"of length {index.matrix.shape[1]}")
    return q


# Why the screen keeps the scan's answer.  Take one index row m and one query
# q of length n, u = eps/2 the unit roundoff and g(k) = k*u/(1 - k*u).  Let
# a = |m|^2, b = |q|^2, c = m.q and D = sum((m_i - q_i)^2) = a + b - 2c in
# exact arithmetic; then D <= 2(a + b) and sum(|m_i q_i|) <= (a + b)/2.
#
# Screen.  A dot product of length n is within g(n) * sum(|x_i y_i|) of its
# exact value whatever the summation order, so for BLAS blocking, threads
# and FMA alike: |a^ - a| <= g(n) a, |b^ - b| <= g(n) b and
# |c^ - c| <= g(n)(a + b)/2.  The screen A = fl(fl(a^ + b^) - 2c^) adds one
# rounding of a^ + b^ and one of the result, at most u(a + b)(1 + g(n)) and
# u|A|, so |A - D| <= (2g(n) + 3u)(a + b)(1 + g(n)), about (2n + 3)u(a + b).
#
# Re-score.  The scan computes M = fl(S/n) with S the float sum of
# fl(fl(m_i - q_i)^2).  Every term is >= 0 and meets at most n + 2 roundings
# in any summation order, so |S - D| <= g(n + 2) D, and with the division
# |nM - D| <= g(n + 3) D <= 2g(n + 3)(a + b), about (2n + 6)u(a + b).
#
# Underflow adds at most 2^-1075 per product, square or division (a sum
# that underflows is exact), under 6n * 2^-1075 for both steps.  Together
# |A - nM| is below about (4n + 9)u(a + b) + 6n * 2^-1075.  The bound
#     B = 4(n + 2)(eps * fl(a^ + b^) + tiny),  tiny = 2^-1022,
# is about (8n + 16)u(a + b) plus 2^53 times the underflow term.  Its slack
# over the error, at least (4n + 7)u(a + b) >= 11u(a + b) while n is far
# below 2^50, covers the roundings of B itself and of A - B and A + B, each
# under 3u(a + b).
#
# So for the scan's first minimum j and any row k with finite values:
# fl(A_j - B_j) <= nM_j <= nM_k <= fl(A_k + B_k).  Row j passes the test
# "lower bound <= smallest upper bound".  numpy reduces each row of a
# C-contiguous array on its own, so the re-score of the candidate rows
# computes the scan's own M for each of them (tests/test_evalkit.py checks
# this bit for bit) and returns j: candidates after j can only tie with
# it.  Overflow: any overflow in the screen leaves A or B
# infinite or NaN, and such a row is always a candidate.  A row whose
# re-score overflows has D >= max_float (1 - g(n + 2)), so its A + B exceeds
# max_float and overflows too; it never lowers the smallest upper bound.
# So when some row has a finite M, the scan's first minimum is a candidate
# as above; when none has, the smallest upper bound is infinite and every
# row is a candidate.
_BOUND_EPS = sys.float_info.epsilon
_BOUND_TINY = sys.float_info.min


def nearest_rows(index: TrainIndex, queries: np.ndarray) -> tuple[list, list]:
    """Position and MSE of the nearest index entry for each row of the 2-D
    ``queries``: the first minimum, in index order, of
    ``np.mean((index.matrix - q) ** 2, axis=1)``, bit for bit.

    One matrix product screens every query against every entry; an entry is
    re-scored exactly only when its error bound lets it beat the best upper
    bound (see the proof above).
    """
    import numpy as np

    matrix = index.matrix
    n = matrix.shape[1]
    positions, mses = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        norms = np.einsum("ij,ij->i", queries, queries)[:, None] + index.row_sq
        approx = norms - 2.0 * (queries @ matrix.T)
        bound = 4.0 * (n + 2) * (_BOUND_EPS * norms + _BOUND_TINY)
        loose = ~(np.isfinite(approx) & np.isfinite(bound))
        best_upper = np.where(loose, np.inf, approx + bound).min(axis=1, initial=np.inf)
        candidates = loose | (approx - bound <= best_upper[:, None])
        for q, keep in zip(queries, candidates):
            rows = np.flatnonzero(keep)
            scores = np.mean((matrix[rows] - q) ** 2, axis=1)
            best = int(np.argmin(scores))
            positions.append(int(rows[best]))
            mses.append(float(scores[best]))
    return positions, mses


def nearnbr_caption(query, index: TrainIndex) -> tuple[str, str, float]:
    """Caption of the index entry nearest to the query in mean squared error.

    Exact; ties break to the lowest index position.  The query must already
    be resampled/normalized to the index vector length.
    """
    from .signal import signal_values

    if len(index) == 0:
        raise EmptyIndex("retrieval index is empty")
    q = _check_width(signal_values(query), index)
    (best,), (mse,) = nearest_rows(index, q[None, :])
    return index.captions[best], index.ids[best], mse


def iter_nearnbr(index: TrainIndex, path):
    """Yield ``(query id, caption, neighbour id, mse)`` for each record of
    the query JSONL file ``path``, in file order.

    Each query becomes a float row as it is read and its record is dropped;
    ``QUERY_BLOCK`` rows share one screen.  The first bad query in file
    order raises: one whose values are missing, non-finite or of the wrong
    length, or one whose MSE to its nearest entry overflows (ParseError).
    """
    import numpy as np

    records = iter_jsonl(path)
    block = np.empty((QUERY_BLOCK, index.matrix.shape[1]))
    while True:
        ids, error = [], None
        try:
            for record in records:
                block[len(ids)] = _check_width(record_values(record, path), index)
                ids.append(record.id)
                if len(ids) == QUERY_BLOCK:
                    break
        except TacoError as exc:
            error = exc  # raised once the queries read before it are answered
        for query_id, best, mse in zip(ids, *nearest_rows(index, block[:len(ids)])):
            if not math.isfinite(mse):
                raise ParseError(f"{path}: query {query_id!r} is too far from every "
                                 f"index entry: its mean squared error overflows")
            yield query_id, index.captions[best], index.ids[best], mse
        if error is not None:
            raise error
        if len(ids) < QUERY_BLOCK:
            return


def _load_caption_map(path) -> dict:
    """Each record's effective caption by id; no float in the file is parsed."""
    captions = {}
    for record in iter_jsonl(path, FLOATLESS_DECODER):
        if record.id in captions:
            raise ParseError(f"{path}: id {record.id!r} appears more than once")
        captions[record.id] = record.caption()
    return captions


def evaluate_corpus(candidates_path, references_path) -> MetricReport:
    """Corpus BLEU_3/BLEU_4/ROUGE_L between two id-aligned JSONL files."""
    candidates = _load_caption_map(candidates_path)
    references = _load_caption_map(references_path)
    missing = sorted(set(candidates) ^ set(references))
    if missing:
        raise AlignmentError(
            f"candidate and reference ids do not align: {missing}", ids=missing)
    # each caption is tokenized once; BLEU-3 and BLEU-4 share one count of
    # orders 1..4 and ROUGE-L reuses the tokens
    pairs = [(tokenize(candidates[i]), [tokenize(references[i])])
             for i in sorted(candidates)]
    counts = _pooled_counts(pairs, 4)
    scores = {
        "bleu_3": _bleu(counts, 3),
        "bleu_4": _bleu(counts, 4),
        "rouge_l": _mean([_rouge_l_tokens(cand, ref) for cand, (ref,) in pairs])
                   if pairs else 0.0,
    }
    return MetricReport(scores=scores, sample_count=len(pairs))


def report_to_json(report: MetricReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=False)
