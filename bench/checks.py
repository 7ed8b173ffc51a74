"""Output checks, computed apart from taco.

Each check returns a :class:`Verdict`: the failed operations (windows,
records or queries) and how often each kind of failure occurred.  The
reference computations here are written from the documented method,
not by calling the program: resampling is ``np.interp`` on the unit grid,
the trend is a Pearson correlation, the line fit is the closed-form least
squares solution, and BLEU/ROUGE-L follow the definitions in the README.
The one thing taken from taco is its default threshold table, whose rules
the classes are then re-derived from.
"""

from __future__ import annotations

import hashlib
import json
import math
import string
from collections import Counter
from pathlib import Path

import numpy as np

from inputs import TARGET_LEN, BackwardInput, RetrievalInput

TOL = 1e-12

#: Class pairs of which at most one may be assigned.
EXCLUSIVE_PAIRS = (
    ("Rising", "Falling"), ("Convex", "Concave"), ("Linear", "Nonlinear"),
    ("Simple", "Complex"), ("Periodic", "Aperiodic"), ("Symmetry", "Asymmetry"),
    ("Step", "NoStep"), ("HighAmplitude", "LowAmplitude"),
)

#: Classes a Constant assignment suppresses (a flat signal trivially fits a
#: line but is never called rising, curved, nonlinear or periodic).
CONSTANT_SUPPRESSES = {"Rising", "Falling", "Convex", "Concave", "Nonlinear", "Periodic"}

#: Scores of a constant window: fits and tilings are bypassed, the
#: periodicity gap is the no-period sentinel (``null`` on disk), all else 0.
DEGENERATE_SCORES = {
    "trend": 0.0, "constancy": 0.0, "curvature": 0.0, "curvature_sign": 0,
    "linearity_mse": 0.0, "smooth_mse": 0.0, "noise_mse": 0.0, "complexity": 0.0,
    "spike_pos": 0.0, "spike_neg": 0.0, "periodicity_gap": None,
    "symmetry_err": 0.0, "step_response": 0.0, "amplitude_var": 0.0,
}


def digest(paths) -> str:
    """One hash over the bytes of several files (a missing file hashes too)."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.exists() else b"<missing>")
    return h.hexdigest()


def read_jsonl(path: Path) -> list:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


class Verdict:
    """Failed-operation ids and a count per failure reason."""

    def __init__(self):
        self.failed = set()
        self.reasons = Counter()

    def fail(self, op, reason: str) -> None:
        self.failed.add(op)
        self.reasons[reason] += 1

    def summary(self) -> str:
        return "; ".join(f"{reason} (x{n})" for reason, n in self.reasons.items())


# --------------------------------------------------------------- backward


def expected_values(raw: np.ndarray) -> np.ndarray:
    """Linear resampling to TARGET_LEN points, then min-max scaling."""
    v = np.interp(np.linspace(0.0, 1.0, TARGET_LEN), np.linspace(0.0, 1.0, raw.size), raw)
    lo, hi = v.min(), v.max()
    return np.zeros_like(v) if hi == lo else (v - lo) / (hi - lo)


def pearson_and_line_mse(v: np.ndarray) -> tuple[float, float]:
    t = np.linspace(0.0, 1.0, v.size)
    dt, dv = t - t.mean(), v - v.mean()
    sxy, sxx, syy = float(dt @ dv), float(dt @ dt), float(dv @ dv)
    r = min(1.0, max(-1.0, sxy / math.sqrt(sxx * syy)))
    slope = sxy / sxx
    resid = v - (v.mean() + slope * dt)
    return r, float(np.mean(resid * resid))


def expected_classes(scores: dict, rules: dict) -> list:
    """Apply every ``{score, direction, cutoff}`` rule, in table order."""
    values = dict(scores)
    if values["periodicity_gap"] is None:  # the no-period sentinel, +inf
        values["periodicity_gap"] = math.inf
    values["curvature_signed"] = values["curvature_sign"] * values["curvature"]
    fired = [name for name, rule in rules.items()
             if (values[rule["score"]] > rule["cutoff"] if rule["direction"] == "greater"
                 else values[rule["score"]] < rule["cutoff"])]
    if "Constant" in fired:
        fired = [name for name in fired if name not in CONSTANT_SUPPRESSES]
    return fired


def check_backward(data: BackwardInput, out: Path, skip_log: Path, rules: dict) -> Verdict:
    verdict = Verdict()
    tags = data.tags()
    records = read_jsonl(out)
    skips = read_jsonl(skip_log) if skip_log.exists() else []
    skipped = [entry["source"] for entry in skips]
    if len(records) + len(skips) != len(tags):
        for tag in tags:
            verdict.fail(tag, f"{len(records)} records + {len(skips)} skips != {len(tags)} windows")
        return verdict
    for tag in set(skipped) ^ data.nan_windows:
        verdict.fail(tag, "skipped windows differ from the planted nan windows")
    kept = [tag for tag in tags if tag not in data.nan_windows]
    if [r["id"] for r in records] != kept:
        for tag in tags:
            verdict.fail(tag, "record ids are not the kept windows in file/column/window order")
        return verdict
    for rec in records:
        tag = rec["id"]
        values = np.asarray(rec["values"], dtype=float)
        want = expected_values(data.window(tag))
        if values.shape != want.shape or np.max(np.abs(values - want)) > TOL:
            verdict.fail(tag, "values differ from np.interp resampling + min-max scaling")
            continue
        classes = rec["classes"]
        if classes != expected_classes(rec["scores"], rules):
            verdict.fail(tag, "classes differ from the default rules applied to the scores")
        if any(a in classes and b in classes for a, b in EXCLUSIVE_PAIRS):
            verdict.fail(tag, "an exclusive class pair fired together")
        if tag in data.constant_windows:
            if "Constant" not in classes or rec["scores"] != DEGENERATE_SCORES:
                verdict.fail(tag, "constant window lacks Constant or the degenerate scores")
            continue
        trend, line_mse = pearson_and_line_mse(values)
        if (abs(rec["scores"]["trend"] - trend) > TOL
                or abs(rec["scores"]["linearity_mse"] - line_mse) > TOL):
            verdict.fail(tag, "trend or linearity_mse differ from Pearson / line fit")
    return verdict


# ---------------------------------------------------------------- forward


def check_forward(out: Path, count: int, length: int) -> Verdict:
    verdict = Verdict()
    records = read_jsonl(out)
    if len(records) != count:
        for k in range(count):
            verdict.fail(k, f"{len(records)} records written, {count} asked for")
        return verdict
    line = np.linspace(0.0, 1.0, length)
    for k, rec in enumerate(records):
        if rec["id"] != f"synth-{k:06d}":
            verdict.fail(k, "ids are not sequential")
            continue
        v = np.asarray(rec["values"], dtype=float)
        if v.size != length:
            verdict.fail(k, "values have the wrong length")
            continue
        spans_unit = v.min() == 0.0 and v.max() == 1.0
        flat = rec["classes"][0] == "Constant" and not v.any()
        if not (spans_unit or flat):
            verdict.fail(k, "values neither span [0, 1] nor are a flat Constant")
        reference = {"LinearIncrease": line, "LinearDecrease": line[::-1]}
        if len(rec["classes"]) == 1 and rec["classes"][0] in reference:
            if np.max(np.abs(v - reference[rec["classes"][0]])) > TOL:
                verdict.fail(k, "an un-overlaid linear shape is not linspace(0, 1, n)")
    return verdict


# -------------------------------------------------------------- retrieval

_PUNCT = str.maketrans({ch: " " for ch in string.punctuation})


def tokens(text: str) -> list:
    return text.lower().translate(_PUNCT).split()


def _ngrams(toks: list, n: int) -> Counter:
    return Counter(tuple(toks[i:i + n]) for i in range(len(toks) - n + 1))


def corpus_bleu(pairs: list, n: int) -> float:
    """Corpus BLEU over (candidate, reference) token lists: pooled clipped
    n-gram precisions for orders 1..n, uniform geometric mean, brevity
    penalty on pooled lengths, no smoothing."""
    matched, total = [0] * n, [0] * n
    cand_len = sum(len(c) for c, _ in pairs)
    ref_len = sum(len(r) for _, r in pairs)
    for cand, ref in pairs:
        for order in range(1, n + 1):
            c, r = _ngrams(cand, order), _ngrams(ref, order)
            matched[order - 1] += sum(min(k, r[g]) for g, k in c.items())
            total[order - 1] += sum(c.values())
    if cand_len == 0 or 0 in matched or 0 in total:
        return 0.0
    log_p = sum(math.log(m / t) for m, t in zip(matched, total)) / n
    brevity = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return brevity * math.exp(log_p)


def rouge_l(cand: list, ref: list, beta: float = 1.2) -> float:
    """LCS-based F-measure, recall-weighted by beta."""
    if not cand or not ref:
        return 0.0
    table = [[0] * (len(ref) + 1) for _ in range(len(cand) + 1)]
    for i, a in enumerate(cand, 1):
        for j, b in enumerate(ref, 1):
            table[i][j] = (table[i - 1][j - 1] + 1 if a == b
                           else max(table[i - 1][j], table[i][j - 1]))
    lcs = table[-1][-1]
    if lcs == 0:
        return 0.0
    p, r = lcs / len(cand), lcs / len(ref)
    return (1 + beta * beta) * p * r / (r + beta * beta * p)


def check_retrieval(data: RetrievalInput, predictions: Path, report: Path) -> Verdict:
    verdict = Verdict()
    rows = read_jsonl(predictions)
    if [row["id"] for row in rows] != data.query_ids:
        for qid in data.query_ids:
            verdict.fail(qid, "prediction ids are not the query ids in order")
        return verdict
    candidates = {}
    for qid, query, row in zip(data.query_ids, data.query_values, rows):
        mses = [float(np.mean((entry - query) ** 2)) for entry in data.index_values]
        best = min(range(len(mses)), key=lambda k: (mses[k], k))
        candidates[qid] = data.index_captions[best]
        if row["neighbor_id"] != data.index_ids[best]:
            verdict.fail(qid, "neighbour differs from the brute-force scan")
        elif abs(row["mse"] - mses[best]) > TOL:
            verdict.fail(qid, "neighbour MSE differs from the brute-force scan")
        elif row["caption_base"] != candidates[qid]:
            verdict.fail(qid, "caption is not the neighbour's caption")
    metrics = json.loads(report.read_text(encoding="utf-8"))
    references = dict(zip(data.query_ids, data.query_captions))
    ordered = sorted(references)
    pairs = [(tokens(candidates[q]), tokens(references[q])) for q in ordered]
    want = {
        "sample_count": len(ordered),
        "bleu_3": corpus_bleu(pairs, 3),
        "bleu_4": corpus_bleu(pairs, 4),
        "rouge_l": sum(rouge_l(c, r) for c, r in pairs) / len(pairs),
    }
    for key, value in want.items():
        if not isinstance(metrics.get(key), (int, float)) or abs(metrics[key] - value) > TOL:
            for qid in data.query_ids:
                verdict.fail(qid, f"eval {key} {metrics.get(key)} != {value}")
    return verdict

