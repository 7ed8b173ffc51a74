"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one ``ACCEPTANCE <criterion>: PASS|FAIL`` line (visible with
``pytest -s tests/test_acceptance.py``).
"""

import csv
import functools
import hashlib
import math
import random
import string
import time

import numpy as np
import pytest

from taco.annotator import TimeSeriesClass, annotate
from taco.detectors import (
    DetectorParams,
    score_amplitude,
    score_complexity,
    score_constancy,
    score_step,
)
from taco.evalkit import TrainIndex, bleu_n, evaluate_corpus, nearnbr_caption, rouge_l
from taco.pipeline import IngestSpec, build_dataset
from taco.records import write_jsonl
from taco.signal import Series, minmax_normalize, polyfit
from taco.synth import SynthSpec, generate

from oracles import (
    linear_fit_mse_oracle,
    mean_pairwise_w1_oracle,
    quadratic_fit_mse_oracle,
)
from test_evalkit import (
    TEN_PAIRS,
    TEN_PAIR_BLEU_3,
    TEN_PAIR_BLEU_4,
    TEN_PAIR_ROUGE_L,
    write_caption_file,
)

PARAMS = DetectorParams()


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {name}: FAIL")
                raise
            print(f"\nACCEPTANCE {name}: PASS")
        return wrapper
    return decorate


# ---------------------------------------------------------------------------
# 1. forward <-> backward consistency
# ---------------------------------------------------------------------------

def _mapping_instance(mapping: str, rng: np.random.Generator, seed: int) -> SynthSpec:
    """One clean seeded instance of a forward->backward mapping."""
    if mapping == "LinearIncrease":
        return SynthSpec("LinearIncrease", seed=seed)
    if mapping == "LinearDecrease":
        return SynthSpec("LinearDecrease", seed=seed)
    if mapping == "Constant":
        return SynthSpec("Constant", seed=seed)
    if mapping == "Sinusoidal":
        return SynthSpec("Sinusoidal", {
            "periods": int(rng.integers(3, 9)),
            "phase": float(rng.uniform(0.0, 2.0 * np.pi)),
        }, seed=seed)
    if mapping == "Convex":
        return SynthSpec("Convex", {"center": float(rng.uniform(0.3, 0.7))}, seed=seed)
    if mapping == "Concave":
        return SynthSpec("Concave", {"center": float(rng.uniform(0.3, 0.7))}, seed=seed)
    if mapping == "Gaussian":
        return SynthSpec("Gaussian", {
            "center": 0.5,
            "width": float(rng.uniform(0.05, 0.3)),
        }, seed=seed)
    if mapping == "Noisy":
        return SynthSpec("Constant", overlays={
            "Noisy": {"magnitude": float(rng.uniform(0.2, 0.5))},
        }, seed=seed)
    if mapping == "PosSpiky":
        return SynthSpec("Constant", overlays={
            "PosSpiky": {"amplitude": float(rng.uniform(0.3, 0.8)),
                         "count": int(rng.integers(1, 6))},
        }, seed=seed)
    if mapping == "Steppy":
        return SynthSpec("LinearIncrease", overlays={
            "Steppy": {"count": int(rng.integers(1, 3))},
        }, seed=seed)
    raise AssertionError(mapping)


FORWARD_BACKWARD_MAPPINGS = {
    "LinearIncrease": {TimeSeriesClass.RISING, TimeSeriesClass.LINEAR},
    "LinearDecrease": {TimeSeriesClass.FALLING},
    "Constant": {TimeSeriesClass.CONSTANT},
    "Sinusoidal": {TimeSeriesClass.PERIODIC},
    "Convex": {TimeSeriesClass.CONVEX},
    "Concave": {TimeSeriesClass.CONCAVE},
    "Gaussian": {TimeSeriesClass.SYMMETRY},
    "Noisy": {TimeSeriesClass.NOISY},
    "PosSpiky": {TimeSeriesClass.SPIKY},
    "Steppy": {TimeSeriesClass.STEP},
}


@criterion("forward-backward consistency (>=90/100 per mapping, <60s)")
def test_forward_backward_consistency():
    started = time.monotonic()
    rates = {}
    for mapping_index, (mapping, expected) in enumerate(
            sorted(FORWARD_BACKWARD_MAPPINGS.items())):
        rng = np.random.default_rng(1000 + mapping_index)
        hits = 0
        for i in range(100):
            spec = _mapping_instance(mapping, rng, seed=i)
            record = generate(spec)
            classes = annotate(Series(values=record.values), PARAMS).classes
            hits += expected <= classes
        rates[mapping] = hits
    elapsed = time.monotonic() - started
    for mapping, hits in sorted(rates.items()):
        print(f"  {mapping:16s} {hits}/100")
    assert all(hits >= 90 for hits in rates.values()), rates
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. detector oracle suite
# ---------------------------------------------------------------------------

@criterion("detector oracle suite (W1 to 1e-10, polyfit to 1e-9)")
def test_detector_oracle_suite():
    rng = np.random.default_rng(2000)
    for _ in range(1000):
        n = int(rng.integers(16, 65))
        s = minmax_normalize(rng.uniform(size=n))
        k = PARAMS.effective_segments(n)
        assert score_constancy(s, PARAMS) == pytest.approx(
            mean_pairwise_w1_oracle(s.values, k), abs=1e-10)
        d = np.diff(s.values)
        kd = PARAMS.effective_segments(d.size)
        assert score_complexity(s, PARAMS) == pytest.approx(
            mean_pairwise_w1_oracle(d, kd), abs=1e-10)
        _, mse1 = polyfit(s, 1)
        _, mse2 = polyfit(s, 2)
        assert mse1 == pytest.approx(linear_fit_mse_oracle(s.values), abs=1e-9)
        assert mse2 == pytest.approx(quadratic_fit_mse_oracle(s.values), abs=1e-9)


# ---------------------------------------------------------------------------
# 3. analytic fixtures
# ---------------------------------------------------------------------------

@criterion("analytic fixtures (step 1.0, ramp 0.25, square 0.25, halves 0.5)")
def test_analytic_fixtures():
    heaviside = np.zeros(2048)
    heaviside[1024:] = 1.0
    assert score_step(minmax_normalize(heaviside), PARAMS) == \
        pytest.approx(1.0, abs=1e-9)

    ramp = minmax_normalize(np.linspace(0.0, 1.0, 2049))
    assert score_step(ramp, PARAMS) == pytest.approx(0.25, abs=1e-6)

    square = np.tile([0.0, 0.0, 1.0, 1.0], 512)
    assert score_amplitude(minmax_normalize(square), PARAMS) == \
        pytest.approx(0.25, abs=1e-9)

    assert score_constancy(ramp, DetectorParams(k_segments=2)) == \
        pytest.approx(0.5, abs=1e-6)


# ---------------------------------------------------------------------------
# 4. invariance suite
# ---------------------------------------------------------------------------

def _random_signal(rng: np.random.Generator) -> np.ndarray:
    kind = rng.integers(0, 3)
    n = 512
    t = np.linspace(0.0, 1.0, n)
    if kind == 0:
        return rng.normal(size=n)
    if kind == 1:
        return np.cumsum(rng.normal(size=n))
    return (np.sin(2 * np.pi * rng.integers(1, 6) * t)
            + rng.uniform(0.0, 0.3) * rng.normal(size=n))


@criterion("invariance suite (affine class equality, reversal duality)")
def test_invariance_suite():
    rng = np.random.default_rng(4000)
    for _ in range(200):
        v = _random_signal(rng)
        base = annotate(Series(values=v), PARAMS).classes
        # scales from 1e-3 to 100, log-uniform, then the smallest with an offset;
        # class sets only: a last-bit change can move a near-tie score
        maps = [(float(10.0 ** rng.uniform(-3.0, 2.0)), float(rng.uniform(-50.0, 50.0)))
                for _ in range(5)] + [(1e-3, -5.0)]
        for a, b in maps:
            mapped = annotate(Series(values=a * v + b), PARAMS).classes
            assert mapped == base, (a, b)

    t = np.linspace(0.0, 1.0, 512)
    for trial in range(200):
        slope = 1.0 if trial % 2 == 0 else -1.0
        v = slope * t + 0.05 * rng.uniform(-1.0, 1.0, 512)
        fwd = annotate(Series(values=v), PARAMS).classes
        bwd = annotate(Series(values=v[::-1]), PARAMS).classes
        if TimeSeriesClass.RISING in fwd:
            assert TimeSeriesClass.FALLING in bwd
        if TimeSeriesClass.FALLING in fwd:
            assert TimeSeriesClass.RISING in bwd
        assert (TimeSeriesClass.RISING in fwd) or (TimeSeriesClass.FALLING in fwd)


# ---------------------------------------------------------------------------
# 5. metric suite
# ---------------------------------------------------------------------------

@criterion("metric suite (perfect=1.0, fixture to 1e-9, 10k fuzz in [0,1])")
def test_metric_suite(tmp_path):
    text = "The signal has a rising trend. The signal has a smooth shape."
    assert bleu_n(text, [text], 3) == 1.0
    assert bleu_n(text, [text], 4) == 1.0
    assert rouge_l(text, text) == 1.0

    c = tmp_path / "c.jsonl"
    r = tmp_path / "r.jsonl"
    write_caption_file(c, [(f"id{i}", cand) for i, (cand, _) in enumerate(TEN_PAIRS)])
    write_caption_file(r, [(f"id{i}", ref) for i, (_, ref) in enumerate(TEN_PAIRS)])
    report = evaluate_corpus(c, r)
    assert report.scores["bleu_3"] == pytest.approx(TEN_PAIR_BLEU_3, abs=1e-9)
    assert report.scores["bleu_4"] == pytest.approx(TEN_PAIR_BLEU_4, abs=1e-9)
    assert report.scores["rouge_l"] == pytest.approx(TEN_PAIR_ROUGE_L, abs=1e-9)

    rng = random.Random(5000)
    for _ in range(10000):
        n_words = rng.randint(0, 10)
        cand = " ".join("".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 5)))
                        for _ in range(n_words))
        ref = " ".join("".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 5)))
                       for _ in range(rng.randint(0, 10)))
        for value in (bleu_n(cand, [ref], 3), bleu_n(cand, [ref], 4),
                      rouge_l(cand, ref)):
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# 6. NearNBR oracle equivalence
# ---------------------------------------------------------------------------

@criterion("nearnbr oracle equivalence (100 queries x 1000 entries)")
def test_nearnbr_oracle_equivalence():
    rng = np.random.default_rng(6000)
    vectors = rng.uniform(size=(1000, 2048))
    index = TrainIndex(
        ids=[f"train-{i}" for i in range(1000)],
        matrix=vectors,
        captions=[f"caption {i}" for i in range(1000)],
    )
    for _ in range(100):
        q = rng.uniform(size=2048)
        _, neighbor, _ = nearnbr_caption(q, index)
        best_id, best_mse = None, math.inf
        for i in range(1000):
            mse = float(np.mean((vectors[i] - q) ** 2))
            if mse < best_mse:
                best_id, best_mse = f"train-{i}", mse
        assert neighbor == best_id


# ---------------------------------------------------------------------------
# 7. pipeline determinism
# ---------------------------------------------------------------------------

@criterion("pipeline determinism (byte-identical JSONL across runs and jobs)")
def test_pipeline_determinism(tmp_path):
    path = tmp_path / "mix.csv"
    rng = np.random.default_rng(7000)
    t = np.linspace(0.0, 1.0, 900)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["ramp", "wave", "noise"])
        wave = np.sin(2 * np.pi * 12 * t)
        noise = rng.normal(size=900)
        for i in range(900):
            writer.writerow([t[i], wave[i], noise[i]])

    hashes = []
    for run, jobs in enumerate((1, 1, 2)):
        records, skips = build_dataset(IngestSpec(inputs=(path,)), jobs=jobs)
        assert skips == []
        out = tmp_path / f"run{run}.jsonl"
        write_jsonl(records, out)
        hashes.append(hashlib.sha256(out.read_bytes()).hexdigest())
    assert hashes[0] == hashes[1] == hashes[2]


# ---------------------------------------------------------------------------
# 8. end-to-end caption check
# ---------------------------------------------------------------------------

@criterion("end-to-end ramp caption contains the rising-trend sentence")
def test_end_to_end_ramp_caption(tmp_path):
    path = tmp_path / "ramp.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["v"])
        for x in np.linspace(3.0, 17.5, 300):
            writer.writerow([x])
    records, skips = build_dataset(IngestSpec(inputs=(path,)))
    assert skips == [] and len(records) == 1
    assert "The signal has a rising trend." in records[0].caption_base
