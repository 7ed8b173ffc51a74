"""Retrieval baseline and caption metrics against independent oracles."""

import math
import random
import string
import struct

import numpy as np
import pytest

from taco.errors import AlignmentError, EmptyIndex, InvalidArgument, ParseError
from taco.evalkit import (
    EXTERNAL_METRIC_KEYS,
    QUERY_BLOCK,
    TrainIndex,
    _mean,
    bleu_n,
    corpus_bleu,
    evaluate_corpus,
    iter_nearnbr,
    load_index,
    nearest_rows,
    nearnbr_caption,
    rouge_l,
    tokenize,
)
from taco.records import DatasetRecord, write_jsonl

from oracles import bleu_oracle, lcs_oracle, nearnbr_oracle, rouge_l_oracle

#: Ten caption pairs with frozen oracle scores (computed by the brute-force
#: implementations in oracles.py).
TEN_PAIRS = [
    ("The signal has a rising trend. The signal has a smooth shape.",
     "The signal has a rising trend. The signal has a simple shape."),
    ("The signal has a falling trend.",
     "The signal has a falling trend. The signal has a low amplitude."),
    ("The signal stays almost constant. The signal has a low amplitude.",
     "The signal stays almost constant."),
    ("The signal shows periodic behavior. The signal has a high amplitude.",
     "The signal shows periodic behavior. The signal has a high amplitude."),
    ("The signal contains sudden spikes in value.",
     "The signal contains sudden drops in value."),
    ("The signal follows a linear trend.",
     "The signal follows a nonlinear trend. The signal shows complex behavior."),
    ("The signal is symmetric about its center.",
     "The signal is asymmetric about its center."),
    ("The signal contains a lot of noise. The signal shows complex behavior.",
     "The signal contains a lot of noise."),
    ("The signal has no salient characteristics.",
     "The signal contains step-like level changes."),
    ("The signal has a concave shape.",
     "The signal has a concave shape. The signal shows no clear periodicity."),
]
TEN_PAIR_BLEU_3 = 0.6325494947417868
TEN_PAIR_BLEU_4 = 0.594667416166049
TEN_PAIR_ROUGE_L = 0.7194655380355354


def random_sentence(rng, max_words=12):
    words = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(1, 6)))
             for _ in range(rng.randint(0, max_words))]
    return " ".join(words)


# ---------------------------------------------------------------------------
# tokenization
# ---------------------------------------------------------------------------

def test_tokenize_lowercases_and_strips_punctuation():
    assert tokenize("The signal, has a RISING trend!") == \
        ["the", "signal", "has", "a", "rising", "trend"]


# ---------------------------------------------------------------------------
# BLEU
# ---------------------------------------------------------------------------

def test_bleu_perfect_match():
    text = "the signal has a rising trend"
    assert bleu_n(text, [text], 3) == 1.0
    assert bleu_n(text, [text], 4) == 1.0


def test_bleu_empty_candidate():
    assert bleu_n("", ["the signal"], 3) == 0.0


def test_bleu_hand_computed_example():
    # all 1/2/3-grams match; brevity penalty e^(1 - 7/6)
    got = bleu_n("the signal has a rising trend",
                 ["the signal has a rising trend overall"], 3)
    assert got == pytest.approx(math.exp(-1.0 / 6.0), abs=1e-12)
    assert got == pytest.approx(0.846481724890614, abs=1e-12)


def test_bleu_matches_oracle_random():
    rng = random.Random(71)
    for _ in range(200):
        cand = random_sentence(rng)
        refs = [random_sentence(rng) for _ in range(rng.randint(1, 3))]
        pairs = [(tokenize(cand), [tokenize(r) for r in refs])]
        for n in (3, 4):
            assert corpus_bleu(pairs, n) == pytest.approx(
                bleu_oracle(pairs, n), abs=1e-12)


def test_bleu_invalid_order():
    with pytest.raises(InvalidArgument):
        bleu_n("a", ["a"], 0)


# ---------------------------------------------------------------------------
# ROUGE-L
# ---------------------------------------------------------------------------

def test_rouge_identical():
    assert rouge_l("the signal rises", "the signal rises") == 1.0


def test_rouge_disjoint():
    assert rouge_l("alpha beta", "gamma delta") == 0.0


def test_rouge_lcs_example():
    # LCS("a b c d", "a c d e") = "a c d", P = R = 3/4 so F = 3/4
    assert rouge_l("a b c d", "a c d e") == pytest.approx(0.75, abs=1e-12)


def test_rouge_matches_oracle_random():
    rng = random.Random(72)
    for _ in range(200):
        a, b = random_sentence(rng), random_sentence(rng)
        ta, tb = tokenize(a), tokenize(b)
        assert rouge_l(a, b) == pytest.approx(rouge_l_oracle(ta, tb), abs=1e-12)
        if ta and tb:
            assert lcs_oracle(ta, tb) == lcs_oracle(tb, ta)


def test_metric_fuzz_bounds():
    rng = random.Random(73)
    for _ in range(1000):
        cand, ref = random_sentence(rng), random_sentence(rng)
        for value in (bleu_n(cand, [ref], 3), bleu_n(cand, [ref], 4),
                      rouge_l(cand, ref)):
            assert 0.0 <= value <= 1.0


# ---------------------------------------------------------------------------
# NearNBR
# ---------------------------------------------------------------------------

def make_index(vectors, captions=None):
    ids = [f"train-{i}" for i in range(len(vectors))]
    captions = captions or [f"caption {i}" for i in range(len(vectors))]
    return TrainIndex(ids=ids, matrix=np.asarray(vectors, dtype=float),
                      captions=captions)


def test_nearnbr_exact_match():
    rng = np.random.default_rng(74)
    vectors = rng.uniform(size=(10, 64))
    index = make_index(vectors)
    caption, neighbor, mse = nearnbr_caption(vectors[3], index)
    assert (caption, neighbor, mse) == ("caption 3", "train-3", 0.0)


def test_nearnbr_two_constants():
    index = make_index([np.zeros(32), np.ones(32)], ["flat zero", "flat one"])
    caption, neighbor, mse = nearnbr_caption(np.full(32, 0.1), index)
    assert caption == "flat zero" and neighbor == "train-0"
    assert mse == pytest.approx(0.01)


def test_nearnbr_ties_break_to_lowest_position():
    index = make_index([np.zeros(16), np.zeros(16), np.ones(16)])
    _, neighbor, _ = nearnbr_caption(np.zeros(16), index)
    assert neighbor == "train-0"


def test_nearnbr_matches_reference_scan():
    rng = np.random.default_rng(75)
    vectors = rng.uniform(size=(50, 128))
    index = make_index(vectors)
    for _ in range(30):
        q = rng.uniform(size=128)
        _, neighbor, mse = nearnbr_caption(q, index)
        best_id, best_mse = None, math.inf
        for i in range(len(vectors)):
            m = float(np.mean((vectors[i] - q) ** 2))
            if m < best_mse:
                best_id, best_mse = f"train-{i}", m
        assert neighbor == best_id
        assert mse <= best_mse + 1e-15


def test_nearnbr_result_not_worse_than_any_entry():
    rng = np.random.default_rng(76)
    vectors = rng.uniform(size=(20, 32))
    index = make_index(vectors)
    q = rng.uniform(size=32)
    _, _, mse = nearnbr_caption(q, index)
    for row in vectors:
        assert mse <= float(np.mean((row - q) ** 2)) + 1e-15


def test_nearnbr_empty_index():
    index = TrainIndex(ids=[], matrix=np.zeros((0, 8)), captions=[])
    with pytest.raises(EmptyIndex):
        nearnbr_caption(np.zeros(8), index)


def test_nearnbr_length_mismatch():
    index = make_index([np.zeros(16)])
    with pytest.raises(InvalidArgument):
        nearnbr_caption(np.zeros(8), index)


def assert_matches_oracle(vectors, queries):
    index = make_index(vectors)
    queries = np.asarray(queries, dtype=float)
    positions, mses = nearest_rows(index, queries)
    expected = [nearnbr_oracle(q, index.matrix) for q in queries]
    assert list(zip(positions, mses)) == expected
    for q, (position, mse) in zip(queries, expected):
        caption, neighbor, one_mse = nearnbr_caption(q, index)
        assert (caption, neighbor, one_mse) == (f"caption {position}",
                                                 f"train-{position}", mse)


def test_nearest_rows_ties_go_to_lowest_position():
    rng = np.random.default_rng(77)
    base = rng.uniform(size=(6, 64))
    vectors = np.vstack([base, base[::-1], base])  # every row appears 3 times
    assert_matches_oracle(vectors, np.vstack([base, base + 1e-3]))


def test_nearest_rows_rows_one_ulp_apart():
    rng = np.random.default_rng(78)
    row = rng.uniform(-1.0, 1.0, size=128)
    vectors = [row, np.nextafter(row, np.inf), np.nextafter(row, -np.inf), row]
    for k in (0, 5, 127):
        bumped = row.copy()
        bumped[k] = np.nextafter(bumped[k], np.inf)
        vectors.append(bumped)
    queries = [row, np.nextafter(row, np.inf), vectors[-1], row + 1e-12]
    assert_matches_oracle(vectors, queries)


def test_nearest_rows_constant_and_zero_rows():
    levels = [0.0, 0.0, 0.25, -0.25, 1.0, 0.25, 0.0]
    vectors = [np.full(48, level) for level in levels]
    queries = [np.full(48, level) for level in (0.0, 0.125, 0.25, -1.0, 0.6)]
    queries.append(np.linspace(-1.0, 1.0, 48))
    assert_matches_oracle(vectors, queries)


@pytest.mark.parametrize("scale", [1e-170, 1e-160, 1e-158, 1e-150, 1e-20, 1.0, 1e20,
                                   1e150, 1e155, 1e200])
def test_nearest_rows_across_magnitudes(scale):
    # from values whose squares underflow to values that overflow the screen
    rng = np.random.default_rng(79)
    vectors = rng.uniform(-1.0, 1.0, size=(40, 96)) * scale
    vectors[7] = vectors[3]
    queries = np.vstack([rng.uniform(-1.0, 1.0, size=(5, 96)) * scale, vectors[3],
                         vectors[:4] * 1.0000001])
    assert_matches_oracle(vectors, queries)


@pytest.mark.parametrize("scale", [1e-161, 1e-160, 1e-158])
def test_nearest_rows_mses_that_underflow(scale):
    # rows near the query at a scale where squares are subnormal: several
    # MSEs round to 0.0 and the first of them must win
    rng = np.random.default_rng(84)
    q = rng.uniform(-1.0, 1.0, 150) * scale
    spread = scale * 10.0 ** rng.uniform(-3.0, 0.0, (40, 1))
    assert_matches_oracle(q + rng.normal(0.0, 1.0, (40, 150)) * spread, [q])


def test_nearest_rows_mixed_magnitudes():
    # rows a screen overflows on sit beside ordinary ones
    rng = np.random.default_rng(80)
    scales = 10.0 ** rng.integers(-150, 200, size=60)
    vectors = rng.uniform(-1.0, 1.0, size=(60, 32)) * scales[:, None]
    queries = np.vstack([vectors[::7] * 0.999, rng.uniform(-1.0, 1.0, size=(4, 32))])
    assert_matches_oracle(vectors, queries)


def test_nearest_rows_every_mse_overflows():
    # the scan's first minimum is then row 0, with an infinite mse
    vectors = np.full((3, 16), 1e200)
    vectors[1] = 2e200
    assert nearnbr_oracle(np.full(16, -1e200), vectors) == (0, math.inf)
    assert_matches_oracle(vectors, [np.full(16, -1e200), np.full(16, -3e200)])


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 127, 128, 129, 1000, 2048, 2049])
def test_nearest_rows_vector_lengths(n):
    rng = np.random.default_rng(81 + n)
    vectors = rng.uniform(size=(30, n))
    vectors[11] = vectors[4]
    queries = np.vstack([rng.uniform(size=(6, n)), vectors[4],
                         vectors[20] + rng.normal(0.0, 1e-9, n)])
    assert_matches_oracle(vectors, queries)


@pytest.mark.parametrize("count", [1, QUERY_BLOCK - 1, QUERY_BLOCK, QUERY_BLOCK + 1])
def test_nearest_rows_query_counts(count):
    # noisy copies of index rows, as the retrieval benchmark draws them
    rng = np.random.default_rng(82)
    vectors = rng.uniform(size=(80, 256))
    queries = vectors[rng.integers(0, 80, count)] + rng.normal(0.0, 0.05, (count, 256))
    assert_matches_oracle(vectors, queries)


@pytest.mark.parametrize("count", [1, QUERY_BLOCK - 1, QUERY_BLOCK, QUERY_BLOCK + 1])
def test_iter_nearnbr_answers_every_query_in_order(count, tmp_path):
    rng = np.random.default_rng(83)
    vectors = rng.uniform(size=(20, 32))
    queries = rng.uniform(size=(count, 32))
    path = tmp_path / "q.jsonl"
    write_jsonl([{"id": f"q{i}", "caption_base": "", "values": q.tolist()}
                 for i, q in enumerate(queries)], path)
    index = make_index(vectors)
    expected = [(f"q{i}", *nearnbr_caption(q, index)) for i, q in enumerate(queries)]
    assert list(iter_nearnbr(index, path)) == expected


def test_load_index_from_jsonl(tmp_path):
    records = [
        DatasetRecord(id=f"r{i}", source="synth", classes=[], scores={},
                      caption_base=f"caption {i}", values=list(np.full(16, float(i))))
        for i in range(3)
    ]
    path = tmp_path / "train.jsonl"
    write_jsonl(records, path)
    index = load_index(path)
    assert len(index) == 3
    caption, neighbor, _ = nearnbr_caption(np.full(16, 1.9), index)
    assert neighbor == "r2" and caption == "caption 2"


def test_load_index_matrix_is_the_rows_stacked(tmp_path):
    rng = np.random.default_rng(5)
    rows = (rng.normal(size=(7, 33)) * 10.0 ** rng.integers(-300, 300, size=(7, 1))).tolist()
    rows[3] = list(range(33))  # JSON integers become floats
    path = tmp_path / "train.jsonl"
    write_jsonl([{"id": f"r{i}", "caption_base": f"c{i}", "values": row}
                 for i, row in enumerate(rows)], path)
    index = load_index(path)
    assert index.matrix.dtype == np.float64 and index.matrix.flags.c_contiguous
    expected = np.vstack([np.asarray(row, dtype=float) for row in rows])
    assert index.matrix.shape == expected.shape
    assert index.matrix.tobytes() == expected.tobytes()
    assert index.ids == [f"r{i}" for i in range(7)]
    assert index.captions == [f"c{i}" for i in range(7)]


def test_load_index_mixed_lengths_lists_every_length_sorted(tmp_path):
    path = tmp_path / "train.jsonl"
    write_jsonl([{"id": f"r{i}", "values": [0.5] * n}
                 for i, n in enumerate([16, 4, 16, 9, 4, 2])], path)
    with pytest.raises(ParseError, match=r"mixed lengths \[2, 4, 9, 16\]$"):
        load_index(path)


def test_load_index_names_the_first_bad_record_in_file_order(tmp_path):
    # rows of two lengths come first: the bad record is named, not the lengths
    path = tmp_path / "train.jsonl"
    write_jsonl([{"id": "r0", "values": [0.5] * 4}, {"id": "r1", "values": [0.5] * 6},
                 {"id": "r2", "values": [0.5, "x"]}, {"id": "r3", "values": None}], path)
    with pytest.raises(ParseError, match="record 'r2' has null, non-finite or non-numeric"):
        load_index(path)


def test_load_index_empty_file(tmp_path):
    path = tmp_path / "train.jsonl"
    path.write_text("")
    with pytest.raises(EmptyIndex, match="contains no records"):
        load_index(path)


# ---------------------------------------------------------------------------
# evaluate_corpus
# ---------------------------------------------------------------------------

def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


@pytest.mark.parametrize("kind", ["unit", "mixed"])
def test_mean_equals_numpy_bit_for_bit(kind):
    rng = random.Random(11)

    def draw():
        if kind == "unit":  # ROUGE-L scores lie in [0, 1]
            return rng.choice([0.0, 1.0, rng.random()])
        return rng.choice([0.0, -0.0, 1.0, -1.0]) * rng.random() * 10.0 ** rng.randint(-300, 300)

    with pytest.warns(RuntimeWarning):
        assert math.isnan(np.mean([])) and math.isnan(_mean([]))
    for n in range(1, 1001):
        values = [draw() for _ in range(n)]
        assert _bits(_mean(values)) == _bits(float(np.mean(values))), n
        if n in (1, 8, 200):  # numpy's sum starts from +0.0, so it is never -0.0
            assert _bits(_mean([-0.0] * n)) == _bits(float(np.mean([-0.0] * n))), n


def _one_pass_corpora():
    rng = random.Random(4)
    words = ["the", "signal", "rises", "falls", "then", "stays", "flat", "a"]
    random_pairs = []
    for _ in range(80):
        cand = [rng.choice(words) for _ in range(rng.randint(0, 12))]
        ref = [rng.choice(words) if rng.random() < 0.3 else w for w in cand]
        random_pairs.append((" ".join(cand), " ".join(ref[:rng.randint(0, 12)])))
    random_pairs += [("", "the signal rises"), ("the signal rises", ""), ("", ""), ("...", "a")]
    return {
        "random": random_pairs,
        # unigram to trigram matches, no 4-gram match: BLEU-4 is 0, BLEU-3 is not
        "no-4-gram-match": [("a b c x", "a b c y"), ("d e f", "d e f g")],
        "no-match": [("a b", "c d"), ("e", "f")],
        "empty-candidates": [("", "the signal rises"), ("!", "a b")],
    }


@pytest.mark.parametrize("corpus", ["random", "no-4-gram-match", "no-match", "empty-candidates"])
def test_evaluate_corpus_equals_the_separate_metrics(corpus, tmp_path):
    pairs = _one_pass_corpora()[corpus]
    ids = [f"id{i:03d}" for i in range(len(pairs))]
    c = tmp_path / "c.jsonl"
    r = tmp_path / "r.jsonl"
    write_caption_file(c, [(i, cand) for i, (cand, _) in zip(ids, pairs)])
    write_caption_file(r, [(i, ref) for i, (_, ref) in zip(ids, pairs)])
    tokens = [(tokenize(cand), [tokenize(ref)]) for cand, ref in pairs]
    expected = {
        "bleu_3": corpus_bleu(tokens, 3),
        "bleu_4": corpus_bleu(tokens, 4),
        "rouge_l": float(np.mean([rouge_l(cand, ref) for cand, ref in pairs])),
    }
    assert evaluate_corpus(c, r).scores == expected
    if corpus == "random":
        assert 0.0 < expected["bleu_4"] < expected["bleu_3"] < 1.0
    elif corpus == "no-4-gram-match":
        assert expected["bleu_4"] == 0.0 < expected["bleu_3"]
    else:
        assert expected == {"bleu_3": 0.0, "bleu_4": 0.0, "rouge_l": 0.0}

def write_caption_file(path, items):
    rows = [{"id": i, "caption_base": text} for i, text in items]
    write_jsonl(rows, path)


def test_evaluate_identical_corpora(tmp_path):
    items = [(f"id{i}", text) for i, (text, _) in enumerate(TEN_PAIRS)]
    c = tmp_path / "c.jsonl"
    r = tmp_path / "r.jsonl"
    write_caption_file(c, items)
    write_caption_file(r, items)
    report = evaluate_corpus(c, r)
    assert report.scores == {"bleu_3": 1.0, "bleu_4": 1.0, "rouge_l": 1.0}
    assert report.sample_count == len(items)


def test_evaluate_alignment_error(tmp_path):
    c = tmp_path / "c.jsonl"
    r = tmp_path / "r.jsonl"
    write_caption_file(c, [("a", "x y"), ("b", "x y")])
    write_caption_file(r, [("a", "x y"), ("zzz", "x y")])
    with pytest.raises(AlignmentError, match="zzz") as err:
        evaluate_corpus(c, r)
    assert set(err.value.ids) == {"b", "zzz"}


def test_evaluate_ten_pair_fixture(tmp_path):
    c = tmp_path / "c.jsonl"
    r = tmp_path / "r.jsonl"
    write_caption_file(c, [(f"id{i}", cand) for i, (cand, _) in enumerate(TEN_PAIRS)])
    write_caption_file(r, [(f"id{i}", ref) for i, (_, ref) in enumerate(TEN_PAIRS)])
    report = evaluate_corpus(c, r)
    assert report.scores["bleu_3"] == pytest.approx(TEN_PAIR_BLEU_3, abs=1e-9)
    assert report.scores["bleu_4"] == pytest.approx(TEN_PAIR_BLEU_4, abs=1e-9)
    assert report.scores["rouge_l"] == pytest.approx(TEN_PAIR_ROUGE_L, abs=1e-9)


def test_report_reserves_external_metric_keys(tmp_path):
    c = tmp_path / "c.jsonl"
    write_caption_file(c, [("a", "x")])
    report = evaluate_corpus(c, c)
    data = report.to_json_dict()
    for key in EXTERNAL_METRIC_KEYS:
        assert key in data and data[key] is None
