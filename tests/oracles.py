"""Independent reference implementations used to verify library results.

These deliberately avoid the library's own code paths: sorting plus explicit
loops for W1, Cramer's rule for least squares, position-by-position medians.
"""

import numpy as np


def w1_oracle(a, b):
    """Brute-force W1 for equal-size sample sets: mean |sorted a - sorted b|."""
    sa = sorted(float(x) for x in a)
    sb = sorted(float(x) for x in b)
    return sum(abs(x - y) for x, y in zip(sa, sb)) / len(sa)


def mean_pairwise_w1_oracle(values, k):
    """Segment into k equal slices (tail dropped), average W1 over all pairs."""
    values = [float(x) for x in values]
    m = len(values) // k
    segs = [values[i * m:(i + 1) * m] for i in range(k)]
    total = 0.0
    pairs = 0
    for i in range(k):
        for j in range(i + 1, k):
            total += w1_oracle(segs[i], segs[j])
            pairs += 1
    return total / pairs


def median_filter_oracle(values, window):
    """Per-window median with edge replication, computed position by position."""
    values = list(values)
    half = window // 2
    padded = [values[0]] * half + values + [values[-1]] * half
    out = []
    for i in range(len(values)):
        win = sorted(padded[i:i + window])
        out.append(win[window // 2])
    return out


def autocorrelation_oracle(values):
    """Normalized autocorrelation r[0..n//2], one dot product per lag."""
    x = np.asarray(values, dtype=float)
    x = x - x.mean()
    denom = float(np.dot(x, x))
    n = x.size
    return np.array([np.dot(x[:n - lag], x[lag:]) / denom for lag in range(n // 2 + 1)])


def pearson_oracle(x, y):
    """Correlation from the raw sum formula."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    n = x.size
    sx, sy = x.sum(), y.sum()
    sxy = float((x * y).sum())
    sxx = float((x * x).sum())
    syy = float((y * y).sum())
    num = n * sxy - sx * sy
    den = np.sqrt(n * sxx - sx * sx) * np.sqrt(n * syy - sy * sy)
    return num / den


def linear_fit_mse_oracle(v):
    """Degree-1 least squares by explicit normal equations (Cramer's rule)."""
    v = np.asarray(v, dtype=float)
    n = v.size
    t = np.linspace(0.0, 1.0, n)
    s0, s1, s2 = float(n), float(t.sum()), float((t * t).sum())
    r0, r1 = float(v.sum()), float((t * v).sum())
    det = s0 * s2 - s1 * s1
    c0 = (r0 * s2 - s1 * r1) / det
    c1 = (s0 * r1 - s1 * r0) / det
    resid = c0 + c1 * t - v
    return float(np.mean(resid * resid))


def quadratic_fit_mse_oracle(v):
    """Degree-2 least squares by explicit 3x3 normal equations."""
    v = np.asarray(v, dtype=float)
    n = v.size
    t = np.linspace(0.0, 1.0, n)
    s = [float(np.sum(t ** k)) for k in range(5)]
    r = [float(np.sum(v * t ** k)) for k in range(3)]
    a = [[s[0], s[1], s[2]], [s[1], s[2], s[3]], [s[2], s[3], s[4]]]

    def det3(m):
        return (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
                - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
                + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))

    d = det3(a)
    coeffs = []
    for col in range(3):
        m = [row[:] for row in a]
        for i in range(3):
            m[i][col] = r[i]
        coeffs.append(det3(m) / d)
    fit = coeffs[0] + coeffs[1] * t + coeffs[2] * t * t
    resid = fit - v
    return float(np.mean(resid * resid))


def symmetry_oracle(values, step):
    """Minimum mirror MSE over front and back edge padding of widths
    0, step, 2 step, ... up to n/2, each padded signal built and scored."""
    v = np.asarray(values, dtype=float)
    n = v.size

    def mirror_mse(padded):
        return float(np.mean((padded - padded[::-1]) ** 2))

    best = mirror_mse(v)
    for width in range(step, n // 2 + 1, step):
        front = np.concatenate([np.full(width, v[0]), v])
        back = np.concatenate([v, np.full(width, v[-1])])
        best = min(best, mirror_mse(front), mirror_mse(back))
    return best


def step_response_oracle(values, lengths):
    """Direct half-mean difference sweep over kernel lengths and positions."""
    values = np.asarray(values, dtype=float)
    n = values.size
    best = 0.0
    for length in lengths:
        half = length // 2
        for start in range(n - length + 1):
            first = values[start:start + half].mean()
            second = values[start + half:start + length].mean()
            best = max(best, abs(second - first))
    return best


def lcs_oracle(a, b):
    """LCS length by recursion with memoization."""
    memo = {}

    def go(i, j):
        if i == len(a) or j == len(b):
            return 0
        if (i, j) not in memo:
            if a[i] == b[j]:
                memo[(i, j)] = 1 + go(i + 1, j + 1)
            else:
                memo[(i, j)] = max(go(i + 1, j), go(i, j + 1))
        return memo[(i, j)]

    return go(0, 0)


def ngrams_oracle(tokens, n):
    """All n-grams by explicit slicing."""
    out = []
    for i in range(len(tokens)):
        gram = tuple(tokens[i:i + n])
        if len(gram) == n:
            out.append(gram)
    return out


def bleu_oracle(pairs, max_n):
    """Corpus BLEU from first principles: clipped counts, pooled, BP."""
    import math

    matched = [0] * max_n
    total = [0] * max_n
    cand_len = 0
    ref_len = 0
    for cand, refs in pairs:
        cand_len += len(cand)
        best = min(refs, key=lambda r: (abs(len(r) - len(cand)), len(r)))
        ref_len += len(best)
        for n in range(1, max_n + 1):
            cand_grams = ngrams_oracle(cand, n)
            total[n - 1] += len(cand_grams)
            for gram in set(cand_grams):
                max_in_refs = max(ngrams_oracle(r, n).count(gram) for r in refs)
                matched[n - 1] += min(cand_grams.count(gram), max_in_refs)
    if cand_len == 0:
        return 0.0
    logs = 0.0
    for m, t in zip(matched, total):
        if m == 0 or t == 0:
            return 0.0
        logs += math.log(m / t)
    bp = 1.0 if cand_len > ref_len else math.exp(1.0 - ref_len / cand_len)
    return bp * math.exp(logs / max_n)


def rouge_l_oracle(cand_tokens, ref_tokens, beta=1.2):
    if not cand_tokens or not ref_tokens:
        return 0.0
    lcs = lcs_oracle(cand_tokens, ref_tokens)
    if lcs == 0:
        return 0.0
    p = lcs / len(cand_tokens)
    r = lcs / len(ref_tokens)
    return (1 + beta * beta) * p * r / (r + beta * beta * p)


def nearnbr_oracle(query, matrix):
    """The exhaustive nearest-neighbour scan: (position, mse) of the first
    minimum of every row's mean squared error to the query."""
    with np.errstate(over="ignore"):
        mses = np.mean((np.asarray(matrix) - np.asarray(query, dtype=float)) ** 2, axis=1)
    best = int(np.argmin(mses))
    return best, float(mses[best])
