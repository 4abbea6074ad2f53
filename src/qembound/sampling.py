"""Deterministic block-structured Monte-Carlo sampling and log-scale aggregation.

Samples are produced in fixed-size blocks, each from its own counter-based
Philox stream keyed by (seed, stream, block index).  The draw for a given
(seed, stream) therefore does not depend on how consumers batch or thread
over blocks, which makes every estimator bit-reproducible for a fixed seed.
"""

import numpy as np

BLOCK_SIZE = 16384

_MASK64 = 0xFFFFFFFFFFFFFFFF
_MASK32 = 0xFFFFFFFF


def block_rng(seed: int, stream: int, block: int) -> np.random.Generator:
    """Independent generator for one (seed, stream, block) cell."""
    key = np.array(
        [seed & _MASK64, ((stream & _MASK32) << 32) | (block & _MASK32)],
        dtype=np.uint64,
    )
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal_blocks(seed: int, stream: int, samples: int, dim: int):
    """Yield standard-normal blocks of shape (<= BLOCK_SIZE, dim)."""
    produced = 0
    block = 0
    while produced < samples:
        take = min(BLOCK_SIZE, samples - produced)
        yield block_rng(seed, stream, block).standard_normal((take, dim))
        produced += take
        block += 1


def log_sum_exp(values):
    """ln sum exp over the last axis, shifted by the maximum so no term overflows."""
    top = np.maximum.reduce(values, axis=-1)
    return top + np.log(np.add.reduce(np.exp(values - top[..., None]), axis=-1))


def log_mean_exp_stats(log_values):
    """Mean of exp(log_values) in log scale, with its relative standard error.

    Returns (log_mean, rel_se): log_mean from the mean of exp(a - m) with
    m = max(a), and the standard error of the mean divided by the mean from
    a second pass over expm1(a - log_mean), which never overflows
    (a - log_mean <= ln n).  Where that mean exceeds 1/2 the summands spread
    little, and log_mean = m + log1p(mean(expm1(a - m))) keeps the digits
    that exp(a - m) ~ 1 rounds away (at tiny mu every one rounds to 1);
    below 1/2, mean(expm1) would cancel against -1, so its log is taken
    directly.  By the delta method rel_se is also the absolute standard
    error of log_mean.
    """
    a = np.asarray(log_values, dtype=float)
    n = a.size
    if n < 1:
        raise ValueError("need at least one sample")
    m = float(a.max())
    mean = float(np.exp(a - m).sum()) / n
    if mean > 0.5:
        log_mean = m + float(np.log1p(np.expm1(a - m).mean()))
    else:
        log_mean = m + float(np.log(mean))
    if n < 2:
        return log_mean, 0.0
    dev = np.expm1(a - log_mean)
    return log_mean, float(np.sqrt(dev @ dev / (n * (n - 1))))


def top_weight_fraction(log_values, top_frac=0.001):
    """Fraction of the total exp-sum carried by the largest top_frac share."""
    a = np.sort(np.asarray(log_values, dtype=float))
    k = max(1, int(a.size * top_frac))
    m = a[-1]
    shifted = np.exp(a - m)
    return float(shifted[-k:].sum() / shifted.sum())
