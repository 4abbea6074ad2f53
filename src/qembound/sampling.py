"""Deterministic block-structured Monte-Carlo sampling and log-scale aggregation.

Samples are produced in fixed-size blocks, each from its own counter-based
Philox stream keyed by (seed, stream, block index).  The draw for a given
(seed, stream) therefore does not depend on how consumers batch or thread
over blocks, which makes every estimator bit-reproducible for a fixed seed.
"""

import math
import operator

import numpy as np

BLOCK_SIZE = 16384

_MASK32 = 0xFFFFFFFF


def _integer_in(value, name, lo, hi=math.inf) -> int:
    """value as an int; ValueError unless it is an integer (not a bool) in [lo, hi)."""
    try:
        number = None if isinstance(value, (bool, np.bool_)) else operator.index(value)
    except TypeError:
        number = None
    if number is None or not lo <= number < hi:
        raise ValueError(f"{name} must be an integer in [{lo}, {hi}), got {value!r}")
    return number


def check_seed(seed) -> int:
    """The seed as an int; a seed is never masked, so none aliases another."""
    return _integer_in(seed, "seed", 0, 2**64)


def check_samples(samples, least: int) -> int:
    """The sample count as an int; ValueError unless it is an integer >= least."""
    return _integer_in(samples, "samples", least)


def block_rng(seed: int, stream: int, block: int) -> "np.random.Generator":
    """Independent generator for one (seed, stream, block) cell."""
    key = np.array([seed, ((stream & _MASK32) << 32) | (block & _MASK32)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal_blocks(seed: int, stream: int, samples: int, dim: int):
    """Iterator over standard-normal blocks of shape (<= BLOCK_SIZE, dim);
    the seed and sample count are checked at the call, before any draw."""
    seed = check_seed(seed)
    samples = check_samples(samples, 0)

    def blocks():
        for block, start in enumerate(range(0, samples, BLOCK_SIZE)):
            take = min(BLOCK_SIZE, samples - start)
            yield block_rng(seed, stream, block).standard_normal((take, dim))

    return blocks()


def log_sum_exp(values):
    """ln sum exp over the first axis, shifted by the maximum so no term overflows.

    A (K, m) array of K stacked terms per column gives m results; a 1-D
    array gives one.
    """
    top = np.maximum.reduce(values, axis=0)
    return top + np.log(np.add.reduce(np.exp(values - top), axis=0))


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
    error of log_mean.  Every sum is a numpy reduction, not a BLAS dot,
    whose summation order would change with the BLAS thread count.
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
    # Deviations near 1e-150 (at tiny mu) would square to below the normal
    # range, so they are scaled by a power of two near the largest, which is
    # exact, and the error scaled back.
    dev = np.expm1(a - log_mean)
    scale = math.frexp(float(np.abs(dev).max()))[1]
    dev = np.ldexp(dev, -scale)
    return log_mean, math.ldexp(float(np.sqrt(np.add.reduce(dev * dev) / (n * (n - 1)))), scale)


def top_weight_fraction(log_values, top_frac=0.001):
    """Fraction of the total exp-sum carried by the largest top_frac share."""
    a = np.sort(np.asarray(log_values, dtype=float))
    k = max(1, int(a.size * top_frac))
    m = a[-1]
    shifted = np.exp(a - m)
    return float(shifted[-k:].sum() / shifted.sum())
