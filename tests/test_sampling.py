"""The draw contract of the block sampler: pieces of one Philox stream per
block, which concatenate to the block's one-call draw, and estimators that
read the same numbers as whole blocks would give them."""

import math

import numpy as np
import pytest

from conftest import random_admissible_state, random_ccr
from qembound import (
    ClassicalGaussian,
    MixtureMgf,
    classical_qem_mc,
    empirical_tail,
    qem_randomized_mc,
    randomized_identity_check,
    symplectic_eigenbasis,
)
from qembound import classical, qem
from qembound.sampling import BLOCK_SIZE, PIECE_VALUES, block_rng, standard_normal_blocks

SEED = 11
SAMPLE_COUNTS = [1, BLOCK_SIZE, BLOCK_SIZE + 1, 2 * BLOCK_SIZE + 3]


@pytest.mark.parametrize("samples", SAMPLE_COUNTS)
@pytest.mark.parametrize("dim", [2, 32, 200])
@pytest.mark.parametrize("stream", [0, 1])
def test_pieces_concatenate_to_each_blocks_draw(dim, samples, stream):
    # Each piece is compared with its slice of the block's one-call draw,
    # and the slices tile the block: the same as comparing the pieces'
    # concatenation, without holding it.
    pieces = standard_normal_blocks(SEED, stream, samples, dim)
    for block, start in enumerate(range(0, samples, BLOCK_SIZE)):
        take = min(BLOCK_SIZE, samples - start)
        whole = block_rng(SEED, stream, block).standard_normal((take, dim))
        done = 0
        while done < take:
            piece = next(pieces)
            assert piece.shape[1] == dim and piece.shape[0] <= take - done
            assert piece.size <= PIECE_VALUES
            assert np.array_equal(piece, whole[done:done + piece.shape[0]])
            done += piece.shape[0]
    assert next(pieces, None) is None


def test_pieces_wider_than_the_limit_are_single_rows():
    dim = PIECE_VALUES + 5
    pieces = list(standard_normal_blocks(SEED, 0, 3, dim))
    assert [piece.shape for piece in pieces] == [(1, dim)] * 3
    assert np.array_equal(np.concatenate(pieces), block_rng(SEED, 0, 0).standard_normal((3, dim)))


def test_piece_size_is_256_kb():
    assert PIECE_VALUES * np.dtype(float).itemsize == 256 * 1024
    assert [p.shape for p in standard_normal_blocks(SEED, 0, BLOCK_SIZE + 1, 32)] == (
        [(1024, 32)] * (BLOCK_SIZE // 1024) + [(1, 32)])


def _whole_blocks(seed, stream, samples, dim):
    """Each block in one draw, straight from block_rng."""
    for block, start in enumerate(range(0, samples, BLOCK_SIZE)):
        take = min(BLOCK_SIZE, samples - start)
        yield block_rng(seed, stream, block).standard_normal((take, dim))


def _close(value, reference):
    # 1e-12 relative on the log scale; a BLAS with another kernel for short
    # panels may round a piece's products differently from a whole block's.
    return math.isclose(value, reference, rel_tol=1e-12, abs_tol=1e-300)


def test_estimators_match_whole_blocks(monkeypatch):
    samples = BLOCK_SIZE + 1
    rng = np.random.default_rng(32)
    ccr, _ = random_ccr(rng, 16)
    state = MixtureMgf(weights=(0.1, 0.2, 0.3, 0.4), components=tuple(
        random_admissible_state(rng, ccr, mean_scale=0.3, cov_scale=0.1) for _ in range(4)))
    basis = symplectic_eigenbasis(ccr)
    w = rng.normal(scale=0.1, size=(32, 32))
    gaussian = ClassicalGaussian(mean=rng.normal(scale=0.3, size=32),
                                 cov=w @ w.T + 0.5 * np.eye(32))

    def estimates():
        mc = qem_randomized_mc(state, basis, 0.02, samples, 5)
        check = randomized_identity_check(gaussian, 0.05, samples, 5)
        return [mc.log_qem, mc.rel_std_error,
                *classical_qem_mc(gaussian, 0.05, samples, 5),
                check.log_lhs, check.log_rhs, check.combined_se,
                *empirical_tail(gaussian, 8.0, samples, 5)]

    pieces = estimates()
    monkeypatch.setattr(qem, "standard_normal_blocks", _whole_blocks)
    monkeypatch.setattr(classical, "standard_normal_blocks", _whole_blocks)
    whole = estimates()
    assert 0.0 < whole[-2] < 1.0
    for value, reference in zip(pieces, whole):
        assert _close(value, reference), (value, reference)
