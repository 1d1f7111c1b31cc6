"""Decoding aggregated scores into binary label vectors.

Sign decoding thresholds each score at zero with sign(0) = -1.  Known
vector decoding returns the label vector, among those observed in the
training data, that minimizes the example-wise logistic loss against the
scores; ties go to the earliest vector in training order.  Models trained
with the label-wise loss default to sign decoding, models trained with
the example-wise loss default to known-vector decoding.
"""

from __future__ import annotations

import numpy as np

from .losses import EXAMPLE_WISE_LOGISTIC

DECODE_SIGN = "sign"
DECODE_KNOWN_VECTORS = "known-vectors"
DECODE_METHODS = (DECODE_SIGN, DECODE_KNOWN_VECTORS)


def default_decode_method(loss_id: str) -> str:
    return DECODE_KNOWN_VECTORS if loss_id == EXAMPLE_WISE_LOGISTIC else DECODE_SIGN


def predict_sign(scores: np.ndarray) -> np.ndarray:
    """Element-wise sign with sign(0) = -1."""
    scores = np.asarray(scores)
    if np.isnan(scores).any():
        raise ValueError("scores contain NaN")
    return np.where(scores > 0.0, 1, -1).astype(np.int8)


def _known_vector_losses(score_matrix: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Example-wise logistic loss of every candidate, shape (n, n_candidates)."""
    z = -score_matrix[:, None, :] * candidates[None, :, :]
    shift = np.maximum(z.max(axis=2), 0.0)
    total = np.exp(-shift) + np.exp(z - shift[:, :, None]).sum(axis=2)
    return shift + np.log(total)


# Score rows are decoded in chunks of about this many (row, candidate) cells.
_CHUNK_CELLS = 1 << 22
# Rows are decided by _known_vector_losses, so that near-ties are broken
# exactly as the log-domain losses break them, where the two best
# candidates are closer than _NEAR_TIE (relative), where the best one lies
# among underflowing terms, or where max |q| is so large that the
# log-domain losses themselves round by more than _NEAR_TIE.
_NEAR_TIE = 1e-9
_UNDERFLOW = 1e-300
_LARGE_SCORE = 1e5


def _decode_chunk(scores: np.ndarray, candidates: np.ndarray, indicators: np.ndarray) -> np.ndarray:
    """Index of the loss-minimizing candidate for each row of a chunk.

    The loss of candidate y is log(1 + sum_k exp(-y_k q_k)), so the best y
    minimizes u_y = sum_k exp(-y_k q_k - s), with s the row's max |q| so
    that no term exceeds 1.  u is one matrix product of
    [exp(-q - s), exp(q - s)] with the candidates' positive and negative
    indicators.
    """
    shift = np.abs(scores).max(axis=1, keepdims=True)
    u = np.exp(np.concatenate([-scores, scores], axis=1) - shift) @ indicators.T
    best = np.argmin(u, axis=1)
    rows = np.arange(len(u))
    lowest = u[rows, best]
    u[rows, best] = np.inf
    decided = (
        (u.min(axis=1) > lowest * (1.0 + _NEAR_TIE))
        & (lowest >= _UNDERFLOW)
        & (shift[:, 0] <= _LARGE_SCORE)
    )
    redo = np.flatnonzero(~decided)
    # The log-domain form allocates n_candidates * n_labels values per row.
    step = max(1, len(scores) // max(1, scores.shape[1]))
    for start in range(0, len(redo), step):
        part = redo[start : start + step]
        best[part] = np.argmin(_known_vector_losses(scores[part], candidates), axis=1)
    return best


def predict_known_vectors(score_matrix: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Loss-minimizing known label vector per row of the score matrix.

    Ties go to the earliest candidate.  Memory grows with the chunk size
    times the number of candidates, not with the number of rows.
    """
    candidates = np.asarray(candidates)
    if candidates.ndim != 2 or candidates.shape[0] == 0:
        raise ValueError("candidate label vectors must be a non-empty matrix")
    if not np.all(np.abs(candidates) == 1):
        raise ValueError("candidate label vectors must have entries -1 or +1")
    score_matrix = np.atleast_2d(np.asarray(score_matrix, dtype=np.float64))
    if np.isnan(score_matrix).any():
        raise ValueError("scores contain NaN")
    as_float = candidates.astype(np.float64)
    indicators = np.concatenate([as_float > 0, as_float < 0], axis=1).astype(np.float64)
    chunk = max(1, _CHUNK_CELLS // len(candidates))
    best = np.empty(len(score_matrix), dtype=np.intp)
    for start in range(0, len(score_matrix), chunk):
        stop = start + chunk
        best[start:stop] = _decode_chunk(score_matrix[start:stop], as_float, indicators)
    return candidates[best].astype(np.int8)


def decode_scores(score_matrix: np.ndarray, method: str, candidates=None) -> np.ndarray:
    if method == DECODE_SIGN:
        return predict_sign(score_matrix)
    if method == DECODE_KNOWN_VECTORS:
        if candidates is None:
            raise ValueError("known-vector decoding needs candidate label vectors")
        return predict_known_vectors(score_matrix, candidates)
    raise ValueError(f"unknown decode method {method!r}; expected one of {DECODE_METHODS}")
