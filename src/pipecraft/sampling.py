"""Representative sub-sampling via greedy embedding similarity.

The sampler shrinks a corpus while preserving its structure: samples are
picked one at a time, each time taking the one whose embedding has the
highest summed cosine similarity to everything not yet selected. Selection
runs separately on the screener-clean and screener-noisy strata so the
sample keeps the corpus's noisy fraction.

Each distinct text is embedded once and its vector shared by every sample
that carries it. Each greedy step scores all rows with one matrix-vector
product and masks the rows already taken, so nothing is copied per step.
"""
from __future__ import annotations

import math

import numpy as np

from .clients import EmbeddingClient
from .corpus import Dataset
from .screener import Screener
from .timing import NULL_TIMER, PhaseTimer


class EmbeddingError(RuntimeError):
    """Embedding failed or produced a degenerate vector; sampling aborts
    rather than proceed with a biased similarity landscape."""


def embed_all(dataset: Dataset, client: EmbeddingClient) -> np.ndarray:
    """One vector per sample, aligned by index. The client embeds each
    distinct text once, in order of first appearance. Zero-norm vectors are
    rejected because cosine similarity is undefined for them."""
    rows: dict[str, int] = {}
    row_of = [rows.setdefault(sample.combined_text, len(rows)) for sample in dataset]
    try:
        vectors = client.embed_many(list(rows))
    except Exception as exc:
        raise EmbeddingError(f"embedding client failed: {exc}") from exc
    vectors = np.asarray(vectors, dtype=np.float64)
    if len(dataset) == 0:
        return vectors.reshape(0, getattr(client, "dimension", 0) or 0)
    if vectors.ndim != 2 or vectors.shape[0] != len(rows):
        raise EmbeddingError(f"embedding shape {vectors.shape} misaligned with dataset")
    vectors = vectors[row_of]
    if not np.all(np.isfinite(vectors)):
        raise EmbeddingError("embedding produced non-finite values")
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        bad = int(np.argmax(norms == 0.0))
        raise EmbeddingError(f"zero-norm embedding for sample {dataset[bad].id!r}")
    return vectors


def greedy_select(vectors: np.ndarray | list, n: int) -> list[int]:
    """Pick ``n`` indices greedily: at each step take the not-yet-selected
    index whose summed cosine similarity to the other not-yet-selected
    vectors is largest, ties to the lowest index.

    The candidate's own self-similarity is excluded from the sum. The pool
    sum is kept incrementally; each step scores every row against it and
    masks the rows already selected, with no per-step copy.
    """
    vectors = np.asarray(vectors, dtype=np.float64)
    count = vectors.shape[0]
    if not 0 <= n <= count:
        raise ValueError(f"cannot select {n} of {count} vectors")
    if n == 0:
        return []
    norms = np.linalg.norm(vectors, axis=1)
    if np.any(norms == 0.0):
        raise EmbeddingError("zero-norm vector in greedy selection")
    unit = vectors / norms[:, None]

    self_sim = np.einsum("ij,ij->i", unit, unit)
    taken = np.zeros(count, dtype=bool)
    pool_sum = unit.sum(axis=0)
    selected: list[int] = []
    for _ in range(n):
        # Sum of cosines against the unselected pool, minus the self term.
        scores = unit @ pool_sum - self_sim
        scores[taken] = -np.inf
        # Structural ties (e.g. duplicate vectors, or the two-candidate
        # endgame) must break to the lowest index even under float noise.
        best_idx = int(np.argmax(scores >= scores.max() - 1e-9))
        selected.append(best_idx)
        taken[best_idx] = True
        pool_sum -= unit[best_idx]
    return selected


def _round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def stratum_counts(n_clean: int, n_noisy: int, rate: float) -> tuple[int, int]:
    """Per-stratum draw counts for a rate in (0, 1]: round-half-up per
    stratum, then the larger stratum (clean on a tie) absorbs the miss
    against the rounded global target.

    Neither take can exceed its stratum, and the miss is at most one either
    way. The larger stratum can always absorb it: it is full only when both
    strata are, and then the miss is not positive; it is empty only when both
    are, and then the miss is not negative.
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    take_clean = _round_half_up(rate * n_clean)
    take_noisy = _round_half_up(rate * n_noisy)
    miss = _round_half_up(rate * (n_clean + n_noisy)) - take_clean - take_noisy
    if n_clean >= n_noisy:
        return take_clean + miss, take_noisy
    return take_clean, take_noisy + miss


def stratified_sample(
    dataset: Dataset,
    rate: float,
    screener: Screener,
    embed_client: EmbeddingClient,
    timer: PhaseTimer = NULL_TIMER,
) -> Dataset:
    """Greedy-select ``rate`` of each screener stratum independently and merge
    in original dataset order, so the sample mirrors the corpus's noisy
    fraction to within rounding granularity."""
    if not 0.0 < rate <= 1.0:
        raise ValueError("rate must be in (0, 1]")
    with timer.phase("sampling"):
        if rate == 1.0 or len(dataset) == 0:
            return dataset
        with timer.phase("screening"):
            noisy_flags = [screener.classify(sample).is_noisy for sample in dataset]
        clean_indices = [i for i, flag in enumerate(noisy_flags) if not flag]
        noisy_indices = [i for i, flag in enumerate(noisy_flags) if flag]
        take_clean, take_noisy = stratum_counts(
            len(clean_indices), len(noisy_indices), rate
        )
        vectors = embed_all(dataset, embed_client)
        chosen: list[int] = []
        for indices, take in ((clean_indices, take_clean), (noisy_indices, take_noisy)):
            if not indices or take == 0:
                continue
            local = greedy_select(vectors[indices], take)
            chosen.extend(indices[pos] for pos in local)
        chosen.sort()
        return Dataset.from_samples(dataset[i] for i in chosen)
